"""Hypergeometric enumeration and Fisher's exact test for 2x2 tables.

With all marginals fixed, n11 determines the whole table, so the exact test
reduces to enumerating the hypergeometric distribution of n11 over its
feasible range. Probabilities are carried in log space: the log-pmf is built
by the exact ratio recurrence outward from the mode and then normalized with
a log-sum-exp, so no factorial ever overflows and extreme tails never
underflow, even at sample sizes of 10^9.

Fisher's test enumerates only a window around the mode, O(sigma) terms
instead of O(support). Every range takes its step ratios from one function,
`_log_steps`, anchored where the full enumeration anchors them, and runs
them outward from the mode, so each term inside the window is the same float
as in the full enumeration. Every sum is the correctly rounded `math.fsum` of
the whole support's terms, so the p-values are bit-identical to full
enumeration. fsum is fed only a sum's core, the terms within 2**-80 of its
largest. One bound covers the rest, including (support points past each
window edge) x (edge term), and equal rounded sums with and without it show
that the rest cannot change the result.

So a window reaches only CORE_NATS plus the log of the support size below
the smallest term its sums lean on: the mode's, and the observed n11's on
both sides of the mode. WINDOW_NATS caps the depth: past it every term is
0.0 and the bound is exactly zero, and a window or a sum that a shallower
window cannot certify is taken again on that exhaustive window.

A support of fewer than CORE_MIN_TERMS points is enumerated whole, with no
window and no lgamma call. `_fisher_batch` scores many marginals at once and
is the one place that chooses how each is enumerated: the small supports in
one 2D numpy pass per width bucket, which takes every row's steps from
`_log_steps` as `_enumerate` does, so its p-values are the same bits; a
larger one in one window as deep as its deepest n11.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMarginalsError
from .tables import ContingencyTable2x2

# Relative slack when deciding whether pmf(k) <= pmf(observed) in the
# two-sided tally; keeps exactly-tied mirror tables in deterministically.
TWO_SIDED_TIE_REL_TOL = 1e-7

# The deepest a Fisher window reaches: its edges lie where the log-pmf is
# this far below the peak, or at the ends of the support. exp() underflows to
# 0.0 below about -745, so every term outside this exhaustive window adds
# exactly nothing to any sum.
WINDOW_NATS = 800.0

# A window sum feeds fsum only its core, from the first to the last term at
# least this fraction of the largest. The rest enter as one bound on their
# total, under 2 * count * 2**-80 of the sum, or 2**-26 * count of its ulp;
# only when the core's sum lies that close below a rounding boundary is the
# whole window summed, or a window with terms beyond it deepened.
CORE_REL = 2.0**-80
# A shorter window is summed whole: fsum spends about 50 ns a term on it,
# less than the numpy calls that find a core (about 4 us).
CORE_MIN_TERMS = 128
# A window reaches this far, plus the log of the support size, below the
# smallest term its sums lean on: then (points beyond an edge) x (edge term)
# is under one core floor.
CORE_NATS = -math.log(CORE_REL)
# Edges aim this much deeper than the check on the enumerated terms asks:
# they are placed on a log-pmf ratio accurate to a few hundredths of a nat.
SEED_NATS = 1.0
# From here up, lgamma(y) - lgamma(x) is taken from Stirling's series: an
# ulp of lgamma(2**40) is already 0.004 nats, and of lgamma(10**20) 5e5.
STIRLING_MIN = 2**40
# The most terms numpy can hold in one float64 array; a longer window is
# refused like any other too large to allocate.
_MAX_TERMS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# The most cells of each array one pass of `_fisher_batch` holds, so that its
# memory stays bounded however many marginals it scores.
_BATCH_CELLS = 2**16


@dataclass(frozen=True)
class HypergeomDist:
    """Distribution of n11 over all 2x2 tables with the given fixed marginals.

    `support_lo..support_hi` is the enumerated range. From
    `hypergeom_distribution` it is the full support; the window Fisher's
    test enumerates may be narrower, leaving out `beyond_lo` support points
    below it and `beyond_hi` above. No term left out is larger than the
    term at the nearer edge, and all are 0.0 when that edge term is.
    """

    n_total: int
    row1_total: int
    col1_total: int
    support_lo: int
    support_hi: int
    log_pmf: np.ndarray  # indexed by n11 - support_lo
    beyond_lo: int = 0
    beyond_hi: int = 0

    @property
    def support(self) -> range:
        return range(self.support_lo, self.support_hi + 1)

    def pmf_at(self, n11: int) -> float:
        if not self.support_lo <= n11 <= self.support_hi:
            return 0.0
        return math.exp(self.log_pmf[n11 - self.support_lo])

    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)


@dataclass(frozen=True)
class FisherResult:
    """Left-, right-, and two-sided exact p-values plus the observed table's probability."""

    left_p: float
    right_p: float
    two_sided_p: float
    point_p: float


def _support(n_total: int, row1_total: int, col1_total: int) -> tuple[int, int]:
    if n_total < 1:
        raise InfeasibleMarginalsError(f"sample size must be >= 1, got {n_total}")
    if not 0 <= row1_total <= n_total or not 0 <= col1_total <= n_total:
        raise InfeasibleMarginalsError(
            f"infeasible marginals: row1={row1_total}, col1={col1_total}, total={n_total}"
        )
    return max(0, row1_total + col1_total - n_total), min(row1_total, col1_total)


def _mode(n_total: int, row1_total: int, col1_total: int) -> int:
    # floor((row1+1)(col1+1)/(n+2)) always lies in the support.
    return (row1_total + 1) * (col1_total + 1) // (n_total + 2)


def _step_consts(n_total: int, row1_total: int, col1_total: int, base: int) -> tuple[float, ...]:
    """The four factors of pmf(k+1)/pmf(k) at k = base, each rounded once
    from a Python int to float64: `_log_steps` offsets them by j."""
    return tuple(map(float, (row1_total - base, col1_total - base, base + 1,
                             n_total - row1_total - col1_total + base + 1)))


def _log_steps(c: Sequence[float] | np.ndarray, j: np.ndarray) -> np.ndarray:
    """log pmf(k+1)/pmf(k) at k = base + j, from c = `_step_consts` at
    base: floats, or arrays of them that broadcast against j, one row per
    marginal. `_enumerate` and `_batch_pass` both take their steps from
    here, so they are the same floats.

    The ratio is (row1-k)(col1-k) / ((k+1)(N-row1-col1+k+1)), its log
    accurate to a few ulps per step. Each factor is a constant at base plus
    or minus the offset j, an exact float, so no difference of two large
    floats loses the factor past 2**53.
    """
    return np.log(c[0] - j) + np.log(c[1] - j) - np.log(c[2] + j) - np.log(c[3] + j)


def _enumerate(n_total: int, row1_total: int, col1_total: int, lo: int, hi: int,
               beyond_lo: int = 0, beyond_hi: int = 0) -> HypergeomDist | None:
    """Normalized log-pmf of n11 over [lo, hi], a range that holds the mode
    and leaves out `beyond_lo` and `beyond_hi` support points below and above
    it, or None when the terms left out make the normaliser uncertain.

    The recurrence and its running sums start at the mode whatever the range,
    so a term has the same value in every range that holds it, as long as
    the normaliser, the sum over the whole support, is the same.
    """
    size = hi - lo + 1
    if size > _MAX_TERMS:
        raise MemoryError(f"cannot enumerate a window of {size} terms")

    # Every range anchors its steps where the full enumeration does, at the
    # support's low end, so a term has the same bits in every range; an
    # anchor at most 2**52 below the mode keeps each offset an exact float.
    mi = _mode(n_total, row1_total, col1_total) - lo
    base = max(lo - beyond_lo, lo + mi - 2**52)
    log_ratio = _log_steps(_step_consts(n_total, row1_total, col1_total, base),
                           np.arange(lo - base, hi - base, dtype=np.float64))
    unnorm = np.empty(size)
    unnorm[mi] = 0.0
    if mi < size - 1:
        unnorm[mi + 1 :] = np.cumsum(log_ratio[mi:])
    if mi > 0:
        unnorm[:mi] = -np.cumsum(log_ratio[:mi][::-1])[::-1]

    # Normalize so the pmf sums to 1 to machine precision regardless of any
    # drift in the base point; lgamma accuracy never enters the pmf.
    peak = unnorm.max()
    terms = np.exp(unnorm - peak)
    below, above = _bounds_beyond(beyond_lo, beyond_hi, terms)
    total = _fsum_window(terms, mi, below + above)
    if total is None:
        return None
    log_norm = peak + math.log(total)
    return HypergeomDist(n_total, row1_total, col1_total, lo, hi, unnorm - log_norm,
                         beyond_lo, beyond_hi)


def _bounds_beyond(beyond_lo: int, beyond_hi: int, terms: np.ndarray) -> tuple[float, float]:
    """Bounds on the total of the terms left out below and above a window,
    given its `terms`: (points left out) x (edge term). Past an edge the
    step ratio's running log-sum only falls away from the mode, so no term
    there is larger than the edge's.
    """
    return (beyond_lo * float(terms[0]) if beyond_lo else 0.0,
            beyond_hi * float(terms[-1]) if beyond_hi else 0.0)


def _fsum_outward(terms: list[float], mi: int) -> float:
    """math.fsum of `terms`, fed from index `mi` outward.

    From the mode outward each side is a falling run, so this feeds the
    largest terms first. fsum is correctly rounded, so the order changes its
    speed, never its result. It stays slow on a window's far tails all the
    same: each term below an ulp of the running sum leaves a partial of its
    own, and every later term passes through all of them.
    """
    return math.fsum(terms[mi:] + terms[:mi][::-1])


def _whole_fisher(pmf: list[float], log_pmf: list[float], mi: int, idx: int) -> FisherResult:
    """Fisher's test at index `idx` of a window that leaves nothing out, from
    its terms as lists, with the mode at index `mi`. Each sum is fsum's of
    the terms it covers, so it is correctly rounded.
    """
    cutoff = log_pmf[idx] + math.log1p(TWO_SIDED_TIE_REL_TOL)
    return FisherResult(
        left_p=min(1.0, _fsum_outward(pmf[: idx + 1], min(mi, idx))),
        right_p=min(1.0, _fsum_outward(pmf[idx:], max(0, mi - idx))),
        two_sided_p=min(1.0, math.fsum([p for p, q in zip(pmf, log_pmf) if q <= cutoff])),
        point_p=pmf[idx])


def _fsum_window(terms: np.ndarray, mi: int, beyond: float = 0.0) -> float | None:
    """The correctly rounded sum of the nonnegative `terms` and of further
    terms that total at most `beyond`, to the bit, without feeding fsum the
    terms far below the largest; None when that sum is not certain.

    The core runs from the first term >= floor = CORE_REL * max to the last;
    a window under CORE_MIN_TERMS is all core. Every other term is below
    floor, so the exact total of all terms outside the core is below
    count * floor + beyond, and so below the float rest =
    2 * (count * floor + beyond), however that rounds. Correct rounding is
    monotone, so fsum(core) <= the whole sum <= fsum(core + [rest]), and when
    the two ends are equal they are the sum. Otherwise, with nothing beyond,
    the whole window is summed, as `_fsum_outward(terms.tolist(), mi)`; with
    terms beyond, the sum is not certain, and the caller deepens its window.
    """
    size = len(terms)
    a, b, floor = 0, size, 0.0
    if size >= CORE_MIN_TERMS:
        floor = CORE_REL * float(terms.max())
        above = terms >= floor
        a, b = int(above.argmax()), size - int(above[::-1].argmax())
    core = terms[a:b].tolist()
    m = min(max(mi, a), b - 1) - a
    fed = core[m:] + core[:m][::-1]
    total = math.fsum(fed)
    rest = 2.0 * ((size - (b - a)) * floor + beyond)
    if rest:
        fed.append(rest)
        if math.fsum(fed) != total:
            return None if beyond else _fsum_outward(terms.tolist(), mi)
    return total


def _log_gamma_ratio(x: int, y: int) -> float:
    """lgamma(y) - lgamma(x) for integers x, y >= 1, within 0.01 nats
    however large they are, or within 1e-15 of it where one lies below
    STIRLING_MIN and the other far above.

    Where both are at least STIRLING_MIN, Stirling's series gives it as
    (x - 1/2) log1p((y - x) / x) + (y - x)(log y - 1), leaving out terms
    below 1 / (12 STIRLING_MIN); the exact integer y - x keeps it accurate
    where lgamma's own rounding would swamp it.
    """
    if min(x, y) < STIRLING_MIN:
        return math.lgamma(y) - math.lgamma(x)
    d = y - x
    return (x - 0.5) * math.log1p(d / x) + d * (math.log(y) - 1.0)


def _fisher_distribution(n_total: int, row1_total: int, col1_total: int,
                         n11s: tuple[int, ...] | None = None) -> HypergeomDist:
    """The log-pmf over a window deep enough for the sums at each of `n11s`;
    with no n11s, the exhaustive window outside which every term is 0.0.

    Depth: the largest term each sum adds is the mode's for the normaliser
    and n11's for its tails and, on the far side of the mode, for the
    two-sided sum. Each edge lies CORE_NATS + log(support size) below the
    smallest of those, so (points beyond) x (edge term) stays under one core
    floor of every sum (see `_fsum_window`). The depth is capped at
    WINDOW_NATS, and a support whose both ends lie within WINDOW_NATS is
    enumerated whole, as with no n11s. So is a support of fewer than
    CORE_MIN_TERMS points, before any lgamma call: no window would save its
    cost.

    Each edge starts at the first n11 that deep, or at the end of the
    support, placed by `bisect_left` between the mode and that end on the
    log-pmf ratio to the mode, concave in n11, aimed SEED_NATS deeper. The
    window is then checked on the enumerated terms: a running sum only falls
    away from the mode, so once an edge is deep enough, so is every term
    beyond it. A window that fails the check, leaves out an n11 or cannot
    certify its normaliser gives way to the exhaustive window, and an
    exhaustive window that fails it to the whole support, which leaves
    nothing out. Each bisection spans at most _MAX_TERMS points from the
    mode, so a support wider than a C ssize_t still gets its window, and a
    window that needs more is refused by `_enumerate`.
    """
    lo, hi = _support(n_total, row1_total, col1_total)
    if hi - lo + 1 < CORE_MIN_TERMS:
        return _enumerate(n_total, row1_total, col1_total, lo, hi)
    mode = _mode(n_total, row1_total, col1_total)
    n22_base = n_total - row1_total - col1_total

    def log_sum(k: int) -> float:
        return (math.lgamma(k + 1) + math.lgamma(row1_total - k + 1)
                + math.lgamma(col1_total - k + 1) + math.lgamma(n22_base + k + 1))

    at_mode = log_sum(mode)

    def log_rel(k: int) -> float:
        # log(pmf(k) / pmf(mode)); past STIRLING_MIN, lgamma's own rounding
        # would swamp a difference of two log_sum values.
        if n_total < STIRLING_MIN:
            return at_mode - log_sum(k)
        return -(_log_gamma_ratio(mode + 1, k + 1)
                 + _log_gamma_ratio(row1_total - mode + 1, row1_total - k + 1)
                 + _log_gamma_ratio(col1_total - mode + 1, col1_total - k + 1)
                 + _log_gamma_ratio(n22_base + mode + 1, n22_base + k + 1))

    rel_lo, rel_hi = log_rel(lo), log_rel(hi)
    depth = CORE_NATS + math.log(hi - lo + 1)
    nats = WINDOW_NATS
    if n11s is not None and min(rel_lo, rel_hi) < -WINDOW_NATS:
        nats = min(WINDOW_NATS, depth + SEED_NATS - min(0.0, *map(log_rel, n11s)))
    left, right = range(lo, mode)[-_MAX_TERMS:], range(mode, hi)[:_MAX_TERMS]
    a = lo if rel_lo >= -nats else (
        left.start - 1 + bisect_left(left, True, key=lambda k: log_rel(k) >= -nats))
    b = hi if rel_hi >= -nats else (
        mode + bisect_left(right, True, key=lambda k: log_rel(k) < -nats))
    dist = _enumerate(n_total, row1_total, col1_total, a, b, a - lo, hi - b)
    shallow = nats < WINDOW_NATS
    if dist is not None and (not shallow or a <= min(n11s) <= max(n11s) <= b):
        floor = -WINDOW_NATS if not shallow else max(
            -WINDOW_NATS, min(dist.log_pmf[k - a] for k in (mode, *n11s)) - depth)
        if (a == lo or dist.log_pmf[0] <= floor) and (b == hi or dist.log_pmf[-1] <= floor):
            return dist
    return (_fisher_distribution(n_total, row1_total, col1_total) if shallow
            else _enumerate(n_total, row1_total, col1_total, lo, hi))


def hypergeom_distribution(n_total: int, row1_total: int, col1_total: int) -> HypergeomDist:
    """Enumerate the full log-pmf of n11 under fixed marginals.

    Cost is O(support size) = O(min(row1_total, col1_total) - support_lo).
    Fisher's test does not need this: `fisher_exact` enumerates only the
    O(sigma) terms its sums can see.
    """
    lo, hi = _support(n_total, row1_total, col1_total)
    return _enumerate(n_total, row1_total, col1_total, lo, hi)


def fisher_from_dist(dist: HypergeomDist, n11: int) -> FisherResult:
    """Tail sums of an already-enumerated distribution at the observed n11.

    Each sum covers the whole support: the terms a window leaves out enter
    as the bound `_bounds_beyond` puts on them. An n11 past an edge whose term
    is 0.0 has probability 0.0, as has the tail away from the window, and
    the other tail holds the whole mass; past an edge whose term is not 0.0,
    the window is too shallow for it, which is an error. A sum that the bound
    leaves uncertain is taken again on the exhaustive window.
    """
    pmf = dist.pmf()
    lo, hi = dist.support_lo, dist.support_hi
    mi = _mode(dist.n_total, dist.row1_total, dist.col1_total) - lo
    below, above = _bounds_beyond(dist.beyond_lo, dist.beyond_hi, pmf)
    if n11 < lo and below or n11 > hi and above:
        raise ValueError(f"n11 = {n11} lies beyond the enumerated window [{lo}, {hi}]")
    if lo <= n11 <= hi and len(pmf) < CORE_MIN_TERMS and not (below or above):
        return _whole_fisher(pmf.tolist(), dist.log_pmf.tolist(), mi, n11 - lo)
    if lo <= n11 <= hi:
        idx = n11 - lo
        point = float(pmf[idx])
        cutoff = dist.log_pmf[idx] + math.log1p(TWO_SIDED_TIE_REL_TOL)
        sums = (_fsum_window(pmf[: idx + 1], min(mi, idx), below),
                _fsum_window(pmf[idx:], max(0, mi - idx), above),
                _fsum_window(pmf * (dist.log_pmf <= cutoff), mi, below + above))
    else:
        point, whole = 0.0, _fsum_window(pmf, mi, below + above)
        sums = (0.0, whole, 0.0) if n11 < lo else (whole, 0.0, 0.0)
    if None in sums:
        return fisher_from_dist(_fisher_distribution(dist.n_total, dist.row1_total, dist.col1_total),
                                n11)
    left, right, two = sums
    return FisherResult(left_p=min(1.0, left), right_p=min(1.0, right),
                        two_sided_p=min(1.0, two), point_p=point)


def fisher_exact(table: ContingencyTable2x2) -> FisherResult:
    """Fisher's exact test: tail sums of the hypergeometric distribution of n11.

    Only a window around the mode as deep as these sums need is enumerated,
    O(sigma) terms; the result equals
    `fisher_from_dist(hypergeom_distribution(...), n11)` to the bit.

    A zero marginal forces a single feasible table, which is certain under the
    null; all four probabilities are then 1.
    """
    dist = _fisher_distribution(table.total, table.row1, table.col1, (table.n11,))
    return fisher_from_dist(dist, table.n11)


def _fisher_batch(n11s: dict[tuple[int, int, int], Sequence[int]],
                  ) -> dict[tuple[int, int, int, int], FisherResult]:
    """Fisher's test at each n11 in `n11s[key]` of each marginal key (N,
    row1, col1), keyed (N, row1, col1, n11); each result equals
    `fisher_exact`'s to the bit.

    This is where a marginal's enumeration is chosen. A support of fewer than
    CORE_MIN_TERMS points is enumerated whole, as `_fisher_distribution`
    enumerates one, and all of those are scored together: grouped by the
    power of two above the longer side of their mode, so that no row is
    padded to more than twice its width, and each group in passes of at most
    _BATCH_CELLS cells (see `_batch_pass`). A larger support gets one Fisher
    window, as deep as its lowest and highest n11 need (the deepest n11 is
    one of the two).
    """
    buckets: dict[int, list[tuple[tuple[int, int, int], int, int, int]]] = {}
    results: dict[tuple[int, int, int, int], FisherResult] = {}
    for key, ks in n11s.items():
        lo, hi = _support(*key)
        if hi - lo + 1 < CORE_MIN_TERMS:
            mi = _mode(*key) - lo
            buckets.setdefault(max(mi, hi - lo - mi).bit_length(), []).append((key, lo, hi, mi))
        else:
            dist = _fisher_distribution(*key, n11s=(min(ks), max(ks)))
            results.update(((*key, n11), fisher_from_dist(dist, n11)) for n11 in ks)
    for bits, rows in buckets.items():
        per_pass = max(1, _BATCH_CELLS >> (bits + 1))
        for start in range(0, len(rows), per_pass):
            _batch_pass(rows[start : start + per_pass], n11s, results)
    return results


def _batch_pass(rows: list[tuple[tuple[int, int, int], int, int, int]],
                n11s: dict[tuple[int, int, int], Sequence[int]],
                results: dict[tuple[int, int, int, int], FisherResult]) -> None:
    """Score the marginals `rows` of (key, support_lo, support_hi, mode
    index) into `results`, in one 2D pass whose steps come from
    `_log_steps`, anchored at the support's low end as `_enumerate` anchors
    a support this short.

    Row i of the step arrays holds the steps right of row i's mode, row
    n + i those left of it, each in the order `_enumerate`'s cumsum adds
    them. A step past the end of a support is clamped into it for
    `_log_steps`, and its log ratio then set to 0.0, so the running sum
    stays at the edge's value. The log-pmf array puts every mode in one
    column, `width`. np.log and np.exp see only C-contiguous float64
    arrays, so they run the same loop on them as on `_enumerate`'s 1D
    arrays, and give the same bits.
    """
    n = len(rows)
    width = max(max(m, hi - lo - m) for _, lo, hi, m in rows)
    mi = np.array([m for *_, m in rows] * 2, dtype=np.float64)[:, None]
    t = np.arange(width, dtype=np.float64)
    j = np.concatenate((mi[:n] + t, mi[n:] - 1.0 - t))
    steps = np.array([hi - lo for _, lo, hi, _ in rows] * 2, dtype=np.float64)[:, None]
    consts = np.array([_step_consts(*key, lo) for key, lo, *_ in rows] * 2).T[:, :, None]
    log_ratio = _log_steps(consts, np.clip(j, 0.0, steps - 1.0))
    log_ratio[(j < 0.0) | (j >= steps)] = 0.0
    run = np.cumsum(log_ratio, axis=1)
    unnorm = np.empty((n, 2 * width + 1))
    unnorm[:, width] = 0.0
    unnorm[:, width + 1 :] = run[:n]
    unnorm[:, :width] = -run[n:, ::-1]

    peaks = unnorm.max(axis=1)
    terms = np.exp(unnorm - peaks[:, None]).tolist()
    log_norm = [peak + math.log(_fsum_outward(row[width - m : width - m + hi - lo + 1], m))
                for peak, row, (_, lo, hi, m) in zip(peaks.tolist(), terms, rows)]
    log_pmf = unnorm - np.array(log_norm)[:, None]
    pmf = np.exp(log_pmf)
    for (key, lo, hi, m), pmf_row, log_row in zip(rows, pmf.tolist(), log_pmf.tolist()):
        a = width - m
        pmf_row, log_row = pmf_row[a : a + hi - lo + 1], log_row[a : a + hi - lo + 1]
        for n11 in n11s[key]:
            results[(*key, n11)] = _whole_fisher(pmf_row, log_row, m, n11 - lo)
