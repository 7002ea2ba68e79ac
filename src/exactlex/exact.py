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
enumeration. fsum is fed one by one only a sum's terms within FEED_REL
(2**-26) of its largest. The others enter as their float sum from numpy,
within a bound on its rounding error, and the terms past each window edge
as (support points past it) x (edge term); equal rounded sums at both ends
of those bounds show that they cannot change the result.

So a window reaches only CORE_NATS plus the log of the support size below
the smallest term its sums lean on: the mode's, and the observed n11's on
both sides of the mode. WINDOW_NATS caps the depth: past it every term is
0.0 and the bound is exactly zero, and a window or a sum that a shallower
window cannot certify is taken again on that exhaustive window.

A support of fewer than CORE_MIN_TERMS points is enumerated whole, with no
window and no lgamma call. A single table's window edges start where a
normal log-pmf with the hypergeometric sigma is deep enough, and gallop
outward until the lgamma ratio to the mode says they are.

`_fisher_batch` scores many marginals at once and is the one place that
chooses how each is enumerated. Every marginal's window, the whole support
when it is short, goes through 2D numpy passes over rows of similar width,
which take every row's steps from `_log_steps` as `_enumerate` does, so
their p-values are the same bits. The windows of larger supports are placed
without lgamma, from sigma and bounds on the steps, and every window is
checked against the depth rule on the enumerated terms; its sums are
certified as the single-table path's are. A marginal whose window leaves
out one of its n11s takes the single-table path, which `test` takes too, so
that `fisher_from_dist` is the one place that scores an n11 past a window;
so do a row that fails the depth check, a row with an uncertain sum and a
marginal whose mode lies more than 2**52 above its support's low end.
"""

from __future__ import annotations

import math
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

# The terms past a window's edges total at most this fraction of the
# smallest term its sums lean on, far below an ulp of any of those sums, so
# that their bound seldom leaves a sum uncertain.
CORE_REL = 2.0**-80
# A shorter window feeds fsum every term: fsum spends about 50 ns a term on
# it, less than the numpy calls that find the terms to feed (about 4 us).
CORE_MIN_TERMS = 128
# A window sum feeds fsum one by one only the terms at least this fraction
# of its largest (in `_fisher_batch`, of its term nearest the mode), and
# adds the others' float sum within a bound on its rounding error.
FEED_REL = 2.0**-26
# A window reaches this far, plus the log of the support size, below the
# smallest term its sums lean on: then (points beyond an edge) x (edge term)
# is under CORE_REL of that term.
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
# The most cells, (n11s) x (window columns), one pass of `_fisher_batch`
# holds, so that its memory stays bounded however many marginals it scores.
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
    return (float(row1_total - base), float(col1_total - base), float(base + 1),
            float(n_total - row1_total - col1_total + base + 1))


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

    fsum is fed, in the outward order of `_fsum_outward`, the terms from the
    first >= FEED_REL * max to the last; a window under CORE_MIN_TERMS is fed
    whole. The others enter as their float sum from numpy, within a slack of
    2**-51 * (count + 2) of it, which bounds its rounding error in any order
    of addition, and the terms beyond as twice `beyond`; `_certified_fsum`
    takes the sum between those ends. When the ends round apart: with
    nothing beyond, the whole window is summed, as
    `_fsum_outward(terms.tolist(), mi)`; with terms beyond, the sum is not
    certain, and the caller deepens its window.
    """
    size = len(terms)
    low = slack = 0.0
    if size >= CORE_MIN_TERMS:
        # The outward order built in numpy, then one tolist: cheaper than
        # slicing and reversing the list once the fed run is long.
        above = terms >= FEED_REL * float(terms.max())
        a, b = int(above.argmax()), size - int(above[::-1].argmax())
        m = min(max(mi, a), b - 1)
        fed = np.concatenate((terms[m:b], terms[a:m][::-1])).tolist()
        if b - a < size:
            low = float(terms[:a].sum()) + float(terms[b:].sum())
            slack = 2.0**-51 * (size - (b - a) + 2) * low
    else:
        values = terms.tolist()
        m = min(mi, size - 1)
        fed = values[m:] + values[:m][::-1]
    total = _certified_fsum(fed, low - slack, low + slack + 2.0 * beyond)
    if total is None and not beyond:
        return _fsum_outward(terms.tolist(), mi)
    return total


def _certified_fsum(fed: list[float], least: float, most: float) -> float | None:
    """The correctly rounded sum of `fed` and of one more term known only to
    lie in [least, most], or None when that is not certain; `fed` gets the
    term appended. Correct rounding is monotone, so fsum with the low end <=
    the sum <= fsum with the high end, and when the two are equal they are
    the sum."""
    fed.append(least)
    total = math.fsum(fed)
    if most != least:
        fed[-1] = most
        if math.fsum(fed) != total:
            return None
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
    smallest of those, so (points beyond) x (edge term) stays under CORE_REL
    of every sum's largest term (see `_fsum_window`). The depth is capped at
    WINDOW_NATS. A support of fewer than CORE_MIN_TERMS points is enumerated
    whole, before any lgamma call: no window would save its cost.

    Each edge starts at mode +- (ceil(sigma * sqrt(2 * nats)) + 1), where a
    normal log-pmf with the hypergeometric sigma lies `nats` deep, aimed
    SEED_NATS deeper than the rule. Where the log-pmf ratio to the mode says
    it is not that deep yet, the edge gallops outward by (missing nats) /
    (fall of the step past it): the log-pmf is concave, so no later step
    falls less. Once deep enough, it steps back by (nats to spare) / (fall
    of the step into it), as no step nearer the mode falls more, so that it
    lies about where the first n11 that deep does: a window takes about 20
    lgamma calls in all. Each edge reaches at most _MAX_TERMS points from
    the mode, so a support wider than a C ssize_t still gets its window, and
    a window that needs more is refused by `_enumerate`. The window is then
    checked on the enumerated terms: a running sum only falls away from the
    mode, so once an edge is deep enough, so is every term beyond it. A
    window that fails the check, leaves out an n11 or cannot certify its
    normaliser gives way to the exhaustive window, and an exhaustive window
    that fails it to the whole support, which leaves nothing out.
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

    depth = CORE_NATS + math.log(hi - lo + 1)
    nats = WINDOW_NATS if n11s is None else min(
        WINDOW_NATS, depth + SEED_NATS - min(0.0, *map(log_rel, n11s)))
    variance = (row1_total * (n_total - row1_total) / n_total
                * (col1_total * (n_total - col1_total) / (n_total * (n_total - 1))))
    seed = math.ceil(math.sqrt(variance * 2.0 * nats)) + 1

    def fall(k: int, sign: int) -> float:
        # How far the log-pmf falls from k to k + sign, away from the mode.
        j = k if sign > 0 else k - 1  # the step between j and j + 1
        return sign * (math.log((j + 1) * (n22_base + j + 1))
                       - math.log((row1_total - j) * (col1_total - j)))

    def reach(sign: int, room: int) -> int:
        # How far the edge on the side `sign` of the mode lies from it.
        points = min(room, seed)
        while points:
            k = mode + sign * points
            missing = nats + log_rel(k)
            if missing < 0.0:
                # Deep enough: step back as far as the fall of the step into
                # k, the largest of those stepped back over, keeps it so.
                inward = fall(k - sign, sign)
                back = -missing / inward if inward > 0.0 else 0.0
                return points - (points if back >= points else math.floor(back))
            if points == room:
                break
            outward = fall(k, sign)
            more = missing / outward if outward > 0.0 else math.inf
            points = room if more >= room - points else min(room, points + math.ceil(more) + 1)
        return points

    a = mode - reach(-1, min(mode - lo, _MAX_TERMS))
    b = mode + reach(1, min(hi - mode, _MAX_TERMS))
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
        # The two-sided sum takes the terms at most the cutoff. The log-pmf
        # falls on each side of the mode, so they are a prefix and a suffix
        # of the window, summed without the terms between; where rounding
        # next to a tied mode breaks that fall, the window is summed with
        # those terms zeroed.
        high = dist.log_pmf > dist.log_pmf[idx] + math.log1p(TWO_SIDED_TIE_REL_TOL)
        i = int(high.argmax())
        j = i + int(np.count_nonzero(high))
        if i == j:
            two, start = pmf, mi
        elif high[i:j].all():
            two, start = np.concatenate((pmf[:i], pmf[j:])), i
        else:
            two, start = np.where(high, 0.0, pmf), mi
        sums = (_fsum_window(pmf[: idx + 1], min(mi, idx), below),
                _fsum_window(pmf[idx:], max(0, mi - idx), above),
                _fsum_window(two, start, below + above))
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

    This is where a marginal's enumeration is chosen. Each gets a window
    [a, b] around its mode: a support of fewer than CORE_MIN_TERMS points
    whole, a larger one as placed by `_bracket`. All windows are scored
    together in 2D passes (see `_batch_pass`), taken in order of width: a
    pass holds at most _BATCH_CELLS cells of (n11s) x (columns), and once it
    holds a quarter of that, no row that would widen it past twice its first
    row's width, so that few rows are padded far; below that, one pass costs
    more than the padding. A marginal whose window leaves out one of its
    n11s or would not fit in an array, or whose mode lies more than 2**52
    above its support's low end, goes to `_fisher_each` before any pass
    enumerates it; so do, in the same loop, those whose window fails
    `_batch_pass`'s depth check or whose sums the passes leave uncertain.
    """
    results: dict[tuple[int, int, int, int], FisherResult] = {}
    rows, large, alone = [], [], []
    for key, ks in n11s.items():
        if not ks:
            continue
        lo, hi = _support(*key)
        mode = _mode(*key)
        if mode - lo > 2**52:
            alone.append(key)
        elif hi - lo + 1 < CORE_MIN_TERMS:
            rows.append((key, lo, hi, mode, lo, hi))
        else:
            large.append((key, lo, hi, mode, ks))
    for row in _bracket(large) if large else ():
        ks = n11s[row[0]]
        if row[5] - row[4] < _MAX_TERMS and row[4] <= min(ks) and max(ks) <= row[5]:
            rows.append(row)
        else:
            alone.append(row[0])
    rows.sort(key=lambda row: row[5] - row[4])
    part, used, left, right = [], 0, 0, 0
    for row in rows:
        ks, reach = len(n11s[row[0]]), (row[3] - row[4], row[5] - row[3])
        width = 1 + max(left, reach[0]) + max(right, reach[1])
        cells = (used + ks) * width
        if part and (cells > _BATCH_CELLS
                     or 4 * cells > _BATCH_CELLS and width > 2 * (part[0][5] - part[0][4] + 1)):
            alone += _batch_pass(part, n11s, results)
            part, used, left, right = [], 0, 0, 0
        part.append(row)
        used, left, right = used + ks, max(left, reach[0]), max(right, reach[1])
    if part:
        alone += _batch_pass(part, n11s, results)
    for key in alone:
        _fisher_each(key, n11s[key], results)
    return results


def _fisher_each(key: tuple[int, int, int], ks: Sequence[int],
                 results: dict[tuple[int, int, int, int], FisherResult]) -> None:
    """Score one marginal at each of `ks` in its own Fisher window, as deep
    as its lowest and highest n11 need (the deepest n11 is one of the two)."""
    dist = _fisher_distribution(*key, n11s=(min(ks), max(ks)))
    results.update(((*key, n11), fisher_from_dist(dist, n11)) for n11 in ks)


def _bracket(marginals: list[tuple]) -> list[tuple]:
    """The window of each of the `marginals`, (key, support_lo,
    support_hi, mode, n11s), as a `_batch_pass` row: each edge as deep as
    `_fisher_distribution`'s rule asks, placed without lgamma, for all
    marginals at once.

    `_fall_bounds` bounds how deep each n11 lies. One that surely lies
    WINDOW_NATS deep is left past the window, and its marginal takes
    `_fisher_each`; each edge aims CORE_NATS + log(support size) +
    SEED_NATS below the deepest of the others by its upper bound, and at
    most WINDOW_NATS below the mode. A normal log-pmf with the
    hypergeometric sigma places each edge first, and where the lower bound
    on the fall to it is short of the aim, `_widen` moves it out by the
    rest. `_batch_pass` checks the depth on the enumerated terms.
    """
    keys, los, his, modes, n11s = zip(*marginals)

    def column(values) -> np.ndarray:
        return np.array(values, dtype=np.float64)

    consts = np.array([_step_consts(*key, lo) for key, lo in zip(keys, los)]).T
    n_total, row1, col1, row2, col2 = column([(n, r1, c1, n - r1, n - c1) for n, r1, c1 in keys]).T
    sd = np.sqrt(row1 * row2 / n_total * col1 * col2 / (n_total * (n_total - 1.0)))
    mi = column([m - lo for m, lo in zip(modes, los)])
    last = column([hi - lo - 1 for lo, hi in zip(los, his)])

    # How deep each n11 lies, from the mode outward.
    at = np.repeat(np.arange(len(keys)), [len(ks) for ks in n11s])
    off = column([k - m for m, ks in zip(modes, n11s) for k in ks])
    sign = np.where(off < 0.0, -1.0, 1.0)
    lower, upper = _fall_bounds(consts[:, at], mi[at] - (off < 0.0), sign, np.abs(off), last[at])
    deepest = np.zeros(len(keys))
    np.maximum.at(deepest, at, np.where(lower < WINDOW_NATS, upper, 0.0))
    nats = np.minimum(WINDOW_NATS, CORE_NATS + np.log(last + 2.0) + SEED_NATS + deepest)

    sign = np.array([[-1.0], [1.0]])
    first = np.stack((mi - 1.0, mi))
    room = np.stack((mi, last + 1.0 - mi))
    reach = np.minimum(room, np.ceil(sd * np.sqrt(2.0 * nats)) + 1.0)
    reached, _ = _fall_bounds(consts[:, None], first, sign, reach, last)
    past, _ = _fall_bounds(consts[:, None], first + sign * reach, sign, np.ones_like(reach), last)
    more = _widen(nats - reached, past)
    short = (reached < nats) & (reach < room) & np.isfinite(more)
    reach = np.where(short, np.minimum(room, reach + more), reach)
    return [(key, lo, hi, m, m - int(left), m + int(right))
            for key, lo, hi, m, left, right in zip(keys, los, his, modes, *reach.tolist())]


def _widen(missing: np.ndarray, fall: np.ndarray) -> np.ndarray:
    """The points to add past an edge whose log-pmf must fall `missing`
    more nats, where the first step past it falls `fall`: the log-pmf is
    concave, so no later step falls less. Infinite where `fall` is not
    positive, since nothing then bounds the distance."""
    points = np.divide(missing, fall, out=np.full_like(missing, np.inf), where=fall > 0.0)
    return np.ceil(points) + 1.0


def _fall_bounds(consts: np.ndarray, j: np.ndarray, sign: np.ndarray, steps: np.ndarray,
                 last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on how far the log-pmf falls over `steps`
    steps moving away from the mode on the side `sign`, the first at step
    index j (as in `_log_steps`, whose step indices past `last` are clipped
    in). The log-pmf is concave, so each step falls no less than the one
    before it: each eighth of the way falls at least its length times the
    fall of its first step, and at most times the fall of the next eighth's
    first step, or of the last step.
    """
    at = np.floor(steps[..., None] * np.arange(9) / 8.0)
    length = np.diff(at, axis=-1)
    at[..., 8] = steps - 1.0
    index = np.minimum(np.maximum(j[..., None] + sign[..., None] * at, 0.0), last[..., None])
    falls = np.maximum(-sign[..., None] * _log_steps(consts[..., None], index), 0.0)
    return (length * falls[..., :8]).sum(axis=-1), (length * falls[..., 1:]).sum(axis=-1)


def _side_counts(hit: np.ndarray, right: int) -> np.ndarray:
    """How many columns of the right side, `hit[:, :right + 1]`, and of the
    left side, the rest, are True, per row."""
    return np.stack((hit[:, : right + 1].sum(axis=1), hit[:, right + 1 :].sum(axis=1)), axis=1)


def _range_sums(window: np.ndarray, right: int, length: np.ndarray, at: np.ndarray, start: np.ndarray,
                cut: np.ndarray, end: np.ndarray, rest: np.ndarray) -> list[float | None]:
    """Certified sums of terms of a `_batch_pass` window: each of the
    columns [start, end) of the right side, `window[:, :right + 1]`, and
    the left side, the rest, of row `at`, and of further terms that total
    at most `rest` / 2; None where one is not certain. `start`, `cut` and
    `end` hold a column of each side, and `length` how many columns of
    each side of each row hold terms.

    fsum is fed one by one the terms before `cut`, and then the float sum
    of the others, from each side's suffix sums, within a slack of
    2**-51 * (terms past the cut + 2) of their sums from the cut, which
    bounds the rounding errors of the suffix sums, their differences and
    the slack. The sum lies between fsum with the low end of that and fsum
    with the high end plus `rest`, and is certain when the two agree
    (`_certified_fsum`). Any cut gives the same sums; one past which the
    terms lie far below the sum's ulp leaves the slack too small to matter.
    """
    cut = np.minimum(np.maximum(cut, start), end)
    # Each side's fed terms of every sum, one after another, as one list.
    fed, bounds = [], []
    for k, base in ((0, 0), (1, right + 1)):
        count = cut[:, k] - start[:, k]
        stop = np.cumsum(count)
        first = stop - count
        # Only the gathered terms outlive the gather while tolist runs.
        fed.append(window[np.repeat(at, count), np.arange(int(stop[-1]) if len(stop) else 0)
                          + np.repeat(start[:, k] + base - first, count)].tolist())
        bounds += [first.tolist(), stop.tolist()]
    low, bound = np.zeros(len(at)), np.zeros(len(at))
    for k, side in enumerate((window[:, : right + 1], window[:, right + 1 :])):
        # Each row's float sums from each column to its end, then 0.0.
        suffix = np.zeros((len(side), side.shape[1] + 1))
        np.cumsum(side[:, ::-1], axis=1, out=suffix[:, -2::-1])
        past_cut = suffix[at, cut[:, k]]
        low += past_cut - suffix[at, end[:, k]]
        bound += np.where(cut[:, k] < end[:, k], (length[at, k] - cut[:, k] + 2) * past_cut, 0.0)
    slack = bound * 2.0**-51
    sums: list[float | None] = []
    right_fed, left_fed = fed
    for a, b, c, d, least, most in zip(*bounds, (low - slack).tolist(), (low + slack + rest).tolist()):
        core = right_fed[a:b] + left_fed[c:d] if c < d else right_fed[a:b]
        sums.append(_certified_fsum(core, least, most))
    return sums


def _batch_pass(rows: list[tuple], n11s: dict[tuple[int, int, int], Sequence[int]],
                results: dict[tuple[int, int, int, int], FisherResult]) -> set[tuple[int, int, int]]:
    """Score the marginals `rows`, each (key, support_lo, support_hi, mode,
    a, b), over its window [a, b] into `results`, in one 2D pass; return
    the keys whose results `_fisher_each` must give instead.

    The steps come from `_log_steps`, anchored at the support's low end as
    `_enumerate` anchors a mode at most 2**52 above it. Row i of the step
    array holds the steps right of row i's mode, then those left of it,
    negated, each side cumsummed on its own in the order `_enumerate`'s
    cumsum adds them; a step past the window is -inf, so the terms there
    are 0.0. So the log-pmf array is laid out outward from the mode: the
    mode and the right offsets 1.. (the right side), then the left offsets
    1.. (the left side), and a sum's terms, gathered in row order, reach
    fsum largest first. np.log and np.exp see only C-contiguous float64
    arrays, so they run the same loop on them as on `_enumerate`'s 1D
    arrays, and give the same bits.

    Every n11 lies in its row's window: `_fisher_batch` sends a marginal
    with one past an edge to `_fisher_each`. Each edge must end the support
    or lie as deep as `_fisher_distribution` checks: CORE_NATS + log(support
    size) below the mode and every n11. Each normaliser, tail and two-sided
    sum is a certified `_range_sums`. Every row's sums are taken alike; the
    key of a row short of the depth rule, or of one with a sum uncertain or
    in doubt, is returned, and `_fisher_each` overwrites every result this
    pass gave it.
    """
    n = len(rows)
    keys, los, his, modes, a_s, b_s = zip(*rows)
    # Per row: how far the window reaches left and right of the mode, the
    # mode's and the last step's index, and the points past each edge.
    shape = np.array([(m - a, b - m, m - lo, hi - lo - 1, a - lo, hi - b)
                      for lo, hi, m, a, b in zip(los, his, modes, a_s, b_s)], dtype=np.float64)
    reach, mi, last, beyond = shape[:, :2], shape[:, 2:3], shape[:, 3:4], shape[:, 4:]
    wl, wr = (int(x) for x in reach.max(axis=0))
    consts = np.array([_step_consts(*key, lo) for key, lo in zip(keys, los)]).T
    t = np.arange(max(wl, wr), dtype=np.float64)
    j = np.concatenate((mi + t[:wr], mi - 1.0 - t[:wl]), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a one-point support has no step to take
        steps = _log_steps(consts[:, :, None], np.minimum(np.maximum(j, 0.0, out=j), last, out=j))
    # Each (rows) x (columns) array is dropped once no later step reads it,
    # which bounds the memory a pass holds at a few of them.
    del j
    steps[:, wr:] *= -1.0
    offset = np.concatenate((t[:wr] + 1.0, -1.0 - t[:wl]))
    steps[(offset < -reach[:, :1]) | (offset > reach[:, 1:])] = -np.inf
    unnorm = np.empty((n, 1 + wr + wl))
    unnorm[:, 0] = 0.0
    np.cumsum(steps[:, :wr], axis=1, out=unnorm[:, 1 : wr + 1])
    np.cumsum(steps[:, wr:], axis=1, out=unnorm[:, wr + 1 :])
    del steps
    peaks = unnorm.max(axis=1)
    rel = unnorm - peaks[:, None]
    # Whether right column 1 lies above the mode (see the two-sided sums).
    bump = min(1, wr)
    rises = rel[:, bump] > rel[:, 0]
    rows_at = np.arange(n)[:, None]
    edge_col = np.where(reach > 0.0, reach + [[wr, 0]], 0.0).astype(np.intp)

    # One query per n11, in row order, at its offset from the mode.
    q_row, q_off, q_keys = [], [], []
    for i, key, m in zip(range(n), keys, modes):
        for n11 in n11s[key]:
            q_row.append(i)
            q_off.append(n11 - m)
            q_keys.append((*key, n11))
    q_row, q_off = np.array(q_row), np.array(q_off)
    q_col = np.where(q_off >= 0, q_off, wr - q_off)

    # The depth rule, on the enumerated terms.
    short = np.zeros(n, dtype=bool)
    if beyond.any():
        deepest = np.minimum.reduceat(rel[q_row, q_col], np.searchsorted(q_row, range(n)))
        floor = np.maximum(-WINDOW_NATS,
                           np.minimum(rel[:, 0], deepest) - CORE_NATS - np.log(last[:, 0] + 2.0))
        short = ((beyond > 0.0) & (rel[rows_at, edge_col] > floor[:, None])).any(axis=1)
    # Each sum covers a column range of each side of its row (see
    # `_range_sums`); its terms before the cut, at least FEED_REL times its
    # term nearest the mode, are fed to fsum one by one. A whole support
    # under CORE_MIN_TERMS points is fed whole.
    reach = reach.astype(np.intp)
    length = np.concatenate((reach[:, 1:] + 1, reach[:, :1]), axis=1)
    whole = ~beyond.any(axis=1) & (length.sum(axis=1) < CORE_MIN_TERMS)
    feed = np.where(whole, 0.0, FEED_REL)

    terms = np.exp(rel)
    del rel
    norms = _range_sums(terms, wr, length, np.arange(len(keys)), np.zeros_like(length),
                        _side_counts(terms >= feed[:, None], wr), length,
                        2.0 * (beyond * terms[rows_at, edge_col]).sum(axis=1))
    del terms
    log_norm = np.array([peak + math.log(z) if z else 0.0 for peak, z in zip(peaks.tolist(), norms)])
    log_pmf = unnorm - log_norm[:, None]
    del unnorm
    pmf = np.exp(log_pmf)

    # An n11 at offset d >= 0 is right column d, and at d < 0 left column
    # -d - 1. The left tail takes the columns at or left of it, the right
    # tail those at or right of it, and the two-sided sum those of each side
    # from the first whose log-pmf is at most the cutoff. Every left column
    # falls further from the mode, and every right one from column 1 on, so
    # that first column is the count of those above the cutoff unless column
    # 1 lies above the mode and the cutoff between them.
    pos = q_off >= 0
    at = np.where(pos, q_off, -q_off - 1)
    side_len, mode_cut = length[q_row], _side_counts(pmf >= (feed * pmf[:, 0])[:, None], wr)[q_row]
    point = pmf[q_row, q_col]
    cutoff = log_pmf[q_row, q_col] + math.log1p(TWO_SIDED_TIE_REL_TOL)
    lp = log_pmf[q_row]
    high = lp > cutoff[:, None]
    two = _side_counts(high, wr)
    del high
    unsure = rises[q_row] & (log_pmf[q_row, 0] <= cutoff) & (cutoff < log_pmf[q_row, bump])
    # The columns of each side at least FEED_REL of the n11's term, which
    # the near tail and the two-sided sum feed one by one.
    cut_r, cut_l = _side_counts(lp >= np.where(whole[q_row], -np.inf, cutoff + math.log(FEED_REL))[:, None],
                                wr).T
    del lp, log_pmf
    near = np.where(pos, cut_r, cut_l)

    # Per query, the left tail's (right side, left side), the right tail's,
    # then the two-sided sum's.
    none = np.zeros_like(at)
    start = np.stack((none, np.where(pos, none, at), np.where(pos, at, none), none, two[:, 0], two[:, 1]),
                     axis=1)
    end = np.stack((np.where(pos, at + 1, none), side_len[:, 1], side_len[:, 0], np.where(pos, none, at + 1),
                    side_len[:, 0], side_len[:, 1]), axis=1)
    cut = np.stack((mode_cut[:, 0], np.where(pos, mode_cut[:, 1], near), np.where(pos, near, mode_cut[:, 0]),
                    mode_cut[:, 1], cut_r, cut_l), axis=1)
    lower, upper = (beyond * pmf[rows_at, edge_col])[q_row].T
    rest = 2.0 * np.stack((lower, upper, lower + upper), axis=1)
    tails = _range_sums(pmf, wr, length, np.repeat(q_row, 3), start.reshape(-1, 2), cut.reshape(-1, 2),
                        end.reshape(-1, 2), rest.ravel())

    failed = {key for key, z, s in zip(keys, norms, short.tolist()) if z is None or s}
    for result_key, i, p, l, r, t, doubt in zip(q_keys, q_row.tolist(), point.tolist(),
                                                tails[::3], tails[1::3], tails[2::3], unsure.tolist()):
        if l is None or r is None or t is None or doubt:
            failed.add(keys[i])
        else:
            results[result_key] = FisherResult(min(1.0, l), min(1.0, r), min(1.0, t), p)
    return failed
