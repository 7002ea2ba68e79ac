"""Hypergeometric enumeration and Fisher's exact test for 2x2 tables.

With all marginals fixed, n11 determines the whole table, so the exact test
reduces to enumerating the hypergeometric distribution of n11 over its
feasible range. Probabilities are carried in log space: the log-pmf is built
by the exact ratio recurrence outward from the mode and then normalized with
a log-sum-exp, so no factorial ever overflows and extreme tails never
underflow, even at sample sizes of 10^9.

Fisher's test enumerates only the window around the mode outside which
every term is 0.0 in double precision, O(sigma) terms instead of O(support).
Terms are anchored at the mode, so each one inside the window is the same
float as in the full enumeration, and every sum is the correctly rounded
`math.fsum` of the window's terms, so the p-values are bit-identical to
summing the whole support. fsum is fed only a window's core, the terms
within 2**-80 of its largest: one bound on the rest shows that they cannot
change the rounded sum, and where it cannot show that, the whole window is
summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMarginalsError
from .tables import ContingencyTable2x2

# Relative slack when deciding whether pmf(k) <= pmf(observed) in the
# two-sided tally; keeps exactly-tied mirror tables in deterministically.
TWO_SIDED_TIE_REL_TOL = 1e-7

# Fisher's window ends where the log-pmf is this far below the peak. exp()
# underflows to 0.0 below about -745, so every term outside the window adds
# exactly nothing to any sum; the margin absorbs lgamma error in placing it.
WINDOW_NATS = 800.0

# A window sum feeds fsum only its core, from the first to the last term at
# least this fraction of the largest. The rest enter as one bound on their
# total, under 2 * count * 2**-80 of the sum, or 2**-26 * count of its ulp;
# the whole window is summed only when the core's sum lies that close below
# a rounding boundary.
CORE_REL = 2.0**-80
# A shorter window is summed whole: fsum spends about 50 ns a term on it,
# less than the numpy calls that find a core (about 4 us).
CORE_MIN_TERMS = 128


@dataclass(frozen=True)
class HypergeomDist:
    """Distribution of n11 over all 2x2 tables with the given fixed marginals.

    `support_lo..support_hi` is the enumerated range. From
    `hypergeom_distribution` it is the full support; the window Fisher's
    test enumerates may be narrower, and every term outside it is 0.0 in
    double precision.
    """

    n_total: int
    row1_total: int
    col1_total: int
    support_lo: int
    support_hi: int
    log_pmf: np.ndarray  # indexed by n11 - support_lo

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


def _enumerate(n_total: int, row1_total: int, col1_total: int, lo: int, hi: int) -> HypergeomDist:
    """Normalized log-pmf of n11 over [lo, hi], a range that holds the mode.

    The recurrence and its running sums start at the mode whatever the range,
    so a term has the same value in every range that holds it.
    """
    size = hi - lo + 1

    # Step ratio pmf(k+1)/pmf(k) = (row1-k)(col1-k) / ((k+1)(n-row1-col1+k+1)),
    # its log accurate to a few ulps per step. With k = lo + j, each factor
    # is a Python-int constant at lo plus or minus the small offset j, so no
    # difference of two large floats loses the factor past 2**53.
    j = np.arange(size - 1, dtype=np.float64)
    log_ratio = (
        np.log((row1_total - lo) - j)
        + np.log((col1_total - lo) - j)
        - np.log((lo + 1) + j)
        - np.log((n_total - row1_total - col1_total + lo + 1) + j)
    )

    mi = _mode(n_total, row1_total, col1_total) - lo
    unnorm = np.empty(size)
    unnorm[mi] = 0.0
    if mi < size - 1:
        unnorm[mi + 1 :] = np.cumsum(log_ratio[mi:])
    if mi > 0:
        unnorm[:mi] = -np.cumsum(log_ratio[:mi][::-1])[::-1]

    # Normalize so the pmf sums to 1 to machine precision regardless of any
    # drift in the base point; lgamma accuracy never enters the pmf.
    peak = unnorm.max()
    log_norm = peak + math.log(_fsum_window(np.exp(unnorm - peak), mi))
    return HypergeomDist(n_total, row1_total, col1_total, lo, hi, unnorm - log_norm)


def _fsum_outward(terms: list[float], mi: int) -> float:
    """math.fsum of `terms`, fed from index `mi` outward.

    From the mode outward each side is a falling run, so this feeds the
    largest terms first. fsum is correctly rounded, so the order changes its
    speed, never its result. It stays slow on a window's far tails all the
    same: each term below an ulp of the running sum leaves a partial of its
    own, and every later term passes through all of them.
    """
    return math.fsum(terms[mi:] + terms[:mi][::-1])


def _fsum_window(terms: np.ndarray, mi: int) -> float:
    """`_fsum_outward(terms.tolist(), mi)` to the bit, for nonnegative terms,
    without feeding fsum the terms far below the largest.

    The core runs from the first term >= floor to the last; every term
    outside it is below floor, so their exact total is below count * floor,
    and so below the float bound = 2 * count * floor, however that rounds.
    Correct rounding is monotone, so fsum(core) <= fsum(all) <=
    fsum(core + [bound]), and when the two ends are equal they are the sum.
    Otherwise the whole window is summed.
    """
    size = len(terms)
    if size < CORE_MIN_TERMS:
        return _fsum_outward(terms.tolist(), mi)
    floor = CORE_REL * float(terms.max())
    above = terms >= floor
    a, b = int(above.argmax()), size - int(above[::-1].argmax())
    core = terms[a:b].tolist()
    m = min(max(mi, a), b - 1) - a
    fed = core[m:] + core[:m][::-1]
    total = math.fsum(fed)
    if b - a < size:
        fed.append(2.0 * (size - (b - a)) * floor)
        if math.fsum(fed) != total:
            return _fsum_outward(terms.tolist(), mi)
    return total


def _fisher_distribution(n_total: int, row1_total: int, col1_total: int) -> HypergeomDist:
    """The log-pmf over the window outside which every term is 0.0.

    Each edge starts at the first n11 whose log-pmf is WINDOW_NATS below the
    mode's, or at the end of the support, found by bisection on the lgamma
    log-pmf, which is concave in n11. The window is then checked on the
    enumerated terms: a running sum only falls away from the mode, so once an
    edge is WINDOW_NATS below the peak, so is every term beyond it. An edge
    still above that is moved twice as far from the mode.
    """
    lo, hi = _support(n_total, row1_total, col1_total)
    mode = _mode(n_total, row1_total, col1_total)
    n22_base = n_total - row1_total - col1_total

    def log_term(k: int) -> float:
        return -(math.lgamma(k + 1) + math.lgamma(row1_total - k + 1)
                 + math.lgamma(col1_total - k + 1) + math.lgamma(n22_base + k + 1))

    cut = log_term(mode) - WINDOW_NATS

    def edge(end: int) -> int:
        if log_term(end) >= cut:
            return end
        inside, outside = mode, end
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if log_term(mid) >= cut:
                inside = mid
            else:
                outside = mid
        return outside

    a, b = edge(lo), edge(hi)
    while True:
        dist = _enumerate(n_total, row1_total, col1_total, a, b)
        widen_a = a > lo and dist.log_pmf[0] > -WINDOW_NATS
        widen_b = b < hi and dist.log_pmf[-1] > -WINDOW_NATS
        if not (widen_a or widen_b):
            return dist
        if widen_a:
            a = max(lo, mode - 2 * (mode - a))
        if widen_b:
            b = min(hi, mode + 2 * (b - mode))


def hypergeom_distribution(n_total: int, row1_total: int, col1_total: int) -> HypergeomDist:
    """Enumerate the full log-pmf of n11 under fixed marginals.

    Cost is O(support size) = O(min(row1_total, col1_total) - support_lo).
    Fisher's test does not need this: `fisher_exact` enumerates only the
    O(sigma) terms that are nonzero in double precision.
    """
    lo, hi = _support(n_total, row1_total, col1_total)
    return _enumerate(n_total, row1_total, col1_total, lo, hi)


def fisher_from_dist(dist: HypergeomDist, n11: int) -> FisherResult:
    """Tail sums of an already-enumerated distribution at the observed n11.

    An n11 outside the enumerated range lies beyond a window whose outer
    terms are all 0.0; its own probability and the tail away from the window
    are then 0.0, and the other tail holds the whole mass.
    """
    pmf = dist.pmf()
    mi = _mode(dist.n_total, dist.row1_total, dist.col1_total) - dist.support_lo
    if not dist.support_lo <= n11 <= dist.support_hi:
        whole = min(1.0, _fsum_window(pmf, mi))
        if n11 < dist.support_lo:
            return FisherResult(left_p=0.0, right_p=whole, two_sided_p=0.0, point_p=0.0)
        return FisherResult(left_p=whole, right_p=0.0, two_sided_p=0.0, point_p=0.0)
    idx = n11 - dist.support_lo
    point = float(pmf[idx])
    left = min(1.0, _fsum_window(pmf[: idx + 1], min(mi, idx)))
    right = min(1.0, _fsum_window(pmf[idx:], max(0, mi - idx)))
    cutoff = dist.log_pmf[idx] + math.log1p(TWO_SIDED_TIE_REL_TOL)
    two = min(1.0, _fsum_window(pmf * (dist.log_pmf <= cutoff), mi))
    return FisherResult(left_p=left, right_p=right, two_sided_p=two, point_p=point)


def fisher_exact(table: ContingencyTable2x2) -> FisherResult:
    """Fisher's exact test: tail sums of the hypergeometric distribution of n11.

    Only the window around the mode where terms are nonzero in double
    precision is enumerated, O(sigma) terms; the result equals
    `fisher_from_dist(hypergeom_distribution(...), n11)` to the bit.

    A zero marginal forces a single feasible table, which is certain under the
    null; all four probabilities are then 1.
    """
    dist = _fisher_distribution(table.total, table.row1, table.col1)
    return fisher_from_dist(dist, table.n11)
