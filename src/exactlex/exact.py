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
float as in the full enumeration, and every sum is a correctly rounded
`math.fsum`, so the p-values are bit-identical to summing the whole support.
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

    def log_pmf_at(self, n11: int) -> float:
        if not self.support_lo <= n11 <= self.support_hi:
            return -math.inf
        return float(self.log_pmf[n11 - self.support_lo])

    def pmf_at(self, n11: int) -> float:
        return math.exp(self.log_pmf_at(n11))

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
    if size == 1:
        return HypergeomDist(n_total, row1_total, col1_total, lo, hi, np.zeros(1))

    # Step ratio pmf(k+1)/pmf(k) = (row1-k)(col1-k) / ((k+1)(n-row1-col1+k+1)),
    # exact in small integers; its log is accurate to a few ulps per step.
    k = np.arange(lo, hi, dtype=np.float64)
    log_ratio = (
        np.log(row1_total - k)
        + np.log(col1_total - k)
        - np.log(k + 1.0)
        - np.log(n_total - row1_total - col1_total + k + 1.0)
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
    log_norm = peak + math.log(_fsum_outward(np.exp(unnorm - peak).tolist(), mi))
    return HypergeomDist(n_total, row1_total, col1_total, lo, hi, unnorm - log_norm)


def _fsum_outward(terms: list[float], mi: int) -> float:
    """math.fsum of `terms`, fed from index `mi` outward.

    From the mode outward each side is a falling run, so this feeds the
    largest terms first and fsum keeps few partials. fsum is correctly
    rounded, so the order changes its speed, never its result.
    """
    return math.fsum(terms[mi:] + terms[:mi][::-1])


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
    terms = pmf.tolist()
    mi = _mode(dist.n_total, dist.row1_total, dist.col1_total) - dist.support_lo
    if not dist.support_lo <= n11 <= dist.support_hi:
        whole = min(1.0, _fsum_outward(terms, mi))
        if n11 < dist.support_lo:
            return FisherResult(left_p=0.0, right_p=whole, two_sided_p=0.0, point_p=0.0)
        return FisherResult(left_p=whole, right_p=0.0, two_sided_p=0.0, point_p=0.0)
    idx = n11 - dist.support_lo
    point = terms[idx]
    left = min(1.0, _fsum_outward(terms[: idx + 1], min(mi, idx)))
    right = min(1.0, _fsum_outward(terms[idx:], max(0, mi - idx)))
    cutoff = dist.log_pmf[idx] + math.log1p(TWO_SIDED_TIE_REL_TOL)
    two = min(1.0, _fsum_outward((pmf * (dist.log_pmf <= cutoff)).tolist(), mi))
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
