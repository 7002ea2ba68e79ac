"""Independent slow-but-sure reference implementations used only by tests.

These deliberately avoid the library's log-space and closed-form tail code
paths: the hypergeometric oracle works in exact big-integer rationals, and
the tail-probability oracles go through mpmath / numerical quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction

TIE_TOL = Fraction(1, 10**7)


def rational_pmf(n_total: int, row1: int, col1: int) -> dict[int, Fraction]:
    """Exact hypergeometric pmf of n11 via big-integer binomials."""
    lo = max(0, row1 + col1 - n_total)
    hi = min(row1, col1)
    denom = math.comb(n_total, row1)
    return {
        k: Fraction(math.comb(col1, k) * math.comb(n_total - col1, row1 - k), denom)
        for k in range(lo, hi + 1)
    }


def rational_fisher(n_total: int, row1: int, col1: int, n11: int):
    """Exact left/right/two-sided/point values, including the documented
    relative tie tolerance in the two-sided tally."""
    pmf = rational_pmf(n_total, row1, col1)
    point = pmf[n11]
    left = sum(p for k, p in pmf.items() if k <= n11)
    right = sum(p for k, p in pmf.items() if k >= n11)
    cutoff = point * (1 + TIE_TOL)
    two = sum(p for p in pmf.values() if p <= cutoff)
    return left, right, min(two, Fraction(1)), point


def hypergeom_pmf_oracle(n_total: int, row1: int, col1: int, n11: int) -> float:
    """The hypergeometric pmf at n11 from mpmath's loggamma at 80 digits,
    for marginals too large for big-integer binomials."""
    import mpmath

    def log_comb(a: int, b: int):
        return mpmath.loggamma(a + 1) - mpmath.loggamma(b + 1) - mpmath.loggamma(a - b + 1)

    with mpmath.workdps(80):
        return float(mpmath.exp(log_comb(col1, n11) + log_comb(n_total - col1, row1 - n11)
                                - log_comb(n_total, row1)))


def normal_sf_oracle(z: float) -> float:
    """High-precision standard normal upper tail via mpmath's erfc."""
    import mpmath

    return float(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2)


def chi_square_sf_quadrature(x: float, df: int) -> float:
    """Upper tail of chi-square by adaptive quadrature of its density."""
    from scipy.integrate import quad

    a = df / 2.0
    norm = 2.0**a * math.gamma(a)

    def pdf(t: float) -> float:
        return t ** (a - 1.0) * math.exp(-t / 2.0) / norm

    value, _ = quad(pdf, x, math.inf, limit=200)
    return value
