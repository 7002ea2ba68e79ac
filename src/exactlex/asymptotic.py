"""Asymptotic significance tests and association measures for 2x2 tables.

Covers Pearson's X^2, the likelihood-ratio G^2, the Yates continuity-adjusted
and Mantel-Haenszel chi-square variants, the one-sample bigram t-test, and
the special functions (chi-square and normal upper tails) that turn
statistics into p-values. Every chi-square test here has df = 1, whose tail
is erfc(sqrt(x/2)). `chi_square_sf` takes any integer df >= 1 in closed
form, as a finite sum of erfc and exp terms whose count grows with df, with
no iteration to converge. `Battery` holds every formula for one
table; the test functions are views of it that raise when the table refuses
the test.
`_battery_columns` takes Battery's expected n11 and its X^2, G^2 and t
p-values over many tables at once, to the bit: the same float operations
per table, mapped over columns.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import index, mul, sub, truediv

import numpy as np

from .errors import DegenerateTableError, ExactLexError, UndefinedStatisticError
from .tables import ContingencyTable2x2, ExpectedTable, expected_counts

# Why a table refuses the chi-square tests, and why it refuses the t-test:
# `Battery.notes` holds these, and scan records carry them.
DEGENERATE_NOTE = "degenerate table: a zero marginal gives a zero expected count"
T_UNDEFINED_NOTE = "t-statistic undefined: n11 = 0"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: int | None  # 1 for the chi-square family, None for the normal-limit t-test
    p_value: float


@dataclass(frozen=True)
class AssociationMeasures:
    phi: float
    contingency_coefficient: float
    cramers_v: float  # signed; equals phi for 2x2 tables


def _gamma_sum(half: float, df: int) -> float:
    """`chi_square_sf`'s finite sum at h = half, for an integer df >= 2 and a
    finite half > 0. It is a function of its own so that the generator's
    closure is built here, not in every df = 1 call of `chi_square_sf`."""
    s = df % 2 / 2
    log_half = math.log(half)
    # Each term is taken in log space, so none underflows where the tail does not.
    terms = (math.exp((j + s) * log_half - half - math.lgamma(j + s + 1.0)) for j in range(df // 2))
    return math.fsum(chain([math.erfc(math.sqrt(half))] if s else [], terms))


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(chi^2_df >= x) for an integer df >= 1; 0.0 at x = inf.

    With h = x/2 and s = (df mod 2)/2 the tail is the finite sum
    (Abramowitz & Stegun 26.4.4-26.4.5)

        Q = [erfc(sqrt(h)) if df is odd] + sum_{j < floor(df/2)} h**(j + s) e**-h / Gamma(j + s + 1),

    taken with one `math.fsum`, each term in log space. df = 1 is the single
    libm call erfc(sqrt(x/2)) and df = 2 the single term exp(-x/2): both are
    non-increasing in x and within a relative (x + 16) * 2**-52 of mpmath on
    seeded samples wherever the tail is a normal float. The cost is linear in
    df: on Python 3.11, about 1.3 us a call at df = 3 and 13 us at df = 100,
    against 0.13 us at df = 1. df may be a numpy integer; a float df raises
    ValueError, as df < 1 does.
    """
    if not x >= 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    if df == 1:
        return math.erfc(math.sqrt(x / 2.0))
    try:
        df = index(df)
    except TypeError:
        raise ValueError(f"degrees of freedom must be an integer, got {df}") from None
    if df < 1:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    half = x / 2.0
    if half == 0:  # x is 0, or the least subnormal, whose half rounds to 0
        return 1.0
    if half == math.inf:
        return 0.0
    return _gamma_sum(half, df)


def normal_sf(z: float) -> float:
    """Standard normal upper tail P(Z >= z), via the complementary error function;
    ValueError on NaN, as `chi_square_sf` raises."""
    if z != z:
        raise ValueError(f"normal statistic must be a number, got {z}")
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _refusable(method):
    """A test evaluated on first access, or None when the table has a note against it."""
    @functools.wraps(method)
    def evaluate(self):
        return None if method.__name__ in self.notes else method(self)
    return functools.cached_property(evaluate)


class Battery:
    """Every asymptotic test on one table.

    `pearson`, `g2`, `yates`, `mantel_haenszel`, `t_test` and `measures` are
    each a result, or None when the table refuses that test; `notes` then maps
    the test's name to the reason. The reasons are known from the table alone
    (a zero marginal, or n11 = 0), so `notes` is complete at construction.
    The expected counts, X^2, G^2 and t are computed at construction.
    Yates, Mantel-Haenszel and the measures are each computed on first
    access, and the last two build on the X^2 already taken.

    One table's callers read it: `report.compute_all` (the `test` and `tea`
    reports) and the test functions below. Callers that score many tables
    (`assoc`, `simulate`) read `_battery_columns` instead, which gives the
    same bits, and whose equality tests take Battery as the reference.
    """

    def __init__(self, table: ContingencyTable2x2) -> None:
        self.table = table
        self.notes: dict[str, str] = {}
        # A zero marginal is the only way to a zero expected count: for one to
        # underflow, another would first overflow in expected_counts.
        if min(table.row1, table.row2, table.col1, table.col2) == 0:
            self.notes.update(dict.fromkeys(("pearson", "g2", "yates", "mantel_haenszel"), DEGENERATE_NOTE))
            self.notes["measures"] = "degenerate table: a marginal total is zero"
        if table.n11 == 0:
            self.notes["t_test"] = T_UNDEFINED_NOTE
        self.expected: ExpectedTable = expected_counts(table)
        self.pearson = None if "pearson" in self.notes else self._pearson()
        self.g2 = None if "g2" in self.notes else self._g2()
        self.t_test = None if "t_test" in self.notes else self._t_test()

    def _observed_expected(self):
        return zip(self.table.cells, self.expected.cells)

    def _pearson(self) -> TestResult:
        """Pearson's X^2 = sum (observed - expected)^2 / expected."""
        stat = math.fsum((n - m) ** 2 / m for n, m in self._observed_expected())
        return TestResult(stat, 1, chi_square_sf(stat, 1))

    def _g2(self) -> TestResult:
        """Likelihood-ratio G^2 = 2 sum n ln(n/m); zero cells contribute zero (the limit)."""
        stat = 2.0 * math.fsum(n * math.log(n / m) for n, m in self._observed_expected() if n > 0)
        stat = max(0.0, stat)
        return TestResult(stat, 1, chi_square_sf(stat, 1))

    def _t_test(self) -> TestResult:
        """One-sample t-statistic for bigram data, (n11 - m11)/sqrt(n11).

        The sample variance is approximated by the bigram's relative frequency,
        so the statistic is undefined when n11 = 0. Significance is the
        one-sided upper tail of the standard normal (the statistic's
        large-sample limit).
        """
        n11 = self.table.n11
        stat = (n11 - self.expected.m11) / math.sqrt(n11)
        return TestResult(stat, None, normal_sf(stat))

    @_refusable
    def yates(self) -> TestResult:
        """Continuity-adjusted X^2: each |n - m| shrunk by 0.5 (clamped at 0) before squaring."""
        stat = math.fsum(max(0.0, abs(n - m) - 0.5) ** 2 / m for n, m in self._observed_expected())
        return TestResult(stat, 1, chi_square_sf(stat, 1))

    @_refusable
    def mantel_haenszel(self) -> TestResult:
        """Mantel-Haenszel chi-square: (n - 1)/n times Pearson's X^2."""
        n = self.table.total
        stat = (n - 1) / n * self.pearson.statistic
        return TestResult(stat, 1, chi_square_sf(stat, 1))

    @_refusable
    def measures(self) -> AssociationMeasures:
        """Phi, the contingency coefficient, and signed Cramer's V."""
        t = self.table
        denom = math.sqrt(t.row1) * math.sqrt(t.row2) * math.sqrt(t.col1) * math.sqrt(t.col2)
        phi = (t.n11 * t.n22 - t.n12 * t.n21) / denom
        x2 = self.pearson.statistic
        cc = math.sqrt(x2 / (x2 + t.total))
        return AssociationMeasures(phi=phi, contingency_coefficient=cc, cramers_v=phi)


def _battery_columns(n11: Sequence[int], row1: Sequence[int], col1: Sequence[int],
                     n_total: Sequence[int]) -> dict[str, np.ndarray]:
    """Battery's expected n11 and its X^2, G^2 and t p-values for the tables
    (n11, row1, col1, N), given as four equal-length sequences of Python
    ints (so N may pass 2**63): one float64 row per name ("m11", "x2", "g2",
    "t") with one value per table, NaN where Battery gives None.

    Each value is Battery's to the bit. Its formulas are mapped over the
    columns with Battery's float operations: the expected counts as Python's
    correctly rounded int / int, each (n - m) ** 2 through libm's pow, one
    `math.fsum` per table for X^2 and one for G^2, libm's log and erfc.
    Refusals are decided from the integer marginals, and the X^2 and G^2
    tails are `chi_square_sf`'s at df = 1: one erfc(sqrt(x/2)) per value.
    A table that `ContingencyTable2x2` refuses (a cell not an int, a
    negative cell, or no observations) is built as one, so the first such
    raises its error.
    """
    n12, n21 = list(map(sub, row1, n11)), list(map(sub, col1, n11))
    row2, col2 = list(map(sub, n_total, row1)), list(map(sub, n_total, col1))
    cells = (n11, n12, n21, list(map(sub, row2, n21)))
    # Nonnegative cells sum to N, so they are all zero exactly where N is.
    if n11 and ({int} != set(map(type, chain(*cells))) or min(map(min, cells)) < 0
                or 0 in n_total):
        for table in zip(*cells):
            ContingencyTable2x2(*table)
    m11 = list(map(truediv, map(mul, row1, col1), n_total))
    refused = np.full(len(m11), math.nan)
    rows = {"m11": np.array(m11, dtype=np.float64), "x2": refused.copy(), "g2": refused.copy(),
            "t": refused}

    # X^2 and G^2 need four nonzero marginals. A zero cell, which Battery leaves out
    # of G^2's sum, adds 0 * ln(1.0) = 0.0 here: that changes no rounded sum
    # but the sign of a zero one, and max(0.0, -0.0) is 0.0.
    live = list(map(bool, map(min, row1, row2, col1, col2)))
    expected = [list(compress(m11, live))] + [
        list(map(truediv, map(mul, compress(r, live), compress(c, live)), compress(n_total, live)))
        for r, c in ((row1, col2), (row2, col1), (row2, col2))]
    x2_terms, g2_terms = [], []
    for n, m in zip((list(compress(cell, live)) for cell in cells), expected):
        x2_terms.append(map(truediv, map(pow, map(sub, n, m), repeat(2)), m))
        g2_terms.append(map(mul, n, map(math.log, [k / e if k else 1.0 for k, e in zip(n, m)])))
    x2 = list(map(math.fsum, zip(*x2_terms)))
    g2 = [max(0.0, 2.0 * s) for s in map(math.fsum, zip(*g2_terms))]
    tails = list(map(chi_square_sf, x2 + g2, repeat(1)))
    rows["x2"][live], rows["g2"][live] = tails[:len(x2)], tails[len(x2):]

    # normal_sf(z) = 0.5 erfc(z / sqrt 2) of z = (n11 - m11) / sqrt(n11), where n11 > 0.
    has_n11 = list(map(bool, n11))
    k = list(compress(n11, has_n11))
    z = map(truediv, map(sub, k, compress(m11, has_n11)), map(math.sqrt, k))
    erfc = map(math.erfc, map(truediv, z, repeat(math.sqrt(2.0))))
    rows["t"][has_n11] = 0.5 * np.array(list(erfc), dtype=np.float64)
    return rows


def _view(table: ContingencyTable2x2, name: str, error: type[ExactLexError]):
    tests = Battery(table)
    result = getattr(tests, name)
    if result is None:
        raise error(tests.notes[name])
    return result


def pearson_x2(table: ContingencyTable2x2) -> TestResult:
    """Battery(table).pearson; DegenerateTableError on a zero marginal."""
    return _view(table, "pearson", DegenerateTableError)


def likelihood_g2(table: ContingencyTable2x2) -> TestResult:
    """Battery(table).g2; DegenerateTableError on a zero marginal."""
    return _view(table, "g2", DegenerateTableError)


def yates_x2(table: ContingencyTable2x2) -> TestResult:
    """Battery(table).yates; DegenerateTableError on a zero marginal."""
    return _view(table, "yates", DegenerateTableError)


def mantel_haenszel_x2(table: ContingencyTable2x2) -> TestResult:
    """Battery(table).mantel_haenszel; DegenerateTableError on a zero marginal."""
    return _view(table, "mantel_haenszel", DegenerateTableError)


def t_test(table: ContingencyTable2x2) -> TestResult:
    """Battery(table).t_test; UndefinedStatisticError when n11 = 0."""
    return _view(table, "t_test", UndefinedStatisticError)


def association_measures(table: ContingencyTable2x2) -> AssociationMeasures:
    """Battery(table).measures; DegenerateTableError on a zero marginal."""
    return _view(table, "measures", DegenerateTableError)
