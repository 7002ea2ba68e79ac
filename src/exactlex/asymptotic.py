"""Asymptotic significance tests and association measures for 2x2 tables.

Covers Pearson's X^2, the likelihood-ratio G^2, the Yates continuity-adjusted
and Mantel-Haenszel chi-square variants, the one-sample bigram t-test, and
the special functions (chi-square and normal upper tails) that turn
statistics into p-values. `Battery` holds every formula; the test functions
are views of it that raise when the table refuses the test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(500):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(chi^2_df >= x) via the regularized incomplete gamma."""
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x == 0:
        return 1.0
    a = df / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return 1.0 - _lower_gamma_series(a, half)
    return _upper_gamma_cf(a, half)


def normal_sf(z: float) -> float:
    """Standard normal upper tail P(Z >= z), via the complementary error function."""
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
    The expected counts, X^2, G^2 and t, which every caller reads, are
    computed at construction. Yates, Mantel-Haenszel and the measures, which
    only `report.compute_all` reads, are each computed on first access, and
    the last two build on the X^2 already taken.
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
