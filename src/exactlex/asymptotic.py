"""Asymptotic significance tests and association measures for 2x2 tables.

Covers Pearson's X^2, the likelihood-ratio G^2, the Yates continuity-adjusted
and Mantel-Haenszel chi-square variants, the one-sample bigram t-test, and
the special functions (chi-square and normal upper tails) that turn
statistics into p-values. Every chi-square test here has df = 1, whose tail
is erfc(sqrt(x/2)). `chi_square_sf` takes any integer df >= 1 in closed
form, as a finite sum of erfc and exp terms whose count grows with df, with
no iteration to converge.
X^2, G^2 and t have one formula each, `_statistics`, which takes one table
as Python ints. `Battery` holds every test on one table and reads those
three from it; the test functions are views of Battery that raise when the
table refuses the test. `_battery_columns` maps `_statistics` over many
tables at once, for Battery's expected n11 and its X^2, G^2 and t p-values.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import index, sub

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


def _statistics(n11: int, row1: int, col1: int, n: int) -> tuple[float, float, float, float]:
    """The expected n11 and the X^2, G^2 and t statistics of the table
    (n11, row1, col1, N), given as Python ints (so N may pass 2**63): NaN
    for X^2 and G^2 where a marginal is zero, and for t where n11 = 0.

    Each expected count m = row * col / N is Python's correctly rounded
    int / int. Pearson's X^2 = sum (n - m)^2 / m and the likelihood ratio
    G^2 = 2 sum n ln(n/m) are each one `math.fsum` over the cells; a zero
    cell adds nothing to G^2 (the limit), and G^2 is clamped at 0. The
    one-sample bigram t-statistic is (n11 - m11)/sqrt(n11): the sample
    variance is approximated by the bigram's relative frequency, so t is
    undefined at n11 = 0, and its large-sample limit is the standard normal.
    """
    row2, col2 = n - row1, n - col1
    m11 = row1 * col1 / n
    t = (n11 - m11) / math.sqrt(n11) if n11 else math.nan
    # A zero marginal is the only way to a zero expected count: each other
    # one is at least 1/N, which underflows only where N overflows a float.
    if not (row1 and row2 and col1 and col2):
        return m11, math.nan, math.nan, t
    n12, n21 = row1 - n11, col1 - n11
    n22, m12, m21, m22 = row2 - n21, row1 * col2 / n, row2 * col1 / n, row2 * col2 / n
    x2 = math.fsum(((n11 - m11) ** 2 / m11, (n12 - m12) ** 2 / m12, (n21 - m21) ** 2 / m21,
                    (n22 - m22) ** 2 / m22))
    # A zero cell adds an exact 0: that changes no rounded sum but the sign
    # of a zero one, and max(0.0, -0.0) is 0.0.
    g2 = 2.0 * math.fsum((n11 and n11 * math.log(n11 / m11), n12 and n12 * math.log(n12 / m12),
                          n21 and n21 * math.log(n21 / m21), n22 and n22 * math.log(n22 / m22)))
    return m11, x2, max(0.0, g2), t


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
    The expected counts are computed at construction, and so are X^2, G^2
    and t, from `_statistics`. Yates, Mantel-Haenszel and the measures are
    each computed on first access, and the last two build on the X^2
    already taken.

    One table's callers read it: `report.compute_all` (the `test` and `tea`
    reports) and the test functions below. Callers that score many tables
    (`assoc`, `simulate`) read `_battery_columns` instead, which maps the
    same `_statistics` over them.
    """

    def __init__(self, table: ContingencyTable2x2) -> None:
        self.table = table
        self.notes: dict[str, str] = {}
        if min(table.row1, table.row2, table.col1, table.col2) == 0:
            self.notes.update(dict.fromkeys(("pearson", "g2", "yates", "mantel_haenszel"), DEGENERATE_NOTE))
            self.notes["measures"] = "degenerate table: a marginal total is zero"
        if table.n11 == 0:
            self.notes["t_test"] = T_UNDEFINED_NOTE
        self.expected: ExpectedTable = expected_counts(table)
        _, x2, g2, t = _statistics(table.n11, table.row1, table.col1, table.total)
        self.pearson, self.g2 = (None if "pearson" in self.notes else TestResult(s, 1, chi_square_sf(s, 1))
                                 for s in (x2, g2))
        self.t_test = None if "t_test" in self.notes else TestResult(t, None, normal_sf(t))

    @_refusable
    def yates(self) -> TestResult:
        """Continuity-adjusted X^2: each |n - m| shrunk by 0.5 (clamped at 0) before squaring."""
        stat = math.fsum(max(0.0, abs(n - m) - 0.5) ** 2 / m
                         for n, m in zip(self.table.cells, self.expected.cells))
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

    Each value is Battery's, being `_statistics` of the table and then
    `chi_square_sf(x, 1)` of X^2 and G^2 and `normal_sf` of t where they
    are defined. A table that `ContingencyTable2x2` refuses (a cell not an
    int, a negative cell, or no observations) is built as one, so the first
    such raises its error.
    """
    n12, n21 = list(map(sub, row1, n11)), list(map(sub, col1, n11))
    cells = (n11, n12, n21, list(map(sub, map(sub, n_total, row1), n21)))
    # Nonnegative cells sum to N, so they are all zero exactly where N is.
    if n11 and ({int} != set(map(type, chain(*cells))) or min(map(min, cells)) < 0
                or 0 in n_total):
        for table in zip(*cells):
            ContingencyTable2x2(*table)
    statistics = chain.from_iterable(map(_statistics, n11, row1, col1, n_total))
    rows = np.fromiter(statistics, np.float64, 4 * len(n11)).reshape(-1, 4).T
    m11, x2, g2, t = rows
    live, has_n11 = ~np.isnan(x2), ~np.isnan(t)
    x2[live] = list(map(chi_square_sf, x2[live].tolist(), repeat(1)))
    g2[live] = list(map(chi_square_sf, g2[live].tolist(), repeat(1)))
    t[has_n11] = list(map(normal_sf, t[has_n11].tolist()))
    return dict(zip(("m11", "x2", "g2", "t"), rows))


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
