import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactlex import (
    DegenerateTableError,
    EmptyTableError,
    NegativeCountError,
    UndefinedStatisticError,
    association_measures,
    chi_square_sf,
    expected_counts,
    fisher_exact,
    likelihood_g2,
    make_table,
    mantel_haenszel_x2,
    normal_sf,
    pearson_x2,
    t_test,
    transpose,
    yates_x2,
)
from exactlex import asymptotic, assoc
from exactlex.corpus import BigramCounts
from exactlex.report import SCORE_ROWS, _score_columns, compute_all
from oracles import chi_square_sf_quadrature, normal_sf_oracle

TEA_PERFECT = make_table(4, 0, 0, 4)
TEA_THREE = make_table(3, 1, 1, 3)


class TestChiSquareFamily:
    def test_pearson_tea(self):
        r = pearson_x2(TEA_PERFECT)
        assert r.statistic == pytest.approx(8.000, abs=5e-4)
        assert round(r.p_value, 3) == 0.005
        r = pearson_x2(TEA_THREE)
        assert r.statistic == pytest.approx(2.000, abs=5e-4)
        assert round(r.p_value, 3) == 0.157

    def test_pearson_perfect_fit(self):
        r = pearson_x2(make_table(1, 1, 1, 1))
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_g2_tea(self):
        r = likelihood_g2(TEA_PERFECT)
        assert r.statistic == pytest.approx(11.090, abs=5e-4)
        assert round(r.p_value, 3) == 0.001
        r = likelihood_g2(TEA_THREE)
        assert r.statistic == pytest.approx(2.093, abs=5e-4)
        assert round(r.p_value, 3) == 0.148

    def test_g2_zero_when_observed_equals_expected(self):
        r = likelihood_g2(make_table(2, 2, 2, 2))
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_yates_tea(self):
        assert yates_x2(TEA_PERFECT).statistic == pytest.approx(4.500, abs=5e-4)
        assert round(yates_x2(TEA_PERFECT).p_value, 3) == 0.034
        assert yates_x2(TEA_THREE).statistic == pytest.approx(0.500, abs=5e-4)
        assert round(yates_x2(TEA_THREE).p_value, 3) == 0.480

    def test_yates_clamps_small_deviations(self):
        assert yates_x2(make_table(1, 1, 1, 1)).statistic == 0.0

    def test_mantel_haenszel_tea(self):
        assert mantel_haenszel_x2(TEA_PERFECT).statistic == pytest.approx(7.000, abs=5e-4)
        assert round(mantel_haenszel_x2(TEA_PERFECT).p_value, 3) == 0.008
        assert mantel_haenszel_x2(TEA_THREE).statistic == pytest.approx(1.750, abs=5e-4)
        assert round(mantel_haenszel_x2(TEA_THREE).p_value, 3) == 0.186
        assert mantel_haenszel_x2(make_table(1, 1, 1, 1)).statistic == 0.0

    def test_mh_is_scaled_pearson(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cells = [int(c) for c in rng.integers(1, 300, size=4)]
            t = make_table(*cells)
            mh = mantel_haenszel_x2(t).statistic
            x2 = pearson_x2(t).statistic
            expected = (t.total - 1) / t.total * x2
            assert mh == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_degenerate_marginal_rejected(self):
        degenerate = make_table(0, 0, 3, 5)
        for test in (pearson_x2, likelihood_g2, yates_x2, mantel_haenszel_x2):
            with pytest.raises(DegenerateTableError):
                test(degenerate)

    def test_statistics_zero_iff_perfect_fit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cells = [int(c) for c in rng.integers(1, 50, size=4)]
            t = make_table(*cells)
            m = expected_counts(t)
            perfect = all(n == e for n, e in zip(t.cells, m.cells))
            x2 = pearson_x2(t).statistic
            g2 = likelihood_g2(t).statistic
            if perfect:
                assert x2 == 0.0 and g2 == 0.0
            else:
                assert x2 > 0.0 and g2 > 0.0

    def test_transpose_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            cells = [int(c) for c in rng.integers(1, 100, size=4)]
            t = make_table(*cells)
            for test in (pearson_x2, likelihood_g2, yates_x2, mantel_haenszel_x2, t_test):
                assert test(t).statistic == pytest.approx(test(transpose(t)).statistic, rel=1e-12)
            assert fisher_exact(t).two_sided_p == fisher_exact(transpose(t)).two_sided_p


class TestTTest:
    def test_statistic_near_expectation(self):
        # n11 = 22 with m11 = 21.14: statistic straight from the definition.
        assert (22 - 21.14) / math.sqrt(22) == pytest.approx(0.18336, abs=1e-4)

    def test_statistic_far_from_expectation(self):
        assert (17 - 0.20) / math.sqrt(17) == pytest.approx(4.0745, abs=1e-3)

    def test_zero_numerator(self):
        t = make_table(1, 1, 1, 1)  # n11 == m11 == 1
        r = t_test(t)
        assert r.statistic == 0.0
        assert r.p_value == 0.5

    def test_undefined_when_n11_zero(self):
        with pytest.raises(UndefinedStatisticError):
            t_test(make_table(0, 4, 4, 0))


class TestSpecialFunctions:
    def test_chi_square_reference_values(self):
        assert round(chi_square_sf(8.000, 1), 3) == 0.005
        assert chi_square_sf(8.0, 1) == pytest.approx(0.004678, abs=5e-7)
        assert round(chi_square_sf(2.000, 1), 3) == 0.157
        assert chi_square_sf(0.0, 1) == 1.0
        assert chi_square_sf(5e-324, 1) == 1.0  # its half rounds to 0

    def test_chi_square_rejects_negative(self):
        with pytest.raises(ValueError):
            chi_square_sf(-0.1, 1)

    @pytest.mark.parametrize("df", [1, 2, 5])
    def test_chi_square_rejects_nan_and_is_zero_at_infinity(self, df):
        with pytest.raises(ValueError, match="must be nonnegative, got nan"):
            chi_square_sf(math.nan, df)
        assert chi_square_sf(math.inf, df) == 0.0

    def test_chi_square_rejects_no_degrees_of_freedom(self):
        with pytest.raises(ValueError, match="degrees of freedom must be positive, got 0"):
            chi_square_sf(1.0, 0)

    def test_chi_square_rejects_a_float_df(self):
        with pytest.raises(ValueError, match="degrees of freedom must be an integer, got 2.5"):
            chi_square_sf(1.0, 2.5)

    def test_chi_square_takes_a_numpy_integer_df(self):
        assert chi_square_sf(3.0, np.int64(3)) == chi_square_sf(3.0, 3)

    def test_chi_square_matches_quadrature(self):
        for x in np.linspace(0.1, 40.0, 25):
            assert chi_square_sf(float(x), 1) == pytest.approx(
                chi_square_sf_quadrature(float(x), 1), abs=1e-9
            )

    def test_chi_square_higher_df(self):
        for df in (2, 3, 5, 10):
            for x in (0.5, 2.0, 10.0, 30.0):
                assert chi_square_sf(x, df) == pytest.approx(
                    chi_square_sf_quadrature(x, df), abs=1e-10
                )

    def test_chi_square_equals_folded_normal(self):
        for x in np.linspace(0.0, 50.0, 51):
            assert chi_square_sf(float(x), 1) == pytest.approx(
                2.0 * normal_sf(math.sqrt(x)), abs=1e-10
            )

    def test_chi_square_strictly_decreasing(self):
        grid = np.linspace(0.0, 60.0, 200)
        values = [chi_square_sf(float(x), 1) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @staticmethod
    def _assert_within_conditioning_bound(df):
        # The closed-form tail against mpmath's regularized upper incomplete
        # gamma Q(df/2, x/2). Its relative condition number in x is
        # about x/2, so (x + 16) ulps of 1.0 allows for that and some slack;
        # x whose true tail is subnormal are left out.
        import mpmath

        rng = np.random.default_rng(23)
        xs = np.concatenate([rng.exponential(1.0, 1000), rng.uniform(0.0, 40.0, 1000),
                             10.0 ** rng.uniform(-10.0, math.log10(2e3), 1000),
                             rng.uniform(2.9, 3.1, 1000)])
        checked = 0
        with mpmath.workdps(40):
            for x in map(float, xs):
                want = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
                if want < mpmath.mpf(2) ** -1022:
                    continue
                error = abs((mpmath.mpf(chi_square_sf(x, df)) - want) / want)
                assert error <= (x + 16) * 2.0**-52, x
                checked += 1
        assert checked > 3900

    @staticmethod
    def _assert_monotone_walk(df, start):
        # A larger X^2 never gets a larger p; neighbouring floats may tie.
        x, previous = start, chi_square_sf(start, df)
        for _ in range(20_000):
            x = math.nextafter(x, math.inf)
            value = chi_square_sf(x, df)
            assert value <= previous, x
            previous = value

    def test_chi_square_df1_within_conditioning_bound(self):
        self._assert_within_conditioning_bound(1)

    def test_chi_square_df2_within_conditioning_bound(self):
        self._assert_within_conditioning_bound(2)

    @pytest.mark.parametrize("df", [3, 4, 5, 10, 30])
    def test_chi_square_higher_df_within_conditioning_bound(self, df):
        self._assert_within_conditioning_bound(df)

    def test_chi_square_at_a_large_df_sums_every_term(self):
        # 50,000 terms at df = 10**5, near the median, where a capped iteration
        # stops short. The terms' exponents reach 5e5, whose rounding alone
        # allows a relative error near 1e-10.
        import mpmath

        with mpmath.workdps(40):
            want = mpmath.gammainc(mpmath.mpf(10**5) / 2, mpmath.mpf(10**5) / 2, mpmath.inf,
                                   regularized=True)
            assert abs((chi_square_sf(1e5, 10**5) - want) / want) < 1e-9

    def test_chi_square_df2_is_one_exp(self):
        rng = np.random.default_rng(29)
        for x in map(float, rng.uniform(0.0, 100.0, 100_000)):
            assert chi_square_sf(x, 2) == math.exp(-x / 2.0), x

    @pytest.mark.parametrize("start", [0.0, 1.0, 2.0, 2.99, 3.0, 5.0, 10.0, 100.0])
    def test_chi_square_df1_monotone_between_neighbouring_floats(self, start):
        self._assert_monotone_walk(1, start)

    # 3.9, 4.0 and 6.0 straddle x = df + 2, where incomplete-gamma codes
    # commonly switch from a power series to a continued fraction, and where
    # such a switch rose between neighbouring floats at df = 2 and 3. At
    # df >= 4 the finite sum's rounded terms may rise by an ulp or two, so
    # no walk is claimed there.
    @pytest.mark.parametrize("start", [0.0, 1.0, 3.9, 4.0, 6.0, 10.0, 100.0])
    def test_chi_square_df2_monotone_between_neighbouring_floats(self, start):
        self._assert_monotone_walk(2, start)

    @pytest.mark.parametrize("start", [3.9, 4.0, 6.0, 100.0])
    def test_chi_square_df3_monotone_between_neighbouring_floats(self, start):
        self._assert_monotone_walk(3, start)

    def test_normal_sf_values(self):
        assert normal_sf(0.0) == 0.5
        assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-6)
        assert normal_sf(1.959964) == pytest.approx(normal_sf_oracle(1.959964), abs=1e-12)

    def test_normal_sf_rejects_nan(self):
        with pytest.raises(ValueError, match="must be a number, got nan"):
            normal_sf(math.nan)

    def test_normal_sf_extreme_tail_finite(self):
        tail = normal_sf(40.0)
        assert tail < 1e-300
        assert not math.isnan(tail)

    def test_normal_sf_strictly_decreasing(self):
        # Beyond |z| ~ 8.3 the lower tail rounds to exactly 1.0 in double
        # precision; strictness is only observable where values are distinct.
        grid = np.linspace(-8, 8, 81)
        values = [normal_sf(float(z)) for z in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_normal_sf_against_oracle_grid(self):
        for z in np.linspace(-8, 8, 33):
            assert normal_sf(float(z)) == pytest.approx(normal_sf_oracle(float(z)), abs=1e-12)


class TestAssociationMeasures:
    @pytest.mark.parametrize(
        "cells, phi, cc, v",
        [
            ((4, 0, 0, 4), 1.000, 0.707, 1.000),
            ((3, 1, 1, 3), 0.500, 0.447, 0.500),
            ((1, 3, 3, 1), -0.500, 0.447, -0.500),
            ((0, 4, 4, 0), -1.000, 0.707, -1.000),
        ],
    )
    def test_tea_values(self, cells, phi, cc, v):
        m = association_measures(make_table(*cells))
        assert round(m.phi, 3) == phi
        assert round(m.contingency_coefficient, 3) == cc
        assert round(m.cramers_v, 3) == v

    def test_cc_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            cells = [int(c) for c in rng.integers(1, 500, size=4)]
            t = make_table(*cells)
            m = association_measures(t)
            x2 = pearson_x2(t).statistic
            assert m.contingency_coefficient == pytest.approx(
                math.sqrt(x2 / (x2 + t.total)), abs=1e-10
            )
            assert abs(m.cramers_v) == pytest.approx(abs(m.phi), abs=1e-15)
            assert -1.0 <= m.phi <= 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTableError):
            association_measures(make_table(0, 0, 3, 5))


def _score(table):
    """What `assoc` and `simulate` read of one table: its column of `_score_columns`."""
    return _score_columns([table.n11], [table.row1], [table.col1], [table.total])


class TestBattery:
    @pytest.mark.parametrize("score, chi_square_tests", [
        (compute_all, 4),  # X^2, G^2, Yates and Mantel-Haenszel
        (lambda table: assoc.association_scan(  # X^2, G^2, through a scan's counts
            BigramCounts(Counter({("w", "x"): table.n11}), Counter({"w": table.row1}),
                         Counter({"x": table.col1}), table.total), fixed_second="x", min_count=0), 2),
        (_score, 2),  # X^2, G^2
    ])
    @pytest.mark.parametrize("cells", [(3, 1, 1, 3), (17, 229, 935, 1381647), (2, 7, 11, 40),
                                       (0, 5, 7, 30), (0, 0, 2, 3)])
    def test_each_caller_reads_one_battery(self, score, chi_square_tests, cells, monkeypatch):
        # compute_all reads one Battery. assoc and simulate read one
        # _battery_columns call over their distinct tables.
        table = make_table(*cells)
        x2 = None if min(table.row1, table.row2, table.col1, table.col2) == 0 \
            else pearson_x2(table).statistic
        expected_calls, tails, columns = [], [], []
        monkeypatch.setattr(asymptotic, "expected_counts",
                            lambda t: expected_calls.append(t) or expected_counts(t))
        monkeypatch.setattr(asymptotic, "chi_square_sf",
                            lambda x, df: tails.append(x) or chi_square_sf(x, df))
        monkeypatch.setattr(asymptotic, "_battery_columns",
                            lambda *c, battery=asymptotic._battery_columns:
                            columns.append(list(zip(*c))) or battery(*c))
        score(table)
        # The expected counts are taken once, by Battery or in the one columnar call.
        assert len(expected_calls) + len(columns) == 1
        assert columns in ([], [[(table.n11, table.row1, table.col1, table.total)]])
        if x2 is None:
            assert tails == []
        else:
            assert len(tails) == chi_square_tests
            assert tails.count(x2) == 1

    @pytest.mark.parametrize("cells", [(3, 1, 1, 3), (0, 5, 7, 30), (0, 0, 2, 3), (4, 0, 0, 4),
                                       (1, 0, 0, 0)])
    def test_results_are_none_exactly_where_noted(self, cells):
        table = make_table(*cells)
        tests = asymptotic.Battery(table)
        views = {"pearson": pearson_x2, "g2": likelihood_g2, "yates": yates_x2,
                 "mantel_haenszel": mantel_haenszel_x2, "t_test": t_test,
                 "measures": association_measures}
        for name, view in views.items():
            result = getattr(tests, name)
            if name in tests.notes:
                assert result is None
                with pytest.raises((DegenerateTableError, UndefinedStatisticError),
                                   match=re.escape(tests.notes[name])):
                    view(table)
            else:
                assert result == view(table)

    def test_reading_one_test_evaluates_no_other(self):
        # X^2, G^2 and t, which every caller reads, are taken at construction;
        # the tests only the report reads stay lazy.
        tests = asymptotic.Battery(make_table(3, 1, 1, 3))
        assert {"expected", "pearson", "g2", "t_test"} <= set(vars(tests))
        assert {"yates", "mantel_haenszel", "measures"}.isdisjoint(vars(tests))
        tests.yates
        assert {"mantel_haenszel", "measures"}.isdisjoint(vars(tests))


@st.composite
def _table_lists(draw):
    """Cells of tables from up to four marginals (N, row1, col1), N from 1 to
    past 2**63 and no support wider than 301 points. Each marginal gives
    its support's low end, n11 = 0 where it can be, and up to three other
    n11; some tables are then repeated, and all are shuffled."""
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.one_of(st.integers(1, 2000), st.integers(2**63 - 2, 2**64)))
        edge = draw(st.integers(0, min(n, 300)))
        row1, col1 = draw(st.sampled_from((edge, n - edge))), draw(st.integers(0, n))
        lo, hi = max(0, row1 + col1 - n), min(row1, col1)
        for k in [lo, *draw(st.lists(st.integers(lo, hi), max_size=3))]:
            cells.append((k, row1 - k, col1 - k, n - row1 - col1 + k))
    return draw(st.permutations(cells + draw(st.lists(st.sampled_from(cells), max_size=4))))


@settings(max_examples=60, deadline=None)
@given(cells=_table_lists())
@example(cells=[(0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1), (0, 5, 7, 2**64), (3, 2**63, 0, 1),
                (0, 5, 7, 2**64)])
def test_score_columns_equal_each_table_scored_alone(cells):
    # Every value is fisher_exact's or Battery's to the bit, and NaN lies
    # exactly where Battery gives None.
    tables = [make_table(*c) for c in cells]
    columns = _score_columns(*zip(*((t.n11, t.row1, t.col1, t.total) for t in tables)))
    assert columns.dtype == np.float64 and columns.shape == (len(SCORE_ROWS), len(tables))
    for table, column in zip(tables, columns.T.tolist()):
        fisher, tests = fisher_exact(table), asymptotic.Battery(table)
        asymptotic_p = (None if r is None else r.p_value for r in (tests.pearson, tests.g2, tests.t_test))
        want = (fisher.left_p, fisher.right_p, fisher.two_sided_p, *asymptotic_p, fisher.point_p,
                tests.expected.m11)
        assert [None if math.isnan(v) else v.hex() for v in column] == \
            [None if v is None else v.hex() for v in want]


def test_score_columns_of_no_tables():
    assert _score_columns([], [], [], []).shape == (len(SCORE_ROWS), 0)


def test_score_columns_refuse_the_first_table_the_table_type_refuses():
    # (5, 3, 9, 10) has n12 = -2, and (0, 0, 0, 0) is empty: the first raises,
    # with ContingencyTable2x2's own error and message.
    with pytest.raises(NegativeCountError, match="^n12 must be nonnegative, got -2$"):
        _score_columns([1, 5, 0], [2, 3, 0], [2, 9, 0], [10, 10, 0])
    with pytest.raises(EmptyTableError, match="^empty table: all four cells are zero$"):
        _score_columns([1, 0], [2, 0], [2, 0], [10, 0])


def _seeded_tables(seed, count):
    """`count` distinct tables (n11, row1, col1, N): N up to 2000, up to 10**9
    and past 2**63; margins from 0 to N; n11 at its support's low end, near
    its expected value (small X^2) or anywhere in its support."""
    rng = random.Random(seed)
    tables = {}
    while len(tables) < count:
        n = rng.choice((rng.randint(1, 2000), rng.randint(10**5, 10**9), rng.randint(2**63 - 2, 2**64)))
        row1, col1 = (rng.choice((rng.randint(0, min(n, 300)), rng.randint(0, n))) for _ in "rc")
        lo, hi = max(0, row1 + col1 - n), min(row1, col1)
        near = min(hi, max(lo, row1 * col1 // n + rng.randint(-3, 3)))
        n11 = rng.choice((lo, near, rng.randint(lo, hi)))
        tables[n11, row1, col1, n] = None
    return list(tables)


def test_battery_columns_equal_battery_on_a_seeded_batch():
    # 2,400 tables: both tails, and N past 2**63, where int64 products would wrap.
    tables = _seeded_tables(5, 2400)
    rows = asymptotic._battery_columns(*zip(*tables))
    got = zip(*(rows[name].tolist() for name in ("m11", "x2", "g2", "t")))
    statistics = []
    for (n11, row1, col1, n), values in zip(tables, got):
        tests = asymptotic.Battery(make_table(n11, row1 - n11, col1 - n11, n - row1 - col1 + n11))
        want = (tests.expected.m11, *(None if r is None else r.p_value
                                      for r in (tests.pearson, tests.g2, tests.t_test)))
        assert [None if math.isnan(v) else v.hex() for v in values] == \
            [None if v is None else v.hex() for v in want]
        statistics += [r.statistic for r in (tests.pearson, tests.g2) if r is not None]
    # Statistics on both sides of x = 3, whose df = 1 tail is 0.083: tables near
    # independence and tables far from it; and N past 2**63.
    assert min(statistics) < 3.0 < max(statistics)
    assert sum(n >= 2**63 for *_, n in tables) >= 500


def test_statistics_match_exact_arithmetic_on_a_seeded_batch():
    # X^2 and t's numerator n11 - m11 in exact rationals (m = row * col / N),
    # G^2 and t's sqrt(n11) through mpmath at 60 digits. Each error is at
    # most 4 * 2**-53 * S, where S adds up the magnitudes the float
    # operations round: for X^2, X^2 + sum [(|k - m| + k + m) |k - m|
    # + (k + m)**2 * 2**-53] / m; for G^2, 2 sum_{k > 0} k (|ln(k/m)| + 1);
    # for t, (|n11 - m11| + n11 + m11) / sqrt(n11).
    import mpmath
    from fractions import Fraction

    eps = Fraction(1, 2**53)
    checked = Counter()
    with mpmath.workdps(60):
        for n11, row1, col1, n in _seeded_tables(5, 2400):
            table = make_table(n11, row1 - n11, col1 - n11, n - row1 - col1 + n11)
            m11 = Fraction(row1 * col1, n)
            if n11:
                root, diff = mpmath.sqrt(n11), n11 - m11
                want = mpmath.mpf(diff.numerator) / diff.denominator / root
                bound = 4 * eps * (abs(diff) + n11 + m11)
                bound = mpmath.mpf(bound.numerator) / bound.denominator / root
                assert abs(t_test(table).statistic - want) <= bound
                checked["t"] += 1
            rows, cols = (row1, n - row1), (col1, n - col1)
            if 0 in rows + cols:
                continue
            expected = [Fraction(r * c, n) for r in rows for c in cols]
            cells = list(zip(table.cells, expected))
            x2 = sum((k - m) ** 2 / m for k, m in cells)
            scale = x2 + sum(((abs(k - m) + k + m) * abs(k - m) + (k + m) ** 2 * eps) / m for k, m in cells)
            assert abs(Fraction(pearson_x2(table).statistic) - x2) <= 4 * eps * scale
            logs = [(k, mpmath.log(k * m.denominator / mpmath.mpf(m.numerator))) for k, m in cells if k]
            g2 = 2 * mpmath.fsum(k * log for k, log in logs)
            scale = 2 * mpmath.fsum(k * (abs(log) + 1) for k, log in logs)
            assert abs(likelihood_g2(table).statistic - g2) <= 4 * mpmath.mpf(2) ** -53 * scale
            checked["x2, g2"] += 1
    assert min(checked.values()) >= 1500
