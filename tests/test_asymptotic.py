import math
import re

import numpy as np
import pytest

from exactlex import (
    DegenerateTableError,
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
from exactlex import asymptotic, assoc, simulate
from exactlex.report import _score_distinct, compute_all
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

    def test_chi_square_rejects_negative(self):
        with pytest.raises(ValueError):
            chi_square_sf(-0.1, 1)

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

    def test_normal_sf_values(self):
        assert normal_sf(0.0) == 0.5
        assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-6)
        assert normal_sf(1.959964) == pytest.approx(normal_sf_oracle(1.959964), abs=1e-12)

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
    """Simulate's reading of one table's score: its p-values and degenerate flag."""
    return simulate._p_values(*_score_distinct([table])[table.cells])


class TestBattery:
    @pytest.mark.parametrize("score, chi_square_tests", [
        (compute_all, 4),  # X^2, G^2, Yates and Mantel-Haenszel
        (lambda table: assoc._record("w", table, *_score_distinct([table])[table.cells]), 2),  # X^2, G^2
        (_score, 2),
    ])
    @pytest.mark.parametrize("cells", [(3, 1, 1, 3), (17, 229, 935, 1381647), (2, 7, 11, 40),
                                       (0, 5, 7, 30), (0, 0, 2, 3)])
    def test_each_caller_reads_one_battery(self, score, chi_square_tests, cells, monkeypatch):
        table = make_table(*cells)
        x2 = None if min(table.row1, table.row2, table.col1, table.col2) == 0 \
            else pearson_x2(table).statistic
        expected_calls, tails = [], []
        monkeypatch.setattr(asymptotic, "expected_counts",
                            lambda t: expected_calls.append(t) or expected_counts(t))
        monkeypatch.setattr(asymptotic, "chi_square_sf",
                            lambda x, df: tails.append(x) or chi_square_sf(x, df))
        score(table)
        assert len(expected_calls) <= 1
        if x2 is None:
            assert tails == []
        else:
            assert len(expected_calls) == 1
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
        tests = asymptotic.Battery(make_table(3, 1, 1, 3))
        tests.g2
        assert {"pearson", "yates", "mantel_haenszel", "t_test", "measures"}.isdisjoint(vars(tests))
