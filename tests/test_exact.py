import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlex import (
    InfeasibleMarginalsError,
    fisher_exact,
    hypergeom_distribution,
    make_table,
    transpose,
)
from exactlex.exact import WINDOW_NATS, _fisher_distribution, fisher_from_dist
from oracles import rational_fisher, rational_pmf


def test_tea_distribution_rounded():
    dist = hypergeom_distribution(8, 4, 4)
    assert dist.support_lo == 0 and dist.support_hi == 4
    rounded = [round(p, 3) for p in dist.pmf()]
    assert rounded == [0.014, 0.229, 0.514, 0.229, 0.014]


def test_forced_single_table():
    dist = hypergeom_distribution(10, 10, 3)
    assert (dist.support_lo, dist.support_hi) == (3, 3)
    assert dist.pmf_at(3) == 1.0


def test_balanced_rows_symmetric():
    dist = hypergeom_distribution(10000, 5000, 10)
    pmf = dist.pmf()
    for k in range(11):
        assert pmf[k] == pytest.approx(pmf[10 - k], rel=1e-12)


def test_skewed_rows_strictly_decreasing():
    pmf = hypergeom_distribution(10000, 20, 10).pmf()
    assert all(pmf[k] > pmf[k + 1] for k in range(10))


def test_infeasible_marginals():
    with pytest.raises(InfeasibleMarginalsError):
        hypergeom_distribution(10, 11, 3)
    with pytest.raises(InfeasibleMarginalsError):
        hypergeom_distribution(0, 0, 0)


def test_huge_sample_no_overflow():
    dist = hypergeom_distribution(10**9, 500, 300)
    assert np.all(np.isfinite(dist.log_pmf))
    assert math.fsum(dist.pmf()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "cells, left, right, two",
    [
        ((4, 0, 0, 4), 1.000, 0.014, 0.029),
        ((3, 1, 1, 3), 0.986, 0.243, 0.486),
        ((1, 3, 3, 1), 0.243, 0.986, 0.486),
        ((0, 4, 4, 0), 0.014, 1.000, 0.029),
    ],
)
def test_tea_fisher_values(cells, left, right, two):
    result = fisher_exact(make_table(*cells))
    assert round(result.left_p, 3) == left
    assert round(result.right_p, 3) == right
    assert round(result.two_sided_p, 3) == two


def test_zero_marginal_gives_all_ones():
    result = fisher_exact(make_table(0, 0, 3, 5))
    assert (result.left_p, result.right_p, result.two_sided_p, result.point_p) == (1, 1, 1, 1)


@given(
    n=st.integers(min_value=1, max_value=500),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_matches_rational_oracle(n, data):
    r1 = data.draw(st.integers(0, n))
    c1 = data.draw(st.integers(0, n))
    dist = hypergeom_distribution(n, r1, c1)
    oracle = rational_pmf(n, r1, c1)
    for k in dist.support:
        assert dist.pmf_at(k) == pytest.approx(float(oracle[k]), rel=1e-10)
    n11 = data.draw(st.integers(dist.support_lo, dist.support_hi))
    n12, n21 = r1 - n11, c1 - n11
    result = fisher_exact(make_table(n11, n12, n21, n - r1 - c1 + n11))
    left, right, two, point = rational_fisher(n, r1, c1, n11)
    assert result.left_p == pytest.approx(float(left), rel=1e-10)
    assert result.right_p == pytest.approx(float(right), rel=1e-10)
    assert result.two_sided_p == pytest.approx(float(two), rel=1e-10)
    assert result.point_p == pytest.approx(float(point), rel=1e-10)


@given(st.integers(1, 10**6), st.data())
@settings(max_examples=100, deadline=None)
def test_normalization_random_marginals(n, data):
    r1 = data.draw(st.integers(0, min(n, 2000)))
    c1 = data.draw(st.integers(0, n))
    pmf = hypergeom_distribution(n, r1, c1).pmf()
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-10)
    assert np.all(pmf <= 1.0)


def test_tail_identity_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 5000))
        r1 = int(rng.integers(0, n + 1))
        c1 = int(rng.integers(0, n + 1))
        lo = max(0, r1 + c1 - n)
        hi = min(r1, c1)
        n11 = int(rng.integers(lo, hi + 1))
        t = make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11)
        res = fisher_exact(t)
        assert res.left_p + res.right_p - res.point_p == pytest.approx(1.0, abs=1e-10)
        assert res.two_sided_p >= res.point_p - 1e-15
        assert res.left_p >= res.point_p - 1e-15
        assert res.right_p >= res.point_p - 1e-15
        assert res.two_sided_p <= 1.0


def test_monotone_tails_across_support():
    dist = hypergeom_distribution(200, 40, 25)
    prev_left, prev_right = -1.0, 2.0
    for n11 in dist.support:
        t = make_table(n11, 40 - n11, 25 - n11, 200 - 40 - 25 + n11)
        res = fisher_exact(t)
        assert res.right_p < prev_right
        # Strictly increasing until the sum saturates at 1.0 in double precision.
        if prev_left < 1.0 - 1e-12:
            assert res.left_p > prev_left
        else:
            assert res.left_p >= prev_left
        prev_left, prev_right = res.left_p, res.right_p


def test_skew_collapse_right_equals_two_sided():
    # Heavily skewed marginals: pmf decreasing, so upper tail and two-sided agree.
    for n11 in range(1, 11):
        t = make_table(n11, 20 - n11, 10 - n11, 10000 - 30 + n11)
        res = fisher_exact(t)
        assert res.right_p == pytest.approx(res.two_sided_p, abs=1e-12)


def test_transpose_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        cells = [int(c) for c in rng.integers(0, 50, size=4)]
        if sum(cells) == 0:
            continue
        t = make_table(*cells)
        a, b = fisher_exact(t), fisher_exact(transpose(t))
        assert a == b


def _assert_window_matches_full(n, r1, c1, n11s):
    """fisher_exact on the window equals full enumeration to the bit, and
    the window's terms are the full enumeration's floats."""
    full = hypergeom_distribution(n, r1, c1)
    win = _fisher_distribution(n, r1, c1)
    off = win.support_lo - full.support_lo
    assert np.array_equal(win.log_pmf, full.log_pmf[off : off + len(win.log_pmf)])
    for n11 in n11s:
        t = make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11)
        assert fisher_exact(t) == fisher_from_dist(full, n11)
    return win


@given(st.integers(1, 10**9), st.data())
@settings(max_examples=100, deadline=None)
def test_windowed_fisher_equals_full_enumeration(n, data):
    # Either r1 or its complement is small, which keeps the support <= 5e4.
    small = data.draw(st.integers(0, min(n, 5 * 10**4)))
    r1 = data.draw(st.sampled_from([small, n - small]))
    c1 = data.draw(st.integers(0, n))
    lo, hi = max(0, r1 + c1 - n), min(r1, c1)
    mode = (r1 + 1) * (c1 + 1) // (n + 2)
    n11s = {lo, hi, mode, data.draw(st.integers(lo, hi))}
    _assert_window_matches_full(n, r1, c1, n11s)


@pytest.mark.parametrize("cells", [
    (17, 229, 935, 1_381_647),
    (50, 19_950, 199_950, 10**7 - 219_950),
    (500, 199_500, 1_999_500, 10**9 - 2_198_500),
])
def test_windowed_fisher_at_the_three_scales(cells):
    n11, n12, n21, n22 = cells
    n = sum(cells)
    _assert_window_matches_full(n, n11 + n12, n11 + n21, [n11])


@pytest.mark.parametrize("cells", [
    (1000, 0, 0, 10**9 - 1000),  # far above the window
    (500, 49, 20000, 1_382_828 - 20_549),  # far above the window
    (0, 100_000, 400_000, 10**7 - 500_000),  # far below the window
])
def test_windowed_fisher_beyond_the_window(cells):
    n11, n12, n21, n22 = cells
    n, r1, c1 = sum(cells), n11 + n12, n11 + n21
    win = _assert_window_matches_full(n, r1, c1, [n11])
    assert not win.support_lo <= n11 <= win.support_hi


def test_windowed_fisher_at_the_window_edges():
    n, r1, c1 = 10**7, 10**5, 4 * 10**5
    win = _fisher_distribution(n, r1, c1)
    a, b = win.support_lo, win.support_hi
    assert 0 < a and b < r1  # the window is narrower than the support on both sides
    assert win.log_pmf[0] <= -WINDOW_NATS and win.log_pmf[-1] <= -WINDOW_NATS
    _assert_window_matches_full(n, r1, c1, [a - 1, a, a + 1, b - 1, b, b + 1])


def test_window_placed_too_narrow_is_widened(monkeypatch):
    # A tenfold lgamma puts the bisected edges only about 80 nats below the
    # peak; the check on the enumerated terms must widen the window.
    n, r1, c1 = 10**7, 10**5, 4 * 10**5
    placed = _fisher_distribution(n, r1, c1)
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: 10.0 * lgamma(x))
    win = _fisher_distribution(n, r1, c1)
    monkeypatch.undo()
    assert win.support_lo <= placed.support_lo and placed.support_hi <= win.support_hi
    assert win.log_pmf[0] <= -WINDOW_NATS and win.log_pmf[-1] <= -WINDOW_NATS
    _assert_window_matches_full(n, r1, c1, [win.support_lo, 4000, win.support_hi])
