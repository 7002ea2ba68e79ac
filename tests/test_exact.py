import hashlib
import math
import random

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
from exactlex import exact
from exactlex.exact import (
    CORE_MIN_TERMS,
    CORE_NATS,
    CORE_REL,
    FEED_REL,
    STIRLING_MIN,
    TWO_SIDED_TIE_REL_TOL,
    WINDOW_NATS,
    HypergeomDist,
    _fisher_batch,
    _fisher_distribution,
    _fsum_window,
    _mode,
    fisher_from_dist,
)
from oracles import hypergeom_pmf_oracle, rational_fisher, rational_pmf


def test_tea_distribution_rounded():
    dist = hypergeom_distribution(8, 4, 4)
    assert dist.support_lo == 0 and dist.support_hi == 4
    rounded = [round(p, 3) for p in dist.pmf()]
    assert rounded == [0.014, 0.229, 0.514, 0.229, 0.014]


def test_pmf_at_is_zero_outside_the_support():
    dist = hypergeom_distribution(10, 3, 4)
    assert (dist.support_lo, dist.support_hi) == (0, 3)
    assert dist.pmf_at(-1) == dist.pmf_at(4) == 0.0
    assert dist.pmf_at(1) == math.exp(dist.log_pmf[1])


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


@pytest.mark.parametrize("cells", [(2**53, 1, 1, 1), (10**20, 1, 1, 1), (2**53 + 1, 0, 2, 3),
                                   (10**30, 3, 4, 2),
                                   # Windows of about 23 terms in a support of 301, placed
                                   # where lgamma itself rounds to 5e5 nats.
                                   (3, 300, 300, 10**20), (0, 300, 300, 10**20),
                                   (1, 299, 300, 10**20 + 12345)])
def test_matches_rational_oracle_beyond_2_53(cells):
    # n11 past 2**53, where the step ratio's small factors such as row1 - k
    # are lost if taken as differences of two large floats.
    t = make_table(*cells)
    result = fisher_exact(t)
    oracle = rational_fisher(t.total, t.row1, t.col1, t.n11)
    got = (result.left_p, result.right_p, result.two_sided_p, result.point_p)
    assert got == pytest.approx([float(p) for p in oracle], rel=1e-12)


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


@pytest.mark.parametrize("n, r1, c1, n11", [
    (22755279267536551015, 17413, 3232368841982582925, 2473),
    (121981250875639557460, 121981250875639544619, 22350265463196907124, 22350265463196904771),
    (44341330392747284, 29988922041852126, 1897, 1482),
])
def test_windowed_fisher_equals_full_enumeration_past_2_53(n, r1, c1, n11):
    # Past N = 2**53 a step's constants, such as row1 - base, round
    # differently at each anchor: these windows start above the support's
    # low end, and must still anchor their steps where the full enumeration
    # does to give its floats.
    win = _assert_window_matches_full(n, r1, c1, [n11])
    assert win.support_lo > max(0, r1 + c1 - n)


def test_windowed_fisher_at_the_window_edges():
    n, r1, c1 = 10**7, 10**5, 4 * 10**5
    win = _fisher_distribution(n, r1, c1)
    a, b = win.support_lo, win.support_hi
    assert 0 < a and b < r1  # the window is narrower than the support on both sides
    assert win.log_pmf[0] <= -WINDOW_NATS and win.log_pmf[-1] <= -WINDOW_NATS
    _assert_window_matches_full(n, r1, c1, [a - 1, a, a + 1, b - 1, b, b + 1])


def test_window_placed_too_narrow_is_widened(monkeypatch):
    # A tenfold lgamma makes every sigma-seeded edge look deep enough at
    # once, so none gallops outward. On the right, where this log-pmf falls
    # more slowly than a normal one with the same sigma, the seeds lie only
    # about 70 nats (the n11's window) and 690 nats (the exhaustive one)
    # below the peak. The check on the enumerated terms refuses both, so
    # each gives way to the whole support.
    n, r1, c1 = 10**7, 10**5, 4 * 10**5
    placed = _fisher_distribution(n, r1, c1)
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: 10.0 * lgamma(x))
    win = _fisher_distribution(n, r1, c1)
    shallow = _fisher_distribution(n, r1, c1, (4000,))
    table = make_table(4000, r1 - 4000, c1 - 4000, n - r1 - c1 + 4000)
    windowed = fisher_exact(table)
    monkeypatch.undo()
    assert win.support_lo <= placed.support_lo and placed.support_hi <= win.support_hi
    assert win.log_pmf[0] <= -WINDOW_NATS and win.log_pmf[-1] <= -WINDOW_NATS
    _assert_window_matches_full(n, r1, c1, [win.support_lo, 4000, win.support_hi])
    full = hypergeom_distribution(n, r1, c1)
    assert shallow.support_lo == full.support_lo or shallow.log_pmf[0] <= -WINDOW_NATS
    assert shallow.support_hi == full.support_hi or shallow.log_pmf[-1] <= -WINDOW_NATS
    assert windowed == fisher_from_dist(full, 4000)


@pytest.mark.parametrize("n", [10**7, 10**9])
@pytest.mark.parametrize("row1", [10**5, 141_421, 2 * 10**5])
def test_windowed_fisher_on_large_supports(n, row1):
    # The shapes of the benchmark's large-support `test` tables: n11 at the
    # edges of the whole window's core, in its deep tails, at the window's
    # edges and beyond them.
    c1 = 4 * row1
    win = _fisher_distribution(n, row1, c1)
    pmf = win.pmf()
    core = np.flatnonzero(pmf >= CORE_REL * pmf.max()) + win.support_lo
    a, b = win.support_lo, win.support_hi
    assert core[-1] < b  # some terms lie outside the core
    deep = [win.support_lo + int(np.argmin(np.abs(win.log_pmf - cut))) for cut in (-400, -700)]
    mode = _mode(n, row1, c1)
    deep += [2 * mode - k for k in deep]
    n11s = [core[0] - 1, core[0], core[-1], core[-1] + 1, a - 1, a, a + 1, b - 1, b, b + 1,
            mode, a - 1000, b + 1000, 0, row1, *deep]
    _assert_window_matches_full(n, row1, c1, {int(k) for k in n11s if 0 <= k <= row1})


@given(st.integers(1, 10**9) | st.integers(10**5, 10**9), st.data())
@settings(max_examples=200, deadline=None)
def test_fsum_window_equals_fsum_on_fisher_windows(n, data):
    # Each array fisher_from_dist sums at n11 = support_lo + idx, with the
    # index it feeds from. The second choice of each marginal gives the long
    # windows whose sums have a core.
    cap = min(n, 2 * 10**5)
    small = data.draw(st.integers(0, cap) | st.integers(cap // 100, cap))
    r1 = data.draw(st.sampled_from([small, n - small]))
    c1 = data.draw(st.integers(0, n) | st.integers(n // 10, n - n // 10))
    dist = _fisher_distribution(n, r1, c1)
    pmf = dist.pmf()
    idx = data.draw(st.integers(0, len(pmf) - 1))
    mi = _mode(n, r1, c1) - dist.support_lo
    cutoff = dist.log_pmf[idx] + math.log1p(TWO_SIDED_TIE_REL_TOL)
    for terms, start in [(pmf, mi), (pmf[: idx + 1], min(mi, idx)), (pmf[idx:], max(0, mi - idx)),
                         (pmf * (dist.log_pmf <= cutoff), mi)]:
        assert _fsum_window(terms, start) == math.fsum(terms.tolist())


@given(st.lists(st.floats(0.0, 1.0), min_size=CORE_MIN_TERMS, max_size=400), st.data())
@settings(max_examples=100, deadline=None)
def test_fsum_window_equals_fsum_on_any_terms(values, data):
    terms = np.array(values)
    mi = data.draw(st.integers(0, len(values) - 1))
    assert _fsum_window(terms, mi) == math.fsum(values)


def test_fsum_window_with_zeros_subnormals_and_wide_range():
    rng = np.random.default_rng(3)
    for _ in range(300):
        size = int(rng.integers(CORE_MIN_TERMS, 600))
        # Magnitudes from 1 down past the subnormals to 0.0, some runs zeroed.
        terms = 10.0 ** rng.uniform(-330, 0, size)
        terms[rng.random(size) < 0.2] = 0.0
        if rng.random() < 0.5:  # rising then falling, like a window
            cut = int(rng.integers(0, size))
            terms = np.concatenate([np.sort(terms[:cut]), np.sort(terms[cut:])[::-1]])
        mi = int(rng.integers(0, size))
        assert _fsum_window(terms, mi) == math.fsum(terms.tolist())
    for terms in (np.zeros(CORE_MIN_TERMS), np.full(CORE_MIN_TERMS, 5e-324)):
        assert _fsum_window(terms, 0) == math.fsum(terms.tolist())


def test_fsum_window_falls_back_when_the_core_sum_is_a_tie():
    # [1, 2**-53] sums to a tie that rounds to even, 1.0; the terms below it
    # tip the whole sum up to 1 + 2**-52. 2**-53 lies below the FEED_REL
    # cut, so it enters with them as their float sum, and the certificate
    # confirms the sum they tip up.
    pad = CORE_MIN_TERMS
    values = [1e-30] * pad + [1.0, 2**-53]
    assert math.fsum(values[pad:]) == 1.0
    assert _fsum_window(np.array(values), pad) == math.fsum(values) == 1.0 + 2**-52


def test_fsum_window_whose_core_is_the_whole_window():
    terms = np.linspace(1.0, 2.0, 3 * CORE_MIN_TERMS) ** 3
    assert np.all(terms >= CORE_REL * terms.max())
    assert _fsum_window(terms, 5) == math.fsum(terms.tolist())


def _fed_tie(below):
    """Window terms whose fed run, [1, 2**-26 + 2**-53 - 2**-60], sums to
    2**-60 below the tie between 1 + 2**-26 and the next float up, with the
    terms `below` FEED_REL after it, padded with zeros to CORE_MIN_TERMS."""
    values = [1.0, 2**-26 + 2**-53 - 2**-60, *below]
    assert min(values[:2]) >= FEED_REL and max(below) < FEED_REL
    return values + [0.0] * (CORE_MIN_TERMS - len(values))


def test_fsum_window_adds_the_terms_below_feed_rel():
    # The terms below the cut, 2**-59 in all, carry the sum past the tie:
    # the fed run alone rounds down, and the whole window up.
    values = _fed_tie([2**-66] * 128)
    assert math.fsum(values[:2]) == 1.0 + 2**-26
    assert _fsum_window(np.array(values), 0) == math.fsum(values) == 1.0 + 2**-26 + 2**-52
    assert _fsum_window(np.array(values), 0, 1e-300) == math.fsum(values)


def test_fsum_window_falls_back_when_the_terms_below_feed_rel_make_a_tie(monkeypatch):
    # The terms below the cut, 2**-60 in all, land the sum on the tie, which
    # rounds to even, down. Their float sum's slack straddles it, so the
    # certificate's ends round apart: with nothing beyond, the whole window
    # is summed; with terms beyond, the sum is not certain, and the caller
    # deepens its window.
    values = _fed_tie([2**-66] * 64)
    fsum_outward, whole = exact._fsum_outward, []
    monkeypatch.setattr(exact, "_fsum_outward", lambda terms, mi: whole.append(mi) or fsum_outward(terms, mi))
    assert _fsum_window(np.array(values), 0) == math.fsum(values) == 1.0 + 2**-26
    assert whole == [0]
    assert _fsum_window(np.array(values), 0, 1e-300) is None


def test_fsum_window_tie_with_nothing_below_feed_rel_needs_no_fallback():
    # Zeros below the cut add nothing and no slack: the fed run's tie is the
    # sum, unless terms beyond may tip it, and then it is not certain.
    values = [1.0, 2**-26 + 2**-53] + [0.0] * CORE_MIN_TERMS
    assert _fsum_window(np.array(values), 0) == math.fsum(values) == 1.0 + 2**-26
    assert _fsum_window(np.array(values), 0, 1e-300) is None


def test_two_sided_sum_of_a_log_pmf_that_does_not_fall_from_the_mode():
    # The two-sided sum is a prefix and a suffix of the window when the
    # log-pmf falls on each side of the mode. A dip at the mode breaks
    # that, and the sum must still take every term at most the cutoff.
    n, r1, c1 = 10**4, 200, 5000
    full = hypergeom_distribution(n, r1, c1)
    mi = _mode(n, r1, c1) - full.support_lo
    log_pmf = full.log_pmf.copy()
    log_pmf[mi] = log_pmf[mi - 3]
    dist = HypergeomDist(n, r1, c1, full.support_lo, full.support_hi, log_pmf)
    assert len(log_pmf) >= CORE_MIN_TERMS
    for idx in (mi - 3, mi + 3, 0):
        cutoff = log_pmf[idx] + math.log1p(TWO_SIDED_TIE_REL_TOL)
        expected = min(1.0, math.fsum(p for p, q in zip(np.exp(log_pmf).tolist(), log_pmf) if q <= cutoff))
        assert fisher_from_dist(dist, full.support_lo + idx).two_sided_p == expected


def _sigma(n, r1, c1):
    return math.sqrt(r1 * c1 * (n - r1) * (n - c1) / (n * n * max(1, n - 1)))


def _n11_at_depth(full, mode, nats):
    """The first n11 on each side of the mode whose log-pmf is `nats` below 0."""
    below = np.flatnonzero(full.log_pmf < -nats) + full.support_lo
    left, right = below[below < mode], below[below > mode]
    return [int(k) for k in (left[-1:].tolist() + right[:1].tolist())]


@given(st.integers(1, 10**9), st.data())
@settings(max_examples=60, deadline=None)
def test_fisher_exact_equals_full_enumeration_at_every_depth(n, data):
    # Either r1 or its complement is small, which keeps the support <= 5e4;
    # most of these windows stop short of the support's ends.
    small = data.draw(st.integers(0, min(n, 5 * 10**4)))
    r1 = data.draw(st.sampled_from([small, n - small]))
    c1 = data.draw(st.integers(0, n) | st.integers(n // 10, n - n // 10))
    full = hypergeom_distribution(n, r1, c1)
    lo, hi, mode = full.support_lo, full.support_hi, _mode(n, r1, c1)
    sigma = _sigma(n, r1, c1)
    shallow = _fisher_distribution(n, r1, c1, (mode,))
    a, b = shallow.support_lo, shallow.support_hi
    n11s = {lo, hi, mode, a - 1, a, a + 1, b - 1, b, b + 1}
    n11s |= {round(mode + k * sigma) for k in (-10, -3, -1, 1, 3, 10)}
    for nats in (100, 300, 500, 700, 850):  # the last lies beyond WINDOW_NATS
        n11s.update(_n11_at_depth(full, mode, nats))
    for n11 in sorted(k for k in n11s if lo <= k <= hi):
        t = make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11)
        assert fisher_exact(t) == fisher_from_dist(full, n11)


def _shallow_and_deep_windows():
    n, r1, c1 = 10**7, 10**5, 4 * 10**5
    full = hypergeom_distribution(n, r1, c1)
    mode = _mode(n, r1, c1)
    deep_n11 = _n11_at_depth(full, mode, 300)[1]
    return full, mode, deep_n11, (_fisher_distribution(n, r1, c1, (mode,)),
                                  _fisher_distribution(n, r1, c1, (mode, deep_n11)),
                                  _fisher_distribution(n, r1, c1))


def test_window_reaches_as_deep_as_its_deepest_n11():
    full, mode, deep_n11, (shallow, deep, whole) = _shallow_and_deep_windows()
    assert whole.support_lo < deep.support_lo < shallow.support_lo
    assert shallow.support_hi < deep.support_hi < whole.support_hi
    depth = CORE_NATS + math.log(len(full.log_pmf))
    for win, used in ((shallow, [mode]), (deep, [mode, deep_n11])):
        floor = min(win.log_pmf[k - win.support_lo] for k in used) - depth
        assert win.log_pmf[0] <= floor and win.log_pmf[-1] <= floor
        # Terms are left out past both edges, and they are not 0.0.
        assert win.beyond_lo == win.support_lo - full.support_lo > 0
        assert win.beyond_hi == full.support_hi - win.support_hi > 0
        assert win.pmf()[0] > 0.0 and win.pmf()[-1] > 0.0
    assert whole.log_pmf[0] <= -WINDOW_NATS and whole.log_pmf[-1] <= -WINDOW_NATS
    for win in (shallow, deep, whole):
        assert np.array_equal(win.log_pmf, full.log_pmf[win.support_lo : win.support_hi + 1])
        for n11 in {mode, win.support_lo, win.support_hi} | ({deep_n11} if win is not shallow else set()):
            assert fisher_from_dist(win, n11) == fisher_from_dist(full, n11)


def test_shallow_window_refuses_an_n11_beyond_its_edges():
    _, _, _, (shallow, _, whole) = _shallow_and_deep_windows()
    for n11 in (shallow.support_lo - 1, shallow.support_hi + 1):
        with pytest.raises(ValueError, match="beyond the enumerated window"):
            fisher_from_dist(shallow, n11)
    # Past the exhaustive window every term is 0.0, and so are the tails.
    assert fisher_from_dist(whole, whole.support_lo - 1).left_p == 0.0


def test_uncertified_sums_deepen_to_the_exhaustive_window(monkeypatch):
    # Every sum with terms left out beyond the window is refused, so each
    # result must come from the exhaustive window, and still equal the full
    # enumeration's to the bit.
    full, mode, deep_n11, (shallow, deep, _) = _shallow_and_deep_windows()
    n, r1, c1 = full.n_total, full.row1_total, full.col1_total
    fsum_window, fisher_distribution = exact._fsum_window, exact._fisher_distribution
    monkeypatch.setattr(exact, "_fsum_window",
                        lambda terms, mi, beyond=0.0: None if beyond else fsum_window(terms, mi))
    calls = []
    monkeypatch.setattr(exact, "_fisher_distribution",
                        lambda *args: calls.append(args) or fisher_distribution(*args))
    for win, n11 in ((shallow, mode), (deep, deep_n11), (deep, mode + 1)):
        expected = fisher_from_dist(full, n11)
        calls.clear()
        assert fisher_from_dist(win, n11) == expected  # the tail sums deepen
        assert calls == [(n, r1, c1)]
        calls.clear()
        t = make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11)
        assert fisher_exact(t) == expected  # the normaliser deepens
        assert calls == [(n, r1, c1, (n11,)), (n, r1, c1)]


def test_window_placed_accurately_past_10_19():
    # An ulp of lgamma(10**20) is about 5e5 nats: edges checked on a sum of
    # lgamma values landed thousands of terms out. The window at n22 = 10**20
    # is narrower than at 10**17, as sigma is.
    widths = {}
    for n22 in (10**17, 10**20):
        win = _fisher_distribution(3 * 10**6 + n22, 2 * 10**6, 2 * 10**6)
        assert win.log_pmf[-1] <= -WINDOW_NATS
        widths[n22] = len(win.log_pmf)
    assert widths[10**20] <= 2 * widths[10**17]


def test_small_support_is_enumerated_whole_without_lgamma(monkeypatch):
    # 121 points whose far end lies below WINDOW_NATS: a window would stop
    # 114 points short of it, and placing that window takes 44 lgamma calls.
    full = hypergeom_distribution(10**9, 120, 120)
    assert full.log_pmf[-1] < -WINDOW_NATS
    monkeypatch.setattr(math, "lgamma", None)
    win = _fisher_distribution(10**9, 120, 120, (0,))
    assert (win.support_lo, win.support_hi, win.beyond_lo, win.beyond_hi) == (0, 120, 0, 0)
    assert np.array_equal(win.log_pmf, full.log_pmf)


@pytest.mark.parametrize("mean", [1, 3, 10, 30, 100])
def test_edges_on_skewed_poisson_like_marginals(mean):
    # N = 10**9 and a mean n11 of 1 to 100 on a support of 2 * 10**4
    # points: the right tail falls far more slowly than a normal one with
    # the same sigma, so each right edge gallops past its seed, and the left
    # one meets the support's end.
    n, r1, c1 = 10**9, 2 * 10**4, mean * 5 * 10**4
    full = hypergeom_distribution(n, r1, c1)
    mode = _mode(n, r1, c1)
    n11s = {full.support_lo, mode, mode + 1, full.support_hi}
    for nats in (100, 300, 700, 850):
        n11s.update(_n11_at_depth(full, mode, nats))
    win = _assert_window_matches_full(n, r1, c1, n11s)
    seed = math.ceil(_sigma(n, r1, c1) * math.sqrt(2.0 * WINDOW_NATS)) + 1
    assert mode + seed < win.support_hi < full.support_hi


@pytest.mark.parametrize("n, r1, c1", [(2**41 + 12345, 3 * 10**4, 2**41 // 1000), (2**45, 10**5, 2**44),
                                       (3 * 10**12, 2 * 10**4, 10**11)])
def test_edges_past_stirling_min(n, r1, c1):
    # From STIRLING_MIN up each edge is checked on Stirling's series: a
    # skewed marginal with a mean n11 of 30, a symmetric one and one with a
    # mean of about 670.
    assert n >= STIRLING_MIN
    full = hypergeom_distribution(n, r1, c1)
    mode = _mode(n, r1, c1)
    n11s = {full.support_lo, mode, full.support_hi}
    for nats in (100, 300, 700, 850):
        n11s.update(_n11_at_depth(full, mode, nats))
    win = _assert_window_matches_full(n, r1, c1, n11s)
    assert win.support_hi < full.support_hi


@pytest.mark.parametrize("n, r1, c1", [(2**130, 2**64, 2**64), (2**130, 2**63 + 4, 2**63 + 4),
                                       (2**200, 2**100, 2**99)])
def test_edges_on_supports_wider_than_2_63_points(n, r1, c1):
    # No array holds these supports whole, but past WINDOW_NATS every term
    # of the full enumeration is 0.0. A window from the support's low end
    # out to 4,000 points, anchored as the full enumeration is, leaves out
    # only such terms, so its sums are the full enumeration's.
    lo, hi = max(0, r1 + c1 - n), min(r1, c1)
    reference = exact._enumerate(n, r1, c1, lo, lo + 4000, 0, hi - lo - 4000)
    assert reference.pmf()[-1] == 0.0
    win = _fisher_distribution(n, r1, c1)
    assert win.support_lo == lo and win.support_hi < lo + 4000
    assert np.array_equal(win.log_pmf, reference.log_pmf[: len(win.log_pmf)])
    for n11 in (0, 1, 3, 20, 60, 200):
        t = make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11)
        assert fisher_exact(t) == fisher_from_dist(reference, n11)


def test_edges_take_a_few_lgamma_calls(monkeypatch):
    # Seeded from sigma, each edge of a window on this 10**5-point support
    # takes one or two checks of four lgamma calls, after four for the mode
    # and four for each n11; a bisection between the mode and each end of
    # the support would take about 140.
    n, r1, c1 = 10**7, 10**5, 4 * 10**5
    full = hypergeom_distribution(n, r1, c1)
    mode = _mode(n, r1, c1)
    windows = {}
    calls = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    for n11s in (None, (mode,), *((k,) for k in _n11_at_depth(full, mode, 300))):
        calls.clear()
        windows[n11s] = _fisher_distribution(n, r1, c1, n11s)
        assert 0 < len(calls) <= 24
    monkeypatch.undo()
    for n11s, win in windows.items():
        assert full.support_lo < win.support_lo and win.support_hi < full.support_hi
        assert np.array_equal(win.log_pmf, full.log_pmf[win.support_lo : win.support_hi + 1])
        for n11 in n11s or (mode,):
            assert fisher_from_dist(win, n11) == fisher_from_dist(full, n11)


@st.composite
def _small_marginals(draw):
    """A marginal (N, row1, col1) whose support has 1 to CORE_MIN_TERMS - 1
    points, with N from 1 to 10**9 or past 2**63."""
    n = draw(st.integers(1, 300) | st.integers(1, 10**9) | st.integers(2**63, 2**70))
    steps = draw(st.integers(0, min(CORE_MIN_TERMS - 2, n // 2)))
    c1 = draw(st.integers(steps, n - steps))
    r1 = draw(st.sampled_from([steps, n - steps]))
    return (n, r1, c1) if draw(st.booleans()) else (n, c1, r1)


@given(st.lists(_small_marginals(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batch_equals_fisher_exact_and_full_enumeration(marginals):
    # Marginals of many widths in one call, scored at every n11.
    n11s = {}
    for n, r1, c1 in marginals:
        lo, hi = max(0, r1 + c1 - n), min(r1, c1)
        assert hi - lo + 1 < CORE_MIN_TERMS
        n11s[n, r1, c1] = range(lo, hi + 1)
    results = _fisher_batch(n11s)
    assert len(results) == sum(map(len, n11s.values()))
    for (n, r1, c1), ks in n11s.items():
        full = hypergeom_distribution(n, r1, c1)
        for n11 in ks:
            t = make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11)
            assert results[n, r1, c1, n11] == fisher_exact(t) == fisher_from_dist(full, n11)


def test_batch_split_into_passes_gives_the_same_results(monkeypatch):
    # One-point supports, windows of many widths, supports of 128 points and
    # more, and huge N, with room for only a few rows per pass.
    n11s = {}
    for n in (1, 2, 255, 10**6, 10**9, 2**63 + 1):
        for steps in (0, 1, 2, 63, 64, 126, 127, 400, 3000):
            if 2 * steps <= n:
                for r1 in (steps, n - steps):
                    lo, hi, mode = max(0, r1 + n // 2 - n), min(r1, n // 2), _mode(n, r1, n // 2)
                    n11s[n, r1, n // 2] = range(lo, hi + 1) if steps < 127 else \
                        sorted({lo, hi, mode, mode + 3, (lo + mode) // 2, (mode + hi) // 2})
    whole = _fisher_batch(n11s)
    monkeypatch.setattr(exact, "_BATCH_CELLS", 300)
    assert _fisher_batch(n11s) == whole
    assert all(whole[key + (n11,)] == fisher_exact(make_table(n11, key[1] - n11, key[2] - n11,
                                                              key[0] - key[1] - key[2] + n11))
               for key, ks in n11s.items() for n11 in ks)


@st.composite
def _marginal_n11s(draw, fewest_steps, most_steps):
    """A marginal (N, row1, col1) of N up to 10**9 whose support has
    fewest_steps + 1 to most_steps + 1 points, with a few n11 from the mode,
    both ends and anywhere between, which on a wide support is mostly the
    deep tails."""
    n = draw(st.integers(max(1, 2 * fewest_steps), 10**4) | st.integers(max(1, 2 * fewest_steps), 10**9))
    steps = draw(st.integers(fewest_steps, min(most_steps, n // 2)))
    c1 = draw(st.integers(steps, n - steps))
    r1 = draw(st.sampled_from([steps, n - steps]))
    if draw(st.booleans()):
        r1, c1 = c1, r1
    lo, hi = max(0, r1 + c1 - n), min(r1, c1)
    n11s = st.sampled_from([lo, hi, _mode(n, r1, c1)]) | st.integers(lo, hi)
    return (n, r1, c1), draw(st.lists(n11s, min_size=1, max_size=4, unique=True))


@given(st.lists(_marginal_n11s(0, CORE_MIN_TERMS - 2), min_size=1, max_size=4),
       st.lists(_marginal_n11s(CORE_MIN_TERMS - 1, 5000), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_batch_routes_small_and_large_marginals_to_fisher_exacts_bits(small, large):
    # Batched small supports and windowed large ones in one call.
    n11s = dict(small + large)
    results = _fisher_batch(n11s)
    assert len(results) == sum(map(len, n11s.values()))
    for (n, r1, c1), ks in n11s.items():
        for n11 in ks:
            assert results[n, r1, c1, n11] == fisher_exact(make_table(n11, r1 - n11, c1 - n11,
                                                                       n - r1 - c1 + n11))


@given(st.lists(st.tuples(st.integers(CORE_MIN_TERMS - 1, 5 * 10**4), st.data()), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_batch_windows_at_every_depth(marginals):
    # Supports of 128 to 5 * 10**4 points, N up to 10**9, scored together:
    # n11 at the mode, at both ends, 400 and 700 nats deep and past the
    # exhaustive window's 800 nats, each as fisher_exact scores it alone.
    n11s = {}
    for steps, data in marginals:
        n = data.draw(st.integers(2 * steps, 2 * steps + 10**4) | st.integers(2 * steps, 10**9))
        c1 = data.draw(st.integers(steps, n - steps) | st.integers(n // 10, n - n // 10))
        r1 = data.draw(st.sampled_from([steps, n - steps]))
        full = hypergeom_distribution(n, r1, c1)
        mode = _mode(n, r1, c1)
        ks = {full.support_lo, full.support_hi, mode}
        for nats in (400, 700, 850):
            ks.update(_n11_at_depth(full, mode, nats))
        n11s[n, r1, c1] = sorted(ks)
    assert _fisher_batch(n11s) == _batch_reference(n11s)


def _batch_reference(n11s):
    """fisher_exact at each n11 of each marginal, keyed as `_fisher_batch` keys it."""
    return {(n, r1, c1, n11): fisher_exact(make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11))
            for (n, r1, c1), ks in n11s.items() for n11 in ks}


def _wide_n11s():
    """Marginals of 128 to 3 * 10**4 points, each with its mode, both ends of
    its support, the n11 300 nats deep on each side and a few n11 between."""
    rng = random.Random(19)
    n11s = {}
    for _ in range(30):
        n = rng.choice([rng.randint(300, 10**6), rng.randint(10**6, 10**9)])
        steps = rng.randint(CORE_MIN_TERMS, min(n // 2, 3 * 10**4))
        c1 = rng.randint(steps, n - steps)
        r1 = rng.choice([steps, n - steps])
        full = hypergeom_distribution(n, r1, c1)
        lo, hi, mode = full.support_lo, full.support_hi, _mode(n, r1, c1)
        n11s[n, r1, c1] = sorted({lo, hi, mode, rng.randint(lo, hi), min(hi, mode + 3), max(lo, mode - 7),
                                  *_n11_at_depth(full, mode, 300)})
    return n11s


def test_batch_fallback_on_shallow_windows_gives_the_same_results(monkeypatch):
    # Windows forced too shallow send their marginals to the single-table
    # path, which gives the dict of the unforced batch, fisher_exact's.
    n11s = _wide_n11s()
    expected = _fisher_batch(n11s)
    assert expected == _batch_reference(n11s)
    alone = []
    fisher_each, bracket = exact._fisher_each, exact._bracket
    monkeypatch.setattr(exact, "_fisher_each", lambda key, ks, results: alone.append(key)
                        or fisher_each(key, ks, results))

    # Windows placed for the mode alone leave the n11 300 nats deep past
    # them, not surely 0.0: those marginals fail the depth check.
    monkeypatch.setattr(exact, "_bracket", lambda marginals: bracket(
        [(key, lo, hi, mode, [mode]) for key, lo, hi, mode, _ in marginals]))
    assert _fisher_batch(n11s) == expected
    assert len(alone) >= sum(len(ks) > 6 for ks in n11s.values()) > 0
    # Every window one point, the mode: each marginal takes the single-table
    # path.
    alone.clear()
    monkeypatch.setattr(exact, "_bracket", lambda marginals: [(key, lo, hi, mode, mode, mode)
                                                              for key, lo, hi, mode, _ in marginals])
    assert _fisher_batch(n11s) == expected
    assert sorted(alone) == sorted(n11s)


def test_batch_takes_a_marginal_with_an_uncertain_tail_to_the_single_table_path(monkeypatch):
    # The batch refuses the first tail sum it certifies, the left tail of
    # the narrowest window's first n11: that marginal, and only that one,
    # takes the single-table path, whose sums are not refused.
    n11s = {(10**6, 3000, 5000): [5, 15, 40], (10**4, 40, 60): [0, 1, 7]}
    alone, calls, refused = [], [], []
    range_sums, certified_fsum, fisher_each = exact._range_sums, exact._certified_fsum, exact._fisher_each

    def refuse_first_tail(fed, least, most):
        # The pass's first _range_sums call takes the normalisers, its
        # second the tails.
        if len(calls) == 2 and not refused:
            refused.append(fed)
            return None
        return certified_fsum(fed, least, most)

    monkeypatch.setattr(exact, "_range_sums", lambda *args: calls.append(args) or range_sums(*args))
    monkeypatch.setattr(exact, "_certified_fsum", refuse_first_tail)
    monkeypatch.setattr(exact, "_fisher_each", lambda key, ks, results: alone.append(key)
                        or fisher_each(key, ks, results))
    assert _fisher_batch(n11s) == _batch_reference(n11s)
    assert len(calls) == 2 and len(refused) == 1 and alone == [(10**4, 40, 60)]


def test_batch_takes_a_marginal_with_an_n11_past_its_window_to_the_single_table_path(monkeypatch):
    # A planted pair of a scan at N = 1.38e6: n11 = 500 of a 547-point
    # support whose mode is 9 lies more than WINDOW_NATS deep, past the
    # window `_bracket` places, so that marginal takes the single-table path
    # with both its n11s. Every n11 of the others lies inside its window, and
    # those marginals are batched.
    deep = (1382828, 546, 24282)
    n11s = {deep: [11, 500], (1382828, 838, 24282): [0, 14, 30], (10**6, 3000, 5000): [5, 15, 40],
            (10**4, 40, 60): [0, 1, 7]}
    full = hypergeom_distribution(*deep)
    assert full.log_pmf[500] - full.log_pmf.max() < -WINDOW_NATS
    alone, rows = [], []
    bracket, fisher_each = exact._bracket, exact._fisher_each
    monkeypatch.setattr(exact, "_bracket", lambda marginals: rows.extend(bracket(marginals)) or rows)
    monkeypatch.setattr(exact, "_fisher_each", lambda key, ks, results: alone.append(key)
                        or fisher_each(key, ks, results))
    assert _fisher_batch(n11s) == _batch_reference(n11s)
    assert alone == [deep]
    assert [row[5] < 500 for row in rows if row[0] == deep] == [True]


def test_batch_takes_a_two_sided_sum_in_doubt_to_the_single_table_path(monkeypatch):
    # With the mode taken one below the true mode of (10**4, 400, 500), 19
    # instead of 20, right column 1 of the batch's window rises above column
    # 0, so the two-sided sum's first column is not the count of those above
    # the cutoff. At n11 = 19, whose cutoff lies between the two, the sum is
    # in doubt and the marginal takes the single-table path; at n11 = 14, 20
    # and 24 it is not. Every result equals fisher_exact's under the same
    # mode.
    key = (10**4, 400, 500)
    mode = exact._mode
    assert mode(*key) == 20
    monkeypatch.setattr(exact, "_mode", lambda *marginal: mode(*marginal) - 1)
    alone = []
    fisher_each = exact._fisher_each
    monkeypatch.setattr(exact, "_fisher_each", lambda marginal, ks, results: alone.append(ks[0])
                        or fisher_each(marginal, ks, results))
    for n11 in (19, 14, 20, 24):
        assert _fisher_batch({key: [n11]}) == _batch_reference({key: [n11]})
    assert alone == [19]


def test_batch_skips_a_marginal_with_no_n11():
    assert _fisher_batch({(10, 3, 4): []}) == {}
    assert _fisher_batch({(10, 3, 4): [], (10, 3, 5): [1]}) == _batch_reference({(10, 3, 5): [1]})


def test_batch_refuses_a_window_too_long_for_an_array_as_fisher_exact_does(monkeypatch):
    # With arrays of at most 64 terms, the bracketed window of this 3001-point
    # support goes to the single-table path, which refuses its window with
    # the MemoryError that fisher_exact raises on the same table.
    n, r1, c1, n11 = 10**6, 3000, 5000, 15
    bracket = exact._bracket
    rows = []
    monkeypatch.setattr(exact, "_bracket", lambda marginals: rows.extend(bracket(marginals)) or rows)
    monkeypatch.setattr(exact, "_MAX_TERMS", 64)
    with pytest.raises(MemoryError) as alone:
        fisher_exact(make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11))
    with pytest.raises(MemoryError) as batched:
        _fisher_batch({(n, r1, c1): [n11]})
    assert rows[0][5] - rows[0][4] >= 64
    assert str(batched.value) == str(alone.value)


def test_batch_takes_modes_past_2_52_to_the_single_table_path(monkeypatch):
    # A mode more than 2**52 above its support's low end cannot anchor the
    # batch's float offsets, so that marginal takes the single-table path;
    # past 2**53 and 2**63 the others are batched all the same.
    n11s = {(2**200, 2**60, 2**200 - 2**60): [2**60 - 3, 2**60 - 1, 2**60],
            (2**54 + 7, 300, 2**53): [0, 150, 170, 300],
            (2**63 + 11, 300, 2**62): [0, 75, 150, 300],
            (2**130, 2**64, 2**64): [0, 1, 3]}
    alone = []
    fisher_each = exact._fisher_each
    monkeypatch.setattr(exact, "_fisher_each", lambda key, ks, results: alone.append(key)
                        or fisher_each(key, ks, results))
    assert _fisher_batch(n11s) == _batch_reference(n11s)
    assert alone == [(2**200, 2**60, 2**200 - 2**60)]


@given(st.integers(1, 40), st.integers(0, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_2d_log_and_exp_equal_per_row_calls(rows, width, seed):
    # The batch relies on numpy giving each element of a C-contiguous 2D
    # array the same log and exp as the same element of a 1D array.
    rng = np.random.default_rng(seed)
    positive = 10.0 ** rng.uniform(-5, 20, (rows, width))
    exponents = -(10.0 ** rng.uniform(-10, 3.2, (rows, width)))
    for values, f in ((positive, np.log), (exponents, np.exp)):
        batch = f(values)
        for row, out in zip(values, batch):
            assert np.array_equal(f(row.copy()), out)


def _pinned_marginals():
    """About 600 seeded marginals with N from 2 to past 2**66 and supports up
    to 2 * 10**4 points, each with both ends of its support, its mode and one
    seeded n11."""
    rng = random.Random(14)
    n11s = {}
    for _ in range(600):
        n = rng.choice([rng.randint(2, 300), rng.randint(2, 10**9), rng.randint(2, 2**67)])
        steps = rng.randint(0, min(n // 2, rng.choice([126, 2 * 10**4])))
        c1 = rng.randint(steps, n - steps)
        r1 = rng.choice([steps, n - steps])
        if rng.random() < 0.5:
            r1, c1 = c1, r1
        lo, hi = max(0, r1 + c1 - n), min(r1, c1)
        n11s[n, r1, c1] = sorted({lo, hi, _mode(n, r1, c1), rng.randint(lo, hi)})
    return n11s


def test_p_value_bits_are_pinned():
    # The hypothesis tests compare the windows and the batch with the full
    # enumeration, which runs the same step formula: a change to it that
    # moved every bit alike would pass them. This digest of 2,290 tables'
    # p-values was taken from the full enumeration,
    # fisher_from_dist(hypergeom_distribution(...)), which each window and
    # the batch must equal to the bit.
    n11s = _pinned_marginals()
    assert max(n11s)[0] > 2**66
    batch = _fisher_batch(n11s)
    sha = hashlib.sha256()
    for (n, r1, c1), ks in n11s.items():
        for n11 in ks:
            result = fisher_exact(make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11))
            assert batch[n, r1, c1, n11] == result
            for p in (result.left_p, result.right_p, result.two_sided_p, result.point_p):
                sha.update(p.hex().encode())
    assert len(batch) == 2290
    assert sha.hexdigest() == "f2e35a978b5fe45fcb4f1a3fee3e68ff34aab0884c9339ee13abdc0bb52a053d"


@pytest.mark.parametrize("n, r1, c1", [(2**130, 2**64, 2**64), (2**130, 2**63 + 4, 2**63 + 4),
                                       (2**200, 2**100, 2**99)])
def test_supports_wider_than_2_63_points(n, r1, c1):
    # Supports too long for a C ssize_t, around a mean n11 below 1: the
    # window's edges are placed within _MAX_TERMS points of the mode, and
    # the window itself holds a few dozen terms.
    for n11 in (0, 1, 3):
        result = fisher_exact(make_table(n11, r1 - n11, c1 - n11, n - r1 - c1 + n11))
        assert _fisher_batch({(n, r1, c1): [n11]})[n, r1, c1, n11] == result
        assert result.point_p == pytest.approx(hypergeom_pmf_oracle(n, r1, c1, n11), rel=1e-12)
