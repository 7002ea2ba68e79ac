import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactlex import (
    EmptyTableError,
    expected_counts,
    make_table,
    small_expected_warning,
    transpose,
)

cells = st.integers(min_value=0, max_value=10**6)


def nonempty_tables():
    return (
        st.tuples(cells, cells, cells, cells)
        .filter(lambda t: sum(t) > 0)
        .map(lambda t: make_table(*t))
    )


def test_corpus_scale_marginals():
    t = make_table(17, 229, 935, 1381647)
    assert t.row1 == 246
    assert t.col1 == 952
    assert t.total == 1382828


def test_tea_table_marginals():
    t = make_table(4, 0, 0, 4)
    assert (t.row1, t.row2, t.col1, t.col2) == (4, 4, 4, 4)
    assert t.total == 8


def test_empty_table_rejected():
    with pytest.raises(EmptyTableError, match="empty table"):
        make_table(0, 0, 0, 0)


def test_negative_and_non_integer_rejected():
    with pytest.raises(ValueError):
        make_table(-1, 2, 3, 4)
    with pytest.raises(TypeError):
        make_table(1.5, 2, 3, 4)


def test_expected_tea_table():
    m = expected_counts(make_table(4, 0, 0, 4))
    assert m.cells == (2.0, 2.0, 2.0, 2.0)


def test_expected_corpus_scale_table():
    m = expected_counts(make_table(17, 229, 935, 1381647))
    assert m.m11 == pytest.approx(246 * 952 / 1382828, rel=1e-12)
    assert m.m11 == pytest.approx(0.16936, abs=5e-6)


def test_uniform_table_is_own_expectation():
    m = expected_counts(make_table(1, 1, 1, 1))
    assert m.cells == (1.0, 1.0, 1.0, 1.0)


def test_transpose_examples():
    assert transpose(make_table(17, 229, 935, 1381647)).cells == (17, 935, 229, 1381647)
    assert transpose(make_table(1, 1, 1, 1)).cells == (1, 1, 1, 1)


@given(nonempty_tables())
def test_transpose_involution(t):
    assert transpose(transpose(t)) == t


@given(nonempty_tables())
def test_expected_marginals_match_observed(t):
    m = expected_counts(t)
    assert m.m11 + m.m12 == pytest.approx(t.row1, rel=1e-9, abs=1e-9)
    assert m.m11 + m.m21 == pytest.approx(t.col1, rel=1e-9, abs=1e-9)
    assert m.total == pytest.approx(t.total, rel=1e-9)


@given(nonempty_tables())
def test_expected_commutes_with_transpose(t):
    direct = expected_counts(transpose(t))
    swapped = expected_counts(t)
    assert direct.m11 == swapped.m11
    assert direct.m12 == swapped.m21
    assert direct.m21 == swapped.m12
    assert direct.m22 == swapped.m22


def test_large_counts_round_trip_exactly():
    big = 2**53 - 10
    t = make_table(big, 3, 5, 7)
    assert t.n11 == big
    assert t.total == big + 15


@pytest.mark.parametrize(
    "table, percent, triggered",
    [
        ((4, 0, 0, 4), 100.0, True),
        ((17, 229, 935, 1381647), 25.0, True),
        ((100, 100, 100, 100), 0.0, False),
    ],
)
def test_small_expected_warning(table, percent, triggered):
    warning = small_expected_warning(expected_counts(make_table(*table)))
    assert warning.percent == percent
    assert warning.triggered is triggered
