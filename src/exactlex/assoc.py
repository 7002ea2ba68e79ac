"""Association pipeline: per-bigram 2x2 tables, all tests, ranked output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asymptotic
from .corpus import BigramCounts
from .errors import NoObservationsError
from .report import _score_columns
from .tables import ContingencyTable2x2

# The record field each rank key reads. Ranking uses the two-sided exact
# value (the convention the ranked reference output follows); left/right
# remain available per record.
_P_FIELDS = {"exact": "exact_two_p", "g2": "g2_p", "x2": "x2_p", "t": "t_p"}
RANK_KEYS = tuple(_P_FIELDS)


@dataclass
class AssociationRecord:
    """One row of a ranked association scan (the varying word against the fixed one)."""

    # The field order is the key order of `records_to_json`, written from vars().
    word: str
    n11: int
    m11: float
    exact_left_p: float
    exact_right_p: float
    exact_two_p: float
    point_p: float
    g2_p: float | None = None
    x2_p: float | None = None
    t_p: float | None = None
    exact_rank: int | None = None
    g2_rank: int | None = None
    x2_rank: int | None = None
    t_rank: int | None = None
    asym_note: str | None = None  # why the chi-square tests are absent
    t_note: str | None = None  # why the t-test is absent


def bigram_table(counts: BigramCounts, w1: str, w2: str) -> ContingencyTable2x2:
    """The 2x2 table classifying every bigram position by presence of w1 first
    and w2 second. A word absent from its position yields a zero marginal, not
    an error; tests decide for themselves whether they can handle it."""
    if counts.total_bigrams < 1:
        raise NoObservationsError("no bigrams counted")
    n11 = counts.pair_counts.get((w1, w2), 0)
    n12 = counts.first_counts.get(w1, 0) - n11
    n21 = counts.second_counts.get(w2, 0) - n11
    n22 = counts.total_bigrams - n11 - n12 - n21
    return ContingencyTable2x2(n11, n12, n21, n22)


def rank_records(
    records: list[AssociationRecord], key: str
) -> tuple[list[AssociationRecord], list[AssociationRecord]]:
    """Assign ranks for one test: rank 1 is the largest unrounded p-value (most
    independent), rank N the smallest. Ties break lexicographically by word.
    Records without a defined p-value for the key are excluded and returned
    separately."""
    if key not in _P_FIELDS:
        raise ValueError(f"unknown rank key {key!r}")
    p_field, rank_field = _P_FIELDS[key], f"{key}_rank"
    included, excluded = [], []
    for record in records:
        (excluded if getattr(record, p_field) is None else included).append(record)
    included.sort(key=lambda r: (-getattr(r, p_field), r.word))
    for rank, record in enumerate(included, start=1):
        setattr(record, rank_field, rank)
    return included, excluded


def association_scan(
    counts: BigramCounts,
    fixed_second: str | None = None,
    fixed_first: str | None = None,
    min_count: int = 1,
) -> list[AssociationRecord]:
    """Score every partner of the fixed word and rank by all four tests.

    Exactly one of fixed_second / fixed_first selects the fixed slot; the
    record's word is the varying slot. Results are ordered by exact-test rank.

    Each partner's table is read straight from `counts` into one int64 row
    of cells for `report._score_columns`, which scores each distinct table
    once and checks its cells; a NaN there, a refused test, becomes None.
    A count that is not an int raises TypeError, and one past 2**63 - 1
    OverflowError.
    """
    if (fixed_second is None) == (fixed_first is None):
        raise ValueError("exactly one of fixed_second or fixed_first is required")

    slot, fixed = (1, fixed_second) if fixed_first is None else (0, fixed_first)
    marginals = (counts.first_counts, counts.second_counts)
    if marginals[slot].get(fixed, 0) < 1:
        raise NoObservationsError(
            f"no observations: {fixed!r} never occurs in {('first', 'second')[slot]} position")
    # Deterministic base order regardless of counting/iteration order. The
    # pairs differ only in the partner, so they sort by it.
    pairs = sorted(pair for pair, c in counts.pair_counts.items() if pair[slot] == fixed and c >= min_count)
    n11s = [counts.pair_counts[pair] for pair in pairs]
    row1 = [marginals[0].get(w1, 0) for w1, _ in pairs]
    col1 = [marginals[1].get(w2, 0) for _, w2 in pairs]
    if {int} != set(map(type, [*n11s, *row1, *col1, counts.total_bigrams])):
        raise TypeError("every bigram count must be an integer of type int")
    n11, row1, col1 = np.array([n11s, row1, col1], dtype=np.int64)
    columns, index = _score_columns(np.column_stack((n11, row1 - n11, col1 - n11)), counts.total_bigrams)
    records = []
    for pair, n11, column in zip(pairs, n11s, columns.T[index].tolist()):
        left, right, two, x2, g2, t, point, m11 = (None if p != p else p for p in column)
        records.append(AssociationRecord(
            pair[1 - slot], n11, m11, left, right, two, point, g2, x2, t,
            asym_note=None if g2 is not None else asymptotic.DEGENERATE_NOTE,
            t_note=None if t is not None else asymptotic.T_UNDEFINED_NOTE))
    for key in RANK_KEYS:
        rank_records(records, key)
    records.sort(key=lambda r: (r.exact_rank is None, r.exact_rank, r.word))
    return records
