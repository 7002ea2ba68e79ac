"""Association pipeline: per-bigram 2x2 tables, all tests, ranked output."""

from __future__ import annotations

from dataclasses import dataclass

from . import asymptotic
from .corpus import BigramCounts
from .errors import NoObservationsError
from .exact import FisherResult
from .report import _score_distinct
from .tables import ContingencyTable2x2

# The record field each rank key reads. Ranking uses the two-sided exact
# value (the convention the ranked reference output follows); left/right
# remain available per record.
_P_FIELDS = {"exact": "exact_two_p", "g2": "g2_p", "x2": "x2_p", "t": "t_p"}
RANK_KEYS = tuple(_P_FIELDS)


@dataclass
class AssociationRecord:
    """One row of a ranked association scan (the varying word against the fixed one)."""

    # The field order is the key order of `records_to_json`, written by asdict.
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


def _p(result: asymptotic.TestResult | None) -> float | None:
    return None if result is None else result.p_value


def _record(word: str, table: ContingencyTable2x2, fisher: FisherResult,
            tests: asymptotic.Battery) -> AssociationRecord:
    return AssociationRecord(
        word=word,
        n11=table.n11,
        m11=tests.expected.m11,
        exact_left_p=fisher.left_p,
        exact_right_p=fisher.right_p,
        exact_two_p=fisher.two_sided_p,
        point_p=fisher.point_p,
        g2_p=_p(tests.g2),
        x2_p=_p(tests.pearson),
        t_p=_p(tests.t_test),
        asym_note=tests.notes.get("g2"),
        t_note=tests.notes.get("t_test"),
    )


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

    Each distinct table is scored once (see `report._score_distinct`), and
    each record is its own object.
    """
    if (fixed_second is None) == (fixed_first is None):
        raise ValueError("exactly one of fixed_second or fixed_first is required")

    if fixed_first is None:
        slot, fixed, position, marginal = 1, fixed_second, "second", counts.second_counts
    else:
        slot, fixed, position, marginal = 0, fixed_first, "first", counts.first_counts
    if marginal.get(fixed, 0) < 1:
        raise NoObservationsError(f"no observations: {fixed!r} never occurs in {position} position")
    tables = {pair[1 - slot]: bigram_table(counts, *pair)
              for pair, c in counts.pair_counts.items() if pair[slot] == fixed and c >= min_count}

    scores = _score_distinct(tables.values())
    # Deterministic base order regardless of counting/iteration order.
    records = [_record(word, table, *scores[table.cells]) for word, table in sorted(tables.items())]
    for key in RANK_KEYS:
        rank_records(records, key)
    records.sort(key=lambda r: (r.exact_rank is None, r.exact_rank, r.word))
    return records
