from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlex import (
    ExactLexError,
    NoObservationsError,
    association_scan,
    bigram_table,
    count_bigrams,
    fisher_exact,
    rank_records,
)
from exactlex import asymptotic, exact
from exactlex.assoc import RANK_KEYS, AssociationRecord
from exactlex.corpus import BigramCounts
from exactlex.exact import _batch_pass, _fisher_distribution


def oil_industry_counts() -> BigramCounts:
    counts = BigramCounts()
    counts.add_pair("oil", "industry", 17)
    counts.add_pair("oil", "prices", 229)
    counts.add_pair("steel", "industry", 935)
    counts.add_pair("steel", "prices", 1381647)
    return counts


def test_oil_industry_table_construction():
    t = bigram_table(oil_industry_counts(), "oil", "industry")
    assert t.cells == (17, 229, 935, 1381647)
    assert t.row1 == 246
    assert t.col1 == 952


def test_perfectly_collocated_pair():
    counts = BigramCounts()
    counts.add_pair("status", "quo", 5)
    counts.add_pair("x", "y", 20)
    t = bigram_table(counts, "status", "quo")
    assert t.n12 == 0 and t.n21 == 0
    assert t.n11 == 5


def test_absent_pair_keeps_marginals():
    counts = oil_industry_counts()
    t = bigram_table(counts, "oil", "prices")
    assert t.n11 == 229
    t = bigram_table(counts, "steel", "industry")
    assert t.cells == (935, 1381647, 17, 229)
    # both words present but never adjacent
    counts.add_pair("a", "b", 1)
    counts.add_pair("c", "d", 1)
    t = bigram_table(counts, "a", "d")
    assert t.n11 == 0
    assert t.row1 == counts.first_counts["a"]
    assert t.col1 == counts.second_counts["d"]


def test_table_of_empty_counts_raises_no_observations():
    with pytest.raises(NoObservationsError, match="no bigrams counted"):
        bigram_table(BigramCounts(), "oil", "industry")


def test_absent_word_gives_zero_marginal_not_error():
    t = bigram_table(oil_industry_counts(), "nonexistent", "industry")
    assert t.row1 == 0
    assert t.col1 == 952


def test_scan_synthetic_corpus():
    tokens = "big cat big cat big dog".split()
    counts = count_bigrams(tokens)
    records = association_scan(counts, fixed_second="cat")
    assert [r.word for r in records] == ["big"]
    assert records[0].n11 == 2
    # 5 bigram positions; "big" first 3 times, "cat" second twice
    assert records[0].m11 == pytest.approx(3 * 2 / 5)


def test_scan_requires_exactly_one_fixed_slot():
    counts = count_bigrams(["a", "b"])
    with pytest.raises(ValueError):
        association_scan(counts)
    with pytest.raises(ValueError):
        association_scan(counts, fixed_second="b", fixed_first="a")


def test_scan_unknown_word_errors():
    counts = count_bigrams("a b c".split())
    with pytest.raises(NoObservationsError):
        association_scan(counts, fixed_second="zebra")
    with pytest.raises(NoObservationsError):
        association_scan(counts, fixed_first="zebra")


@pytest.mark.parametrize("first, total", [
    ({"a": 2}, 10),  # the pair counted more often than its first word
    ({"a": 3}, 2),  # fewer bigrams than the pair itself
    ({"a": 3}, 0),  # no bigrams counted
])
def test_scan_of_inconsistent_counts_raises_a_typed_error(first, total):
    counts = BigramCounts(Counter({("a", "x"): 3}), Counter(first), Counter({"x": 3}), total)
    for fixed_slot in ({"fixed_second": "x"}, {"fixed_first": "a"}):
        with pytest.raises(ExactLexError):
            association_scan(counts, **fixed_slot)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("kind", [np.int64, float])
def test_scan_of_counts_that_are_not_ints_raises_type_error(field, kind):
    # row1 * col1 is past 2**63, where an int64 product would wrap, so a
    # count of another type than int is refused, not scored.
    values = [2**40, 2**61, 2**61 + 3, 2**62 + 2**41]
    values[field] = kind(values[field])
    n11, row1, col1, total = values
    counts = BigramCounts(Counter({("a", "x"): n11}), Counter({"a": row1}), Counter({"x": col1}), total)
    for fixed_slot in ({"fixed_second": "x"}, {"fixed_first": "a"}):
        with pytest.raises(TypeError, match="must be an integer"):
            association_scan(counts, **fixed_slot)


@pytest.mark.parametrize("n11, row1, col1, total", [
    (1, 2**63, 1, 2**63 + 1),  # row1 past int64
    (1, 1, 2**63, 2**63 + 1),  # col1 past int64
    (2**63, 2**63, 2**63, 2**63),  # every count past it
    (1, 1, 1, 2**63),  # only the number of bigrams past it
])
def test_scan_of_a_count_past_int64_raises(n11, row1, col1, total, monkeypatch):
    # Each is a valid table, yet its counts are scored as int64, so a count
    # past 2**63 - 1 is refused before any test is taken.
    counts = BigramCounts(Counter({("a", "x"): n11}), Counter({"a": row1}), Counter({"x": col1}), total)
    scored = []
    monkeypatch.setattr(asymptotic, "_battery_columns", lambda *columns: scored.append(columns))
    for fixed_slot in ({"fixed_second": "x"}, {"fixed_first": "a"}):
        with pytest.raises(OverflowError):
            association_scan(counts, **fixed_slot)
    assert scored == []


def test_scan_fixed_first_mode():
    tokens = "oil price oil price oil shock gas price".split()
    records = association_scan(count_bigrams(tokens), fixed_first="oil")
    assert {r.word for r in records} == {"price", "shock"}


def test_rank_semantics():
    def rec(word, p):
        return AssociationRecord(
            word=word, n11=1, m11=0.5, exact_left_p=1.0, exact_right_p=p,
            exact_two_p=p, point_p=p,
        )

    records = [rec("a", 0.9), rec("b", 0.1), rec("c", 0.5)]
    ranked, excluded = rank_records(records, "exact")
    assert not excluded
    assert {(r.word, r.exact_rank) for r in ranked} == {("a", 1), ("c", 2), ("b", 3)}


def test_rank_ties_break_lexicographically():
    def rec(word):
        return AssociationRecord(
            word=word, n11=1, m11=0.5, exact_left_p=1.0, exact_right_p=0.3,
            exact_two_p=0.3, point_p=0.3,
        )

    ranked, _ = rank_records([rec("delta"), rec("alpha"), rec("beta")], "exact")
    assert [(r.word, r.exact_rank) for r in ranked] == [
        ("alpha", 1), ("beta", 2), ("delta", 3)
    ]


def test_rank_refuses_an_unknown_key():
    record = AssociationRecord(word="a", n11=1, m11=0.5, exact_left_p=1.0,
                               exact_right_p=0.2, exact_two_p=0.2, point_p=0.2)
    with pytest.raises(ValueError, match="unknown rank key 'fisher'"):
        rank_records([record], "fisher")
    assert record.exact_rank is None


def test_rank_excludes_undefined():
    defined = AssociationRecord(word="a", n11=1, m11=0.5, exact_left_p=1.0,
                                exact_right_p=0.2, exact_two_p=0.2, point_p=0.2,
                                g2_p=0.4)
    undefined = AssociationRecord(word="b", n11=1, m11=0.5, exact_left_p=1.0,
                                  exact_right_p=0.1, exact_two_p=0.1, point_p=0.1,
                                  g2_p=None, asym_note="degenerate")
    ranked, excluded = rank_records([defined, undefined], "g2")
    assert [r.word for r in ranked] == ["a"]
    assert [r.word for r in excluded] == ["b"]
    assert undefined.g2_rank is None


def random_counts(rng, vocab=30, n_tokens=400) -> BigramCounts:
    tokens = [f"w{i}" for i in rng.integers(0, vocab, size=n_tokens)]
    return count_bigrams(tokens)


def test_scan_invariants_on_random_corpora():
    rng = np.random.default_rng(21)
    for trial in range(20):
        counts = random_counts(rng)
        fixed = max(counts.second_counts, key=counts.second_counts.get)
        records = association_scan(counts, fixed_second=fixed)
        # every co-occurring first word appears exactly once
        assert sum(r.n11 for r in records) == counts.second_counts[fixed]
        # ranks are a permutation of 1..N per defined key
        for key in RANK_KEYS:
            ranks = [getattr(r, f"{key}_rank") for r in records
                     if getattr(r, f"{key}_rank") is not None]
            assert sorted(ranks) == list(range(1, len(ranks) + 1))
        # rebuilding the table from the record's word is idempotent
        for r in records[:5]:
            t = bigram_table(counts, r.word, fixed)
            assert t.n11 == r.n11
            assert t.total == counts.total_bigrams


def test_overrepresented_pairs_show_in_upper_tail():
    rng = np.random.default_rng(33)
    for _ in range(10):
        counts = random_counts(rng, vocab=15, n_tokens=300)
        fixed = max(counts.second_counts, key=counts.second_counts.get)
        for r in association_scan(counts, fixed_second=fixed):
            if r.n11 > r.m11:
                assert r.exact_right_p < r.exact_left_p


def test_scan_order_is_deterministic():
    counts = random_counts(np.random.default_rng(5))
    fixed = max(counts.second_counts, key=counts.second_counts.get)
    first = association_scan(counts, fixed_second=fixed)
    second = association_scan(counts, fixed_second=fixed)
    assert [(r.word, r.exact_rank) for r in first] == [(r.word, r.exact_rank) for r in second]
    # output ordered by exact rank
    ranks = [r.exact_rank for r in first]
    assert ranks == sorted(ranks)


def repeat_heavy_counts() -> BigramCounts:
    """Partners of "tea" (second) and of "oil" (first) whose tables repeat:
    (n11, row or column total) per partner, many of them equal."""
    counts = BigramCounts()
    shapes = [(1, 1)] * 5 + [(1, 3)] * 3 + [(2, 3)] * 2 + [(2, 2)] * 4 + [(3, 6), (2, 6), (1, 6)]
    for i, (n11, total) in enumerate(shapes):
        counts.add_pair(f"p{i}", "tea", n11)
        counts.add_pair(f"p{i}", "filler", total - n11)
        counts.add_pair("oil", f"q{i}", n11)
        counts.add_pair("gas", f"q{i}", total - n11)
    counts.add_pair("pad", "filler", 50)
    return counts


@pytest.mark.parametrize("slot, fixed, min_count", [(1, "tea", 1), (0, "oil", 1), (1, "tea", 2),
                                                    (0, "oil", 2)])
def test_scan_scores_each_table_and_marginal_once(slot, fixed, min_count, monkeypatch):
    counts = repeat_heavy_counts()
    tables = [bigram_table(counts, *pair) for pair, c in counts.pair_counts.items()
              if pair[slot] == fixed and c >= min_count]
    marginals = {(t.total, t.row1, t.col1) for t in tables}
    distinct = {t.cells for t in tables}
    assert len(marginals) < len(distinct) < len(tables)

    enumerated, batteries = [], []
    monkeypatch.setattr(exact, "_fisher_distribution",
                        lambda n, r1, c1, n11s=None: enumerated.append((n, r1, c1))
                        or _fisher_distribution(n, r1, c1, n11s))
    monkeypatch.setattr(exact, "_batch_pass",
                        lambda rows, n11s, results: enumerated.extend(key for key, *_ in rows)
                        or _batch_pass(rows, n11s, results))
    # One columnar battery call per scan, over each distinct table once.
    monkeypatch.setattr(asymptotic, "_battery_columns",
                        lambda *columns, battery=asymptotic._battery_columns:
                        batteries.append(list(zip(*columns))) or battery(*columns))
    fixed_slot = {"fixed_first": fixed} if slot == 0 else {"fixed_second": fixed}
    for scan in (1, 2):  # a second scan keeps nothing from the first
        records = association_scan(counts, min_count=min_count, **fixed_slot)
        assert len(records) == len(tables)
        assert len({id(r) for r in records}) == len(records)
        assert Counter(enumerated) == dict.fromkeys(marginals, scan)
        assert len(batteries) == scan
        assert Counter(cells for call in batteries for cells in call) == \
            dict.fromkeys(((t.n11, t.row1, t.col1, t.total) for t in tables), scan)


def test_scan_enumerates_each_marginal_once_as_deep_as_its_deepest_n11(monkeypatch):
    # N = 10**7 and "oil" 10**5 times first: the partners q0..q4 all have
    # column total 4*10**5, so one marginal whose mode is 4000 (sigma about
    # 62). Their n11 lie from the mode out to 174 nats below it, so the
    # tables alone would need windows of different depths.
    counts = BigramCounts()
    n11s = [4000, 4100, 4600, 5200, 3000]
    for i, n11 in enumerate(n11s):
        counts.add_pair("oil", f"q{i}", n11)
        counts.add_pair("gas", f"q{i}", 4 * 10**5 - n11)
    counts.add_pair("oil", "rest", 10**5 - sum(n11s))
    counts.add_pair("pad", "pad", 10**7 - counts.total_bigrams)
    tables = {w: bigram_table(counts, "oil", w) for w in [f"q{i}" for i in range(len(n11s))] + ["rest"]}
    marginals = {(t.total, t.row1, t.col1) for t in tables.values()}
    assert len(marginals) == 2
    key = (10**7, 10**5, 4 * 10**5)
    assert len({len(_fisher_distribution(*key, (n11,)).log_pmf) for n11 in n11s}) == len(n11s)

    # Each marginal is enumerated once, in one window of a batch pass that
    # holds all of its n11: no second pass and no window of its own.
    enumerated = []
    monkeypatch.setattr(exact, "_fisher_distribution",
                        lambda n, r1, c1, n11s=None: enumerated.append(((n, r1, c1), n11s))
                        or _fisher_distribution(n, r1, c1, n11s))
    monkeypatch.setattr(exact, "_batch_pass",
                        lambda rows, n11s, results: enumerated.extend((row[0], row[4:6]) for row in rows)
                        or _batch_pass(rows, n11s, results))
    records = association_scan(counts, fixed_first="oil")
    assert Counter(k for k, _ in enumerated) == dict.fromkeys(marginals, 1)
    a, b = dict(enumerated)[key]
    assert a <= min(n11s) and max(n11s) <= b
    assert len(records) == len(tables)
    for r in records:
        fisher = fisher_exact(tables[r.word])
        assert (r.exact_left_p, r.exact_right_p, r.exact_two_p, r.point_p) == \
            (fisher.left_p, fisher.right_p, fisher.two_sided_p, fisher.point_p)


def _reference_scan(counts, slot, fixed, min_count):
    """Every partner scored on its own through the public tests, then ranked."""
    records = []
    for pair, c in counts.pair_counts.items():
        if pair[slot] != fixed or c < min_count:
            continue
        table = bigram_table(counts, *pair)
        fisher = fisher_exact(table)
        tests = asymptotic.Battery(table)
        records.append(AssociationRecord(
            word=pair[1 - slot], n11=table.n11, m11=tests.expected.m11,
            exact_left_p=fisher.left_p, exact_right_p=fisher.right_p,
            exact_two_p=fisher.two_sided_p, point_p=fisher.point_p,
            g2_p=None if tests.g2 is None else tests.g2.p_value,
            x2_p=None if tests.pearson is None else tests.pearson.p_value,
            t_p=None if tests.t_test is None else tests.t_test.p_value,
            asym_note=tests.notes.get("g2"), t_note=tests.notes.get("t_test")))
    for key, field in (("exact", "exact_two_p"), ("g2", "g2_p"), ("x2", "x2_p"), ("t", "t_p")):
        defined = sorted((r for r in records if getattr(r, field) is not None),
                         key=lambda r: (-getattr(r, field), r.word))
        for rank, record in enumerate(defined, start=1):
            setattr(record, f"{key}_rank", rank)
    return sorted(records, key=lambda r: (r.exact_rank is None, r.exact_rank, r.word))


VOCAB = [f"w{i}" for i in range(6)]


@settings(max_examples=80, deadline=None)
@given(partners=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=12),
       noise=st.dictionaries(st.tuples(st.sampled_from(VOCAB + ["x"]), st.sampled_from(VOCAB + ["x"])),
                             st.integers(1, 4), max_size=20),
       data=st.data())
def test_scan_equals_per_partner_reference(partners, noise, data):
    # Partners of "x" on either side with (n11, other count) from a small
    # range, so that tables and marginals repeat, plus random pairs.
    counts = BigramCounts()
    for i, (n11, rest) in enumerate(partners):
        counts.add_pair(f"p{i}", "x", n11)
        counts.add_pair("x", f"q{i}", n11)
        if rest:
            counts.add_pair(f"p{i}", VOCAB[i % 2], rest)
            counts.add_pair(VOCAB[i % 3], f"q{i}", rest)
    for (w1, w2), c in noise.items():
        counts.add_pair(w1, w2, c)
    slot = data.draw(st.sampled_from((0, 1)))
    fixed = data.draw(st.sampled_from(sorted({pair[slot] for pair in counts.pair_counts})))
    min_count = data.draw(st.integers(1, 3))
    fixed_slot = {"fixed_first": fixed} if slot == 0 else {"fixed_second": fixed}
    records = association_scan(counts, min_count=min_count, **fixed_slot)
    assert records == _reference_scan(counts, slot, fixed, min_count)
