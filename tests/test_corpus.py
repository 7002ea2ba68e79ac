import contextlib
import io
import itertools
import json
import tempfile
import tracemalloc
import unicodedata
from collections import Counter
from dataclasses import asdict
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlex import (
    BigramCounts,
    ExactLexError,
    IngestionError,
    TokenizerConfig,
    association_scan,
    count_bigrams,
    count_text,
    tokenize,
    zipf_summary,
)
from exactlex import cli, corpus
from exactlex.corpus import _token_ids, read_text

words = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=40)


def test_tokenize_defaults():
    assert tokenize("The oil industry.") == ["the", "oil", "industry"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_case_passthrough():
    config = TokenizerConfig(lowercase=False)
    assert tokenize("A A", config) == ["A", "A"]


def test_tokenize_strips_edge_punctuation_only():
    assert tokenize('"don\'t," she said...') == ["don't", "she", "said"]


def test_tokenize_punctuation_only_tokens_dropped():
    assert tokenize("-- ... a !?") == ["a"]


def test_tokenize_deterministic():
    text = "Some, fairly; mixed-up text! with 123 numbers."
    assert tokenize(text) == tokenize(text)


def test_count_bigrams_adjacency():
    counts = count_bigrams(["the", "oil", "industry"])
    assert counts.pair_counts == Counter({("the", "oil"): 1, ("oil", "industry"): 1})
    assert counts.total_bigrams == 2


def test_count_bigrams_overlap():
    counts = count_bigrams(["a", "b", "a", "b"])
    assert counts.pair_counts == Counter({("a", "b"): 2, ("b", "a"): 1})
    assert counts.total_bigrams == 3


@pytest.mark.parametrize("tokens", [[], ["x"]])
def test_count_bigrams_degenerate(tokens):
    counts = count_bigrams(tokens)
    assert counts.total_bigrams == 0
    assert not counts.pair_counts


@given(words)
def test_positional_marginals_sum_to_total(tokens):
    counts = count_bigrams(tokens)
    assert sum(counts.first_counts.values()) == counts.total_bigrams
    assert sum(counts.second_counts.values()) == counts.total_bigrams
    assert sum(counts.pair_counts.values()) == counts.total_bigrams
    for w in counts.first_counts:
        assert counts.first_counts[w] == sum(
            c for (w1, _), c in counts.pair_counts.items() if w1 == w
        )


@given(words, st.data())
@settings(max_examples=200)
def test_merge_equals_concatenation(tokens, data):
    split = data.draw(st.integers(0, len(tokens)))
    left, right = tokens[:split], tokens[split:]
    boundary = (left[-1], right[0]) if left and right else None
    merged = count_bigrams(left).merge(count_bigrams(right), boundary=boundary)
    whole = count_bigrams(tokens)
    assert merged.pair_counts == whole.pair_counts
    assert merged.first_counts == whole.first_counts
    assert merged.second_counts == whole.second_counts
    assert merged.total_bigrams == whole.total_bigrams


def test_sentence_reset_stops_bigrams_at_newlines():
    text = "a b\nc d"
    _, spanning = count_text(text)
    _, reset = count_text(text, TokenizerConfig(sentence_reset=True))
    assert ("b", "c") in spanning.pair_counts
    assert ("b", "c") not in reset.pair_counts
    assert reset.total_bigrams == 2


def test_zipf_summary_hand_count():
    tokens = ["a", "b", "a", "c"]
    summary = zipf_summary(count_bigrams(tokens), Counter(tokens))
    assert summary.distinct_words == 3
    assert summary.hapax_word_pct == pytest.approx(200 / 3)
    assert summary.word_freq_of_freq == {1: 2, 2: 1}
    # bigrams: ab, ba, ac -- all hapax
    assert summary.distinct_bigrams == 3
    assert summary.hapax_bigram_pct == 100.0
    assert summary.token_count == 4


def test_zipf_summary_empty_corpus():
    summary = zipf_summary(BigramCounts(), Counter())
    assert summary.token_count == 0
    assert summary.distinct_words == 0
    assert summary.hapax_word_pct == 0.0
    assert summary.bigram_le5_pct == 0.0


@given(words)
def test_freq_of_freq_conserves_totals(tokens):
    summary = zipf_summary(count_bigrams(tokens), Counter(tokens))
    assert sum(f * n for f, n in summary.word_freq_of_freq.items()) == len(tokens)
    assert sum(f * n for f, n in summary.bigram_freq_of_freq.items()) == max(0, len(tokens) - 1)
    for pct in (summary.hapax_word_pct, summary.word_le5_pct,
                summary.hapax_bigram_pct, summary.bigram_le5_pct):
        assert 0.0 <= pct <= 100.0


def test_read_text_reports_byte_offset(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"good text \xff\xfe more")
    with pytest.raises(IngestionError, match="byte offset 10"):
        read_text(bad)


def test_read_text_utf8(tmp_path):
    f = tmp_path / "ok.txt"
    f.write_text("café au lait", encoding="utf-8")
    assert tokenize(read_text(f)) == ["café", "au", "lait"]


# --- the counting paths against the per-token and per-pair loops they replace --

def _reference_tokenize(text, config):
    tokens = []
    for raw in text.split():
        token = raw
        if config.strip_punctuation:
            start, end = 0, len(token)
            while start < end and unicodedata.category(token[start]).startswith("P"):
                start += 1
            while end > start and unicodedata.category(token[end - 1]).startswith("P"):
                end -= 1
            token = token[start:end]
        if config.lowercase:
            token = token.lower()
        if token:
            tokens.append(token)
    return tokens


def _reference_count_text(text, config):
    words = Counter()
    bigrams = BigramCounts()
    for unit in (text.splitlines() if config.sentence_reset else [text]):
        tokens = _reference_tokenize(unit, config)
        words.update(tokens)
        for w1, w2 in zip(tokens, tokens[1:]):
            bigrams.add_pair(w1, w2)
    return words, bigrams


def _items(counts: BigramCounts):
    """Every counter as an ordered list, so that insertion order is compared too."""
    return (list(counts.pair_counts.items()), list(counts.first_counts.items()),
            list(counts.second_counts.items()), counts.total_bigrams)


unicode_text = st.text(alphabet=list("aAbBzZ İıßẞΣσς«»¿¡—.,'\"!-\n\t\r"), max_size=80)
configs = st.builds(TokenizerConfig, st.booleans(), st.booleans(), st.booleans())


@given(unicode_text, configs)
@settings(max_examples=300)
def test_tokenize_and_count_text_match_per_token_loops(text, config):
    assert tokenize(text, config) == _reference_tokenize(text, config)
    words, bigrams = count_text(text, config)
    ref_words, ref_bigrams = _reference_count_text(text, config)
    assert list(words.items()) == list(ref_words.items())
    assert _items(bigrams) == _items(ref_bigrams)


@given(words, st.data())
@settings(max_examples=100)
def test_merge_in_place_equals_counter_sum(tokens, data):
    split = data.draw(st.integers(0, len(tokens)))
    left, right = count_bigrams(tokens[:split]), count_bigrams(tokens[split:])
    expected = (list((left.pair_counts + right.pair_counts).items()),
                list((left.first_counts + right.first_counts).items()),
                list((left.second_counts + right.second_counts).items()),
                left.total_bigrams + right.total_bigrams)
    right_before = _items(right)
    assert left.merge(right) is left
    assert _items(left) == expected
    assert _items(right) == right_before


def test_merge_counts_boundary_once():
    merged = count_bigrams(["a", "b"]).merge(count_bigrams(["c", "d"]), boundary=("b", "c"))
    assert merged.pair_counts == Counter({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1})
    assert merged.first_counts == Counter({"a": 1, "b": 1, "c": 1})
    assert merged.second_counts == Counter({"b": 1, "c": 1, "d": 1})
    assert merged.total_bigrams == 3


# --- one accumulator for many shards, against per-shard counts merged ---------

ALL_CONFIGS = [TokenizerConfig(*flags) for flags in itertools.product((False, True), repeat=3)]

# Runs that repeat across shards, in several spellings, plus punctuation-only
# runs that normalise to nothing under strip_punctuation.
RUNS = ["tea", "Tea", "tea.", "«Tea»", "TEA", "ẞtraße", "—", "...", "¿!", "a", "b"]
run_text = st.lists(st.tuples(st.sampled_from(RUNS), st.sampled_from([" ", "\n", "\t", " \n "])),
                    max_size=12).map(lambda pieces: "".join(run + sep for run, sep in pieces))
shard_lists = st.lists(st.one_of(st.just(""), st.sampled_from(["— ...", "¿! —\n"]), run_text,
                                 unicode_text), max_size=6)


def _reference_count_shards(shards, config):
    """Each shard counted on its own, then merged without seam bigrams."""
    words = Counter()
    bigrams = BigramCounts()
    for text in shards:
        shard_words, shard_bigrams = _reference_count_text(text, config)
        words.update(shard_words)
        bigrams.merge(shard_bigrams)
    return words, bigrams


def _counts_from_ids(corpus):
    """Word and bigram counts read off the id arrays token by token."""
    tokens = [corpus.names[i] for i in corpus.ids.tolist()]
    bigrams = BigramCounts()
    for w1, w2, paired in zip(tokens, tokens[1:], corpus.paired.tolist()):
        if paired:
            bigrams.add_pair(w1, w2)
    return Counter(tokens), bigrams


@pytest.mark.parametrize("config", ALL_CONFIGS)
@given(shard_lists)
@settings(max_examples=60)
def test_count_shards_equals_per_shard_counts_merged(config, shards):
    token_ids = _token_ids(iter(shards), config)
    words, bigrams = _counts_from_ids(token_ids)
    ref_words, ref_bigrams = _reference_count_shards(shards, config)
    assert list(words.items()) == list(ref_words.items())
    assert _items(bigrams) == _items(ref_bigrams)
    # Word ids follow first occurrence, whatever the hash seed.
    assert token_ids.names == list(ref_words)


@pytest.mark.parametrize("sentence_reset", [False, True])
def test_count_shards_normalises_each_distinct_run_once(sentence_reset, monkeypatch):
    calls = Counter()
    normalise_runs = corpus._normalise_runs

    def counting(runs, config):
        calls.update(runs)
        return normalise_runs(runs, config)

    monkeypatch.setattr(corpus, "_normalise_runs", counting)
    shards = ["Tea tea. «Tea»\ntea — tea\n", "", "tea. Tea\n— strong tea\n", "Tea\nTea tea."]
    _token_ids(shards, TokenizerConfig(sentence_reset=sentence_reset))
    assert calls == Counter({raw: 1 for shard in shards for raw in shard.split()})


@pytest.mark.parametrize("sentence_reset", [False, True])
def test_token_ids_memory_per_token_is_bounded(sentence_reset):
    # 200,000 Zipf tokens over 20,000 words in 8 texts. The peak is the
    # current text's runs as str objects (about 57 bytes each) plus the id
    # arrays kept so far: 52.4 bytes a token here. The bound is what an
    # earlier version, which hashed each token twice and kept word and unit
    # ids per text, measured (59.2), rounded up; it leaves a 15% margin.
    rng = np.random.default_rng(24)
    inverse_ranks = 1.0 / np.arange(1, 20_001)
    ids = rng.choice(20_000, size=200_000, p=inverse_ranks / inverse_ranks.sum())
    words = np.array([f"w{i}" for i in range(20_000)], object)
    texts = [" ".join(words[chunk].tolist()) for chunk in np.array_split(ids, 8)]
    config = TokenizerConfig(sentence_reset=sentence_reset)
    _token_ids(texts[:1], config)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        _token_ids(texts, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(ids) < 60


NORMALISE_CONFIGS = [TokenizerConfig(lowercase, strip) for lowercase, strip
                     in itertools.product((False, True), repeat=2)]


@pytest.mark.parametrize("config", NORMALISE_CONFIGS)
@pytest.mark.parametrize("runs", [
    [],
    # ASCII, with every ASCII P* character at an edge, symbols (S*) that
    # are kept, control characters str.split keeps, and runs that strip to "".
    ["Tea", "tea.", "(TEA)", "...", "!?", "a\x01", "\x1bA", "'s", "$5", "x_y_", "{}", "A-B",
     "[x]", '"q"', "#tag", "%&*", "@me,", ";-:", "\\", "~^`|<=>+", "mid-Dle"],
    ["Tea", "«Tea»", "—", "tea.", "ẞtraße!", "¿Qué?", "...", "ΣΟΦΊΑ", "İ.", "a"],  # mixed
    ["«Tea»", "—", "ẞtraße", "¿!", "ΣΟΦΊΑ.", "İstanbul", "«»"],  # no ASCII run
])
def test_normalise_runs_equals_normalise_per_run(config, runs):
    assert corpus._normalise_runs(runs, config) == [corpus._normalise(raw, config) for raw in runs]


@pytest.mark.parametrize("config", NORMALISE_CONFIGS)
@given(st.lists(st.text(alphabet=st.characters(max_codepoint=0x2FFF), min_size=1).filter(
    lambda raw: raw.split() == [raw]), max_size=20))
@settings(max_examples=60)
def test_normalise_runs_equals_normalise_per_run_on_any_runs(config, runs):
    assert corpus._normalise_runs(runs, config) == [corpus._normalise(raw, config) for raw in runs]


# --- the CLI's id-coded commands against the Counter counts they replace -----

CLI_ARGVS = [["count"], ["count", "--bigrams"], ["zipf"], ["zipf", "--format", "tsv"],
             ["assoc", "--second", "tea"], ["assoc", "--first", "tea", "--format", "json"]]


def _old_zipf(words, bigrams):
    """The zipf summary from Counter histograms, as a dict in CorpusSummary order."""
    def fof(counts):
        return dict(sorted(Counter(counts.values()).items()))

    def pct(histogram, limit, distinct):
        return 100.0 * sum(v for f, v in histogram.items() if f <= limit) / distinct if distinct else 0.0

    word_fof, bigram_fof = fof(words), fof(bigrams.pair_counts)
    return {"token_count": sum(words.values()), "distinct_words": len(words),
            "distinct_bigrams": len(bigrams.pair_counts),
            "hapax_word_pct": pct(word_fof, 1, len(words)), "word_le5_pct": pct(word_fof, 5, len(words)),
            "hapax_bigram_pct": pct(bigram_fof, 1, len(bigrams.pair_counts)),
            "bigram_le5_pct": pct(bigram_fof, 5, len(bigrams.pair_counts)),
            "word_freq_of_freq": word_fof, "bigram_freq_of_freq": bigram_fof}


def _render_old_way(argv, shards, config):
    """(exit status, stdout, stderr) of a corpus command rendered from
    `_reference_count_shards`, the way the CLI rendered Counter counts."""
    words, bigrams = _reference_count_shards(shards, config)
    if argv[0] == "count":
        if "--bigrams" in argv:
            items = [(" ".join(pair), c) for pair, c in bigrams.pair_counts.items()]
        else:
            items = list(words.items())
        items.sort()
        items.sort(key=itemgetter(1), reverse=True)
        return 0, "".join(f"{name}\t{count}\n" for name, count in items), ""
    if argv[0] == "zipf":
        summary = _old_zipf(words, bigrams)
        if "tsv" not in argv:
            return 0, json.dumps(summary, indent=2) + "\n", ""
        rows = [f"{kind}\t{freq}\t{types}\n" for kind in ("word", "bigram")
                for freq, types in summary[f"{kind}_freq_of_freq"].items()]
        return 0, "kind\tfrequency\ttypes\n" + "".join(rows), ""
    fixed = {argv[1].lstrip("-"): argv[2]}
    try:
        records = association_scan(bigrams, fixed_second=fixed.get("second"), fixed_first=fixed.get("first"))
    except ExactLexError as exc:
        return 1, "", f"exactlex: {exc}\n"
    if "json" in argv:
        return 0, json.dumps(records, indent=2, default=asdict) + "\n", ""
    return 0, cli.records_to_tsv(records), ""


def _run_cli(argv, shards, config):
    flags = ["--lowercase", str(config.lowercase), "--strip-punct", str(config.strip_punctuation),
             "--sentence-reset", str(config.sentence_reset)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(shards):
            path = Path(tmp) / f"shard{i}.txt"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.run_command(argv + flags + ["--input", *paths], out=out)
    return status, out.getvalue(), err.getvalue()


def _assert_cli_matches_old_way(shards, config):
    for argv in CLI_ARGVS:
        assert _run_cli(argv, shards, config) == _render_old_way(argv, shards, config), argv


@pytest.mark.parametrize("config", ALL_CONFIGS)
@given(shard_lists.filter(bool))  # the CLI takes at least one input
@settings(max_examples=40, deadline=None)
def test_cli_corpus_commands_match_counter_rendering(config, shards):
    _assert_cli_matches_old_way(shards, config)


@pytest.mark.parametrize("config", ALL_CONFIGS)
@pytest.mark.parametrize("shards", [
    [""],  # empty input
    ["tea"],  # a single token
    ["— ...", "¿! —\n", "..."],  # punctuation only
    ["zebra tea. strong tea\n"],
    # "a\x01" sorts before "a" followed by a space: the joined names' order,
    # not the (first, second) order.
    ["a\x01 c a b\na\x01 c a b tea\n"],
])
def test_cli_corpus_commands_match_counter_rendering_on_edge_cases(config, shards):
    _assert_cli_matches_old_way(shards, config)


def test_count_bigrams_sorts_ties_by_joined_name():
    status, text, _ = _run_cli(["count", "--bigrams"], ["a\x01 c a b\na\x01 c a b\n"], TokenizerConfig())
    assert status == 0
    assert text.splitlines()[:2] == ["a\x01 c\t2", "a b\t2"]


# Words whose joined bigram names sort apart from their own names' order:
# prefixes of each other, characters below the space that str.split keeps,
# and non-ASCII words.
ORDER_WORDS = ["a", "ab", "a\x01", "a\x1b", "\x01", "b", "A", "ab.", "ẞtraße", "ΣΟΦΊΑ", "straße"]
order_shards = st.lists(st.lists(st.tuples(st.sampled_from(ORDER_WORDS), st.sampled_from([" ", "\n"])),
                                 min_size=1, max_size=30).map(lambda pieces: "".join(w + sep for w, sep in pieces)),
                        min_size=1, max_size=3)


@pytest.mark.parametrize("config", ALL_CONFIGS)
@given(order_shards)
@settings(max_examples=40, deadline=None)
def test_count_rows_sort_by_count_then_joined_name(config, shards):
    words, bigrams = _reference_count_shards(shards, config)
    joined = Counter({" ".join(pair): count for pair, count in bigrams.pair_counts.items()})
    for argv, expected in ((["count"], words), (["count", "--bigrams"], joined)):
        status, text, _ = _run_cli(argv, shards, config)
        assert status == 0
        rows = [(name, int(count)) for name, count in (line.rsplit("\t", 1) for line in text.split("\n")[:-1])]
        assert rows == sorted(expected.items(), key=lambda row: (-row[1], row[0])), argv


@pytest.mark.parametrize("fixed", ["--second", "--first"])
def test_assoc_on_a_word_that_never_occurs_exits_1_with_one_line(fixed):
    shards = ["strong tea. black tea\n", "tea"]
    result = _run_cli(["assoc", fixed, "zebra"], shards, TokenizerConfig())
    assert result == _render_old_way(["assoc", fixed, "zebra"], shards, TokenizerConfig())
    status, out, err = result
    assert status == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("exactlex: no observations")
