"""Text ingestion: tokenization, word/bigram counting, and frequency-of-frequency summaries."""

from __future__ import annotations

import sys
import unicodedata
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, compress, count
from pathlib import Path

import numpy as np

from .errors import IngestionError


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    strip_punctuation: bool = True
    sentence_reset: bool = False  # when set, bigrams do not span newlines


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _normalise(raw: str, config: TokenizerConfig) -> str:
    # No P* character is alphanumeric, so a run with alphanumeric ends has no
    # edge punctuation to strip.
    if config.strip_punctuation and not (raw[0].isalnum() and raw[-1].isalnum()):
        start, end = 0, len(raw)
        while start < end and _is_punct(raw[start]):
            start += 1
        while end > start and _is_punct(raw[end - 1]):
            end -= 1
        raw = raw[start:end]
    return raw.lower() if config.lowercase else raw


# What `_normalise` strips from an ASCII run: the 23 ASCII characters of
# Unicode category P*.
_ASCII_PUNCT = "".join(ch for ch in map(chr, range(128)) if _is_punct(ch))


def _normalise_runs(runs: list[str], config: TokenizerConfig) -> list[str]:
    """`_normalise` of each run, in order. An ASCII run, most runs of most
    corpora, takes one `str.strip` over `_ASCII_PUNCT` and one `str.lower`,
    both in C, instead of the per-character category loop."""
    chars = _ASCII_PUNCT if config.strip_punctuation else ""
    case = str.lower if config.lowercase else str
    return [case(raw.strip(chars)) if raw.isascii() else _normalise(raw, config) for raw in runs]


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split text into maximal non-whitespace runs, optionally lowercased and
    stripped of leading/trailing punctuation. Empty tokens are dropped.

    Each distinct run is normalised once per call: word data repeats heavily,
    so that is far fewer normalisations than tokens.
    """
    raws = text.split()
    distinct = list(set(raws))
    normalised = dict(zip(distinct, _normalise_runs(distinct, config)))
    return [token for token in map(normalised.__getitem__, raws) if token]


@dataclass
class BigramCounts:
    """Adjacent-pair counts plus positional word marginals.

    For a pair (w1, w2): pair_counts[(w1, w2)] is the joint count n11,
    first_counts[w1] the count of w1 in first position (the row marginal) and
    second_counts[w2] the count of w2 in second position (the column marginal).
    total_bigrams is the number of adjacent positions, the scan's sample size.
    """

    pair_counts: Counter = field(default_factory=Counter)
    first_counts: Counter = field(default_factory=Counter)
    second_counts: Counter = field(default_factory=Counter)
    total_bigrams: int = 0

    def add_pair(self, w1: str, w2: str, count: int = 1) -> None:
        self.pair_counts[(w1, w2)] += count
        self.first_counts[w1] += count
        self.second_counts[w2] += count
        self.total_bigrams += count

    def merge(self, other: "BigramCounts", boundary: tuple[str, str] | None = None) -> "BigramCounts":
        """Add another shard's counts into this one, in place, and return self.

        `boundary` is the bigram spanning the shard seam (last token of this
        shard, first token of the other), which plain concatenation would have
        counted but independent shards cannot see. `other` is left unchanged.
        """
        self.pair_counts.update(other.pair_counts)
        self.first_counts.update(other.first_counts)
        self.second_counts.update(other.second_counts)
        self.total_bigrams += other.total_bigrams
        if boundary is not None:
            self.add_pair(*boundary)
        return self


@dataclass(frozen=True)
class CorpusSummary:
    # The field order is the key order of `zipf`'s JSON, written by asdict.
    token_count: int
    distinct_words: int
    distinct_bigrams: int
    hapax_word_pct: float
    word_le5_pct: float
    hapax_bigram_pct: float
    bigram_le5_pct: float
    word_freq_of_freq: dict[int, int]
    bigram_freq_of_freq: dict[int, int]


def count_bigrams(tokens: list[str]) -> BigramCounts:
    """Count every adjacent token pair; fewer than two tokens give empty counts."""
    # Counter counts an iterable in C; the three passes give the same counts,
    # in the same insertion order, as add_pair per pair.
    return BigramCounts(Counter(zip(tokens, tokens[1:])), Counter(tokens[:-1]), Counter(tokens[1:]),
                        max(0, len(tokens) - 1))


@dataclass(frozen=True)
class _TokenIds:
    """Every token of a corpus as a word id, texts end to end.

    names[i] is the word of id i. paired[k] says whether tokens k and k + 1
    form a bigram: they do not across two texts or, with sentence_reset, two
    lines. A bigram type is coded as id1 * V + id2, where V = len(names).
    """

    names: list[str]
    ids: np.ndarray
    paired: np.ndarray

    def bigram_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The first and the second word id of every bigram position."""
        return self.ids[:-1][self.paired], self.ids[1:][self.paired]

    def word_counts(self) -> np.ndarray:
        return np.bincount(self.ids, minlength=len(self.names))

    def bigram_types(self) -> tuple[np.ndarray, np.ndarray]:
        """The code of each bigram type, ascending, and its count."""
        first, second = self.bigram_ends()
        return np.unique(first * len(self.names) + second, return_counts=True)

    def partner_counts(self, word: str, slot: int) -> BigramCounts:
        """What `association_scan` reads with `word` fixed in position `slot`
        (0 first, 1 second): its pairs, its own marginal, its partners'
        marginals and the total. No other word's counts are built."""
        ends = self.bigram_ends()
        try:
            at = ends[slot] == self.names.index(word)
        except ValueError:
            at = np.zeros(len(ends[slot]), bool)
        partners, n11 = np.unique(ends[1 - slot][at], return_counts=True)
        margins = np.bincount(ends[1 - slot], minlength=len(self.names))[partners]
        names = [self.names[i] for i in partners.tolist()]
        pairs = [(name, word) if slot else (word, name) for name in names]
        marginals = (Counter(dict(zip(names, margins.tolist()))), Counter({word: int(np.count_nonzero(at))}))
        first, second = marginals if slot else marginals[::-1]
        return BigramCounts(Counter(dict(zip(pairs, n11.tolist()))), first, second, len(at))


def _token_ids(texts: Iterable[str], config: TokenizerConfig) -> _TokenIds:
    """Tokenize each text, in turn, into word ids.

    Each token takes one dictionary probe: a raw run seen for the first time
    gets the next run id, in C. After the last text each distinct run is
    normalised once, however many texts and lines repeat it, and the texts'
    run ids are mapped to word ids (dropping the runs that normalise to
    nothing) one text at a time. Word ids follow first occurrence. A bigram
    is two adjacent tokens of one unit: a text or, with sentence_reset, a line.
    """
    run_ids: defaultdict[str, int] = defaultdict(count().__next__)
    ids, unit_lengths = [np.zeros(0, np.int64)], [[]]
    for text in texts:
        unit_raws = [line.split() for line in text.splitlines()] if config.sentence_reset else [text.split()]
        unit_lengths.append(list(map(len, unit_raws)))
        ids.append(np.fromiter(map(run_ids.__getitem__, chain.from_iterable(unit_raws)), np.int64,
                               sum(unit_lengths[-1])))
        del text, unit_raws  # the last text's runs are not kept through the gather below
    # The empty word, what a run of punctuation alone normalises to, has id -1.
    word_ids: defaultdict[str, int] = defaultdict(count().__next__, {"": -1})
    words = np.fromiter(map(word_ids.__getitem__, _normalise_runs(list(run_ids), config)), np.int64, len(run_ids))
    units, unit_count = [], 0
    for k, lengths in enumerate(unit_lengths):
        # Each step drops the array it replaces, so one text's temporaries are live at a time.
        ids[k] = words[ids[k]]
        kept = ids[k] >= 0
        ids[k] = ids[k][kept]
        units.append(np.repeat(np.arange(unit_count, unit_count + len(lengths)), lengths)[kept])
        unit_count += len(lengths)
    unit = np.concatenate(units)
    return _TokenIds(list(word_ids)[1:], np.concatenate(ids), unit[1:] == unit[:-1])


def count_text(text: str, config: TokenizerConfig = TokenizerConfig()) -> tuple[Counter, BigramCounts]:
    """Tokenize and count a whole text; returns (word counts, bigram counts).

    With sentence_reset, no bigram spans a newline. Each distinct raw run is
    normalised once per call, not once per line.
    """
    corpus = _token_ids((text,), config)
    tokens = list(map(corpus.names.__getitem__, corpus.ids.tolist()))
    paired = corpus.paired.tolist()
    # Counter counts an iterable in C, each key in first-seen order.
    first, second = list(compress(tokens, paired)), list(compress(tokens[1:], paired))
    return Counter(tokens), BigramCounts(Counter(zip(first, second)), Counter(first), Counter(second),
                                         len(first))


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text file (or '-' for stdin); decode failures name the byte offset."""
    if str(path) == "-":
        data = sys.stdin.buffer.read()
    else:
        data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(
            f"invalid UTF-8 in {path} at byte offset {exc.start}"
        ) from exc


def _freq_of_freq(counts: np.ndarray) -> dict[int, int]:
    freqs, types = np.unique(counts, return_counts=True)
    return dict(zip(freqs.tolist(), types.tolist()))


def _pct_at_most(fof: dict[int, int], limit: int, distinct: int) -> float:
    if distinct == 0:
        return 0.0
    return 100.0 * sum(v for f, v in fof.items() if f <= limit) / distinct


def _summary(word_counts: np.ndarray, bigram_counts: np.ndarray) -> CorpusSummary:
    """The summary of a corpus with these counts, one per word and one per bigram type."""
    word_fof = _freq_of_freq(word_counts)
    bigram_fof = _freq_of_freq(bigram_counts)
    distinct_words = len(word_counts)
    distinct_bigrams = len(bigram_counts)
    return CorpusSummary(
        token_count=int(word_counts.sum()),
        distinct_words=distinct_words,
        distinct_bigrams=distinct_bigrams,
        hapax_word_pct=_pct_at_most(word_fof, 1, distinct_words),
        word_le5_pct=_pct_at_most(word_fof, 5, distinct_words),
        hapax_bigram_pct=_pct_at_most(bigram_fof, 1, distinct_bigrams),
        bigram_le5_pct=_pct_at_most(bigram_fof, 5, distinct_bigrams),
        word_freq_of_freq=word_fof,
        bigram_freq_of_freq=bigram_fof,
    )


def zipf_summary(bigrams: BigramCounts, word_counts: Counter) -> CorpusSummary:
    """Frequency-of-frequency histograms and the hapax / five-or-fewer percentages."""
    return _summary(np.fromiter(word_counts.values(), np.int64, len(word_counts)),
                    np.fromiter(bigrams.pair_counts.values(), np.int64, len(bigrams.pair_counts)))
