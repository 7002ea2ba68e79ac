"""Text ingestion: tokenization, word/bigram counting, and frequency-of-frequency summaries."""

from __future__ import annotations

import sys
import unicodedata
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IngestionError


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    strip_punctuation: bool = True
    sentence_reset: bool = False  # when set, bigrams do not span newlines


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _normalise(raw: str, config: TokenizerConfig) -> str:
    token = raw
    if config.strip_punctuation:
        start, end = 0, len(token)
        while start < end and _is_punct(token[start]):
            start += 1
        while end > start and _is_punct(token[end - 1]):
            end -= 1
        token = token[start:end]
    if config.lowercase:
        token = token.lower()
    return token


def _tokenize(text: str, config: TokenizerConfig, normalised: dict[str, str]) -> list[str]:
    """`tokenize`, normalising only the runs that `normalised` (raw run ->
    token, for this config) does not hold yet, and adding them to it."""
    raws = text.split()
    # The map's keys are fresh copies of the new runs, made side by side.
    # Keys taken from `raws` would lie scattered over its memory and keep
    # most of that from being reused once `raws` is freed.
    for raw in " ".join(set(raws).difference(normalised)).split():
        normalised[raw] = _normalise(raw, config)
    return [token for token in map(normalised.__getitem__, raws) if token]


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split text into maximal non-whitespace runs, optionally lowercased and
    stripped of leading/trailing punctuation. Empty tokens are dropped.

    Each distinct run is normalised once per call: word data repeats heavily,
    so that is far fewer normalisations than tokens. Counting shares one such
    map across every line and text it counts.
    """
    return _tokenize(text, config, {})


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

    def _add_tokens(self, tokens: list[str]) -> None:
        # Counter.update over an iterable counts in C; the three passes give
        # the same counts, in the same insertion order, as add_pair per pair.
        self.pair_counts.update(zip(tokens, tokens[1:]))
        self.first_counts.update(tokens[:-1])
        self.second_counts.update(tokens[1:])
        self.total_bigrams += max(0, len(tokens) - 1)

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
    counts = BigramCounts()
    counts._add_tokens(tokens)
    return counts


def _count_shards(texts: Iterable[str], config: TokenizerConfig) -> tuple[Counter, BigramCounts]:
    """Tokenize and count each text, in turn, into one word Counter and one
    BigramCounts; returns (word counts, bigram counts).

    No bigram spans two texts, or with sentence_reset two lines. Each
    distinct raw run is normalised once per call, however many texts and
    lines repeat it.
    """
    words: Counter = Counter()
    bigrams = BigramCounts()
    normalised: dict[str, str] = {}
    for text in texts:
        for unit in text.splitlines() if config.sentence_reset else (text,):
            tokens = _tokenize(unit, config, normalised)
            words.update(tokens)
            bigrams._add_tokens(tokens)
    return words, bigrams


def count_text(text: str, config: TokenizerConfig = TokenizerConfig()) -> tuple[Counter, BigramCounts]:
    """Tokenize and count a whole text; returns (word counts, bigram counts).

    With sentence_reset, no bigram spans a newline. Each distinct raw run is
    normalised once per call, not once per line.
    """
    return _count_shards((text,), config)


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


def _freq_of_freq(counts: Counter) -> dict[int, int]:
    histogram: Counter = Counter(counts.values())
    return dict(sorted(histogram.items()))


def _pct_at_most(fof: dict[int, int], limit: int, distinct: int) -> float:
    if distinct == 0:
        return 0.0
    return 100.0 * sum(v for f, v in fof.items() if f <= limit) / distinct


def zipf_summary(bigrams: BigramCounts, word_counts: Counter) -> CorpusSummary:
    """Frequency-of-frequency histograms and the hapax / five-or-fewer percentages."""
    word_fof = _freq_of_freq(word_counts)
    bigram_fof = _freq_of_freq(bigrams.pair_counts)
    distinct_words = len(word_counts)
    distinct_bigrams = len(bigrams.pair_counts)
    return CorpusSummary(
        token_count=sum(word_counts.values()),
        distinct_words=distinct_words,
        distinct_bigrams=distinct_bigrams,
        hapax_word_pct=_pct_at_most(word_fof, 1, distinct_words),
        word_le5_pct=_pct_at_most(word_fof, 5, distinct_words),
        hapax_bigram_pct=_pct_at_most(bigram_fof, 1, distinct_bigrams),
        bigram_le5_pct=_pct_at_most(bigram_fof, 5, distinct_bigrams),
        word_freq_of_freq=word_fof,
        bigram_freq_of_freq=bigram_fof,
    )
