"""The four benchmark workloads: seeded inputs, the operations of one pass,
their traced replays, and the output checks.

A workload names the distinct operations of one pass in `kinds`; the
benchmark runs them in order, pass after pass. `op(kind, tracer)` runs one
operation and returns what `check(kind, result, first)` needs; `check`
returns None or the reason the output is wrong.

Every workload drives exactlex the way a user would: through
`exactlex.cli.run_command` on generated files, or through the public scan API
on generated counts. The library only ever sees those generated inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from exactlex import asymptotic
from exactlex.assoc import RANK_KEYS, association_scan, bigram_table, rank_records
from exactlex.cli import build_parser, records_to_json, records_to_tsv, run_command
from exactlex.corpus import BigramCounts, TokenizerConfig, count_text, read_text, tokenize, zipf_summary
from exactlex.errors import DegenerateTableError, UndefinedStatisticError
from exactlex.exact import fisher_exact, fisher_from_dist, hypergeom_distribution
from exactlex.report import compute_all, render_freq_report
from exactlex.simulate import MultinomialModel, calibration
from exactlex.tables import ContingencyTable2x2, make_table

from oracle import check_fisher, ranks_are_permutations
from tracer import Tracer, span

ALPHAS = ("0.01", "0.05", "0.10")
ORACLE_SAMPLE = 8  # seeded records per scan checked against the oracle, besides the planted ones


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    status = run_command(argv, out)
    return status, out.getvalue()


def _disagree(exact_p: float, asym_p: float | None, alpha: str) -> bool:
    a = float(alpha)
    return asym_p is not None and (exact_p <= a) != (asym_p <= a)


# --- replays of the inner calls of public functions, under spans -------------

def _replay_fisher(tr: Tracer, tables: list[ContingencyTable2x2], cached: bool = False):
    """exact.enumerate then exact.tail over the tables; returns FisherResults.

    With cached=True, distributions are enumerated once per marginal, as
    simulate.calibration does."""
    keys = [(t.total, t.row1, t.col1) for t in tables]
    with tr.span("exact.enumerate"):
        if cached:
            dists = {}
            for key in keys:
                if key not in dists:
                    dists[key] = hypergeom_distribution(*key)
            by_table = [dists[key] for key in keys]
        else:
            by_table = [hypergeom_distribution(*key) for key in keys]
            dists = by_table
    with tr.span("exact.tail"):
        results = [fisher_from_dist(d, t.n11) for d, t in zip(by_table, tables)]
    enumerated = dists.values() if cached else dists
    tr.count("exact.enumerations", len(enumerated))
    tr.count("exact.support_terms", sum(d.support_hi - d.support_lo + 1 for d in enumerated))
    tr.count("exact.distinct_marginals", len(set(keys)))
    return results


ASYMPTOTIC = (
    ("x2", asymptotic.pearson_x2, DegenerateTableError),
    ("g2", asymptotic.likelihood_g2, DegenerateTableError),
    ("t", asymptotic.t_test, UndefinedStatisticError),
)


def _replay_asymptotic(tr: Tracer, tables: list[ContingencyTable2x2]) -> dict[str, list]:
    """Each asymptotic test over the tables; p-values, None where the test refused."""
    out = {}
    for name, test, refusal in ASYMPTOTIC:
        ps = []
        with tr.span(f"asymptotic.{name}"):
            for table in tables:
                try:
                    ps.append(test(table).p_value)
                except refusal:
                    ps.append(None)
        refused = ps.count(None)
        tr.count("asymptotic.calls", len(tables))
        tr.count("asymptotic.degenerate" if refusal is DegenerateTableError else "asymptotic.undefined",
                 refused)
        out[name] = ps
    return out


def _traced_scan(tr: Tracer | None, counts: BigramCounts, fixed: str):
    """association_scan; when tracing, replay its inner calls as children."""
    with span(tr, "assoc.scan") as sid:
        records = association_scan(counts, fixed_second=fixed)
    if tr is None:
        return records
    with tr.replaying(sid):
        words = sorted(r.word for r in records)
        with tr.span("assoc.table_build"):
            tables = [bigram_table(counts, w, fixed) for w in words]
        tr.count("tables.constructed", len(tables))
        tr.count("assoc.tables", len(tables))
        _replay_fisher(tr, tables)
        _replay_asymptotic(tr, tables)
        by_word = sorted(records, key=lambda r: r.word)
        with tr.span("assoc.rank"):
            for key in RANK_KEYS:
                rank_records(by_word, key)
    for key, p_field in (("exact", "exact_two_p"), ("g2", "g2_p"), ("x2", "x2_p"), ("t", "t_p")):
        tr.count(f"assoc.p_underflow.{key}", sum(getattr(r, p_field) == 0.0 for r in records))
    # X2 and G2 are two-sided, so they are compared with the two-sided exact
    # test; the t-test takes the upper tail, so with the right-sided one.
    for test, p_field, exact_field in (("g2", "g2_p", "exact_two_p"), ("x2", "x2_p", "exact_two_p"),
                                       ("t", "t_p", "exact_right_p")):
        for alpha in ALPHAS:
            tr.count(f"assoc.disagree.{test}.{alpha}",
                     sum(_disagree(getattr(r, exact_field), getattr(r, p_field), alpha) for r in records))
    return records


def _replay_ingest(tr: Tracer, argv: list[str]):
    """What run_command does before a corpus subcommand's own work."""
    with tr.span("cli.parse"):
        args = build_parser().parse_args(argv)
    config = TokenizerConfig()
    words: Counter = Counter()
    bigrams = BigramCounts()
    tokens = 0
    for path in args.input:
        with tr.span("corpus.read"):
            text = read_text(path)
        with tr.span("corpus.count_text") as sid:
            shard_words, shard_bigrams = count_text(text, config)
        with tr.under(sid), tr.span("corpus.tokenize"):
            tokens += len(tokenize(text, config))
        with tr.span("corpus.merge"):
            words.update(shard_words)
            bigrams = bigrams.merge(shard_bigrams)
    tr.gauge("corpus.tokens", tokens)
    tr.gauge("corpus.distinct_bigrams", len(bigrams.pair_counts))
    return words, bigrams


# --- corpus_assoc ---------------------------------------------------------------

def zipf_corpus(rng: np.random.Generator, vocab: int, tokens: int, scatter: int,
                planted: list[int]) -> np.ndarray:
    """Word ids of a corpus drawn from a Zipf law over ids 0..vocab-1. The id
    `vocab` is a fixed word, put at `scatter` random positions; pair k of
    `planted` writes id vocab+1+k followed by the fixed word that many times."""
    ranks = np.arange(1, vocab + 1)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    ids = rng.choice(vocab, size=tokens, p=probs)
    ids[rng.integers(0, tokens, size=scatter)] = vocab
    for k, count in enumerate(planted):
        for pos in rng.integers(0, tokens - 1, size=count).tolist():
            ids[pos], ids[pos + 1] = vocab + 1 + k, vocab
    return ids


class CorpusAssoc:
    """count --bigrams, zipf and assoc over one sharded Zipf corpus with planted pairs."""

    name = "corpus_assoc"
    kinds = ("count", "zipf", "assoc")
    VOCAB = 5000
    TOKENS = 48_000
    SHARDS = 8
    FIXED = "tea"
    SCATTER = 400  # plain occurrences of the fixed word at random positions
    # Planted pairs; "strong tea" is strong enough that its exact, G2 and X2
    # p-values underflow to 0.0 (the log-space defect the counters expose).
    PLANTED = (("strong", 400), ("black", 120), ("herbal", 30))
    SENTENCE = 12  # tokens per generated sentence; capitalised and full-stopped

    def __init__(self, workdir: Path, seed: int) -> None:
        self.dir = workdir
        self.seed = seed

    def _tokens(self) -> list[str]:
        ids = zipf_corpus(np.random.default_rng(self.seed), self.VOCAB, self.TOKENS, self.SCATTER,
                          [count for _, count in self.PLANTED])
        names = [f"w{i}" for i in range(self.VOCAB)] + [self.FIXED] + [first for first, _ in self.PLANTED]
        return [names[i] for i in ids.tolist()]

    def _render(self, tokens: list[str]) -> str:
        lines = []
        for i in range(0, len(tokens), self.SENTENCE):
            sentence = tokens[i:i + self.SENTENCE]
            lines.append(" ".join([sentence[0].capitalize()] + sentence[1:]) + ".")
        return "\n".join(lines) + "\n"

    def setup(self) -> None:
        tokens = self._tokens()
        size = len(tokens) // self.SHARDS
        shards = [tokens[i * size:(i + 1) * size] for i in range(self.SHARDS)]
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, shard in enumerate(shards):
            path = self.dir / f"shard{i}.txt"
            path.write_text(self._render(shard), encoding="utf-8")
            paths.append(str(path))
        # Expected counts, computed here without the library: shards are
        # counted separately and merged without seam bigrams. Only what the
        # checks need is kept, so that peak_rss_mb is mostly the library's.
        pairs = Counter()
        for shard in shards:
            pairs.update(zip(shard, shard[1:]))
        first = Counter()
        for (w1, _), c in pairs.items():
            first[w1] += c
        self.count_digest = _digest(f"{w1} {w2}\t{c}" for (w1, w2), c in pairs.items())
        self.distinct_bigrams = len(pairs)
        self.partners = {w1: c for (w1, w2), c in pairs.items() if w2 == self.FIXED}
        self.partner_rows = {w1: first[w1] for w1 in self.partners}
        self.col1 = sum(self.partners.values())
        self.tokens = sum(len(s) for s in shards)
        self.words = len({t for s in shards for t in s})
        self.total = sum(pairs.values())
        del tokens, shards, pairs, first
        self.argv = (
            ["count", "--bigrams", "--input", *paths],
            ["zipf", "--input", *paths],
            ["assoc", "--second", self.FIXED, "--format", "json", "--input", *paths],
        )
        for argv in self.argv:  # warm up on one shard
            _run(argv[:argv.index("--input") + 2])

    def op(self, kind: int, tr: Tracer | None):
        argv = self.argv[kind]
        with span(tr, f"cli.{self.kinds[kind]}") as sid:
            result = _run(argv)
        if tr is not None:
            with tr.replaying(sid):
                self._replay(tr, kind, argv)
        return result

    def _replay(self, tr: Tracer, kind: int, argv: list[str]) -> None:
        words, bigrams = _replay_ingest(tr, argv)
        if self.kinds[kind] == "count":
            # Mirrors the count subcommand's TSV writer, which has no public name.
            with tr.span("cli.render"):
                items = [(" ".join(pair), c) for pair, c in bigrams.pair_counts.items()]
                items.sort(key=lambda kv: (-kv[1], kv[0]))
                buf = io.StringIO()
                for word, count in items:
                    buf.write(f"{word}\t{count}\n")
        elif self.kinds[kind] == "zipf":
            with tr.span("corpus.zipf_summary"):
                zipf_summary(bigrams, words)
        else:
            records = _traced_scan(tr, bigrams, self.FIXED)
            with tr.span("cli.render"):
                records_to_json(records)

    def check(self, kind: int, result, first: bool) -> str | None:
        status, text = result
        if status != 0:
            return f"exit status {status}"
        return (self._check_count, self._check_zipf, self._check_assoc)[kind](text, first)

    def _check_count(self, text: str, full: bool) -> str | None:
        lines = text.splitlines()
        total = sum(int(line.rsplit("\t", 1)[1]) for line in lines)
        if total != self.total or len(lines) != self.distinct_bigrams:
            return f"{total} bigrams in {len(lines)} rows, expected {self.total} in {self.distinct_bigrams}"
        if full and _digest(lines) != self.count_digest:
            return "bigram counts differ from the generated corpus"
        return None

    def _check_zipf(self, text: str, full: bool) -> str | None:
        summary = json.loads(text)
        got = (summary["token_count"], summary["distinct_words"], summary["distinct_bigrams"])
        want = (self.tokens, self.words, self.distinct_bigrams)
        return None if got == want else f"(tokens, words, bigrams) = {got}, expected {want}"

    def _check_assoc(self, text: str, full: bool) -> str | None:
        records = json.loads(text)
        if {r["word"]: r["n11"] for r in records} != self.partners:
            return "partners or n11 differ from the generated corpus"
        reason = ranks_are_permutations(records)
        if reason is None and full:
            reason = _oracle_check(records, [first for first, _ in self.PLANTED], self.seed,
                                   lambda w: (self.partner_rows[w], self.col1, self.total))
        return reason

    def named_metrics(self, best: list[float]) -> list[tuple]:
        return [(f"{name}_s", seconds, "s", f"{self.tokens} tokens in {self.SHARDS} shards")
                for name, seconds in zip(self.kinds, best)]


def _digest(lines) -> str:
    """An order-free digest of text lines."""
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _oracle_check(records: list[dict], planted: list[str], seed: int, marginals) -> str | None:
    """Exact p-values of a seeded sample of records, and of the planted ones,
    against the oracle; marginals(word) gives (row1, col1, N)."""
    rng = np.random.default_rng(seed + 7)
    picked = {int(i) for i in rng.choice(len(records), size=min(ORACLE_SAMPLE, len(records)), replace=False)}
    for i, r in enumerate(records):
        if i in picked or r["word"] in planted:
            reason = check_fisher(r["exact_left_p"], r["exact_right_p"], r["exact_two_p"],
                                  r["n11"], *marginals(r["word"]))
            if reason:
                return f"{r['word']}: {reason}"
    return None


# --- scan -------------------------------------------------------------------------

@dataclass(frozen=True)
class Scale:
    label: str
    n_total: int
    candidates: int
    first_total: int  # summed first-position counts of all candidates
    col1: int  # about how often the fixed word is second
    planted: tuple[int, ...]  # n11 of candidates that (almost) always precede the fixed word


class Scan:
    """association_scan + records_to_tsv on counts at three corpus sizes."""

    name = "scan"
    FIXED = "industry"
    SCALES = (
        Scale("n1.38e6", 1_382_828, 2000, 1_300_000, 20_000, (500, 800, 1200)),
        Scale("n1e7", 10_000_000, 300, 9_000_000, 5_000, (1000,)),
        # n11 = 2000 at N = 10^9 makes even the t-test p-value underflow.
        Scale("n1e9", 1_000_000_000, 40, 50_000_000, 20_000, (2000,)),
    )
    kinds = tuple(scale.label for scale in SCALES)
    WARM = Scale("warm", 100_000, 50, 90_000, 500, ())

    def __init__(self, workdir: Path, seed: int) -> None:
        self.seed = seed

    def _counts(self, scale: Scale, rng: np.random.Generator) -> tuple[BigramCounts, list[str]]:
        weights = 1.0 / np.arange(1, scale.candidates + 1)
        rows = weights / weights.sum() * scale.first_total * rng.uniform(0.95, 1.05, scale.candidates)
        rows = np.maximum(2, rows.astype(np.int64))
        q = scale.col1 / scale.first_total
        names = rng.permutation(scale.candidates + len(scale.planted))
        counts = BigramCounts()
        for i, row1 in enumerate(rows):
            n11 = 1 + int(rng.binomial(int(row1) - 1, q))
            counts.add_pair(f"c{names[i]}", self.FIXED, n11)
            counts.add_pair(f"c{names[i]}", "filler", int(row1) - n11)
        planted = []
        for j, n11 in enumerate(scale.planted):
            word = f"c{names[scale.candidates + j]}"
            counts.add_pair(word, self.FIXED, n11)
            counts.add_pair(word, "filler", int(rng.integers(0, 50)))
            planted.append(word)
        counts.add_pair("pad", "filler", scale.n_total - counts.total_bigrams)
        return counts, planted

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs = [self._counts(scale, rng) for scale in self.SCALES]
        warm, _ = self._counts(self.WARM, rng)
        records_to_tsv(association_scan(warm, fixed_second=self.FIXED))

    def op(self, kind: int, tr: Tracer | None):
        records = _traced_scan(tr, self.inputs[kind][0], self.FIXED)
        with span(tr, "cli.render"):
            tsv = records_to_tsv(records)
        return records, tsv

    def check(self, kind: int, result, first: bool) -> str | None:
        records, tsv = result
        scale = self.SCALES[kind]
        counts, planted = self.inputs[kind]
        expected = scale.candidates + len(scale.planted)
        if len(records) != expected or tsv.count("\n") != expected + 1:
            return f"{len(records)} records, expected {expected}"
        if any(r.n11 != counts.pair_counts[(r.word, self.FIXED)] for r in records):
            return "n11 differs from the generated counts"
        rows = [vars(r) for r in records]
        reason = ranks_are_permutations(rows)
        if reason is None and first:
            col1 = counts.second_counts[self.FIXED]
            reason = _oracle_check(rows, planted, self.seed,
                                   lambda w: (counts.first_counts[w], col1, scale.n_total))
        return reason

    def named_metrics(self, best: list[float]) -> list[tuple]:
        return [(f"scan_tables_per_s[{scale.label}]", (scale.candidates + len(scale.planted)) / seconds,
                 "tables/s", f"{scale.candidates + len(scale.planted)} candidates at N={scale.n_total}")
                for scale, seconds in zip(self.SCALES, best)]


# --- calibrate ----------------------------------------------------------------------

class Calibrate:
    """simulate at the acceptance parameters; many tiny tables with repeating marginals."""

    name = "calibrate"
    kinds = ("simulate",)
    P_ROW, P_COL, N = "0.002", "0.0007", 10_000
    TRIALS = 10_000

    def __init__(self, workdir: Path, seed: int) -> None:
        self.seed = seed

    def _argv(self, trials: int) -> list[str]:
        return ["simulate", "--p-row", self.P_ROW, "--p-col", self.P_COL, "--n", str(self.N),
                "--trials", str(trials), "--seed", str(self.seed)]

    def setup(self) -> None:
        self.argv = self._argv(self.TRIALS)
        _run(self._argv(1000))

    def op(self, kind: int, tr: Tracer | None):
        with span(tr, "cli.simulate") as sid:
            result = _run(self.argv)
        if tr is not None:
            with tr.replaying(sid):
                self._replay(tr)
        return result

    def _replay(self, tr: Tracer) -> None:
        with tr.span("cli.parse"):
            args = build_parser().parse_args(self.argv)
        model = MultinomialModel.independent(args.p_row, args.p_col)
        with tr.span("simulate.calibration") as sid:
            report = calibration(model, args.n, args.trials, seed=args.seed)
        with tr.replaying(sid):
            # The same seeded draws calibration() makes, so the disagreement
            # counts describe exactly the tables it tallied.
            with tr.span("simulate.draw"):
                rng = np.random.default_rng(np.random.SeedSequence(args.seed))
                draws = rng.multinomial(args.n, model.probs, size=args.trials)
            with tr.span("tables.construct"):
                tables = [ContingencyTable2x2(int(r[0]), int(r[1]), int(r[2]), int(r[3])) for r in draws]
            tr.count("tables.constructed", len(tables))
            fishers = _replay_fisher(tr, tables, cached=True)
            asym = _replay_asymptotic(tr, tables)
        with tr.span("cli.render"):
            json.dumps(report.to_dict(), indent=2)
        distinct = len({(t.row1, t.col1) for t in tables})
        tr.count("simulate.trials", args.trials)
        tr.count("simulate.cache_lookups", args.trials)
        tr.gauge("simulate.cache_hit_ratio", 1.0 - distinct / args.trials)
        for test, exact_side in (("x2", "two_sided_p"), ("g2", "two_sided_p"), ("t", "right_p")):
            for alpha in ALPHAS:
                tr.count(f"simulate.disagree.{test}.{alpha}",
                         sum(_disagree(getattr(f, exact_side), p, alpha) for f, p in zip(fishers, asym[test])))

    def check(self, kind: int, result, first: bool) -> str | None:
        status, text = result
        if status != 0:
            return f"exit status {status}"
        report = json.loads(text)
        left = report["tests"]["fisher_left"]
        if report["trials"] != self.TRIALS or left["valid_trials"] != self.TRIALS:
            return f"{report['trials']} trials reported, expected {self.TRIALS}"
        for alpha, rate in left["rejection_rates"].items():
            a = float(alpha)
            limit = a + 3 * math.sqrt(a * (1 - a) / self.TRIALS)
            if rate > limit:
                return f"Fisher-left rejection rate {rate} > {limit} at alpha {alpha}"
        return None

    def named_metrics(self, best: list[float]) -> list[tuple]:
        return [("simulate_s", best[0], "s", f"{self.TRIALS} trials, n={self.N}")]


# --- table_test -----------------------------------------------------------------------

class TableTest:
    """`test` on a seeded stream of tables: the bigram tables of a generated
    Zipf corpus, and a tail of large-support tables at N = 1e7 and 1e9."""

    name = "table_test"
    STREAM = 1000  # distinct tables; p99 over them has ten beyond it
    # Large-support tables in the stream. The share is assumed, not measured:
    # it makes p99 an enumeration figure. Uniform over a corpus's bigram
    # types, far fewer than 1% of the tables would be this large.
    LARGE = 20
    ORACLE_CALLS = 32  # corpus tables checked against the oracle on their first call
    # The corpus_assoc generator at four times the size, with the same shares
    # of scattered and planted occurrences of the fixed word.
    VOCAB, TOKENS, SCATTER, PLANTED = 5000, 192_000, 1600, (1600, 480, 120)
    kinds = tuple(range(STREAM))

    def __init__(self, workdir: Path, seed: int) -> None:
        self.seed = seed

    def _corpus_tables(self, rng: np.random.Generator, k: int) -> list[tuple[int, int, int, int]]:
        """The tables bigram_table builds for k bigram types of a generated
        corpus, picked uniformly: a scan scores every type once."""
        ids = zipf_corpus(rng, self.VOCAB, self.TOKENS, self.SCATTER, list(self.PLANTED))
        size = self.VOCAB + 1 + len(self.PLANTED)
        types, n11s = np.unique(ids[:-1] * size + ids[1:], return_counts=True)
        first = np.bincount(ids[:-1], minlength=size)
        second = np.bincount(ids[1:], minlength=size)
        n_total = len(ids) - 1
        tables = []
        for i in rng.choice(len(types), size=k, replace=False).tolist():
            w1, w2 = divmod(int(types[i]), size)
            n11, row1, col1 = int(n11s[i]), int(first[w1]), int(second[w2])
            tables.append((n11, row1 - n11, col1 - n11, n_total - row1 - col1 + n11))
        return tables

    def _stream(self) -> list[tuple[int, int, int, int]]:
        rng = np.random.default_rng(self.seed)
        corpus = iter(self._corpus_tables(rng, self.STREAM - self.LARGE))
        large = rng.choice(self.STREAM, size=self.LARGE, replace=False).tolist()
        # Supports spread evenly over 1e5..2e5, alternately at N = 1e7 and 1e9,
        # so the tail costs the same for every seed. Scaled to N = 1e7, the
        # corpus above gives pairs of its 5th to 10th most frequent words
        # supports of this size.
        sizes = dict(zip(large, ((int(1e5 * 2 ** (k / self.LARGE)), 10 ** (7 + 2 * (k % 2)))
                                 for k in range(self.LARGE))))
        tables = []
        for i in range(self.STREAM):
            if i in sizes:
                row1, n_total = sizes[i]
                col1 = 4 * row1
                n11 = int(rng.binomial(row1, col1 / n_total))
                tables.append((n11, row1 - n11, col1 - n11, n_total - row1 - col1 + n11))
            else:
                tables.append(next(corpus))
        return tables

    def setup(self) -> None:
        self.tables = self._stream()
        self.checked = 0
        for cells in self.tables[:3]:
            _run(self._argv(cells))

    @staticmethod
    def _argv(cells) -> list[str]:
        return ["test", "--n11", str(cells[0]), "--n12", str(cells[1]),
                "--n21", str(cells[2]), "--n22", str(cells[3])]

    def op(self, kind: int, tr: Tracer | None):
        argv = self._argv(self.tables[kind])
        with span(tr, "cli.test") as sid:
            result = _run(argv)
        if tr is not None:
            with tr.replaying(sid):
                self._replay(tr, argv)
        return result

    @staticmethod
    def _replay(tr: Tracer, argv: list[str]) -> None:
        with tr.span("cli.parse"):
            args = build_parser().parse_args(argv)
        with tr.span("tables.construct"):
            table = make_table(args.n11, args.n12, args.n21, args.n22)
        tr.count("tables.constructed")
        with tr.span("report.compute_all") as sid:
            results = compute_all(table)
        with tr.replaying(sid):
            _replay_fisher(tr, [table])
            _replay_asymptotic(tr, [table])
        with tr.span("report.render"):
            render_freq_report(results)

    def check(self, kind: int, result, first: bool) -> str | None:
        cells = self.tables[kind]
        status, text = result
        if status != 0:
            return f"{cells}: exit status {status}"
        try:
            fisher = _parse_report(text, cells)
        except ValueError as exc:
            return f"{cells}: report does not parse: {exc}"
        n11, n12, n21, n22 = cells
        if first and self.checked < self.ORACLE_CALLS and n11 + n12 <= 3000:
            self.checked += 1
            reason = check_fisher(*fisher, n11, n11 + n12, n11 + n21, sum(cells), abs_tol=5e-4)
            return reason and f"{cells}: {reason}"
        return None

    def named_metrics(self, best: list[float]) -> list[tuple]:
        ms = [1e3 * b for b in best]
        note = (f"fastest call of each of {self.STREAM} tables: {self.STREAM - self.LARGE} from a "
                f"{self.TOKENS}-token corpus, {self.LARGE} with supports 1e5..2e5")
        return [("test_ms_p50", statistics.median(ms), "ms", note),
                ("test_ms_p99", percentile(ms, 99), "ms", note)]


def _parse_report(text: str, cells) -> tuple[float, float, float]:
    """The Fisher left, right and two-sided values of a `test` report, after
    checking its layout against the table it was asked about."""
    lines = text.splitlines()
    if lines[0] != "TABLE OF X BY Y":
        raise ValueError("missing title")
    freq = [line.split()[1:3] for line in lines if line.startswith("Frequency")]
    if freq != [[str(cells[0]), str(cells[1])], [str(cells[2]), str(cells[3])]]:
        raise ValueError(f"frequency rows {freq}")
    if f"Sample Size = {sum(cells)}" not in lines:
        raise ValueError("missing or wrong sample size")
    probs = {}
    for line in lines:
        for label in ("Fisher's Exact Test (Left)", "(Right)", "(2-Tail)"):
            if line.strip().startswith(label):
                probs[label] = float(line.split()[-1])
    if len(probs) != 3 or not all(0.0 <= p <= 1.0 for p in probs.values()):
        raise ValueError(f"Fisher probabilities {probs}")
    return probs["Fisher's Exact Test (Left)"], probs["(Right)"], probs["(2-Tail)"]


class Combined:
    """Two of the parts above as one workload: their operations, one after the
    other, make up one pass."""

    def __init__(self, name: str, parts: tuple, workdir: Path, seed: int) -> None:
        self.name = name
        self.parts = [part(workdir / part.name, seed) for part in parts]
        self.kinds = tuple(f"{part.name}:{kind}" for part in self.parts for kind in part.kinds)
        self._route = [(part, k) for part in self.parts for k in range(len(part.kinds))]

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def op(self, kind: int, tr: Tracer | None):
        part, k = self._route[kind]
        return part.op(k, tr)

    def check(self, kind: int, result, first: bool) -> str | None:
        part, k = self._route[kind]
        return part.check(k, result, first)

    def named_metrics(self, best: list[float]) -> list[tuple]:
        out, start = [], 0
        for part in self.parts:
            out += part.named_metrics(best[start:start + len(part.kinds)])
            start += len(part.kinds)
        return out


# Two workloads split by mechanism: the first never enumerates a large
# support (text ingestion, a small scan, cached tiny supports), the second is
# dominated by enumeration (scans at three sizes, large-support `test` calls).
# Each run lasts long enough to outlast the host's slow stretches, which a
# budget of four workloads would not allow.
WORKLOADS = {"corpus_calibrate": (CorpusAssoc, Calibrate), "scan_test": (Scan, TableTest)}


# --- layer probes (traced run only) --------------------------------------------------

PROBE_TABLES = {
    "paper": (17, 229, 935, 1_381_647),
    "n1e7": (50, 19_950, 199_950, 10 ** 7 - 219_950),  # support 2e4
    "n1e9": (500, 199_500, 1_999_500, 10 ** 9 - 2_198_500),  # support 2e5
}


def probe_layers() -> dict[str, float]:
    """Fisher latency at the three scales and chi_square_sf per call, medians."""
    out = {}
    for label, cells in PROBE_TABLES.items():
        table = make_table(*cells)
        fisher_exact(table)
        times = []
        for _ in range(5 if label == "n1e9" else 15):
            t0 = perf_counter()
            fisher_exact(table)
            times.append(perf_counter() - t0)
        out[f"exact.fisher_ms.{label}"] = 1e3 * statistics.median(times)
    xs = [0.05 * k for k in range(1, 1001)]  # covers both the series and the continued fraction
    times = []
    for _ in range(7):
        t0 = perf_counter()
        for x in xs:
            asymptotic.chi_square_sf(x, 1)
        times.append((perf_counter() - t0) / len(xs))
    out["asymptotic.chi_square_sf_us"] = 1e6 * statistics.median(times)
    return out
