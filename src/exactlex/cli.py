"""Command-line surface: test, assoc, count, zipf, simulate, and tea subcommands.

Exit codes: 0 success, 1 data/domain error (one-line diagnostic on stderr),
including a number too large to convert or allocate for, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from .assoc import AssociationRecord, association_scan
from .corpus import TokenizerConfig, _normalise_runs, _summary, _token_ids, _TokenIds, read_text
from .errors import ExactLexError, NoObservationsError
from .report import STAT_LABELS, compute_all, render_freq_report
from .simulate import MultinomialModel, calibration
from .tables import make_table

TEA_TABLES = [(4, 0, 0, 4), (3, 1, 1, 3), (1, 3, 3, 1), (0, 4, 4, 0)]

ASSOC_TSV_COLUMNS = [
    "word", "n11", "m11",
    "exact_left", "exact_right", "exact_two", "exact_rank",
    "g2_p", "g2_rank", "x2_p", "x2_rank", "t_p", "t_rank",
]


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


class _Parser(argparse.ArgumentParser):
    """The top-level parser. It drops a final bare `--`: that conventionally
    ends the options, but no subcommand takes a positional argument to
    follow it, so argparse would refuse it as unrecognized."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args[:-1] if args[-1:] == ["--"] else args, namespace)


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = _Parser(
        prog="exactlex",
        description="Exact and asymptotic association tests for word pairs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=argparse.ArgumentParser)

    def add_tokenizer_flags(p):
        p.add_argument("--lowercase", type=_bool_flag, default=True)
        p.add_argument("--strip-punct", type=_bool_flag, default=True)
        p.add_argument("--sentence-reset", type=_bool_flag, default=False)

    def add_inputs(p):
        p.add_argument("--input", nargs="+", default=["-"],
                       help="text file paths, or - for stdin")

    p_test = sub.add_parser("test", help="run every test on one explicit table")
    for cell in ("n11", "n12", "n21", "n22"):
        p_test.add_argument(f"--{cell}", type=int, required=True)
    p_test.add_argument("--format", choices=["report", "json"], default="report")

    p_assoc = sub.add_parser("assoc", help="ranked association scan over a corpus")
    add_inputs(p_assoc)
    add_tokenizer_flags(p_assoc)
    slot = p_assoc.add_mutually_exclusive_group(required=True)
    slot.add_argument("--second", help="fixed second word; scan varies the first")
    slot.add_argument("--first", help="fixed first word; scan varies the second")
    p_assoc.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p_assoc.add_argument("--min-count", type=int, default=1)

    p_count = sub.add_parser("count", help="word or bigram frequency table (TSV)")
    add_inputs(p_count)
    add_tokenizer_flags(p_count)
    p_count.add_argument("--bigrams", action="store_true",
                         help="count adjacent pairs instead of single words")

    p_zipf = sub.add_parser("zipf", help="frequency-of-frequency summary")
    add_inputs(p_zipf)
    add_tokenizer_flags(p_zipf)
    p_zipf.add_argument("--format", choices=["json", "tsv"], default="json")

    p_sim = sub.add_parser("simulate", help="Monte Carlo calibration of the tests")
    p_sim.add_argument("--p-row", type=float)
    p_sim.add_argument("--p-col", type=float)
    p_sim.add_argument("--p11", type=float)
    p_sim.add_argument("--p12", type=float)
    p_sim.add_argument("--p21", type=float)
    p_sim.add_argument("--p22", type=float)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--alpha", type=float, action="append", default=None)
    p_sim.add_argument("--seed", type=int, default=0)

    sub.add_parser("tea", help="the built-in tea-tasting demo tables")
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Building the parsers costs about a millisecond, so a process builds
    # them once, on its first call that needs argparse. Sharing them is safe:
    # parsing returns a fresh namespace, and no handler mutates the default
    # lists they may hold. The subcommand parsers are kept so that
    # `_parse_args` can dispatch on argv[0]. That is safe because the
    # top-level parser has no option that takes a value: argv[0] is the
    # subcommand whenever it names one, and the top-level pass would only
    # hand argv[1:], `-h` and `--` included, to that subcommand's parser.
    return _build_parsers()


def _test_namespace(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of `test` followed by flag/value pairs that name each
    cell once as ASCII digits and `--format` at most once as report or
    json, in any order; None for any other argv. A sign, a space, an
    underscore or a non-ASCII digit is left to argparse, as is a digit
    string too long for int()."""
    given = dict(zip(argv[1::2], argv[2::2]))
    flags = len(given)  # fewer than the pairs if a flag repeats
    cells = [given.pop(flag, "") for flag in ("--n11", "--n12", "--n21", "--n22")]
    form = given.pop("--format", "report")
    if argv[:1] != ["test"] or 2 * flags + 1 != len(argv) or given or form not in ("report", "json") \
            or not all(cell.isascii() and cell.isdigit() for cell in cells):
        return None
    try:
        n11, n12, n21, n22 = map(int, cells)
    except ValueError:  # more digits than int() converts
        return None
    return argparse.Namespace(subcommand="test", n11=n11, n12=n12, n21=n21, n22=n22, format=form)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, by the cheapest of three routes.

    A `test` call that names each cell once as a decimal count, the form
    the README shows, is read straight into its namespace by
    `_test_namespace`, and no parser is built. Any other argv that starts
    with a subcommand takes that subcommand's parser in one argparse pass.
    An argv that does not start with a subcommand, or that leaves arguments
    the subcommand does not recognise, takes the two-level parse, so that
    help, usage errors and exit codes keep their wording. A final bare `--`
    is left over by the subcommand's parser, so it takes the two-level
    parse, whose top-level parser drops it.
    """
    if (args := _test_namespace(argv)) is not None:
        return args
    parser, subparsers = _parser()
    if argv and argv[0] in subparsers:
        args, extras = subparsers[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(subcommand=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def _config(args) -> TokenizerConfig:
    return TokenizerConfig(lowercase=args.lowercase, strip_punctuation=args.strip_punct,
                           sentence_reset=args.sentence_reset)


def _read_corpus(args) -> _TokenIds:
    # Inputs are read one at a time, each tokenized straight into word ids.
    return _token_ids(map(read_text, args.input), _config(args))


# One row of the scan TSV, per field of ASSOC_TSV_COLUMNS.
_TSV_FIELDS = ("%s", "%d", "%.2f", "%.4f", "%.4f", "%.4f", "%d", "%.4f", "%d", "%.4f", "%d", "%.4f", "%d")
_TSV_ROW = "\t".join(_TSV_FIELDS) + "\n"


def records_to_tsv(records: list[AssociationRecord]) -> str:
    lines = ["\t".join(ASSOC_TSV_COLUMNS) + "\n"]
    for r in records:
        row = (r.word, r.n11, r.m11, r.exact_left_p, r.exact_right_p, r.exact_two_p, r.exact_rank,
               r.g2_p, r.g2_rank, r.x2_p, r.x2_rank, r.t_p, r.t_rank)
        try:
            lines.append(_TSV_ROW % row)
        except TypeError:  # %d and %.4f refuse None: a refused test leaves its fields empty
            lines.append("\t".join("" if v is None else f % v for f, v in zip(_TSV_FIELDS, row)) + "\n")
    return "".join(lines)


def records_to_json(records: list[AssociationRecord]) -> str:
    # The fields hold only numbers, strings and None, so vars() gives the
    # mapping asdict would, without copying each field.
    return json.dumps([vars(r) for r in records], indent=2) + "\n"


def _cmd_test(args, out) -> int:
    table = make_table(args.n11, args.n12, args.n21, args.n22)
    results = compute_all(table)
    if args.format == "json":
        payload = {
            "table": table,
            "fisher": results["fisher"],
            "tests": {name: results[name] for name in (*STAT_LABELS, "t_test")},
            "measures": results["measures"],
            "small_expected_warning": results["warning"],
        }
        out.write(json.dumps(payload, indent=2, default=asdict) + "\n")
    else:
        out.write(render_freq_report(results))
    return 0


def _cmd_assoc(args, out) -> int:
    slot, raw = (1, args.second) if args.first is None else (0, args.first)
    # The fixed word is matched against tokens, so it is normalised as they are.
    [word] = _normalise_runs([raw], _config(args))
    if not word:
        raise NoObservationsError(f"no observations: {raw!r} normalises to no word")
    records = association_scan(
        _read_corpus(args).partner_counts(word, slot),
        **{"fixed_second" if slot else "fixed_first": word},
        min_count=args.min_count,
    )
    if args.format == "json":
        out.write(records_to_json(records))
    else:
        out.write(records_to_tsv(records))
    return 0


def _ranks(keys: list[str]) -> np.ndarray:
    """The position of each key in the sorted keys."""
    ranks = np.empty(len(keys), np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def _cmd_count(args, out) -> int:
    # Rows go by descending count, ties by name, sorted on integer ranks. No
    # name holds a space, so "u v" < "u' v'" exactly when u + " " < u' + " ",
    # or u = u' and v < v'. The first slot ranks name + " ", not name: "a\x01"
    # comes after "a" but "a\x01 c" before "a b".
    corpus = _read_corpus(args)
    names = corpus.names
    by_name = _ranks(names)
    if args.bigrams:
        codes, counts = corpus.bigram_types()
        first, second = np.divmod(codes, len(names))
        heads = [name + " " for name in names]
        keys = _ranks(heads)[first] * len(names) + by_name[second]
    else:
        counts, keys = corpus.word_counts(), by_name
    order = np.argsort(keys)
    order = order[np.argsort(-counts[order], kind="stable")]
    # Gathers and + over object arrays join the labels without a Python loop.
    if args.bigrams:
        labels = (np.array(heads, object)[first[order]] + np.array(names, object)[second[order]]).tolist()
    else:
        labels = np.array(names, object)[order].tolist()
    # Rows of equal count are adjacent, and each run of them is one join. No
    # count is -1, so the padded diff marks both ends as run bounds.
    counts = counts[order]
    bounds = np.flatnonzero(np.diff(counts, prepend=-1, append=-1)).tolist()
    tails = [f"\t{count}\n" for count in counts[bounds[:-1]].tolist()]
    out.write("".join([tail.join(labels[lo:hi]) + tail for tail, lo, hi in zip(tails, bounds, bounds[1:])]))
    return 0


def _cmd_zipf(args, out) -> int:
    corpus = _read_corpus(args)
    summary = _summary(corpus.word_counts(), corpus.bigram_types()[1])
    if args.format == "tsv":
        out.write("kind\tfrequency\ttypes\n")
        for freq, types in summary.word_freq_of_freq.items():
            out.write(f"word\t{freq}\t{types}\n")
        for freq, types in summary.bigram_freq_of_freq.items():
            out.write(f"bigram\t{freq}\t{types}\n")
    else:
        out.write(json.dumps(summary, indent=2, default=asdict) + "\n")
    return 0


def _cmd_simulate(args, out) -> int:
    cells, margins = [args.p11, args.p12, args.p21, args.p22], [args.p_row, args.p_col]
    if None not in cells and margins == [None] * 2:
        model = MultinomialModel(*cells)
    elif None not in margins and cells == [None] * 4:
        model = MultinomialModel.independent(*margins)
    else:
        raise ExactLexError("simulate needs either --p-row and --p-col, or all of --p11..--p22, not both")
    alphas = tuple(args.alpha) if args.alpha else (0.01, 0.05, 0.10)
    report = calibration(model, args.n, args.trials, alphas=alphas, seed=args.seed)
    out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def _cmd_tea(args, out) -> int:
    for cells in TEA_TABLES:
        results = compute_all(make_table(*cells))
        out.write(render_freq_report(results))
        out.write("\n")
    return 0


def run_command(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parse_args(argv)
    handlers = {
        "test": _cmd_test,
        "assoc": _cmd_assoc,
        "count": _cmd_count,
        "zipf": _cmd_zipf,
        "simulate": _cmd_simulate,
        "tea": _cmd_tea,
    }
    try:
        return handlers[args.subcommand](args, out)
    except (ExactLexError, OSError, OverflowError, MemoryError) as exc:
        # A bare MemoryError has no message; name it rather than print nothing.
        print(f"exactlex: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
