import contextlib
import hashlib
import io
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlex import cli
from exactlex.cli import (
    ASSOC_TSV_COLUMNS,
    TEA_TABLES,
    build_parser,
    run_command,
)
from exactlex.report import compute_all, render_freq_report
from exactlex.tables import make_table


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    status = run_command(argv, out=out)
    return status, out.getvalue()


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_report_contains_reference_values():
    status, text = run(["test", "--n11", "3", "--n12", "1", "--n21", "1",
                        "--n22", "3", "--format", "report"])
    assert status == 0
    for fragment in ("0.986", "0.243", "0.486", "2.000", "2.093", "0.500",
                     "1.750", "0.157", "0.148", "0.480", "0.186", "0.229",
                     "0.447", "Sample Size = 8"):
        assert fragment in text
    assert "WARNING: 100% of the cells have expected counts less than 5" in text


def test_support_wider_than_2_63_points_exits_0():
    status, text = run(["test", "--n11", "0", "--n12", str(2**64), "--n21", str(2**64),
                        "--n22", str(2**130 - 2**65), "--format", "json"])
    assert status == 0
    assert strict_json(text)["fisher"]["point_p"] > 0.0


def test_empty_table_exits_1(capsys):
    status, _ = run(["test", "--n11", "0", "--n12", "0", "--n21", "0", "--n22", "0"])
    assert status == 1
    assert "empty table" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["test", "--bogus-flag", "3"])
    assert exc.value.code == 2


def test_json_round_trip_bit_for_bit():
    status, text = run(["test", "--n11", "17", "--n12", "229", "--n21", "935",
                        "--n22", "1381647", "--format", "json"])
    assert status == 0
    payload = json.loads(text)
    results = compute_all(make_table(17, 229, 935, 1381647))
    fisher = results["fisher"]
    assert payload["fisher"]["left_p"] == fisher.left_p
    assert payload["fisher"]["right_p"] == fisher.right_p
    assert payload["fisher"]["two_sided_p"] == fisher.two_sided_p
    assert payload["tests"]["pearson"]["p_value"] == results["pearson"].p_value
    assert payload["tests"]["t_test"]["p_value"] == results["t_test"].p_value


def test_tea_subcommand_point_probabilities():
    status, text = run(["tea"])
    assert status == 0
    points = re.findall(r"P\(n11 = \d\)\s+(\d\.\d+)", text)
    assert points == ["0.014", "0.229", "0.229", "0.014"]
    assert text.count("TABLE OF X BY Y") == 8  # header + statistics header per table


def test_rendering_is_pure():
    results = compute_all(make_table(4, 0, 0, 4))
    assert render_freq_report(results) == render_freq_report(results)


@given(st.tuples(st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 10**12),
                 st.integers(0, 10**12)).filter(any))
@settings(max_examples=60, deadline=None)
def test_report_values_never_run_together(cells):
    n11, n12, n21, n22 = cells
    lines = render_freq_report(compute_all(make_table(*cells))).splitlines()

    def fields(label):
        return [line.split() for line in lines if line.startswith(label)]

    n = sum(cells)
    assert fields("Frequency") == [["Frequency", str(n11), str(n12), str(n11 + n12)],
                                   ["Frequency", str(n21), str(n22), str(n21 + n22)]]
    assert fields("Total") == [["Total", str(n11 + n21), str(n12 + n22), str(n)]]
    for row in fields("Expected") + fields("Deviation"):
        assert len(row) == 3 and all(float(value) == float(value) for value in row[1:])
    for row in fields("Chi-Square") + fields("Likelihood Ratio"):
        assert row[-1] == "--" or row[-3] == "1"
    # The Value column's right edge lines up with its header's.
    header = next(line for line in lines if line.startswith("Statistic"))
    edge = header.index("Value") + len("Value")
    for line in lines:
        if line.startswith(("Chi-Square", "Phi Coefficient", "T-Statistic")) and "--" not in line:
            assert line[edge - 1] != " " and line[edge:edge + 1] in ("", " ")


def test_report_widens_only_columns_a_value_fills():
    text = render_freq_report(compute_all(make_table(500, 199500, 1999500, 997800500)))
    assert "Expected         400.000    199600.000\n" in text
    assert "Total            2000000     998000000 1000000000\n" in text
    text = render_freq_report(compute_all(make_table(1000, 0, 0, 10**9)))
    assert "Chi-Square                       1 1000001000.000     0.000\n" in text


def test_degenerate_table_report_renders_with_note():
    results = compute_all(make_table(0, 0, 2, 3))
    text = render_freq_report(results)
    assert "NOTE:" in text
    assert "Fisher's Exact Test (Left)" in text


def test_count_tsv_sorted(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("b a b c b a\n")
    status, text = run(["count", "--input", str(corpus)])
    assert status == 0
    assert text.splitlines() == ["b\t3", "a\t2", "c\t1"]


def test_count_bigrams_flag(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b a b\n")
    status, text = run(["count", "--input", str(corpus), "--bigrams"])
    assert status == 0
    assert text.splitlines() == ["a b\t2", "b a\t1"]


def test_zipf_json(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b a c\n")
    status, text = run(["zipf", "--input", str(corpus)])
    assert status == 0
    payload = json.loads(text)
    assert payload["distinct_words"] == 3
    assert payload["hapax_word_pct"] == pytest.approx(200 / 3)
    assert payload["word_freq_of_freq"] == {"1": 2, "2": 1}


def test_assoc_tsv_layout(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("big cat big cat big dog\n")
    status, text = run(["assoc", "--input", str(corpus), "--second", "cat"])
    assert status == 0
    lines = text.splitlines()
    assert lines[0].split("\t") == ASSOC_TSV_COLUMNS
    row = lines[1].split("\t")
    assert row[0] == "big"
    assert row[1] == "2"
    assert row[2] == "1.20"
    assert re.fullmatch(r"[01]\.\d{4}", row[3])


def test_assoc_tsv_leaves_refused_tests_empty(tmp_path):
    # The one partner's table has a zero marginal, so X^2 and G^2 are refused.
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\n")
    assert run(["assoc", "--input", str(corpus), "--second", "b"]) == (
        0, "\t".join(ASSOC_TSV_COLUMNS) + "\na\t1\t1.00\t1.0000\t1.0000\t1.0000\t1\t\t\t\t\t0.5000\t1\n")


def test_assoc_missing_word_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b c\n")
    status, _ = run(["assoc", "--input", str(corpus), "--second", "zebra"])
    assert status == 1
    assert "no observations" in capsys.readouterr().err


def test_simulate_json_output():
    status, text = run(["simulate", "--p-row", "0.2", "--p-col", "0.2",
                        "--n", "50", "--trials", "200", "--seed", "7",
                        "--alpha", "0.05"])
    assert status == 0
    payload = json.loads(text)
    assert payload["seed"] == 7
    assert payload["trials"] == 200
    assert payload["alphas"] == [0.05]
    assert "fisher_left" in payload["tests"]


def test_simulate_without_valid_trials_writes_strict_json():
    # The paper's sparse regime: every table has a zero marginal, so no
    # trial gives an X², G² or t p-value, and those have no mean.
    status, text = run(["simulate", "--p-row", "0.001", "--p-col", "0.001", "--n", "10",
                        "--trials", "100"])
    assert status == 0
    tests = strict_json(text)["tests"]
    for name in ("x2", "g2", "t"):
        assert tests[name]["valid_trials"] == 0 and tests[name]["mean_p"] is None
    assert tests["fisher_two"]["mean_p"] == 1.0


def test_simulate_requires_model(capsys):
    status, _ = run(["simulate", "--n", "50", "--trials", "100"])
    assert status == 1
    assert "p-row" in capsys.readouterr().err


def test_missing_input_file_exits_1(capsys):
    status, _ = run(["count", "--input", "/nonexistent/file.txt"])
    assert status == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--p-row", "2", "--p-col", "0.1", "--n", "10", "--trials", "5"],
    ["simulate", "--p-row", "1.5", "--p-col", "0.5", "--n", "10", "--trials", "5"],
    ["simulate", "--p-row", "0.1", "--p-col", "0.1", "--n", "-1", "--trials", "5"],
    ["simulate", "--p-row", "0.1", "--p-col", "0.1", "--n", "10", "--trials", "0"],
    ["test", "--n11", "-1", "--n12", "1", "--n21", "1", "--n22", "1"],
    # Expected counts too large for a float: fails before any allocation.
    ["test", "--n11", "1", "--n12", "1", "--n21", "1", "--n22", str(10**400)],
    # A repeated alpha would count each rejection twice; alphas lie in (0, 1).
    ["simulate", "--p-row", "0.3", "--p-col", "0.3", "--n", "50", "--trials", "20",
     "--alpha", "0.05", "--alpha", "0.05"],
    ["simulate", "--p-row", "0.3", "--p-col", "0.3", "--n", "50", "--trials", "20", "--alpha", "-1"],
    ["simulate", "--p-row", "0.3", "--p-col", "0.3", "--n", "50", "--trials", "20", "--alpha", "0"],
    ["simulate", "--p-row", "0.3", "--p-col", "0.3", "--n", "50", "--trials", "20", "--alpha", "1"],
    # A Fisher window longer than any numpy array (sigma near 10**19).
    ["test", "--n11", str(10**40), "--n12", "1", "--n21", "1", "--n22", str(10**40)],
    # A model is given either by its marginals or by all four cells, never by both.
    ["simulate", "--p-row", "0.5", "--p-col", "0.5", "--n", "10", "--trials", "5", "--p11", "0.1"],
    ["simulate", "--p-row", "0.5", "--p-col", "0.5", "--p11", "0.25", "--p12", "0.25", "--p21", "0.25",
     "--p22", "0.25", "--n", "10", "--trials", "5"],
    ["simulate", "--p-row", "0.5", "--n", "10", "--trials", "5"],
    ["simulate", "--p11", "0.25", "--p12", "0.25", "--p21", "0.5", "--n", "10", "--trials", "5"],
])
def test_domain_errors_exit_1_with_one_line(argv, capsys):
    status, text = run(argv)
    err = capsys.readouterr().err
    assert status == 1
    assert text == ""
    assert len(err.splitlines()) == 1 and err.startswith("exactlex: ")


def test_simulate_marginal_error_names_the_marginals_given(capsys):
    # (1.5, 0.5) makes the cells (0.75, 0.75, -0.25, -0.25); the message must
    # name what was passed, not those.
    status, _ = run(["simulate", "--p-row", "1.5", "--p-col", "0.5", "--n", "10", "--trials", "5"])
    err = capsys.readouterr().err
    assert status == 1
    assert "p_row" in err and "1.5" in err and "-0.25" not in err


def test_repeated_calls_share_no_parsed_state():
    argv = ["simulate", "--p-row", "0.2", "--p-col", "0.2", "--n", "50", "--trials", "20"]
    for extra, alphas in ((["--alpha", "0.2"], [0.2]), (["--alpha", "0.2"], [0.2]),
                          ([], [0.01, 0.05, 0.10])):
        status, text = run(argv + extra)
        assert status == 0
        assert json.loads(text)["alphas"] == alphas


@pytest.mark.parametrize("argv", [
    ["simulate", "--p-row", "nan", "--p-col", "0.1", "--n", "10", "--trials", "5"],
    ["simulate", "--p11", "nan", "--p12", "0", "--p21", "0", "--p22", "1", "--n", "10", "--trials", "5"],
    ["simulate", "--p-row", "0.1", "--p-col", "0.1", "--n", "100000000000000000000", "--trials", "5"],
    ["simulate", "--p-row", "0.1", "--p-col", "0.1", "--n", "10", "--trials", "100000000000000000000"],
    # Within the int64 bound, but the (trials, 4) draw array is too big for numpy.
    ["simulate", "--p-row", "0.1", "--p-col", "0.1", "--n", "10", "--trials", "300000000000000000"],
    # NaN would be written as a bare NaN, which is not JSON.
    ["simulate", "--p-row", "0.1", "--p-col", "0.1", "--n", "10", "--trials", "5", "--alpha", "nan"],
    # numpy's seeding refuses a negative seed with a bare ValueError.
    ["simulate", "--p-row", "0.5", "--p-col", "0.5", "--n", "10", "--trials", "3", "--seed", "-1"],
])
def test_nan_and_oversize_simulate_inputs_exit_1(argv, capsys):
    status, text = run(argv)
    err = capsys.readouterr().err
    assert status == 1
    assert text == ""
    assert len(err.splitlines()) == 1 and err.startswith("exactlex: ")


def test_out_of_memory_exits_1(monkeypatch, capsys):
    def calibration(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "calibration", calibration)
    status, text = run(["simulate", "--p-row", "0.1", "--p-col", "0.1", "--n", "10", "--trials", "5"])
    assert status == 1
    assert text == ""
    assert capsys.readouterr().err == "exactlex: MemoryError\n"


def _golden_shards() -> list[str]:
    rng = random.Random(20)
    vocab = [f"w{i}" for i in range(300)] + ["Tea", "tea", "tea.", "«Tea»", "ẞtraße", "ΣΟΦΊΑ", "—", "¿qué?"]
    weights = [1.0 / (i + 1) for i in range(len(vocab))]
    shards = []
    for _ in range(3):
        lines = [" ".join(rng.choices(vocab, weights, k=rng.randint(1, 15))) for _ in range(120)]
        shards.append("\n".join(lines) + "\n")
    return shards


@pytest.mark.parametrize("argv, digest", [
    (["count", "--bigrams"], "d67c9351116dc7ec062b5337d021ad407654e6bf15a9e5ee4e194544206f16fe"),
    (["zipf"], "2e9de27904759f6a1410fba487c3f6d6303698e603fe93aed2a12f687e05912f"),
    # Taken when the df=1 chi-square tail became erfc(sqrt(x/2)): X^2 and
    # G^2 p-values moved in their last digits, and no rank moved.
    (["assoc", "--second", "tea", "--format", "json"],
     "0a5b83883b94aee596d3d6abe6b371671d3ed9418827afa303ec1aab755f466f"),
    # These two were taken before the asymptotic tests became one battery.
    (["assoc", "--second", "tea"], "3c775ba3b68c95b7244c477ea10ed9308174f1ae41a76da474d72fa292dbb960"),
    (["zipf", "--format", "tsv"], "d0cc29b19523b4fdda1276aad90436539062a435b6695fe7b33ce9076beefa88"),
    # These two, whose partners' tables repeat, were taken before a scan
    # scored each distinct table once; the first was retaken when the df=1
    # chi-square tail became erfc(sqrt(x/2)).
    (["assoc", "--first", "w0", "--format", "json"],
     "99199222942875d0e75f3a57a9731c9651860e978aa95e95afca1ef892d01905"),
    (["assoc", "--second", "tea", "--min-count", "2"],
     "c7abbacab45e0f9dc4a58b54ecf6cbb7e8b5a2414ea8f0114cf0995db90a2526"),
    # These three were taken before every shard was counted into one
    # accumulator with one normalisation map.
    (["count"], "022be0ea06126d1fb59ac7146fd299ffcbf81fd371859ae01a7ab76746f10503"),
    (["count", "--bigrams", "--sentence-reset", "true"],
     "be2082f7764c3b9586364f99ca86e823f6554e00231d6e64ce1728118ccac283"),
    (["zipf", "--lowercase", "false", "--strip-punct", "false"],
     "96fe8279e71dbcbee1a6ea5de357a33cfc44d847cd346aba3e82f6d380812fcd"),
])
def test_sharded_corpus_output_is_golden(argv, digest, tmp_path):
    # Digests of the output before shards were counted in C-level passes and
    # merged in place; the bytes must not change.
    paths = []
    for i, text in enumerate(_golden_shards()):
        path = tmp_path / f"shard{i}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    status, text = run(argv + ["--input", *paths])
    assert status == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_assoc_fixed_word_is_normalised_as_the_corpus_is(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("".join(_golden_shards()), encoding="utf-8")
    for slot in ("--second", "--first"):
        want = run(["assoc", "--input", str(path), slot, "tea"])
        assert want[0] == 0 and want[1].count("\n") > 2
        for word in ("Tea", "tea.", "«Tea»", "TEA?!"):
            assert run(["assoc", "--input", str(path), slot, word]) == want
    # Without lowercasing, "Tea" is a word of its own.
    assert run(["assoc", "--input", str(path), "--lowercase", "false", "--second", "Tea"]) != \
        run(["assoc", "--input", str(path), "--lowercase", "false", "--second", "tea"])
    status, text = run(["assoc", "--input", str(path), "--second", "?!"])
    err = capsys.readouterr().err
    assert (status, text) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("exactlex: no observations")


def test_stdin_input_matches_file_input(tmp_path, monkeypatch):
    data = "".join(_golden_shards()).encode("utf-8")
    path = tmp_path / "corpus.txt"
    path.write_bytes(data)
    status, from_file = run(["count", "--bigrams", "--input", str(path)])
    assert status == 0 and from_file
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(["count", "--bigrams", "--input", "-"]) == (0, from_file)


def _golden_tables() -> list[tuple[int, int, int, int]]:
    # The tea tables, degenerate and one-cell tables, the paper's table, one
    # whose p-values underflow, and seeded random tables from sparse to 1e7.
    tables = [*TEA_TABLES, (0, 0, 2, 3), (0, 4, 4, 0), (1, 0, 0, 0),
              (17, 229, 935, 1381647), (1000, 0, 0, 10**9)]
    rng = random.Random(41)
    while len(tables) < 59:
        cells = tuple(rng.choice((0, rng.randint(0, 9), rng.randint(0, 1000), rng.randint(0, 10**7)))
                      for _ in range(4))
        if any(cells):
            tables.append(cells)
    return tables


def _test_argvs(fmt: str) -> list[list[str]]:
    return [["test", "--n11", str(a), "--n12", str(b), "--n21", str(c), "--n22", str(d),
             "--format", fmt] for a, b, c, d in _golden_tables()]


@pytest.mark.parametrize("argvs, digest", [
    (_test_argvs("report"), "5a6c5d495eab357aad06c921324304b32d07d7a58dc3cc16f029813a841542be"),
    # Taken when the df=1 chi-square tail became erfc(sqrt(x/2)): the X^2,
    # G^2, Yates and Mantel-Haenszel p-values moved in their last digits.
    (_test_argvs("json"), "bd822b5ea4ed4b9a12a86661742312284e8b11694cfcee51c5a85a95f64bc28e"),
    ([["tea"]], "2dcc4f752d05b47b758d864c031890ff0dfca5cb2a38fcca1179666fce465633"),
    ([["simulate", "--p-row", "0.001", "--p-col", "0.001", "--n", "100", "--trials", "2000",
       "--seed", "8"]],  # mostly degenerate; no valid t trial, so its mean_p is null
     "89be38ecc8af2114563240c56e325ed77544c0d45345ef346bb55c46bade279a"),
    ([["simulate", "--p11", "0.1", "--p12", "0.2", "--p21", "0.3", "--p22", "0.4", "--n", "40",
       "--trials", "1000", "--seed", "11", "--alpha", "0.001", "--alpha", "0.2"]],
     # taken when the df=1 chi-square tail became erfc(sqrt(x/2)): the X^2
     # and G^2 mean_p moved in their last digits, no rejection rate moved
     "38629c5982a02dfee6cf2c38a28aa4c48cb3aba37562f139d464b5563cca0716"),
    ([["simulate", "--p-row", "0.002", "--p-col", "0.0007", "--n", "10000", "--trials", "10000",
       "--seed", "1"]],  # the benchmark's model: 486 distinct tables, all scored in one batch
     "c5ab032cf329e5984a35fd83615f653e810fc3e0f82966cffa5e1770b450c6f3"),
])
def test_table_output_is_golden(argvs, digest):
    # Digests of the output before the asymptotic tests were gathered into
    # one battery per table; the bytes must not change. The exceptions are
    # the mostly degenerate simulate case, whose bare NaN is now JSON's null,
    # and the text reports whose values filled their columns and ran
    # together: those columns are now one wider than their widest value.
    sha = hashlib.sha256()
    for argv in argvs:
        status, text = run(argv)
        assert status == 0
        sha.update(text.encode("utf-8"))
    assert sha.hexdigest() == digest


def _sweep_tables() -> list[tuple[int, int, int, int]]:
    # 1,000 seeded tables with zero cells, zero marginals and n11 = 0, and a
    # second row of up to 1e15, whose totals, expected counts, deviations and
    # X^2 overflow the 10- and 12-wide columns. Row 1 stays at most 1e4, so
    # every support is small.
    rng = random.Random(26)
    tables = []
    while len(tables) < 1000:
        top = 10 ** rng.randint(0, 15)
        n11, n12 = (rng.choice((0, rng.randint(0, 9), rng.randint(0, 5000))) for _ in range(2))
        n21, n22 = (rng.choice((0, rng.randint(0, 9), rng.randint(0, top), top)) for _ in range(2))
        if n11 or n12 or n21 or n22:
            tables.append((n11, n12, n21, n22))
    return tables


def test_report_sweep_is_golden():
    # Taken from the f-string renderer, before each block of the report
    # became one % template.
    sha = hashlib.sha256()
    for cells in _sweep_tables():
        sha.update(render_freq_report(compute_all(make_table(*cells))).encode("utf-8"))
    assert sha.hexdigest() == "19af450bc89a4477d72c644976767dab7fb385eebfb367e31e4ebb611197e650"


# A valid argv per subcommand, as (flag, value) pairs; the fuzz below changes
# one or two of them. `--n` and `--trials` stay small whatever it draws: the
# numbers it can put there are either at most 10 or refused before any draw.
_FUZZ_BASE = {
    "test": [("--n11", "3"), ("--n12", "1"), ("--n21", "1"), ("--n22", "3"), ("--format", "json")],
    "assoc": [("--input", "-"), ("--second", "tea"), ("--min-count", "1"), ("--format", "tsv"),
              ("--lowercase", "true")],
    "count": [("--input", "-"), ("--bigrams", None), ("--strip-punct", "false")],
    "zipf": [("--input", "-"), ("--format", "json"), ("--sentence-reset", "true")],
    "simulate": [("--p-row", "0.5"), ("--p-col", "0.5"), ("--n", "10"), ("--trials", "3"),
                 ("--alpha", "0.05"), ("--seed", "1")],
    "tea": [],
}
# " 7" to "007" probe where `test`'s digit check hands a cell to argparse.
_FUZZ_VALUES = ["-1", "0", "0.5", "nan", "-inf", "1e30", str(10**30), "tea", " 7", "+7", "7_0", "\u0667", "007"]
_FUZZ_STDIN = st.one_of(
    st.just(b""),
    st.just(b"strong tea. black tea. strong tea!\n"),
    st.just(b"tea \xff\xfe tea"),  # invalid UTF-8
    st.binary(max_size=64),
    st.lists(st.sampled_from(["tea", "strong", "Tea", ".", " ", "\n", "\u00e9"]),
             max_size=30).map(lambda words: " ".join(words).encode("utf-8")),
)


@st.composite
def _fuzz_argv(draw, subcommand):
    pairs = list(_FUZZ_BASE[subcommand])
    for _ in range(draw(st.integers(1, 2))):
        flags = [flag for flag, _ in pairs] + ["--junk"]
        flag = draw(st.sampled_from(sorted(set(flags))))
        value = draw(st.sampled_from([None, *_FUZZ_VALUES]))  # None drops the value
        pairs = [(f, v) for f, v in pairs if f != flag] + [(flag, value)]
    argv = [subcommand]
    for flag, value in pairs:
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.mark.parametrize("subcommand", sorted(_FUZZ_BASE))
@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_and_stdin_exit_0_1_or_2_with_one_line(subcommand, data):
    argv = data.draw(_fuzz_argv(subcommand), label="argv")
    stdin = data.draw(_FUZZ_STDIN, label="stdin")
    err, out = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        old_stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin))
        stack.callback(setattr, sys, "stdin", old_stdin)
        try:
            status = run_command(argv, out=out)
        except SystemExit as exc:  # argparse: 2 on a usage error
            status = exc.code
    message = err.getvalue()
    assert status in (0, 1, 2)
    assert "Traceback" not in message
    if status == 1:
        assert len(message.splitlines()) <= 1 and message.startswith("exactlex: ")
    if status == 0:
        args = build_parser().parse_args(argv)
        if args.subcommand == "simulate" or getattr(args, "format", None) == "json":
            strict_json(out.getvalue())


def _parse_outcome(parse, argv) -> tuple:
    """Exit status, stdout, stderr and the parsed fields of one parse. The
    fields are compared by repr, since a parsed NaN is not equal to itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, status = repr(sorted(vars(parse(argv)).items())), 0
        except SystemExit as exc:  # argparse: 0 after help, 2 on a usage error
            fields, status = None, exc.code
    return status, out.getvalue(), err.getvalue(), fields


def _assert_one_pass_parse_is_two_level_parse(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(build_parser().parse_args, argv)


_VALID_TEST = ["test", "--n11", "1", "--n12", "1", "--n21", "1", "--n22", "1"]


@pytest.mark.parametrize("argv", [
    _VALID_TEST,
    ["test", "-h"],
    _VALID_TEST + ["--help"],
    _VALID_TEST + ["--"],
    ["test", "--", "--n11", "1"],
    ["count", "--bigrams", "--", "extra"],
    _VALID_TEST + ["--junk"],
    _VALID_TEST + ["stray"],
    ["tea", "--junk", "1"],
    ["test", "--n11", "1"],  # a missing required flag
    ["test", "--n11", "x", "--n12", "1", "--n21", "1", "--n22", "1"],  # a bad int
    ["test", "--n1", "1"],  # an ambiguous abbreviation
    ["assoc", "--second", "tea", "--first", "tea"],
    ["simulate", "--p-row", "-1", "--p-col", "0.5", "--n", "10", "--trials", "5"],
    ["frobnicate", "--n11", "1"],  # an unknown subcommand
    ["-h"],
    ["--junk", "test"],
    [],
    ["--"],
    ["tea", "--"],
    ["count", "--input", "--"],
    _VALID_TEST + ["--", "--"],
    # A cell value that is not ASCII digits, or has more digits than int()
    # converts, is left to argparse.
    *(_VALID_TEST[:4] + [value] + _VALID_TEST[5:] for value in (
        " 7", "+7", "7_0", "\u0667", "007", "-0", "7\n", "\u00b2", "", "7" * 4301)),
    ["test", "--n22", "4", "--n12", "2", "--n11", "1", "--n21", "3"],
    ["test", "--format", "json", "--n11", "1", "--n12", "2", "--n21", "3", "--n22", "4"],
    _VALID_TEST + ["--n11", "2"],  # a repeated flag
    _VALID_TEST + ["--n11", "x"],
    ["test", "--n11", "x"] + _VALID_TEST[1:],
    ["test", "--n11=5"] + _VALID_TEST[3:],
    _VALID_TEST + ["--form", "json"],
    _VALID_TEST + ["--format", "xml"],
])
def test_one_pass_parse_equals_two_level_parse(argv):
    _assert_one_pass_parse_is_two_level_parse(argv)


@pytest.mark.parametrize("extra", [[], ["--format", "json"]])
def test_canonical_test_call_builds_no_parser(extra):
    # Each cell named once as ASCII digits: read without argparse, and the
    # same bytes as the same table spelled so that argparse must parse it.
    cells = ["--n11", "17", "--n12", "229", "--n21", "935", "--n22", "1381647"]
    cli._parser.cache_clear()
    direct = run(["test", *cells, *extra])
    assert cli._parser.cache_info().currsize == 0
    assert direct == run(["test", "--n11=17", *cells[2:], *extra])
    assert cli._parser.cache_info().currsize == 1


@pytest.mark.parametrize("subcommand", sorted(_FUZZ_BASE))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_pass_parse_equals_two_level_parse_on_fuzzed_argv(subcommand, data):
    _assert_one_pass_parse_is_two_level_parse(data.draw(_fuzz_argv(subcommand), label="argv"))


@pytest.mark.parametrize("argv", [
    _VALID_TEST,
    _VALID_TEST[:-1] + ["2", "--format", "json"],
    ["tea"],
    ["simulate", "--p-row", "0.3", "--p-col", "0.4", "--n", "20", "--trials", "5", "--seed", "2"],
    ["count", "--bigrams", "--input", "CORPUS"],
    ["zipf", "--format", "tsv", "--input", "CORPUS"],
    ["assoc", "--second", "tea", "--input", "CORPUS"],
])
def test_final_double_dash_gives_the_same_output(argv, tmp_path):
    # A final bare `--` ends the options; nothing follows it.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("strong tea. black tea. strong coffee.\n", encoding="utf-8")
    argv = [str(corpus) if arg == "CORPUS" else arg for arg in argv]
    status, text = run(argv)
    assert status == 0 and text
    assert run(argv + ["--"]) == (status, text)


@pytest.mark.parametrize("argv", [
    [],
    ["test"],
    ["count", "--input"],
    ["assoc", "--second"],
    _VALID_TEST + ["--junk"],
    ["frobnicate"],
])
def test_final_double_dash_keeps_each_usage_error(argv):
    # `exactlex --` and `count --input --` among them: the same exit code
    # and wording as without the `--`.
    outcome = _parse_outcome(cli._parse_args, argv + ["--"])
    assert outcome[0] == 2 and outcome == _parse_outcome(cli._parse_args, argv)


def test_only_one_final_double_dash_is_accepted():
    status, _, err, _ = _parse_outcome(cli._parse_args, _VALID_TEST + ["--", "--"])
    assert status == 2 and err.endswith("exactlex: error: unrecognized arguments: --\n")
