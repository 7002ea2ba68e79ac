"""Fixed-layout text report for a single 2x2 table, in the style of classic
cross-tabulation output: a frequency/expected/deviation/percent grid followed
by the statistics list, sample size, and a small-expected-count warning.
Each block of the report is one `%` template, whose variable column widths
are `%*` fields; the values keep Python's correctly rounded half-even
formatting, the same digits an f-string gives.
`_score_columns` gives the same tests' p-values over many tables, as rows
in SCORE_ROWS order, to `assoc` and `simulate`. The report's `Battery` and
the scorer's `asymptotic._battery_columns` read X^2, G^2 and t from one
per-table formula, `asymptotic._statistics`; the report's `fisher_exact`
takes one table and the scorer's `exact._fisher_batch` all of them at once,
to the same bits."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import asymptotic
from .asymptotic import AssociationMeasures
from .exact import FisherResult, _fisher_batch, fisher_exact
from .tables import ContingencyTable2x2, small_expected_warning

STAT_LABELS = {
    "pearson": "Chi-Square",
    "g2": "Likelihood Ratio Chi-Square",
    "yates": "Continuity Adj. Chi-Square",
    "mantel_haenszel": "Mantel-Haenszel Chi-Square",
}

# Decimals of every statistic, expected count and probability the report
# prints; percents take 2.
DECIMALS = 3

# Every battery result compute_all reports, in the order their notes print.
NOTE_LABELS = {**STAT_LABELS, "t_test": "T-Statistic", "measures": "Association measures"}

# The rows of `_score_columns`, in order.
SCORE_ROWS = ("left", "right", "two", "x2", "g2", "t", "point", "m11")


def compute_all(table: ContingencyTable2x2) -> dict:
    """Run every test on one table; absent results carry their reason."""
    tests = asymptotic.Battery(table)
    results: dict = {"table": table, "expected": tests.expected}
    results["warning"] = small_expected_warning(tests.expected)
    results["fisher"] = fisher_exact(table)
    for name in NOTE_LABELS:
        results[name] = getattr(tests, name)
    results["notes"] = [f"{NOTE_LABELS[name]}: {tests.notes[name]}"
                        for name in NOTE_LABELS if name in tests.notes]
    return results


def _score_columns(n11: Sequence[int], row1: Sequence[int], col1: Sequence[int],
                   n_total: Sequence[int]) -> np.ndarray:
    """The scores of the tables (n11, row1, col1, N), given as four
    equal-length sequences of Python ints, as a float64 array with one
    column per table and one row per name in SCORE_ROWS: Fisher's left,
    right and two-sided p, the X^2, G^2 and t p-values, Fisher's point
    probability and the expected n11. A test the table refuses gives NaN.

    Word-pair and sampled tables repeat heavily, so each distinct table is
    scored once. `asymptotic._battery_columns` validates the distinct tables
    and takes their expected n11, X^2, G^2 and t in one call; then every
    distinct marginal goes to `exact._fisher_batch` in one call, which
    chooses how each is enumerated, and tables with equal marginals share
    its enumeration.
    """
    keys = list(zip(n_total, row1, col1, n11))
    if not keys:
        return np.empty((len(SCORE_ROWS), 0))
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    n, r1, c1, k = zip(*index)
    rows = asymptotic._battery_columns(k, r1, c1, n)
    n11s: dict[tuple[int, int, int], list[int]] = {}
    for key in index:
        n11s.setdefault(key[:3], []).append(key[3])
    fisher = _fisher_batch(n11s)
    rows["left"], rows["right"], rows["two"], rows["point"] = zip(*(
        (f.left_p, f.right_p, f.two_sided_p, f.point_p) for f in map(fisher.get, index)))
    return np.array([rows[name] for name in SCORE_ROWS], dtype=np.float64)[:, [index[key] for key in keys]]


# The grid and the statistics header, one template with a block per row of
# the table. Labels pad to 12 characters; every %*d, %*s and %*.2f takes its
# column's width before its value.
_ROW = """Frequency   %*d%*d%*d
Expected    %*s%*s
Deviation   %*s%*s
Percent     %*.2f%*.2f%*.2f
"""
_HEAD = f"""TABLE OF X BY Y

            %*s%*s%*s
row1
{_ROW}row2
{_ROW}Total       %*d%*d%*d
            %*.2f%*.2f%*.2f

STATISTICS FOR TABLE OF X BY Y

Statistic                       DF%*s      Prob
"""

# Below the header, labels pad to 30 characters, or to 34 where no DF column
# follows, and a probability is 10 wide after the Value column.
_FISHER = """Fisher's Exact Test (Left)%*.*f
                   (Right)%*.*f
                   (2-Tail)%*.*f
%-*s%10.*f
"""
_MEASURES = """Phi Coefficient                   %*.*f
Contingency Coefficient           %*.*f
Cramer's V                        %*.*f
"""


def render_freq_report(results: dict) -> str:
    """Render the full report for the output of compute_all().

    Each fixed-layout block is one % template: the grid with the statistics
    header, each statistics row, the Fisher block, the measures, the t row,
    the sample size, the warning and each note. A column is 10 wide (the
    Value column 12), or one more than its widest value where that value
    would fill it, so that neighbouring values never run together; the
    templates take these widths through %*. Rendering is pure: the same
    results always give byte-identical text. Rounding is Python's correctly
    rounded half-even formatting.
    """
    table: ContingencyTable2x2 = results["table"]
    fisher: FisherResult = results["fisher"]
    expected = results["expected"]
    n11, n12, n21, n22 = table.cells
    row1, row2, col1, col2 = n11 + n12, n21 + n22, n11 + n21, n12 + n22
    n = row1 + row2
    m11, m12, m21, m22, d11, d12, d21, d22 = ["%.*f" % (DECIMALS, value) for value in (
        expected.m11, expected.m12, expected.m21, expected.m22,
        n11 - expected.m11, n12 - expected.m12, n21 - expected.m21, n22 - expected.m22)]
    # A column's total is its widest count, and no percent reaches 10
    # characters, so only totals, expected counts and deviations can widen
    # a column.
    w1 = 1 + max(9, len(str(col1)), len(m11), len(d11), len(m21), len(d21))
    w2 = 1 + max(9, len(str(col2)), len(m12), len(d12), len(m22), len(d22))
    w3 = 1 + max(9, len(str(n)))
    # The association measures lie in [-1, 1], so only the statistics can
    # widen the Value column.
    tests = [results[name] for name in (*STAT_LABELS, "t_test")]
    values = ["" if test is None else "%.*f" % (DECIMALS, test.statistic) for test in tests]
    width = 1 + max(11, *map(len, values))
    blocks = [_HEAD % (
        w1, "col1", w2, "col2", w3, "Total",
        w1, n11, w2, n12, w3, row1, w1, m11, w2, m12, w1, d11, w2, d12,
        w1, 100 * n11 / n, w2, 100 * n12 / n, w3, 100 * row1 / n,
        w1, n21, w2, n22, w3, row2, w1, m21, w2, m22, w1, d21, w2, d22,
        w1, 100 * n21 / n, w2, 100 * n22 / n, w3, 100 * row2 / n,
        w1, col1, w2, col2, w3, n, w1, 100 * col1 / n, w2, 100 * col2 / n, w3, 100.0,
        width, "Value")]
    for label, result, value in zip(STAT_LABELS.values(), tests, values):
        blocks.append("%-30s%*s\n" % (label, 14 + width, "--") if result is None else
                      "%-30s%4d%*s%10.*f\n" % (label, result.df, width, value, DECIMALS, result.p_value))
    blocks.append(_FISHER % (18 + width, DECIMALS, fisher.left_p, 18 + width, DECIMALS, fisher.right_p,
                             17 + width, DECIMALS, fisher.two_sided_p,
                             34 + width, "P(n11 = %d)" % n11, DECIMALS, fisher.point_p))
    measures: AssociationMeasures | None = results["measures"]
    if measures is not None:
        blocks.append(_MEASURES % (width, DECIMALS, measures.phi,
                                   width, DECIMALS, measures.contingency_coefficient,
                                   width, DECIMALS, measures.cramers_v))
    t_result = tests[-1]
    if t_result is not None:
        blocks.append("T-Statistic (normal tail)         %*s%10.*f\n"
                      % (width, values[-1], DECIMALS, t_result.p_value))
    blocks.append("\nSample Size = %d\n" % n)
    warning = results["warning"]
    if warning.triggered:
        blocks.append("\nWARNING: %.0f%% of the cells have expected counts less than 5. "
                      "Chi-Square may not be a valid test.\n" % warning.percent)
    blocks += ["\nNOTE: %s\n" % note for note in results.get("notes", [])]
    return "".join(blocks)
