"""Fixed-layout text report for a single 2x2 table, in the style of classic
cross-tabulation output: a frequency/expected/deviation/percent grid followed
by the statistics list, sample size, and a small-expected-count warning.
`_score_columns` gives the same tests' p-values over many tables, as rows
in SCORE_ROWS order, to `assoc` and `simulate`: the report's `Battery` and
`fisher_exact` take one table, the scorer's `asymptotic._battery_columns`
and `exact._fisher_batch` take all of them at once, to the same bits."""

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


def _fmt(value: float, decimals: int, width: int = 10) -> str:
    return f"{value:>{width}.{decimals}f}"


def _width(least: int, *cells: str) -> int:
    """A column's width: `least`, or one more than its widest cell where that
    cell would fill `least`, so that neighbouring values never run together."""
    return max(least, 1 + max(map(len, cells), default=0))


def _grid(table: ContingencyTable2x2, expected) -> list[str]:
    n = table.total
    rows = [
        ("row1", (table.n11, table.n12), (expected.m11, expected.m12), table.row1),
        ("row2", (table.n21, table.n22), (expected.m21, expected.m22), table.row2),
    ]
    # Each row's expected counts and deviations, formatted once.
    cells = [(f"{exp[0]:.{DECIMALS}f}", f"{exp[1]:.{DECIMALS}f}",
              f"{obs[0] - exp[0]:.{DECIMALS}f}", f"{obs[1] - exp[1]:.{DECIMALS}f}") for _, obs, exp, _ in rows]
    (m11, m12, d11, d12), (m21, m22, d21, d22) = cells
    col1, col2, total = str(table.col1), str(table.col2), str(n)
    # A column's total is its widest count, and no percent reaches 10
    # characters, so only totals, expected counts and deviations can widen
    # a column.
    w1 = _width(10, col1, m11, d11, m21, d21)
    w2 = _width(10, col2, m12, d12, m22, d22)
    w3 = _width(10, total)
    lines = [f"{'':12}{'col1'.rjust(w1)}{'col2'.rjust(w2)}{'Total'.rjust(w3)}"]
    for (name, obs, _, row_total), (m1, m2, d1, d2) in zip(rows, cells):
        lines += [
            name,
            f"{'Frequency':<12}{str(obs[0]).rjust(w1)}{str(obs[1]).rjust(w2)}{str(row_total).rjust(w3)}",
            f"{'Expected':<12}{m1.rjust(w1)}{m2.rjust(w2)}",
            f"{'Deviation':<12}{d1.rjust(w1)}{d2.rjust(w2)}",
            f"{'Percent':<12}{100 * obs[0] / n:>{w1}.2f}{100 * obs[1] / n:>{w2}.2f}"
            f"{100 * row_total / n:>{w3}.2f}",
        ]
    lines.append(f"{'Total':<12}{col1.rjust(w1)}{col2.rjust(w2)}{total.rjust(w3)}")
    lines.append(f"{'':12}{100 * table.col1 / n:>{w1}.2f}{100 * table.col2 / n:>{w2}.2f}{100.0:>{w3}.2f}")
    return lines


def render_freq_report(results: dict) -> str:
    """Render the full report for the output of compute_all().

    Rendering is pure: the same results always give byte-identical text.
    Rounding is Python's default half-even formatting.
    """
    table: ContingencyTable2x2 = results["table"]
    fisher: FisherResult = results["fisher"]
    lines = ["TABLE OF X BY Y", ""]
    lines.extend(_grid(table, results["expected"]))
    lines += ["", "STATISTICS FOR TABLE OF X BY Y", ""]
    # The Value column is 12 wide unless a statistic fills that; the
    # association measures lie in [-1, 1], so they never do.
    values = {name: f"{results[name].statistic:.{DECIMALS}f}" for name in (*STAT_LABELS, "t_test")
              if results[name] is not None}
    width = _width(12, *values.values())
    lines.append(f"{'Statistic':<30}{'DF':>4}{'Value'.rjust(width)}{'Prob':>10}")
    for name, label in STAT_LABELS.items():
        result = results[name]
        if result is None:
            lines.append(f"{label:<30}{'':>4}{' ' * width}{'--':>10}")
        else:
            lines.append(f"{label:<30}{result.df:>4}{values[name].rjust(width)}{_fmt(result.p_value, DECIMALS)}")
    fisher_label = "Fisher's Exact Test (Left)"
    lines.append(f"{fisher_label.ljust(34 + width)}{_fmt(fisher.left_p, DECIMALS)}")
    lines.append(f"{'(Right)':>26}{' ' * (8 + width)}{_fmt(fisher.right_p, DECIMALS)}")
    lines.append(f"{'(2-Tail)':>27}{' ' * (7 + width)}{_fmt(fisher.two_sided_p, DECIMALS)}")
    lines.append(f"{f'P(n11 = {table.n11})'.ljust(34 + width)}{_fmt(fisher.point_p, DECIMALS)}")
    measures: AssociationMeasures | None = results["measures"]
    if measures is not None:
        lines.append(f"{'Phi Coefficient':<34}{_fmt(measures.phi, DECIMALS, width)}")
        lines.append(
            f"{'Contingency Coefficient':<34}{_fmt(measures.contingency_coefficient, DECIMALS, width)}"
        )
        cramers_label = "Cramer's V"
        lines.append(f"{cramers_label:<34}{_fmt(measures.cramers_v, DECIMALS, width)}")
    t_result = results["t_test"]
    if t_result is not None:
        lines.append(
            f"{'T-Statistic (normal tail)':<34}{values['t_test'].rjust(width)}{_fmt(t_result.p_value, DECIMALS)}"
        )
    lines += ["", f"Sample Size = {table.total}"]
    warning = results["warning"]
    if warning.triggered:
        pct = f"{warning.percent:.0f}"
        lines += [
            "",
            f"WARNING: {pct}% of the cells have expected counts less than 5. "
            "Chi-Square may not be a valid test.",
        ]
    for note in results.get("notes", []):
        lines += ["", f"NOTE: {note}"]
    return "\n".join(lines) + "\n"
