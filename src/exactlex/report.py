"""Fixed-layout text report for a single 2x2 table, in the style of classic
cross-tabulation output: a frequency/expected/deviation/percent grid followed
by the statistics list, sample size, and a small-expected-count warning.
`_score_distinct` pairs the same tests over many tables for `assoc` and
`simulate`."""

from __future__ import annotations

from collections.abc import Iterable

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


def _score_distinct(
    tables: Iterable[ContingencyTable2x2],
) -> dict[tuple[int, int, int, int], tuple[FisherResult, asymptotic.Battery]]:
    """Fisher's test and the asymptotic battery of each distinct table, keyed
    by its cells in first-seen order.

    Word-pair and sampled tables repeat heavily, so each distinct table is
    scored once, and tables with equal marginals (N, row1, col1) share one
    enumeration: all of them go to `exact._fisher_batch` in one call, which
    chooses how each marginal is enumerated.
    """
    distinct = {table.cells: table for table in tables}
    n11s: dict[tuple[int, int, int], list[int]] = {}
    for table in distinct.values():
        n11s.setdefault((table.total, table.row1, table.col1), []).append(table.n11)
    fisher = _fisher_batch(n11s)
    return {cells: (fisher[table.total, table.row1, table.col1, table.n11],
                    asymptotic.Battery(table))
            for cells, table in distinct.items()}


def _fmt(value: float, decimals: int, width: int = 10) -> str:
    return f"{value:>{width}.{decimals}f}"


def _grid(table: ContingencyTable2x2, expected) -> list[str]:
    n = table.total
    lines = []
    header = f"{'':12}{'col1':>10}{'col2':>10}{'Total':>10}"
    lines.append(header)
    rows = [
        ("row1", (table.n11, table.n12), (expected.m11, expected.m12), table.row1),
        ("row2", (table.n21, table.n22), (expected.m21, expected.m22), table.row2),
    ]
    for name, obs, exp, row_total in rows:
        lines.append(name)
        lines.append(f"{'Frequency':<12}{obs[0]:>10}{obs[1]:>10}{row_total:>10}")
        lines.append(f"{'Expected':<12}{_fmt(exp[0], DECIMALS)}{_fmt(exp[1], DECIMALS)}")
        lines.append(
            f"{'Deviation':<12}{_fmt(obs[0] - exp[0], DECIMALS)}{_fmt(obs[1] - exp[1], DECIMALS)}"
        )
        lines.append(
            f"{'Percent':<12}{_fmt(100 * obs[0] / n, 2)}{_fmt(100 * obs[1] / n, 2)}"
            f"{_fmt(100 * row_total / n, 2)}"
        )
    lines.append(
        f"{'Total':<12}{table.col1:>10}{table.col2:>10}{n:>10}"
    )
    lines.append(
        f"{'':12}{_fmt(100 * table.col1 / n, 2)}{_fmt(100 * table.col2 / n, 2)}"
        f"{_fmt(100.0, 2)}"
    )
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
    lines.append(f"{'Statistic':<30}{'DF':>4}{'Value':>12}{'Prob':>10}")
    for name in ("pearson", "g2", "yates", "mantel_haenszel"):
        label = STAT_LABELS[name]
        result = results[name]
        if result is None:
            lines.append(f"{label:<30}{'':>4}{'':>12}{'--':>10}")
        else:
            lines.append(
                f"{label:<30}{result.df:>4}"
                f"{_fmt(result.statistic, DECIMALS, 12)}"
                f"{_fmt(result.p_value, DECIMALS)}"
            )
    fisher_label = "Fisher's Exact Test (Left)"
    lines.append(f"{fisher_label:<46}{_fmt(fisher.left_p, DECIMALS)}")
    lines.append(f"{'(Right)':>26}{'':20}{_fmt(fisher.right_p, DECIMALS)}")
    lines.append(f"{'(2-Tail)':>27}{'':19}{_fmt(fisher.two_sided_p, DECIMALS)}")
    lines.append(f"{f'P(n11 = {table.n11})':<46}{_fmt(fisher.point_p, DECIMALS)}")
    measures: AssociationMeasures | None = results["measures"]
    if measures is not None:
        lines.append(f"{'Phi Coefficient':<34}{_fmt(measures.phi, DECIMALS, 12)}")
        lines.append(
            f"{'Contingency Coefficient':<34}{_fmt(measures.contingency_coefficient, DECIMALS, 12)}"
        )
        cramers_label = "Cramer's V"
        lines.append(f"{cramers_label:<34}{_fmt(measures.cramers_v, DECIMALS, 12)}")
    t_result = results["t_test"]
    if t_result is not None:
        lines.append(
            f"{'T-Statistic (normal tail)':<34}{_fmt(t_result.statistic, DECIMALS, 12)}"
            f"{_fmt(t_result.p_value, DECIMALS)}"
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
