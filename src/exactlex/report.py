"""Fixed-layout text report for a single 2x2 table, in the style of classic
cross-tabulation output: a frequency/expected/deviation/percent grid followed
by the statistics list, sample size, and a small-expected-count warning."""

from __future__ import annotations

from .asymptotic import AssociationMeasures, Battery
from .exact import FisherResult, fisher_exact
from .tables import ContingencyTable2x2, small_expected_warning

STAT_LABELS = {
    "pearson": "Chi-Square",
    "g2": "Likelihood Ratio Chi-Square",
    "yates": "Continuity Adj. Chi-Square",
    "mantel_haenszel": "Mantel-Haenszel Chi-Square",
}

# Every battery result compute_all reports, in the order their notes print.
NOTE_LABELS = {**STAT_LABELS, "t_test": "T-Statistic", "measures": "Association measures"}


def compute_all(table: ContingencyTable2x2) -> dict:
    """Run every test on one table; absent results carry their reason."""
    tests = Battery(table)
    results: dict = {"table": table, "expected": tests.expected}
    results["warning"] = small_expected_warning(tests.expected)
    results["fisher"] = fisher_exact(table)
    for name in NOTE_LABELS:
        results[name] = getattr(tests, name)
    results["notes"] = [f"{NOTE_LABELS[name]}: {tests.notes[name]}"
                        for name in NOTE_LABELS if name in tests.notes]
    return results


def _fmt(value: float, decimals: int, width: int = 10) -> str:
    return f"{value:>{width}.{decimals}f}"


def _grid(table: ContingencyTable2x2, expected, decimals: int) -> list[str]:
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
        lines.append(f"{'Expected':<12}{_fmt(exp[0], decimals)}{_fmt(exp[1], decimals)}")
        lines.append(
            f"{'Deviation':<12}{_fmt(obs[0] - exp[0], decimals)}{_fmt(obs[1] - exp[1], decimals)}"
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


def render_freq_report(
    results: dict,
    stat_decimals: int = 3,
    prob_decimals: int = 3,
) -> str:
    """Render the full report for the output of compute_all().

    Rendering is pure: the same results always give byte-identical text.
    Rounding is Python's default half-even formatting.
    """
    table: ContingencyTable2x2 = results["table"]
    fisher: FisherResult = results["fisher"]
    lines = ["TABLE OF X BY Y", ""]
    lines.extend(_grid(table, results["expected"], stat_decimals))
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
                f"{_fmt(result.statistic, stat_decimals, 12)}"
                f"{_fmt(result.p_value, prob_decimals)}"
            )
    fisher_label = "Fisher's Exact Test (Left)"
    lines.append(f"{fisher_label:<46}{_fmt(fisher.left_p, prob_decimals)}")
    lines.append(f"{'(Right)':>26}{'':20}{_fmt(fisher.right_p, prob_decimals)}")
    lines.append(f"{'(2-Tail)':>27}{'':19}{_fmt(fisher.two_sided_p, prob_decimals)}")
    lines.append(f"{f'P(n11 = {table.n11})':<46}{_fmt(fisher.point_p, prob_decimals)}")
    measures: AssociationMeasures | None = results["measures"]
    if measures is not None:
        lines.append(f"{'Phi Coefficient':<34}{_fmt(measures.phi, stat_decimals, 12)}")
        lines.append(
            f"{'Contingency Coefficient':<34}{_fmt(measures.contingency_coefficient, stat_decimals, 12)}"
        )
        cramers_label = "Cramer's V"
        lines.append(f"{cramers_label:<34}{_fmt(measures.cramers_v, stat_decimals, 12)}")
    t_result = results["t_test"]
    if t_result is not None:
        lines.append(
            f"{'T-Statistic (normal tail)':<34}{_fmt(t_result.statistic, stat_decimals, 12)}"
            f"{_fmt(t_result.p_value, prob_decimals)}"
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
