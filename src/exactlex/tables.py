"""2x2 contingency tables: validation, marginals, and expected counts under independence."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyTableError, NegativeCountError

SMALL_EXPECTED_THRESHOLD = 5.0
SMALL_EXPECTED_WARN_PCT = 20.0


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Observed joint counts for two binary variables.

    Cell layout::

        n11  n12  |  row1
        n21  n22  |  row2
        ---------
        col1 col2 |  total

    Marginals are computed once at construction; counts are Python ints so
    totals well past 2**53 round-trip exactly. Instances are immutable and
    safe to share across threads.
    """

    n11: int
    n12: int
    n21: int
    n22: int

    def __post_init__(self) -> None:
        for name in ("n11", "n12", "n21", "n22"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise NegativeCountError(f"{name} must be nonnegative, got {value}")
        if self.n11 + self.n12 + self.n21 + self.n22 == 0:
            raise EmptyTableError("empty table: all four cells are zero")

    @property
    def row1(self) -> int:
        return self.n11 + self.n12

    @property
    def row2(self) -> int:
        return self.n21 + self.n22

    @property
    def col1(self) -> int:
        return self.n11 + self.n21

    @property
    def col2(self) -> int:
        return self.n12 + self.n22

    @property
    def total(self) -> int:
        return self.n11 + self.n12 + self.n21 + self.n22

    @property
    def cells(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n12, self.n21, self.n22)


@dataclass(frozen=True)
class ExpectedTable:
    """Cell counts expected under the independence model, m_ij = row_i * col_j / total."""

    m11: float
    m12: float
    m21: float
    m22: float

    @property
    def cells(self) -> tuple[float, float, float, float]:
        return (self.m11, self.m12, self.m21, self.m22)

    @property
    def total(self) -> float:
        return self.m11 + self.m12 + self.m21 + self.m22


@dataclass(frozen=True)
class IndependenceModel:
    """Marginal probabilities of row category 1 and column category 1."""

    p_row: float
    p_col: float


@dataclass(frozen=True)
class SmallExpectedWarning:
    # A dataclass, not a tuple, so that `test --format json` writes an object.
    triggered: bool
    percent: float


def make_table(n11: int, n12: int, n21: int, n22: int) -> ContingencyTable2x2:
    """Build a validated table; rejects exactly the all-zero input."""
    return ContingencyTable2x2(n11, n12, n21, n22)


def transpose(table: ContingencyTable2x2) -> ContingencyTable2x2:
    """Exchange rows and columns (n12 and n21 swap, diagonal cells fixed)."""
    return ContingencyTable2x2(table.n11, table.n21, table.n12, table.n22)


def expected_counts(table: ContingencyTable2x2) -> ExpectedTable:
    """Maximum likelihood expected counts under independence.

    Zero marginals are legal here and simply yield zero expected counts;
    tests that cannot handle them reject at their own layer.
    """
    n = table.total
    return ExpectedTable(
        m11=table.row1 * table.col1 / n,
        m12=table.row1 * table.col2 / n,
        m21=table.row2 * table.col1 / n,
        m22=table.row2 * table.col2 / n,
    )


def independence_model(table: ContingencyTable2x2) -> IndependenceModel:
    """Estimated parameters of the independence model (row-1 and column-1 probabilities)."""
    n = table.total
    return IndependenceModel(p_row=table.row1 / n, p_col=table.col1 / n)


def small_expected_warning(expected: ExpectedTable) -> SmallExpectedWarning:
    """Percentage of cells with expected count below 5, and whether it exceeds 20%."""
    below = sum(1 for m in expected.cells if m < SMALL_EXPECTED_THRESHOLD)
    percent = 100.0 * below / 4
    return SmallExpectedWarning(triggered=percent > SMALL_EXPECTED_WARN_PCT, percent=percent)
