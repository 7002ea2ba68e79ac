"""Multinomial table sampling and Monte Carlo calibration of the tests.

Samples 2x2 tables under a fixed-total multinomial plan and tabulates how
often each test rejects at the requested significance levels. Under a true
independence model this exposes how far each test's null rejection rate
drifts from its nominal level on skewed data; the exact test stays at or
below it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .report import _score_columns
from .tables import ContingencyTable2x2

RNG_ALGORITHM = "numpy-pcg64"

TEST_NAMES = ("fisher_left", "fisher_right", "fisher_two", "x2", "g2", "t")

# The largest sample size numpy's multinomial sampler can draw.
_MAX_SIZE = np.iinfo(np.int64).max

# The most trials whose (trials, 4) int64 draw array numpy can allocate: its
# size in bytes must fit in an intp.
_MAX_TRIALS = np.iinfo(np.intp).max // (4 * np.dtype(np.int64).itemsize)


@dataclass(frozen=True)
class MultinomialModel:
    """Cell probabilities of the sampling population."""

    p11: float
    p12: float
    p21: float
    p22: float

    def __post_init__(self) -> None:
        probs = (self.p11, self.p12, self.p21, self.p22)
        # Written so that NaN fails both checks.
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise InvalidParameterError(f"cell probabilities must be in [0, 1]: {probs}")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise InvalidParameterError(f"cell probabilities must sum to 1: {probs}")

    @classmethod
    def independent(cls, p_row: float, p_col: float) -> "MultinomialModel":
        """Model with p_ij = p_i * p_j (the independence null)."""
        # Written so that NaN fails, and checked here so that the message
        # names the marginals given, not the cells made from them.
        if not (0.0 <= p_row <= 1.0 and 0.0 <= p_col <= 1.0):
            raise InvalidParameterError(f"p_row and p_col must be in [0, 1]: p_row={p_row}, p_col={p_col}")
        return cls(
            p11=p_row * p_col,
            p12=p_row * (1.0 - p_col),
            p21=(1.0 - p_row) * p_col,
            p22=(1.0 - p_row) * (1.0 - p_col),
        )

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p12, self.p21, self.p22)


@dataclass
class TestTally:
    valid_trials: int = 0
    rejections: dict[float, int] = field(default_factory=dict)
    p_sum: float = 0.0

    def rejection_rate(self, alpha: float) -> float:
        if self.valid_trials == 0:
            return 0.0
        return self.rejections.get(alpha, 0) / self.valid_trials

    def mean_p(self) -> float:
        return self.p_sum / self.valid_trials if self.valid_trials else math.nan


@dataclass
class CalibrationReport:
    trials: int
    n_total: int
    model: MultinomialModel
    alphas: tuple[float, ...]
    seed: int
    rng_algorithm: str
    tallies: dict[str, TestTally]
    degenerate_trials: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n_total": self.n_total,
            "model": asdict(self.model),
            "alphas": list(self.alphas),
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
            "degenerate_trials": self.degenerate_trials,
            "tests": {
                name: {
                    "valid_trials": tally.valid_trials,
                    # JSON has no NaN: a test with no valid trial has no mean.
                    "mean_p": tally.mean_p() if tally.valid_trials else None,
                    "rejection_rates": {str(a): tally.rejection_rate(a) for a in self.alphas},
                }
                for name, tally in self.tallies.items()
            },
        }


def _check_size(name: str, value: int, most: int = _MAX_SIZE) -> None:
    if not 1 <= value <= most:
        raise InvalidParameterError(f"{name} must be in [1, {most}], got {value}")


def sample_table(model: MultinomialModel, n_total: int,
                 rng: np.random.Generator) -> ContingencyTable2x2:
    """One multinomial draw of a 2x2 table; counts always sum to n_total."""
    _check_size("sample size", n_total)
    n11, n12, n21, n22 = (int(c) for c in rng.multinomial(n_total, model.probs))
    return ContingencyTable2x2(n11, n12, n21, n22)


def calibration(
    model: MultinomialModel,
    n_total: int,
    trials: int,
    alphas: tuple[float, ...] = (0.01, 0.05, 0.10),
    seed: int = 0,
) -> CalibrationReport:
    """Sample `trials` tables and tabulate each test's rejection rate per alpha.
    Each alpha must lie in (0, 1) and be given once: a repeated alpha would
    count each rejection twice.

    Degenerate tables (a zero marginal) are never resampled: they count for
    the exact test (whose p-values are 1 there) and are excluded from the
    asymptotic tallies, per each test's own error rules.

    Each distinct draw is scored once: the draws are told apart by
    `np.unique`, whose inverse maps each trial to its distinct draw, and
    their tables go to `report._score_columns`, whose first six rows (left,
    right, two, x2, g2, t) are the p-values of the tests in TEST_NAMES
    order. Each test's tally then comes from its row of p-values over the
    trials in draw order: its valid trials are the non-NaN values, and its
    p-value sum is the last of their `np.cumsum`, which adds left to right,
    so it is the same float sum as scoring trial by trial.
    """
    _check_size("sample size", n_total)
    _check_size("trials", trials, _MAX_TRIALS)
    alphas = tuple(alphas)
    # Written so that NaN fails.
    if not all(0.0 < alpha < 1.0 for alpha in alphas) or len(set(alphas)) < len(alphas):
        raise InvalidParameterError(f"alphas must be distinct and in (0, 1): {alphas}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # A draw is its first three cells, n22 being n_total less them: one
    # 24-byte void value per trial, which np.unique sorts as bytes.
    cells = np.ascontiguousarray(rng.multinomial(n_total, model.probs, size=trials)[:, :3])
    distinct, order = np.unique(cells.view(np.dtype((np.void, 3 * cells.itemsize))).ravel(),
                                return_inverse=True)
    n11, n12, n21 = distinct.view(np.int64).reshape(-1, 3).T
    # Each marginal is at most n_total, an int64, so no sum below wraps.
    p_values = _score_columns(n11.tolist(), (n11 + n12).tolist(), (n11 + n21).tolist(),
                              [n_total] * len(distinct))

    tallies = {}
    for name, row in zip(TEST_NAMES, p_values):
        p = row[order]
        p = p[~np.isnan(p)]
        # np.cumsum adds left to right from p[0], as a trial-by-trial loop adding each p
        # to 0.0 would: same bits.
        tallies[name] = TestTally(
            len(p), {alpha: int(np.count_nonzero(p <= alpha)) for alpha in alphas},
            float(np.cumsum(p)[-1]) if len(p) else 0.0)
    return CalibrationReport(
        trials=trials,
        n_total=n_total,
        model=model,
        alphas=alphas,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        tallies=tallies,
        degenerate_trials=trials - tallies["x2"].valid_trials,
    )
