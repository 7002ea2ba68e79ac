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

from . import asymptotic
from .errors import InvalidParameterError
from .exact import FisherResult
from .report import _score_distinct
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

    def record(self, p: float, alphas: tuple[float, ...]) -> None:
        self.valid_trials += 1
        self.p_sum += p
        for alpha in alphas:
            if p <= alpha:
                self.rejections[alpha] = self.rejections.get(alpha, 0) + 1

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
                    "mean_p": tally.mean_p(),
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


def _p_values(fisher: FisherResult,
              tests: asymptotic.Battery) -> tuple[list[tuple[str, float]], bool]:
    """Each test's p-value on one table, leaving out the tests that refuse it,
    and whether the asymptotic chi-square tests found it degenerate."""
    scores = [("fisher_left", fisher.left_p), ("fisher_right", fisher.right_p),
              ("fisher_two", fisher.two_sided_p)]
    scores += [(name, result.p_value)
               for name, result in (("x2", tests.pearson), ("g2", tests.g2), ("t", tests.t_test))
               if result is not None]
    return scores, "pearson" in tests.notes


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

    Each distinct draw is scored once (see `report._score_distinct`). The
    trials are then tallied in draw order, which keeps every p-value sum the
    same left-to-right float sum as scoring trial by trial.
    """
    _check_size("sample size", n_total)
    _check_size("trials", trials, _MAX_TRIALS)
    alphas = tuple(alphas)
    # Written so that NaN fails.
    if not all(0.0 < alpha < 1.0 for alpha in alphas) or len(set(alphas)) < len(alphas):
        raise InvalidParameterError(f"alphas must be distinct and in (0, 1): {alphas}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.multinomial(n_total, model.probs, size=trials)
    distinct, inverse = np.unique(draws, axis=0, return_inverse=True)
    scored = [_p_values(*pair) for pair in
              _score_distinct(ContingencyTable2x2(*row) for row in distinct.tolist()).values()]

    tallies = {name: TestTally() for name in TEST_NAMES}
    degenerate = 0
    # The inverse's shape differs across numpy 2.0.x releases.
    for i in inverse.ravel().tolist():
        scores, is_degenerate = scored[i]
        for name, p in scores:
            tallies[name].record(p, alphas)
        degenerate += is_degenerate
    return CalibrationReport(
        trials=trials,
        n_total=n_total,
        model=model,
        alphas=alphas,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        tallies=tallies,
        degenerate_trials=degenerate,
    )
