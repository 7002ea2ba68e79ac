import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from exactlex import (
    CalibrationReport,
    ContingencyTable2x2,
    MultinomialModel,
    calibration,
    fisher_exact,
    hypergeom_distribution,
    sample_table,
)
from exactlex import asymptotic, exact, simulate
from exactlex.errors import DegenerateTableError, InvalidParameterError, UndefinedStatisticError


def test_model_validation():
    with pytest.raises(ValueError):
        MultinomialModel(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MultinomialModel(-0.1, 0.5, 0.3, 0.3)


@pytest.mark.parametrize("p_row, p_col", [(1.5, 0.5), (math.nan, 0.5), (0.5, -0.1), (0.5, math.inf)])
def test_independent_model_checks_its_marginals(p_row, p_col):
    with pytest.raises(InvalidParameterError, match=r"^p_row and p_col must be in \[0, 1\]"):
        MultinomialModel.independent(p_row, p_col)


def test_independent_constructor():
    model = MultinomialModel.independent(0.3, 0.2)
    assert model.p11 == pytest.approx(0.06)
    assert sum(model.probs) == pytest.approx(1.0, abs=1e-15)


def test_degenerate_mass_always_same_cell():
    model = MultinomialModel(1.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert sample_table(model, 50, rng).cells == (50, 0, 0, 0)


def test_sample_sums_to_n():
    model = MultinomialModel.independent(0.4, 0.6)
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert sample_table(model, 123, rng).total == 123


def test_sample_mean_matches_cell_probability():
    model = MultinomialModel.independent(0.5, 0.5)
    rng = np.random.default_rng(3)
    trials = 1000
    mean_n11 = sum(sample_table(model, 10000, rng).n11 for _ in range(trials)) / trials
    # 3 sigma for the mean of 1000 draws of Bin(10000, .25)
    assert abs(mean_n11 - 2500) <= 3 * math.sqrt(10000 * 0.25 * 0.75 / trials) + 1


def test_seed_determinism():
    model = MultinomialModel.independent(0.3, 0.3)
    a = sample_table(model, 500, np.random.default_rng(42))
    b = sample_table(model, 500, np.random.default_rng(42))
    assert a == b


def test_calibration_reproducible_byte_identical():
    model = MultinomialModel.independent(0.05, 0.04)
    first = calibration(model, 200, trials=300, seed=9)
    second = calibration(model, 200, trials=300, seed=9)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_calibration_super_uniform_exact_test():
    model = MultinomialModel.independent(0.01, 0.02)
    trials = 5000
    report = calibration(model, 1000, trials=trials, seed=4)
    for alpha in (0.01, 0.05, 0.10):
        rate = report.tallies["fisher_left"].rejection_rate(alpha)
        se = math.sqrt(alpha * (1 - alpha) / trials)
        assert rate <= alpha + 3 * se
        right = report.tallies["fisher_right"].rejection_rate(alpha)
        assert right <= alpha + 3 * se


def test_calibration_counts_degenerate_trials():
    # n11 mass ~1 per table is tiny; with rare rows most tables have a zero marginal
    model = MultinomialModel.independent(0.001, 0.001)
    report = calibration(model, 100, trials=200, seed=8)
    assert report.degenerate_trials > 0
    assert report.tallies["x2"].valid_trials == report.trials - report.degenerate_trials
    # fisher runs on every trial, degenerate or not
    assert report.tallies["fisher_left"].valid_trials == report.trials


def test_report_json_shape():
    model = MultinomialModel.independent(0.2, 0.2)
    report = calibration(model, 50, trials=120, alphas=(0.05,), seed=0)
    payload = report.to_dict()
    assert payload["rng_algorithm"] == "numpy-pcg64"
    assert payload["trials"] == 120
    assert set(payload["tests"]) == {"fisher_left", "fisher_right", "fisher_two", "x2", "g2", "t"}
    assert "0.05" in payload["tests"]["fisher_left"]["rejection_rates"]
    for stats in payload["tests"].values():
        for rate in stats["rejection_rates"].values():
            assert 0.0 <= rate <= 1.0


def test_trials_validation():
    with pytest.raises(ValueError):
        calibration(MultinomialModel.independent(0.5, 0.5), 10, trials=0)


@pytest.mark.parametrize("alphas", [(0.05, 0.05), (math.nan,), (-1.0,), (0.0,), (1.0,), (0.01, 1.5)])
def test_alphas_outside_unit_interval_or_repeated_are_rejected(alphas):
    with pytest.raises(InvalidParameterError):
        calibration(MultinomialModel.independent(0.3, 0.3), 50, trials=20, alphas=alphas)


def test_negative_seed_is_rejected_before_any_draw(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail otherwise
    with pytest.raises(InvalidParameterError, match="seed"):
        calibration(MultinomialModel.independent(0.5, 0.5), 10, trials=3, seed=-1)


def test_windowed_cache_matches_full_support(monkeypatch):
    # Supports of about 240 whose windows end short of the upper end, both
    # in the batch and on their own.
    model = MultinomialModel.independent(0.03, 0.03)
    assert exact._fisher_distribution(8000, 240, 240).support_hi < 240
    assert exact._bracket([((8000, 240, 240), 0, 240, 7, [7])])[0][5] < 240
    windowed = calibration(model, 8000, trials=10_000, seed=5).to_dict()
    monkeypatch.setattr("exactlex.report._fisher_batch",
                        lambda n11s: {(*key, n11): exact.fisher_from_dist(hypergeom_distribution(*key), n11)
                                      for key, ks in n11s.items() for n11 in ks})
    assert calibration(model, 8000, trials=10_000, seed=5).to_dict() == windowed


def _reference_calibration(model, n_total, trials, alphas, seed):
    """Every trial scored on its own, in draw order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.multinomial(n_total, model.probs, size=trials)
    tallies = {name: simulate.TestTally() for name in simulate.TEST_NAMES}

    def record(name, p):
        tally = tallies[name]
        tally.valid_trials += 1
        tally.p_sum += p
        for alpha in alphas:
            if p <= alpha:
                tally.rejections[alpha] = tally.rejections.get(alpha, 0) + 1

    degenerate = 0
    for row in draws:
        table = ContingencyTable2x2(int(row[0]), int(row[1]), int(row[2]), int(row[3]))
        fisher = fisher_exact(table)
        record("fisher_left", fisher.left_p)
        record("fisher_right", fisher.right_p)
        record("fisher_two", fisher.two_sided_p)
        try:
            record("x2", asymptotic.pearson_x2(table).p_value)
            record("g2", asymptotic.likelihood_g2(table).p_value)
        except DegenerateTableError:
            degenerate += 1
        try:
            record("t", asymptotic.t_test(table).p_value)
        except UndefinedStatisticError:
            pass
    return CalibrationReport(trials, n_total, model, alphas, seed, simulate.RNG_ALGORITHM,
                             tallies, degenerate)


@pytest.mark.parametrize("model, n_total, trials, alphas, seed", [
    (MultinomialModel.independent(0.001, 0.001), 100, 2000, (0.01, 0.05, 0.10), 8),  # mostly degenerate
    (MultinomialModel.independent(0.01, 0.02), 200, 2000, (0.01, 0.05, 0.10), 3),  # n11 = 0 leaves t undefined
    (MultinomialModel.independent(0.3, 0.4), 50, 2000, (0.01, 0.05, 0.10), 2),  # dense
    (MultinomialModel.independent(0.5, 0.5), 3, 500, (0.01, 0.05, 0.10), 1),
    (MultinomialModel(0.1, 0.2, 0.3, 0.4), 40, 1000, (0.001, 0.2, 0.5), 11),
    (MultinomialModel.independent(1e-6, 1e-6), 10, 50, (0.01, 0.05, 0.10), 0),  # no valid x2 or g2 trial
    (MultinomialModel.independent(0.3, 0.4), 50, 1, (0.05,), 3),  # a single trial
])
def test_calibration_matches_per_trial_scoring(model, n_total, trials, alphas, seed):
    report = calibration(model, n_total, trials=trials, alphas=alphas, seed=seed)
    reference = _reference_calibration(model, n_total, trials, alphas, seed)
    assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


def test_calibration_enumerates_each_marginal_once(monkeypatch):
    model, n_total, trials, alphas, seed = MultinomialModel.independent(0.002, 0.0007), 10_000, 2000, \
        (0.01, 0.05, 0.10), 6
    draws = np.random.default_rng(np.random.SeedSequence(seed)).multinomial(n_total, model.probs, size=trials)
    distinct = {tuple(row) for row in draws.tolist()}
    marginals = {(n_total, n11 + n12, n11 + n21) for n11, n12, n21, _ in distinct}
    assert len(marginals) < len(distinct)
    enumerated, batteries = [], []
    monkeypatch.setattr(exact, "_fisher_distribution",
                        lambda n, r1, c1, n11s=None, original=exact._fisher_distribution:
                        enumerated.append((n, r1, c1)) or original(n, r1, c1, n11s))
    monkeypatch.setattr(exact, "_batch_pass",
                        lambda rows, n11s, results, original=exact._batch_pass:
                        enumerated.extend(key for key, *_ in rows) or original(rows, n11s, results))
    # One columnar battery call per run, over each distinct draw once.
    monkeypatch.setattr(asymptotic, "_battery_columns",
                        lambda *columns, battery=asymptotic._battery_columns:
                        batteries.append(list(zip(*columns))) or battery(*columns))
    for run in (1, 2):  # a second run keeps nothing from the first
        result = calibration(model, n_total, trials=trials, alphas=alphas, seed=seed)
        assert Counter(enumerated) == dict.fromkeys(marginals, run)
        assert len(batteries) == run
        assert Counter(cells for call in batteries for cells in call) == \
            dict.fromkeys(((n11, n11 + n12, n11 + n21, n_total) for n11, n12, n21, _ in distinct), run)
    reference = _reference_calibration(model, n_total, trials, alphas, seed)
    assert json.dumps(result.to_dict()) == json.dumps(reference.to_dict())


def test_calibration_memory_per_trial_is_bounded():
    # Distinct draws are found in numpy, not as one Python tuple per trial
    # (about 160 bytes a trial at 10**5 trials); np.unique's sorted and
    # inverse arrays over 24-byte keys peak near 100.
    model, trials = MultinomialModel.independent(0.002, 0.0007), 100_000
    calibration(model, 10_000, trials=100, seed=1)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        calibration(model, 10_000, trials=trials, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / trials < 120
