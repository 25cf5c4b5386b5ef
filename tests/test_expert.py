"""Expert judgment aggregation and quantile fitting."""

import pytest
from scipy import stats as sps

from repro.data.expert import (
    ExpertJudgment,
    aggregate_judgments,
    fit_erlang_to_quantiles,
)
from repro.errors import EstimationError


def _true_quantiles(shape, mean, levels=(0.05, 0.5, 0.95)):
    return {
        level: float(sps.gamma.ppf(level, a=shape, scale=mean / shape))
        for level in levels
    }


def test_judgment_validation_levels():
    with pytest.raises(EstimationError):
        ExpertJudgment("e", {1.5: 10.0})
    with pytest.raises(EstimationError):
        ExpertJudgment("e", {})


def test_judgment_validation_values():
    with pytest.raises(EstimationError):
        ExpertJudgment("e", {0.5: -1.0})


def test_judgment_validation_monotone():
    with pytest.raises(EstimationError):
        ExpertJudgment("e", {0.05: 10.0, 0.95: 5.0})


def test_judgment_validation_weight():
    with pytest.raises(EstimationError):
        ExpertJudgment("e", {0.5: 1.0}, weight=0.0)


def test_aggregate_equal_weights():
    a = ExpertJudgment("a", {0.5: 10.0})
    b = ExpertJudgment("b", {0.5: 20.0})
    assert aggregate_judgments([a, b]) == {0.5: 15.0}


def test_aggregate_weighted():
    a = ExpertJudgment("a", {0.5: 10.0}, weight=3.0)
    b = ExpertJudgment("b", {0.5: 20.0}, weight=1.0)
    assert aggregate_judgments([a, b])[0.5] == pytest.approx(12.5)


def test_aggregate_common_levels_only():
    a = ExpertJudgment("a", {0.05: 1.0, 0.5: 10.0})
    b = ExpertJudgment("b", {0.5: 20.0, 0.95: 40.0})
    assert set(aggregate_judgments([a, b])) == {0.5}


def test_aggregate_no_common_levels():
    a = ExpertJudgment("a", {0.05: 1.0})
    b = ExpertJudgment("b", {0.95: 40.0})
    with pytest.raises(EstimationError):
        aggregate_judgments([a, b])


def test_aggregate_empty():
    with pytest.raises(EstimationError):
        aggregate_judgments([])


@pytest.mark.parametrize("shape,mean", [(1, 5.0), (3, 12.0), (6, 40.0)])
def test_fit_recovers_exact_quantiles(shape, mean):
    quantiles = _true_quantiles(shape, mean)
    fit = fit_erlang_to_quantiles(quantiles)
    assert fit.shape == shape
    assert fit.mean() == pytest.approx(mean, rel=0.02)


def test_fit_robust_to_small_noise():
    quantiles = _true_quantiles(4, 8.0)
    noisy = {level: value * 1.03 for level, value in quantiles.items()}
    fit = fit_erlang_to_quantiles(noisy)
    assert fit.shape in (3, 4, 5)
    assert fit.mean() == pytest.approx(8.0, rel=0.15)


def test_fit_needs_two_quantiles():
    with pytest.raises(EstimationError):
        fit_erlang_to_quantiles({0.5: 10.0})


def test_fit_rejects_nonpositive_values():
    with pytest.raises(EstimationError):
        fit_erlang_to_quantiles({0.05: 0.0, 0.5: 1.0})


def _reference_fit(quantiles, max_phases=12):
    """The fit with a ``scipy.stats.gamma.ppf`` residual, as it was
    written before the unit-rate quantiles were hoisted."""
    import math

    from scipy import optimize

    from repro.stats.distributions import Erlang

    levels = sorted(quantiles)
    targets = [quantiles[level] for level in levels]
    best = None
    for shape in range(1, max_phases + 1):

        def residual(log_rate, shape=shape):
            rate = math.exp(log_rate)
            total = 0.0
            for level, target in zip(levels, targets):
                predicted = sps.gamma.ppf(level, a=shape, scale=1.0 / rate)
                total += (math.log(predicted) - math.log(target)) ** 2
            return total

        median_target = targets[len(targets) // 2]
        rough_rate = shape / max(median_target, 1e-12)
        result = optimize.minimize_scalar(
            residual,
            bracket=(math.log(rough_rate) - 2.0, math.log(rough_rate) + 2.0),
        )
        if not result.success:
            continue
        score = float(result.fun)
        if best is None or score < best[0]:
            best = (score, shape, math.exp(float(result.x)))
    return Erlang(shape=best[1], rate=best[2])


@pytest.mark.parametrize(
    "quantiles",
    [
        _true_quantiles(1, 5.0),
        _true_quantiles(3, 12.0),
        _true_quantiles(6, 40.0, levels=(0.1, 0.25, 0.5, 0.75, 0.9)),
        {level: v * 1.03 for level, v in _true_quantiles(4, 8.0).items()},
        {0.05: 2.0, 0.5: 9.0, 0.95: 30.0},
        {0.1: 0.4, 0.9: 1.7},
    ],
)
def test_fit_bit_identical_to_gamma_ppf_residual(quantiles):
    fit = fit_erlang_to_quantiles(quantiles)
    reference = _reference_fit(quantiles)
    assert fit.shape == reference.shape
    assert fit.rate == reference.rate
    assert fit == reference
