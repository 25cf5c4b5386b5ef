"""Experiment harness: every experiment runs and reproduces its claims.

These are the repository's acceptance tests: each experiment must not
only run but exhibit the qualitative *shape* the paper reports (see
EXPERIMENTS.md).  They run with a reduced configuration to stay fast;
benchmark runs use the full configuration.
"""

import re
from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.registry import (
    experiment_ids,
    get_experiment,
    iter_experiments,
)
from repro.experiments import (
    ablation_detection,
    ablation_phases,
    ablation_rdep,
    ctmc_crossval,
    fig4_reliability,
    fig5_enf,
    fig6_cost,
    fig7_renewal,
    fig8_fleet,
    optimum,
    periodic_crossval,
    rareevent,
    sensitivity,
    table1_model,
    table2_strategies,
    table3_validation,
    table4_importance,
    uncertainty,
)

CFG = ExperimentConfig(n_runs=400, horizon=40.0, seed=7)

# The paper's simulation claims (F5, F6, OPT, T3, A3, A5) are checked on
# both kernels: the named tests run the default ``kernel="auto"``, which
# routes eligible studies to the lockstep kernel, and
# ``test_paper_claims_on_object_kernel`` repeats every check with
# ``kernel="object"``.  The bounds are the same for both.


def _estimate(cell: str) -> float:
    """Parse the point estimate out of an 'x ±y' cell."""
    return float(cell.split()[0])


def test_registry_complete():
    assert set(experiment_ids()) == {
        "table1",
        "table2",
        "table3",
        "table4",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "optimum",
        "sensitivity",
        "uncertainty",
        "ablation-rdep",
        "ablation-phases",
        "ablation-detection",
        "ctmc-crossval",
        "periodic-crossval",
        "rareevent",
    }


@pytest.mark.parametrize("key", ["table1", "table2"])
def test_structural_tables_render(key):
    result = get_experiment(key)(None)
    text = result.to_text()
    assert result.rows
    assert result.experiment_id in text


def test_registry_paper_order():
    """iter_experiments() follows the paper's evaluation order."""
    ids = [key for key, _ in iter_experiments()]
    assert ids[:9] == [
        "table1", "table2", "table3", "table4",
        "fig4", "fig5", "fig6", "fig7", "fig8",
    ]
    assert ids == list(experiment_ids())


def test_registry_resolves_registered_functions():
    assert get_experiment("table1") is table1_model.run
    assert get_experiment("rareevent") is rareevent.run
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("fig99")


def test_registry_rejects_duplicate_ids():
    from repro.errors import ValidationError
    from repro.experiments.registry import register

    with pytest.raises(ValidationError, match="already registered"):
        register("table1")(lambda config=None: None)


def test_table1_lists_all_modes():
    result = table1_model.run()
    assert len(result.rows) == 11
    assert "ferrous_dust" in result.column("failure mode")


def test_table2_includes_current_policy():
    result = table2_strategies.run()
    assert "current-policy" in result.column("strategy")


def _table3_claims(kernel):
    result = table3_validation.run(
        ExperimentConfig(n_runs=800, seed=3, kernel=kernel)
    )
    assert any("AGREE" in note for note in result.notes)
    # Every mode is fitted within a factor ~2 of the truth.
    for true_text, fitted_text in zip(
        result.column("true mean [y]"), result.column("fitted mean [y]")
    ):
        ratio = float(fitted_text) / float(true_text)
        assert 0.3 < ratio < 3.0


def test_table3_validation_agrees():
    _table3_claims("auto")


def test_fig4_reliability_shape():
    result = fig4_reliability.run(CFG)
    # Curves are non-increasing in time and ordered by maintenance level.
    unmaintained = [float(x) for x in result.column("unmaintained")]
    current = [float(x) for x in result.column("current-policy(4x)")]
    assert unmaintained[0] == pytest.approx(1.0)
    assert all(b <= a + 0.02 for a, b in zip(unmaintained, unmaintained[1:]))
    # Maintenance dominates no maintenance at the horizon.
    assert current[-1] > unmaintained[-1]


def _fig5_claims(kernel):
    result = fig5_enf.run(replace(CFG, kernel=kernel))
    enf = [_estimate(cell) for cell in result.column("ENF per year")]
    # Steep drop from corrective-only to 1x/yr; saturating thereafter.
    assert enf[1] < enf[0] / 2.5
    assert enf[-1] <= enf[1]
    # The floor note is present.
    assert any("floor" in note for note in result.notes)


def test_fig5_enf_decreases_with_inspections():
    _fig5_claims("auto")


def _fig6_claims(kernel):
    result = fig6_cost.run(replace(CFG, kernel=kernel))
    totals = [float(cell) for cell in result.column("TOTAL")]
    frequencies = [float(cell) for cell in result.column("inspections/yr")]
    # Corrective-only is the most expensive; the interior has a minimum
    # that is cheaper than both ends (U-shape).
    assert totals[0] == max(totals)
    interior_min = min(totals[1:-1])
    assert interior_min < totals[-1]
    optimum = frequencies[totals.index(min(totals))]
    assert 1.0 <= optimum <= 8.0
    assert any("optim" in note for note in result.notes)


def test_fig6_cost_u_shape():
    _fig6_claims("auto")


def test_fig7_renewal_does_not_pay():
    result = fig7_renewal.run(CFG)
    totals = [float(cell) for cell in result.column("cost/yr TOTAL")]
    # The first row is the current policy without renewal; adding
    # renewal at any period costs more in total.
    assert totals[0] == min(totals)


def test_ablation_rdep_monotone():
    result = ablation_rdep.run(CFG)
    glue = [
        float(cell) for cell in result.column("glue failures /1000 joint-yr")
    ]
    # Stronger acceleration -> several-fold more glue failures.
    assert glue[-1] > 3.0 * glue[0]
    assert all(b >= a * 0.8 for a, b in zip(glue, glue[1:]))


def test_ablation_phases_prevention_grows():
    result = ablation_phases.run(CFG)
    prevented = [
        float(cell.rstrip("%")) for cell in result.column("prevented")
    ]
    # One memoryless phase: inspections can prevent (almost) nothing
    # of this mode relative to multi-phase variants.
    assert prevented[0] < prevented[-1]


def test_fig8_fleet_rates_ordered():
    result = fig8_fleet.run(CFG)
    rates = [_estimate(c) for c in result.column("ENF per joint-year")]
    assert rates[0] < rates[-1]


def test_ablation_detection_monotone():
    result = ablation_detection.run(CFG)
    enf = [_estimate(cell) for cell in result.column("ENF per year")]
    # Lower detection probability -> more failures (with MC slack).
    assert enf[-1] > enf[0]


def _ctmc_crossval_claims(kernel):
    result = ctmc_crossval.run(
        ExperimentConfig(n_runs=2000, seed=11, kernel=kernel)
    )
    assert all(cell == "yes" for cell in result.column("within CI"))


def test_ctmc_crossval_all_within_ci():
    _ctmc_crossval_claims("auto")


def test_table4_importance_shapes():
    result = table4_importance.run(CFG)
    assert len(result.rows) == 11
    # FV-ranked: first row is the dominant early-life mode.
    assert result.rows[0][0] == "ferrous_dust"
    # Under the current policy the no-warning modes gain share.
    modes = result.column("failure mode")
    maintained = [
        float(c.rstrip("%")) for c in result.column("share current policy")
    ]
    unmaintained = [
        float(c.rstrip("%")) for c in result.column("share unmaintained")
    ]
    rail = modes.index("rail_end_break")
    assert maintained[rail] > unmaintained[rail]


def test_uncertainty_band_contains_observed():
    result = uncertainty.run(ExperimentConfig(n_runs=600, seed=5))
    assert len(result.rows) == uncertainty.N_BOOTSTRAP
    assert any("lies within" in note for note in result.notes)


def test_sensitivity_sorted_by_swing():
    result = sensitivity.run(ExperimentConfig(n_runs=200, horizon=30.0, seed=9))
    swings = [float(cell) for cell in result.column("swing")]
    assert swings == sorted(swings, reverse=True)
    assert len(result.rows) == 11


def _optimum_claims(kernel):
    result = optimum.run(
        ExperimentConfig(n_runs=300, horizon=40.0, seed=5, kernel=kernel)
    )
    frequency = float(result.rows[0][1])
    assert 1.0 <= frequency <= 9.0
    assert any("close to cost-optimal" in note for note in result.notes)


def test_optimum_close_to_current():
    _optimum_claims("auto")


def _periodic_crossval_claims(kernel):
    result = periodic_crossval.run(
        ExperimentConfig(n_runs=1500, seed=19, kernel=kernel)
    )
    assert all(cell == "yes" for cell in result.column("within CI"))


def test_periodic_crossval_all_within_ci():
    _periodic_crossval_claims("auto")


@pytest.mark.parametrize(
    "claims",
    [
        _fig5_claims,
        _fig6_claims,
        _optimum_claims,
        _table3_claims,
        _ctmc_crossval_claims,
        _periodic_crossval_claims,
    ],
    ids=["F5", "F6", "OPT", "T3", "A3", "A5"],
)
def test_paper_claims_on_object_kernel(claims):
    claims("object")


def test_rareevent_regimes_and_agreement():
    result = rareevent.run(ExperimentConfig(n_runs=400, seed=21))
    assert result.column("scenario") == [
        "moderate", "moderate", "moderate", "rare (refined)"
    ]
    assert any("agreement" in note and "yes" in note for note in result.notes)
    assert any("substitution" in note for note in result.notes)
    # The strong-rarity row reports a genuine speedup over crude MC.
    speedup = result.column("speedup")[-1]
    assert speedup.endswith("x") and speedup != "n/a"
    assert float(speedup.rstrip("x")) > 1.0


def test_result_column_unknown_rejected():
    from repro.errors import ValidationError

    result = table1_model.run()
    with pytest.raises(ValidationError):
        result.column("nope")


def test_config_quick_reduces_runs():
    config = ExperimentConfig(n_runs=4000)
    assert config.quick().n_runs == 200
    assert config.quick().seed == config.seed


def test_config_quick_never_increases_runs():
    """Regression: quick() used to *raise* tiny configs to 100 runs."""
    config = ExperimentConfig(n_runs=40)
    assert config.quick().n_runs == 40
    # At the floor boundary the 20x reduction clamps to 100.
    assert ExperimentConfig(n_runs=100).quick().n_runs == 100
    assert ExperimentConfig(n_runs=1999).quick().n_runs == 100


def test_config_validation():
    from repro.errors import ValidationError

    with pytest.raises(ValidationError):
        ExperimentConfig(n_runs=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(horizon=-1.0)
