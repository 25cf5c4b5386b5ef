"""T3 — validation: predicted vs observed expected number of failures.

This reproduces the paper's calibration loop end-to-end on the
synthetic data substrate (the real incident databases are proprietary,
see DESIGN.md):

1. A fleet of joints is simulated under the *ground-truth* model and
   the current maintenance policy, producing an incident-registration
   database with the industry schema.
2. Parameters are re-estimated **without looking at the ground truth**
   (see :mod:`repro.eijoint.calibration`): rare non-inspectable modes
   from the database's failure records (censored Erlang MLE),
   inspectable degradation modes from simulated expert interviews.
3. The re-fitted model predicts the system-level expected number of
   failures per joint-year, which is compared against the rate observed
   in the database — the paper's headline validation ("the model
   faithfully predicts the expected number of failures at system
   level").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.estimation import estimate_failure_rate
from repro.data.incidents import generate_incident_database
from repro.eijoint.calibration import refit_parameters
from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import default_parameters
from repro.eijoint.strategies import current_policy
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register
from repro.studies import StudyRequest, get_runner

__all__ = ["run"]

#: Observation window of the synthetic incident database, years.
_WINDOW = 10.0


@register("table3")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the calibration loop and tabulate fit + validation."""
    cfg = config if config is not None else ExperimentConfig()
    truth = default_parameters()
    tree_truth = build_ei_joint_fmt(truth)
    strategy = current_policy(truth)

    n_joints = max(200, cfg.n_runs)
    database = generate_incident_database(
        tree_truth, strategy, n_joints=n_joints, window=_WINDOW, seed=cfg.seed
    )
    observed = estimate_failure_rate(
        database, kind="system_failure", confidence=cfg.confidence
    )

    result = ExperimentResult(
        experiment_id="T3",
        title="Validation: parameter re-estimation and predicted vs "
        "observed failure rate",
        headers=[
            "failure mode",
            "source",
            "true mean [y]",
            "fitted mean [y]",
            "true phases",
            "fitted phases",
        ],
    )

    rng = np.random.default_rng(cfg.seed + 1)
    fitted, records = refit_parameters(database, truth, rng)
    for record in records:
        result.add_row(
            record.name,
            record.source,
            f"{record.true_mean:g}",
            f"{record.fitted_mean:.3g}",
            record.true_phases,
            record.fitted_phases,
        )

    runner = get_runner()
    tree_fitted = build_ei_joint_fmt(fitted)
    predicted = runner.result(
        StudyRequest(
            tree=tree_fitted,
            strategy=current_policy(fitted),
            horizon=_WINDOW,
            seed=cfg.seed + 2,
            n_runs=2 * n_joints,
            confidence=cfg.confidence,
            kernel=cfg.kernel,
        )
    ).failures_per_year
    truth_enf = runner.result(
        StudyRequest(
            tree=tree_truth,
            strategy=strategy,
            horizon=_WINDOW,
            seed=cfg.seed + 3,
            n_runs=2 * n_joints,
            confidence=cfg.confidence,
            kernel=cfg.kernel,
        )
    ).failures_per_year

    result.notes.append(
        f"observed system failures: {database.count('system_failure')} over "
        f"{database.joint_years:g} joint-years -> "
        f"rate {format_ci(observed)} per joint-year"
    )
    result.notes.append(
        f"fitted-model prediction: {format_ci(predicted)} per joint-year"
    )
    result.notes.append(
        f"ground-truth-model prediction: {format_ci(truth_enf)} per joint-year"
    )
    overlap = predicted.lower <= observed.upper and observed.lower <= predicted.upper
    result.notes.append(
        "validation: prediction and observation "
        + ("AGREE (confidence intervals overlap)" if overlap else "DISAGREE")
    )
    return result
