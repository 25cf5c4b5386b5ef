"""F5 — expected number of failures vs inspection frequency.

Regenerates the figure behind the paper's reliability claim: the
expected number of system failures per joint-year drops steeply from
corrective-only to yearly inspection and then saturates — the residual
floor is set by the failure modes that give no advance warning.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import default_parameters
from repro.eijoint.strategies import inspection_policy, no_maintenance
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register
from repro.studies import StudyRequest, get_runner

__all__ = ["run", "FREQUENCIES"]

#: Inspection frequencies (rounds per year) swept in the figure.
FREQUENCIES: Sequence[float] = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0)


@register("fig5")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Sweep the inspection frequency and estimate ENF per year."""
    cfg = config if config is not None else ExperimentConfig()
    parameters = default_parameters()
    tree = build_ei_joint_fmt(parameters)

    result = ExperimentResult(
        experiment_id="F5",
        title="Expected number of system failures per joint-year vs "
        "inspection frequency",
        headers=["inspections/yr", "ENF per year", "unreliability(horizon)"],
    )
    for frequency in FREQUENCIES:
        strategy = (
            no_maintenance(parameters)
            if frequency == 0
            else inspection_policy(frequency, parameters=parameters)
        )
        sim = get_runner().result(
            StudyRequest(
                tree=tree,
                strategy=strategy,
                horizon=cfg.horizon,
                seed=cfg.seed,
                n_runs=cfg.n_runs,
                confidence=cfg.confidence,
                kernel=cfg.kernel,
            )
        )
        result.add_row(
            f"{frequency:g}",
            format_ci(sim.failures_per_year),
            f"{sim.unreliability.estimate:.3f}",
        )
    floor = sum(
        1.0 / mode.mean_lifetime
        for mode in parameters.modes
        if not mode.inspectable
    )
    result.notes.append(
        f"non-inspectable failure modes set an ENF floor of about "
        f"{floor:.4f}/yr (no inspection frequency can go below it)"
    )
    return result
