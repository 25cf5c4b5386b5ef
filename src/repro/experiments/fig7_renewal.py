"""F7 — sensitivity to periodic renewal on top of the current policy.

Regenerates the renewal-period sweep: keeping quarterly inspections,
the joint is additionally renewed every R years.  Renewal suppresses
the no-warning failure modes that inspections cannot catch, but a full
renewal is expensive; the sweep shows where (if anywhere) time-based
renewal pays on top of condition-based maintenance.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import default_cost_model, default_parameters
from repro.eijoint.strategies import (
    CURRENT_INSPECTIONS_PER_YEAR,
    inspection_policy,
)
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register
from repro.studies import StudyRequest, get_runner

__all__ = ["run", "RENEWAL_PERIODS"]

#: Renewal periods (years) swept; None = no periodic renewal (current).
RENEWAL_PERIODS: Sequence[Optional[float]] = (None, 50.0, 35.0, 25.0, 15.0, 10.0, 5.0)


@register("fig7")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Sweep the renewal period at the current inspection frequency."""
    cfg = config if config is not None else ExperimentConfig()
    parameters = default_parameters()
    tree = build_ei_joint_fmt(parameters)
    cost_model = default_cost_model()

    result = ExperimentResult(
        experiment_id="F7",
        title="Adding periodic renewal to the current policy",
        headers=[
            "renewal period [y]",
            "ENF per year",
            "cost/yr planned",
            "cost/yr unplanned",
            "cost/yr TOTAL",
        ],
    )
    for renewal in RENEWAL_PERIODS:
        strategy = inspection_policy(
            CURRENT_INSPECTIONS_PER_YEAR,
            renewal_years=renewal,
            parameters=parameters,
        )
        sim = get_runner().result(
            StudyRequest(
                tree=tree,
                strategy=strategy,
                horizon=cfg.horizon,
                cost_model=cost_model,
                seed=cfg.seed,
                n_runs=cfg.n_runs,
                confidence=cfg.confidence,
                kernel=cfg.kernel,
            )
        )
        breakdown = sim.summary.cost_breakdown_per_year
        result.add_row(
            "none" if renewal is None else f"{renewal:g}",
            format_ci(sim.failures_per_year),
            f"{breakdown.planned:.0f}",
            f"{breakdown.unplanned:.0f}",
            f"{breakdown.total:.0f}",
        )
    result.notes.append(
        "renewal reduces failures from no-warning modes but each renewal "
        "replaces every component; the cost column shows whether that "
        "trade pays at any period"
    )
    return result
