"""F8 — fleet-level failure counts across traffic classes.

The abstract motivates the study with the EI-joint being "a relative
frequent cause for train disruptions" — a *fleet-level* statement.
This experiment aggregates the per-joint model over a heterogeneous
fleet (traffic classes scale the usage-driven degradation) and reports
the expected number of service-affecting failures per year for a
50,000-joint network under the current policy, split by class.
"""

from __future__ import annotations

from typing import Optional

from repro.eijoint.fleet import (
    DEFAULT_TRAFFIC_MIX,
    fleet_failures_per_year,
)
from repro.eijoint.parameters import default_parameters
from repro.eijoint.strategies import current_policy
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register

__all__ = ["run", "FLEET_SIZE"]

#: Joints in the modeled network (order of the Dutch network's count).
FLEET_SIZE = 50_000


@register("fig8")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Aggregate per-class ENF into the fleet-level failure count."""
    cfg = config if config is not None else ExperimentConfig()
    parameters = default_parameters()
    per_class, fleet_total = fleet_failures_per_year(
        strategy_factory=lambda params: current_policy(params),
        mix=DEFAULT_TRAFFIC_MIX,
        parameters=parameters,
        fleet_size=FLEET_SIZE,
        horizon=cfg.horizon,
        n_runs=cfg.n_runs,
        seed=cfg.seed,
        kernel=cfg.kernel,
    )
    result = ExperimentResult(
        experiment_id="F8",
        title=f"Fleet of {FLEET_SIZE:,} joints under the current policy",
        headers=[
            "traffic class",
            "share",
            "intensity",
            "ENF per joint-year",
            "failures/yr in class",
        ],
    )
    for entry in per_class:
        cls = entry.traffic_class
        class_failures = (
            entry.failures_per_joint_year.estimate * cls.fraction * FLEET_SIZE
        )
        result.add_row(
            cls.name,
            f"{cls.fraction:.0%}",
            f"x{cls.intensity:g}",
            format_ci(entry.failures_per_joint_year),
            f"{class_failures:.0f}",
        )
    result.notes.append(
        f"expected service-affecting EI-joint failures: "
        f"{fleet_total:.0f} per year network-wide — the order of "
        "magnitude that makes the joint 'a relative frequent cause for "
        "train disruptions'"
    )
    return result
