"""A1 — ablation: the rate-dependency (RDEP) acceleration factor.

DESIGN.md calls out the bolt-to-glue rate dependency as a modelling
choice to ablate: without it (factor 1), broken bolts and glue
degradation are independent and glue failures are under-predicted.
The sweep varies the acceleration factor under the corrective-only
strategy (where broken bolts survive longest) and reports both the
glue-failure occurrence rate — the direct target of the dependency —
and the system-level ENF.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import default_parameters
from repro.eijoint.strategies import no_maintenance
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register
from repro.studies import StudyRequest, get_runner

__all__ = ["run", "FACTORS"]

#: RDEP acceleration factors swept (1 = dependency disabled).
FACTORS: Sequence[float] = (1.0, 3.0, 6.0, 10.0)

_GLUE = "glue_failure"


def _count_glue_failures(trajectories) -> int:
    return sum(
        1
        for trajectory in trajectories
        for event in trajectory.events
        if event.kind == "failure" and event.component == _GLUE
    )


@register("ablation-rdep")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Sweep the bolt->glue acceleration factor."""
    cfg = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        experiment_id="A1",
        title="Ablation: bolt->glue RDEP acceleration factor "
        "(corrective-only strategy)",
        headers=[
            "factor",
            "glue failures /1000 joint-yr",
            "system ENF/yr",
        ],
    )
    for factor in FACTORS:
        parameters = dataclasses.replace(
            default_parameters(), bolt_glue_acceleration=factor
        )
        tree = build_ei_joint_fmt(parameters)
        runner = get_runner()
        request = StudyRequest(
            tree=tree,
            strategy=no_maintenance(parameters),
            horizon=cfg.horizon,
            seed=cfg.seed,
            n_runs=cfg.n_runs,
            confidence=cfg.confidence,
            record_events=True,
            kernel=cfg.kernel,
        )
        glue_failures = runner.statistic(
            request, "glue_failure_count", _count_glue_failures
        )
        joint_years = cfg.n_runs * cfg.horizon
        summary = runner.summary(request)
        result.add_row(
            f"{factor:g}",
            f"{1000.0 * glue_failures / joint_years:.2f}",
            format_ci(summary.failures_per_year),
        )
    result.notes.append(
        "factor 1 disables the dependency; the default model uses 3. "
        "The dependency multiplies the glue-failure rate several-fold, "
        "but glue is a slow mode, so the system-level ENF moves little — "
        "exactly why the dependency is easy to miss without the FMT."
    )
    return result
