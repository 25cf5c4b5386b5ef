"""A2 — ablation: degradation phase count of an inspectable mode.

Phased (Erlang) degradation is what makes periodic inspection useful:
the threshold phase gives a window between "detectably degraded" and
"failed".  This ablation re-models the dominant inspectable mode
(ferrous dust) with 1, 2, 4 and 8 phases of identical *mean* lifetime
and a mid-life detection threshold, and measures how much of the
failure rate inspections can still remove.  With a single (memoryless)
phase there is no advance warning at all and the mode's failures go
unprevented.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import default_parameters
from repro.eijoint.strategies import inspection_policy, no_maintenance
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register
from repro.studies import StudyRequest, get_runner

__all__ = ["run", "PHASE_COUNTS"]

#: Phase counts swept for the ferrous_dust mode (same mean lifetime).
PHASE_COUNTS: Sequence[int] = (1, 2, 4, 8)

_MODE = "ferrous_dust"


@register("ablation-phases")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Sweep the phase count of the ferrous-dust degradation model."""
    cfg = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        experiment_id="A2",
        title=f"Ablation: phase count of {_MODE} (same mean lifetime)",
        headers=[
            "phases",
            "threshold",
            "ENF/yr (corrective-only)",
            "ENF/yr (current policy)",
            "prevented",
        ],
    )
    for phases in PHASE_COUNTS:
        if phases == 1:
            # A one-phase mode is memoryless: there is no pre-failure
            # degradation for an inspection to see.
            threshold = None
        else:
            threshold = max(1, phases // 2)
        parameters = default_parameters().with_mode(
            _MODE, phases=phases, threshold=threshold
        )
        tree = build_ei_joint_fmt(parameters)
        runner = get_runner()
        corrective = runner.result(
            StudyRequest(
                tree=tree,
                strategy=no_maintenance(parameters),
                horizon=cfg.horizon,
                seed=cfg.seed,
                n_runs=cfg.n_runs,
                confidence=cfg.confidence,
                kernel=cfg.kernel,
            )
        )
        current = runner.result(
            StudyRequest(
                tree=tree,
                strategy=inspection_policy(4, parameters=parameters),
                horizon=cfg.horizon,
                seed=cfg.seed,
                n_runs=cfg.n_runs,
                confidence=cfg.confidence,
                kernel=cfg.kernel,
            )
        )
        without = corrective.failures_per_year.estimate
        with_insp = current.failures_per_year.estimate
        prevented = (without - with_insp) / without * 100.0 if without > 0 else 0.0
        result.add_row(
            phases,
            threshold if threshold is not None else "-",
            format_ci(corrective.failures_per_year),
            format_ci(current.failures_per_year),
            f"{prevented:.0f}%",
        )
    result.notes.append(
        "more phases = more deterministic degradation = wider detection "
        "window; with 1 phase the mode cannot be caught by inspection"
    )
    return result
