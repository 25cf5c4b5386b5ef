"""A5 — cross-validation on *deterministic* inspection timing.

A3 validates the simulator against the CTMC compiler, but only on the
exponential-timing approximation.  The EI-joint's real schedule is
periodic, and periodic timing follows a different code path in the
executor (fixed ticks rather than resampled exponentials).  This
experiment validates that path against the exact single-component
periodic-inspection model (piecewise matrix exponentials with a Van
Loan flux integral; see :mod:`repro.analysis.periodic`), including an
imperfect-detection variant.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.periodic import PeriodicInspectionModel
from repro.core.builder import FMTBuilder
from repro.core.events import BasicEvent
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register
from repro.maintenance.actions import clean
from repro.maintenance.modules import InspectionModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.studies import StudyRequest, get_runner

__all__ = ["run"]

_HORIZON = 8.0

#: Confidence of the comparison intervals (several simultaneous checks).
_CONFIDENCE = 0.99


def _setup(detection_probability: float):
    event = BasicEvent.erlang("w", phases=4, mean=4.0, threshold=2)
    module = InspectionModule(
        "i",
        period=0.75,
        targets=["w"],
        action=clean(),
        detection_probability=detection_probability,
    )
    builder = FMTBuilder("periodic_single")
    builder.add_event(event)
    builder.or_gate("top", ["w"])
    return event, module, builder.build("top")


@register("periodic-crossval")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Compare exact periodic analysis and simulation on both KPIs."""
    cfg = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        experiment_id="A5",
        title="Simulator vs exact analysis under periodic inspections",
        headers=["KPI", "exact", "simulated", "within CI"],
    )

    for label, probability in (("", 1.0), (" (detect 60%)", 0.6)):
        event, module, tree = _setup(probability)
        absorbing = MaintenanceStrategy(
            "absorbing", inspections=(module,), on_system_failure="none"
        )
        exact_model = PeriodicInspectionModel(event, module)
        sim = get_runner().result(
            StudyRequest(
                tree=tree,
                strategy=absorbing,
                horizon=_HORIZON,
                seed=cfg.seed,
                n_runs=2 * cfg.n_runs,
                confidence=_CONFIDENCE,
                kernel=cfg.kernel,
            )
        )
        exact = exact_model.unreliability(_HORIZON)
        result.add_row(
            f"unreliability({_HORIZON:g}y){label}",
            f"{exact:.4f}",
            format_ci(sim.unreliability),
            "yes" if sim.unreliability.contains(exact) else "NO",
        )

    event, module, tree = _setup(1.0)
    renewing = MaintenanceStrategy(
        "renewing",
        inspections=(module,),
        on_system_failure="replace",
        system_repair_time=0.0,
    )
    exact_enf = PeriodicInspectionModel(
        event, module, renew_on_failure=True
    ).expected_failures(_HORIZON)
    sim_enf = get_runner().result(
        StudyRequest(
            tree=tree,
            strategy=renewing,
            horizon=_HORIZON,
            seed=cfg.seed + 13,
            n_runs=4 * cfg.n_runs,
            confidence=_CONFIDENCE,
            kernel=cfg.kernel,
        )
    )
    interval = sim_enf.summary.expected_failures
    result.add_row(
        f"E[failures in {_HORIZON:g}y]",
        f"{exact_enf:.4f}",
        format_ci(interval),
        "yes" if interval.contains(exact_enf) else "NO",
    )
    result.notes.append(
        "exact values from piecewise matrix exponentials between "
        "deterministic inspection epochs (Van Loan flux integral); this "
        "validates the executor's periodic-timing path, complementary "
        "to A3's exponential-timing CTMC check"
    )
    return result
