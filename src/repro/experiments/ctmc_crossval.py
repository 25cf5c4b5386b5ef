"""A3 — cross-validation: Monte Carlo simulator vs exact CTMC numerics.

On the Markovian fragment (exponentially timed inspections, zero
planning delay) an FMT is a CTMC, so unreliability and the expected
number of failures have exact solutions.  This experiment builds a
reduced EI-joint submodel — dust degradation, a 2-of-2 bolt gate, and
the bolt->dust rate dependency — and compares the simulator against the
compiled chain on both KPIs.  Agreement within the Monte Carlo
confidence interval validates the simulator's core semantics (phase
jumps, RDEP rescaling, module execution, failure response).
"""

from __future__ import annotations

from typing import Optional

from repro.core.builder import FMTBuilder
from repro.ctmc.compiler import compile_fmt
from repro.experiments.common import ExperimentConfig, ExperimentResult, format_ci
from repro.experiments.registry import register
from repro.maintenance.actions import clean
from repro.maintenance.modules import InspectionModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.studies import StudyRequest, get_runner

__all__ = ["run", "build_submodel"]

_HORIZON = 10.0

#: Confidence level of the comparison intervals.  The experiment checks
#: four KPIs simultaneously against their exact values; at 95% the
#: joint pass probability would be only ~0.81 even for a perfect
#: simulator, so the cross-validation uses 99% intervals.
_CONFIDENCE = 0.99


def build_submodel():
    """A reduced EI-joint: dust OR 2-of-2 bolts, with RDEP and inspection."""
    builder = FMTBuilder("ei_joint_submodel")
    builder.degraded_event("dust", phases=3, mean=6.0, threshold=2)
    builder.basic_event("bolt_a", mean=12.0)
    builder.basic_event("bolt_b", mean=12.0)
    builder.voting_gate("bolts", 2, ["bolt_a", "bolt_b"])
    builder.or_gate("top", ["dust", "bolts"])
    builder.rdep("flex", trigger="bolt_a", targets=["dust"], factor=4.0)
    return builder.build("top")


@register("ctmc-crossval")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Compare CTMC and simulation on unreliability and ENF."""
    cfg = config if config is not None else ExperimentConfig()
    tree = build_submodel()
    inspection = InspectionModule(
        "insp",
        period=1.0,
        targets=["dust"],
        action=clean(),
        timing="exponential",
    )

    result = ExperimentResult(
        experiment_id="A3",
        title="Simulator vs exact CTMC on the Markovian submodel",
        headers=["KPI", "exact (CTMC)", "simulated", "within CI"],
    )

    # Unreliability: absorbing failure.
    absorbing = MaintenanceStrategy(
        "absorbing", inspections=(inspection,), on_system_failure="none"
    )
    compiled = compile_fmt(tree, absorbing, mode="unreliability")
    runner = get_runner()
    sim = runner.result(
        StudyRequest(
            tree=tree,
            strategy=absorbing,
            horizon=_HORIZON,
            seed=cfg.seed,
            n_runs=cfg.n_runs,
            confidence=_CONFIDENCE,
            kernel=cfg.kernel,
        )
    )
    for t in (2.0, 5.0, _HORIZON):
        exact = compiled.unreliability(t)
        if t == _HORIZON:
            interval = sim.unreliability
        else:
            curve = runner.result(
                StudyRequest(
                    tree=tree,
                    strategy=absorbing,
                    horizon=t,
                    seed=cfg.seed + int(t),
                    n_runs=cfg.n_runs,
                    confidence=_CONFIDENCE,
                    kernel=cfg.kernel,
                )
            )
            interval = curve.unreliability
        result.add_row(
            f"unreliability({t:g}y)",
            f"{exact:.4f}",
            format_ci(interval),
            "yes" if interval.contains(exact) else "NO",
        )

    # Expected failures: instantaneous corrective renewal.
    renewing = MaintenanceStrategy(
        "renewing",
        inspections=(inspection,),
        on_system_failure="replace",
        system_repair_time=0.0,
    )
    compiled_avail = compile_fmt(tree, renewing, mode="availability")
    exact_enf = compiled_avail.expected_failures(_HORIZON)
    # The ENF estimator has the widest variance of the compared KPIs;
    # quadruple the replication count so the comparison is sharp.
    sim_enf = runner.result(
        StudyRequest(
            tree=tree,
            strategy=renewing,
            horizon=_HORIZON,
            seed=cfg.seed + 1013,
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
        f"CTMC state space: {compiled.n_states} states (unreliability), "
        f"{compiled_avail.n_states} states (availability); modules use "
        "exponential timing so both engines analyse identical semantics"
    )
    return result
