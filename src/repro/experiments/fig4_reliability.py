"""F4 — system reliability over time per maintenance strategy.

Regenerates the reliability-curve figure: the probability that the
joint has not yet caused a service-affecting failure, as a function of
time, for representative strategies.  More frequent inspection shifts
the whole curve up; the unmaintained joint decays fastest.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint import strategies as s
from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.experiments.registry import register
from repro.studies import StudyRequest, get_runner

__all__ = ["run", "CURVE_STRATEGIES"]

#: Strategy constructors plotted in the figure, in legend order.
CURVE_STRATEGIES = (
    ("unmaintained", s.unmaintained),
    ("corrective-only", s.no_maintenance),
    ("inspect-1x", lambda: s.inspection_policy(1)),
    ("current-policy(4x)", s.current_policy),
    ("inspect-12x", lambda: s.inspection_policy(12)),
)


@register("fig4")
def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Estimate survival curves on a common time grid."""
    cfg = config if config is not None else ExperimentConfig()
    runner = get_runner()
    tree = build_ei_joint_fmt()
    grid = [float(t) for t in np.linspace(0.0, cfg.horizon, 11)]

    curves: List[List[float]] = []
    for _, make_strategy in CURVE_STRATEGIES:
        request = StudyRequest(
            tree=tree,
            strategy=make_strategy(),
            horizon=cfg.horizon,
            seed=cfg.seed,
            n_runs=cfg.n_runs,
            confidence=cfg.confidence,
            kernel=cfg.kernel,
        )
        _, intervals = runner.reliability_curve(request, grid)
        curves.append([interval.estimate for interval in intervals])

    result = ExperimentResult(
        experiment_id="F4",
        title="System reliability R(t) per maintenance strategy",
        headers=["t [y]"] + [name for name, _ in CURVE_STRATEGIES],
    )
    for i, t in enumerate(grid):
        result.add_row(
            f"{t:g}", *(f"{curve[i]:.3f}" for curve in curves)
        )
    result.notes.append(
        f"{cfg.n_runs} trajectories per strategy, horizon {cfg.horizon:g}y; "
        "R(t) = P(no system failure up to t)"
    )
    return result
