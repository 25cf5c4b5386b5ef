"""Search for cost-optimal maintenance policies.

The paper's central question — *is the current policy cost-optimal?* —
is an optimization over the strategy space.  This module provides a
generic, simulation-driven optimizer over a one-dimensional family of
strategies (e.g. inspection frequency, renewal period):

* :func:`evaluate_strategies` — evaluate a candidate list under a
  common seed (common random numbers reduce comparison variance);
* :func:`optimize_frequency` — golden-section search over a continuous
  strategy parameter with re-evaluation noise handling;
* :class:`PolicyEvaluation` — the per-candidate record (cost with CI,
  ENF, reliability).

The optimizer treats the simulator as a black box; any strategy factory
``parameter -> MaintenanceStrategy`` works, so it applies equally to
custom models built with :class:`~repro.core.builder.FMTBuilder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.tree import FaultMaintenanceTree
from repro.errors import ValidationError
from repro.maintenance.costs import CostModel
from repro.maintenance.strategy import MaintenanceStrategy
from repro.stats.confidence import ConfidenceInterval

__all__ = ["PolicyEvaluation", "evaluate_strategies", "optimize_frequency"]

#: Golden ratio constant for the section search.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PolicyEvaluation:
    """KPIs of one candidate strategy."""

    strategy: MaintenanceStrategy
    parameter: Optional[float]
    cost_per_year: ConfidenceInterval
    failures_per_year: ConfidenceInterval
    reliability: float

    def __str__(self) -> str:
        param = "" if self.parameter is None else f" (x={self.parameter:g})"
        return (
            f"{self.strategy.name}{param}: cost/yr {self.cost_per_year}, "
            f"ENF/yr {self.failures_per_year}"
        )


def evaluate_strategies(
    tree: FaultMaintenanceTree,
    strategies: Sequence[MaintenanceStrategy],
    cost_model: CostModel,
    horizon: float = 50.0,
    n_runs: int = 2000,
    seed: int = 0,
    confidence: float = 0.95,
) -> List[PolicyEvaluation]:
    """Evaluate candidate strategies under common random numbers.

    All candidates share the same root seed, so their trajectories are
    driven by identical random streams where the models coincide —
    differences between candidates are then far less noisy than their
    absolute values.
    """
    from repro.studies import StudyRequest, get_runner

    if not strategies:
        raise ValidationError("no strategies to evaluate")
    evaluations = []
    for strategy in strategies:
        result = get_runner().result(
            StudyRequest(
                tree=tree,
                strategy=strategy,
                horizon=horizon,
                cost_model=cost_model,
                seed=seed,
                n_runs=n_runs,
                confidence=confidence,
            )
        )
        evaluations.append(
            PolicyEvaluation(
                strategy=strategy,
                parameter=None,
                cost_per_year=result.cost_per_year,
                failures_per_year=result.failures_per_year,
                reliability=result.reliability,
            )
        )
    return evaluations


def optimize_frequency(
    tree: FaultMaintenanceTree,
    strategy_factory: Callable[[float], MaintenanceStrategy],
    cost_model: CostModel,
    lower: float,
    upper: float,
    horizon: float = 50.0,
    n_runs: int = 2000,
    seed: int = 0,
    tolerance: float = 0.25,
    max_evaluations: int = 40,
    kernel: str = "object",
) -> PolicyEvaluation:
    """Golden-section search for the cost-minimal strategy parameter.

    Minimises the *point estimate* of the annual cost of
    ``strategy_factory(x)`` over ``x in [lower, upper]``.  Common random
    numbers (a shared seed) make the objective a deterministic function
    of ``x``, so the section search is well defined despite the Monte
    Carlo noise; the returned optimum is accurate to ``tolerance`` in
    the parameter, provided the true cost curve is unimodal (which the
    U-shape of maintenance economics gives).

    Returns
    -------
    PolicyEvaluation
        The best evaluated candidate, with its parameter filled in.
    """
    from repro.studies import StudyRequest, get_runner

    if not lower < upper:
        raise ValidationError(f"need lower < upper, got [{lower}, {upper}]")
    if tolerance <= 0.0:
        raise ValidationError(f"tolerance must be positive, got {tolerance}")

    runner = get_runner()
    evaluations: dict = {}

    def objective(x: float) -> float:
        if x not in evaluations:
            if len(evaluations) >= max_evaluations:
                raise ValidationError(
                    f"optimizer exceeded {max_evaluations} evaluations"
                )
            result = runner.result(
                StudyRequest(
                    tree=tree,
                    strategy=strategy_factory(x),
                    horizon=horizon,
                    cost_model=cost_model,
                    seed=seed,
                    n_runs=n_runs,
                    kernel=kernel,
                )
            )
            evaluations[x] = result
        return evaluations[x].cost_per_year.estimate

    a, b = lower, upper
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    while (b - a) > tolerance:
        if objective(c) < objective(d):
            b, d = d, c
            c = b - _INVPHI * (b - a)
        else:
            a, c = c, d
            d = a + _INVPHI * (b - a)
    best_x = min(evaluations, key=lambda x: evaluations[x].cost_per_year.estimate)
    best = evaluations[best_x]
    return PolicyEvaluation(
        strategy=strategy_factory(best_x),
        parameter=best_x,
        cost_per_year=best.cost_per_year,
        failures_per_year=best.failures_per_year,
        reliability=best.reliability,
    )
