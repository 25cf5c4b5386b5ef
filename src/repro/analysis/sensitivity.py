"""Parameter sensitivity analysis of simulation KPIs.

The paper stresses that "the faithfulness of quantitative analyses
heavily depend on the accuracy of the parameter values".  This module
quantifies that dependence: it perturbs one model parameter at a time
(a failure mode's mean lifetime, an RDEP factor, the cost of failure)
and measures the induced change in a KPI — producing the data for a
classical tornado diagram.

The perturbation runs under common random numbers (a shared seed), so
KPI *differences* are estimated far more precisely than the KPI levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.tree import FaultMaintenanceTree
from repro.errors import ValidationError
from repro.maintenance.costs import CostModel
from repro.maintenance.strategy import MaintenanceStrategy
from repro.simulation.montecarlo import MonteCarloResult

__all__ = ["SensitivityEntry", "tornado", "kpi_enf", "kpi_cost", "kpi_unreliability"]


@dataclass(frozen=True)
class SensitivityEntry:
    """Effect of one parameter's perturbation on a KPI."""

    parameter: str
    baseline: float
    low_value: float
    high_value: float

    @property
    def swing(self) -> float:
        """Absolute KPI swing between the low and high perturbation."""
        return abs(self.high_value - self.low_value)

    @property
    def relative_swing(self) -> float:
        """Swing relative to the baseline KPI (``inf`` for baseline 0)."""
        if self.baseline == 0.0:
            return float("inf")
        return self.swing / abs(self.baseline)


def kpi_enf(result: MonteCarloResult) -> float:
    """KPI extractor: expected failures per year."""
    return result.failures_per_year.estimate


def kpi_cost(result: MonteCarloResult) -> float:
    """KPI extractor: expected cost per year."""
    return result.cost_per_year.estimate


def kpi_unreliability(result: MonteCarloResult) -> float:
    """KPI extractor: probability of failure within the horizon."""
    return result.unreliability.estimate


def tornado(
    model_factory: Callable[[str, float], FaultMaintenanceTree],
    parameters: Sequence[str],
    strategy: MaintenanceStrategy,
    kpi: Callable[[MonteCarloResult], float] = kpi_enf,
    factor: float = 1.5,
    cost_model: Optional[CostModel] = None,
    horizon: float = 50.0,
    n_runs: int = 1000,
    seed: int = 0,
    kernel: str = "object",
) -> List[SensitivityEntry]:
    """One-at-a-time sensitivity of a KPI to model parameters.

    Parameters
    ----------
    model_factory:
        ``(parameter_name, multiplier) -> tree``.  Called with
        multiplier 1.0 for the baseline and ``1/factor`` / ``factor``
        for the perturbations; the factory decides what the multiplier
        scales (typically the named mode's mean lifetime).
    parameters:
        Parameter names to perturb, one at a time.
    factor:
        Multiplicative perturbation (> 1), applied both ways.
    kernel:
        Sampling kernel of every study (``"auto"`` lets the study
        runner route them; see :meth:`repro.studies.StudyRunner.resolve`).

    Returns
    -------
    list of :class:`SensitivityEntry`, sorted by descending swing.
    """
    from repro.studies import StudyRequest, get_runner

    if factor <= 1.0:
        raise ValidationError(f"factor must be > 1, got {factor}")
    if not parameters:
        raise ValidationError("no parameters to perturb")

    runner = get_runner()

    def evaluate(name: str, multiplier: float) -> float:
        tree = model_factory(name, multiplier)
        result = runner.result(
            StudyRequest(
                tree=tree,
                strategy=strategy,
                horizon=horizon,
                cost_model=cost_model,
                seed=seed,
                n_runs=n_runs,
                kernel=kernel,
            )
        )
        return kpi(result)

    baseline = evaluate(parameters[0], 1.0)
    entries = []
    for name in parameters:
        entries.append(
            SensitivityEntry(
                parameter=name,
                baseline=baseline,
                low_value=evaluate(name, 1.0 / factor),
                high_value=evaluate(name, factor),
            )
        )
    return sorted(entries, key=lambda entry: entry.swing, reverse=True)
