"""Fleet-level analysis: from one joint to the national failure count.

The paper's validation works at system level: the infrastructure
manager observes failure counts over a *fleet* of thousands of joints
with heterogeneous traffic loads.  This module models that
heterogeneity with traffic classes — each class scales the
usage-driven degradation rates — and aggregates per-joint KPIs into
fleet-level expectations.

Usage-driven failure modes (wear from passing trains: dust deposition,
metal overflow, bolt fatigue, glue degradation, rail break) scale with
traffic intensity; environmental modes (conductive pollution, endpost
material defects) do not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import EIJointParameters, default_parameters
from repro.errors import ValidationError
from repro.maintenance.strategy import MaintenanceStrategy
from repro.stats.confidence import ConfidenceInterval

__all__ = [
    "TrafficClass",
    "DEFAULT_TRAFFIC_MIX",
    "USAGE_DRIVEN_MODES",
    "scale_parameters",
    "FleetClassResult",
    "fleet_failures_per_year",
]

#: Failure modes whose degradation speed scales with traffic load.
USAGE_DRIVEN_MODES: Tuple[str, ...] = (
    "ferrous_dust",
    "metal_overflow",
    "glue_failure",
    "bolt_1",
    "bolt_2",
    "bolt_3",
    "bolt_4",
    "rail_end_break",
    "fishplate_crack",
)


@dataclass(frozen=True)
class TrafficClass:
    """A slice of the fleet with a common traffic intensity.

    ``intensity`` multiplies the degradation *rates* of the
    usage-driven modes (1.0 = the reference joint the base parameters
    describe); ``fraction`` is the class's share of the fleet.
    """

    name: str
    fraction: float
    intensity: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValidationError(
                f"{self.name}: fraction must be in (0, 1], got {self.fraction}"
            )
        if self.intensity <= 0.0:
            raise ValidationError(
                f"{self.name}: intensity must be positive, got {self.intensity}"
            )


#: A plausible national mix: mostly medium traffic, some quiet branch
#: lines, a heavy-haul core.
DEFAULT_TRAFFIC_MIX: Tuple[TrafficClass, ...] = (
    TrafficClass("branch-line", fraction=0.3, intensity=0.6),
    TrafficClass("main-line", fraction=0.5, intensity=1.0),
    TrafficClass("heavy-haul", fraction=0.2, intensity=1.6),
)


def scale_parameters(
    parameters: EIJointParameters, intensity: float
) -> EIJointParameters:
    """Scale the usage-driven modes' degradation by ``intensity``.

    Rates scale linearly with traffic, so mean lifetimes divide by the
    intensity; phase counts and thresholds are structural and stay.
    """
    if intensity <= 0.0:
        raise ValidationError(f"intensity must be positive, got {intensity}")
    scaled = parameters
    for mode in parameters.modes:
        if mode.name in USAGE_DRIVEN_MODES:
            scaled = scaled.with_mode(
                mode.name, mean_lifetime=mode.mean_lifetime / intensity
            )
    return scaled


@dataclass(frozen=True)
class FleetClassResult:
    """Per-traffic-class simulation outcome."""

    traffic_class: TrafficClass
    failures_per_joint_year: ConfidenceInterval

    @property
    def weighted_rate(self) -> float:
        """Class contribution to the fleet rate (fraction-weighted)."""
        return (
            self.traffic_class.fraction
            * self.failures_per_joint_year.estimate
        )


def fleet_failures_per_year(
    strategy_factory: Callable[[EIJointParameters], MaintenanceStrategy],
    mix: Sequence[TrafficClass] = DEFAULT_TRAFFIC_MIX,
    parameters: Optional[EIJointParameters] = None,
    fleet_size: int = 50_000,
    horizon: float = 25.0,
    n_runs: int = 1000,
    seed: int = 0,
    kernel: str = "object",
) -> Tuple[List[FleetClassResult], float]:
    """Expected fleet-wide system failures per year.

    Parameters
    ----------
    strategy_factory:
        Builds the maintenance strategy for a class's parameters (the
        same policy normally applies fleet-wide, but repair times may
        depend on the parameters object).
    mix:
        The traffic classes; fractions must sum to 1.
    fleet_size:
        Number of joints in the fleet.
    kernel:
        Sampling kernel of every class's study (``"auto"`` lets the
        study runner route them).

    Returns
    -------
    (per_class, fleet_total):
        Per-class results and the expected number of service-affecting
        failures per year over the whole fleet.
    """
    from repro.studies import StudyRequest, get_runner

    total_fraction = sum(cls.fraction for cls in mix)
    if abs(total_fraction - 1.0) > 1e-9:
        raise ValidationError(
            f"traffic-class fractions sum to {total_fraction}, expected 1"
        )
    if fleet_size < 1:
        raise ValidationError(f"fleet_size must be >= 1, got {fleet_size}")
    parameters = parameters if parameters is not None else default_parameters()

    results: List[FleetClassResult] = []
    for offset, traffic_class in enumerate(mix):
        class_parameters = scale_parameters(parameters, traffic_class.intensity)
        tree = build_ei_joint_fmt(class_parameters)
        strategy = strategy_factory(class_parameters)
        sim = get_runner().result(
            StudyRequest(
                tree=tree,
                strategy=strategy,
                horizon=horizon,
                seed=seed + offset,
                n_runs=n_runs,
                kernel=kernel,
            )
        )
        results.append(
            FleetClassResult(
                traffic_class=traffic_class,
                failures_per_joint_year=sim.failures_per_year,
            )
        )
    per_joint_rate = sum(result.weighted_rate for result in results)
    return results, per_joint_rate * fleet_size
