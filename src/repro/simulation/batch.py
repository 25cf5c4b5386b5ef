"""Columnar trajectory batches: KPI material as numpy arrays.

A :class:`TrajectoryBatch` holds everything the KPI estimators in
:mod:`repro.simulation.metrics` consume — first-failure time, failure
count, the packed system-failure times, downtime, the per-category cost
columns and the maintenance-action counters — as flat numpy arrays
instead of one Python :class:`~repro.simulation.trace.Trajectory`
object per run.  Two things follow:

* ``summarize()`` and ``reliability_curve()`` run vectorized over the
  columns (bit-identical to the per-object reference implementation;
  see the module docstring of :mod:`repro.simulation.metrics`);
* a study that does not keep its trajectories holds ~100 bytes per run
  instead of a ~1 kB Python object graph, and worker processes ship a
  handful of arrays over the pipe instead of pickling object lists.

A :class:`TrajectoryAccumulator` builds a batch incrementally as
trajectories are produced (the streaming path used by
:meth:`repro.simulation.montecarlo.MonteCarlo.run` when trajectories
are not kept), or whole worker batches can be folded in with
:meth:`TrajectoryAccumulator.add_batch`.  Component-level *events* are
deliberately not part of a batch — anything that needs the event
stream (``availability_curve``, incident databases) keeps working on
``Trajectory`` objects.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.maintenance.costs import CostBreakdown
from repro.simulation.trace import Trajectory

__all__ = ["TrajectoryBatch", "TrajectoryAccumulator", "COST_FIELDS"]

#: Cost categories carried as batch columns, in
#: :class:`~repro.maintenance.costs.CostBreakdown` field order (the
#: order also fixes the ``total`` summation order — see
#: :attr:`TrajectoryBatch.cost_total`).
COST_FIELDS = ("inspections", "preventive", "corrective", "failures", "downtime")

_COUNT_FIELDS = (
    "n_inspections",
    "n_preventive_actions",
    "n_corrective_replacements",
)


class TrajectoryBatch:
    """KPI-relevant material of many trajectories, as columns.

    Parameters
    ----------
    horizon:
        Common trajectory length in years (a batch never mixes
        horizons).
    failure_times:
        All system-failure times, packed back to back in trajectory
        order (``float64``).
    failure_offsets:
        ``int64`` array of length ``n + 1``; trajectory ``i``'s failure
        times are ``failure_times[failure_offsets[i]:failure_offsets[i + 1]]``.
    downtime:
        Total down years per trajectory (``float64``).
    costs:
        One ``float64`` column per :data:`COST_FIELDS` category.
    n_inspections / n_preventive_actions / n_corrective_replacements:
        ``int64`` counter columns.
    """

    __slots__ = (
        "horizon",
        "failure_times",
        "failure_offsets",
        "downtime",
        "costs",
        "n_inspections",
        "n_preventive_actions",
        "n_corrective_replacements",
    )

    def __init__(
        self,
        horizon: float,
        failure_times: np.ndarray,
        failure_offsets: np.ndarray,
        downtime: np.ndarray,
        costs: Dict[str, np.ndarray],
        n_inspections: np.ndarray,
        n_preventive_actions: np.ndarray,
        n_corrective_replacements: np.ndarray,
    ):
        self.horizon = float(horizon)
        self.failure_times = np.ascontiguousarray(failure_times, dtype=np.float64)
        self.failure_offsets = np.ascontiguousarray(failure_offsets, dtype=np.int64)
        self.downtime = np.ascontiguousarray(downtime, dtype=np.float64)
        self.costs = {
            field: np.ascontiguousarray(costs[field], dtype=np.float64)
            for field in COST_FIELDS
        }
        self.n_inspections = np.ascontiguousarray(n_inspections, dtype=np.int64)
        self.n_preventive_actions = np.ascontiguousarray(
            n_preventive_actions, dtype=np.int64
        )
        self.n_corrective_replacements = np.ascontiguousarray(
            n_corrective_replacements, dtype=np.int64
        )
        self._validate()

    def _validate(self) -> None:
        n = len(self.downtime)
        if len(self.failure_offsets) != n + 1:
            raise ValidationError(
                f"failure_offsets must have length n + 1 = {n + 1}, "
                f"got {len(self.failure_offsets)}"
            )
        if n and (
            self.failure_offsets[0] != 0
            or self.failure_offsets[-1] != len(self.failure_times)
            or np.any(np.diff(self.failure_offsets) < 0)
        ):
            raise ValidationError("failure_offsets are not a valid prefix scan")
        for field in COST_FIELDS:
            if len(self.costs[field]) != n:
                raise ValidationError(
                    f"cost column {field!r} has length "
                    f"{len(self.costs[field])}, expected {n}"
                )
        for field in _COUNT_FIELDS:
            if len(getattr(self, field)) != n:
                raise ValidationError(
                    f"counter column {field!r} has length "
                    f"{len(getattr(self, field))}, expected {n}"
                )

    # ------------------------------------------------------------------
    # Shape and derived columns
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.downtime)

    @property
    def n_runs(self) -> int:
        """Number of trajectories in the batch."""
        return len(self.downtime)

    @property
    def n_failures(self) -> np.ndarray:
        """Per-trajectory system-failure counts (``int64``)."""
        return np.diff(self.failure_offsets)

    @property
    def first_failure(self) -> np.ndarray:
        """First system-failure time per trajectory; ``inf`` if none."""
        counts = self.n_failures
        first = np.full(len(self), np.inf)
        has = counts > 0
        first[has] = self.failure_times[self.failure_offsets[:-1][has]]
        return first

    @property
    def availability(self) -> np.ndarray:
        """Per-trajectory up fraction (same formula as
        :attr:`repro.simulation.trace.Trajectory.availability`)."""
        if self.horizon <= 0.0:
            return np.ones(len(self))
        return np.maximum(0.0, 1.0 - self.downtime / self.horizon)

    @property
    def cost_total(self) -> np.ndarray:
        """Per-trajectory total cost, summed in
        :attr:`~repro.maintenance.costs.CostBreakdown.total` field
        order so the floats match the object path bit-for-bit."""
        total = self.costs["inspections"] + self.costs["preventive"]
        total += self.costs["corrective"]
        total += self.costs["failures"]
        total += self.costs["downtime"]
        return total

    def failure_times_of(self, index: int) -> np.ndarray:
        """View of trajectory ``index``'s system-failure times."""
        start, end = self.failure_offsets[index], self.failure_offsets[index + 1]
        return self.failure_times[start:end]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the batch's columns."""
        arrays: List[np.ndarray] = [
            self.failure_times,
            self.failure_offsets,
            self.downtime,
            self.n_inspections,
            self.n_preventive_actions,
            self.n_corrective_replacements,
        ]
        arrays.extend(self.costs.values())
        return sum(a.nbytes for a in arrays)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_trajectories(
        cls, trajectories: Sequence[Trajectory]
    ) -> "TrajectoryBatch":
        """Convert a trajectory sequence in one pass over the objects.

        Raises
        ------
        ValidationError
            If ``trajectories`` is empty or horizons are inconsistent.
        """
        if not trajectories:
            raise ValidationError(
                "TrajectoryBatch.from_trajectories() needs at least one trajectory"
            )
        horizon = trajectories[0].horizon
        if any(t.horizon != horizon for t in trajectories):
            raise ValidationError("trajectories have inconsistent horizons")
        n = len(trajectories)
        failure_lists = [t.failure_times for t in trajectories]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, failure_lists), dtype=np.int64, count=n),
            out=offsets[1:],
        )
        packed = np.fromiter(
            chain.from_iterable(failure_lists),
            dtype=np.float64,
            count=int(offsets[-1]),
        )
        cost_rows = [t.costs for t in trajectories]
        costs = {
            field: np.fromiter(
                (getattr(c, field) for c in cost_rows), dtype=np.float64, count=n
            )
            for field in COST_FIELDS
        }
        return cls(
            horizon=horizon,
            failure_times=packed,
            failure_offsets=offsets,
            downtime=np.fromiter(
                (t.downtime for t in trajectories), dtype=np.float64, count=n
            ),
            costs=costs,
            n_inspections=np.fromiter(
                (t.n_inspections for t in trajectories), dtype=np.int64, count=n
            ),
            n_preventive_actions=np.fromiter(
                (t.n_preventive_actions for t in trajectories),
                dtype=np.int64,
                count=n,
            ),
            n_corrective_replacements=np.fromiter(
                (t.n_corrective_replacements for t in trajectories),
                dtype=np.int64,
                count=n,
            ),
        )

    def to_trajectories(self) -> List[Trajectory]:
        """Rebuild plain :class:`Trajectory` objects from the columns.

        Events are not part of a batch, so the reconstructed objects
        carry ``events_recorded=False`` — event-dependent consumers
        (``availability_curve``, incident databases) reject them
        rather than silently reporting an always-up system.
        """
        out: List[Trajectory] = []
        offsets = self.failure_offsets
        for i in range(len(self)):
            trajectory = Trajectory(
                horizon=self.horizon, events_recorded=False
            )
            trajectory.failure_times = self.failure_times[
                offsets[i]:offsets[i + 1]
            ].tolist()
            trajectory.downtime = float(self.downtime[i])
            trajectory.costs = CostBreakdown(
                **{field: float(self.costs[field][i]) for field in COST_FIELDS}
            )
            trajectory.n_inspections = int(self.n_inspections[i])
            trajectory.n_preventive_actions = int(self.n_preventive_actions[i])
            trajectory.n_corrective_replacements = int(
                self.n_corrective_replacements[i]
            )
            out.append(trajectory)
        return out

    def head(self, n: int) -> "TrajectoryBatch":
        """A new batch holding copies of the first ``n`` rows."""
        if not 0 <= n <= len(self):
            raise ValidationError(f"head({n}) of a {len(self)}-row batch")
        offsets = self.failure_offsets[: n + 1]
        return TrajectoryBatch(
            horizon=self.horizon,
            failure_times=self.failure_times[: offsets[-1]].copy(),
            failure_offsets=offsets.copy(),
            downtime=self.downtime[:n].copy(),
            costs={field: self.costs[field][:n].copy() for field in COST_FIELDS},
            n_inspections=self.n_inspections[:n].copy(),
            n_preventive_actions=self.n_preventive_actions[:n].copy(),
            n_corrective_replacements=self.n_corrective_replacements[:n].copy(),
        )

    @classmethod
    def merge(cls, batches: Sequence["TrajectoryBatch"]) -> "TrajectoryBatch":
        """Concatenate batches in order (horizons must agree)."""
        if not batches:
            raise ValidationError("TrajectoryBatch.merge() needs at least one batch")
        accumulator = TrajectoryAccumulator(horizon=batches[0].horizon)
        for batch in batches:
            accumulator.add_batch(batch)
        return accumulator.finalize()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrajectoryBatch(n={len(self)}, horizon={self.horizon:g}, "
            f"failures={len(self.failure_times)})"
        )


class TrajectoryAccumulator:
    """Streaming builder of a :class:`TrajectoryBatch`.

    Trajectory objects are reduced to their column scalars as they
    arrive (:meth:`add`) and can then be garbage collected — the
    accumulator's resident size is the columns themselves, independent
    of how expensive the trajectories were to produce.  Worker batches
    fold in wholesale via :meth:`add_batch` (a ``memcpy``, no Python
    per-trajectory work).

    ``horizon`` may be pinned at construction or inferred from the
    first trajectory; a mismatching later horizon raises, mirroring
    :func:`repro.simulation.metrics.summarize`.
    """

    def __init__(self, horizon: Optional[float] = None):
        self._horizon = None if horizon is None else float(horizon)
        self._failure_times = array("d")
        self._lengths = array("q")
        self._downtime = array("d")
        self._costs = {field: array("d") for field in COST_FIELDS}
        self._counts = {field: array("q") for field in _COUNT_FIELDS}

    def __len__(self) -> int:
        return len(self._downtime)

    @property
    def horizon(self) -> Optional[float]:
        """The pinned/inferred horizon, or None while still empty."""
        return self._horizon

    def _check_horizon(self, horizon: float) -> None:
        if self._horizon is None:
            self._horizon = float(horizon)
        elif horizon != self._horizon:
            raise ValidationError("trajectories have inconsistent horizons")

    def add(self, trajectory: Trajectory) -> None:
        """Fold one trajectory's KPI material into the columns."""
        self._check_horizon(trajectory.horizon)
        times = trajectory.failure_times
        self._lengths.append(len(times))
        if times:
            self._failure_times.extend(times)
        self._downtime.append(trajectory.downtime)
        costs = trajectory.costs
        columns = self._costs
        columns["inspections"].append(costs.inspections)
        columns["preventive"].append(costs.preventive)
        columns["corrective"].append(costs.corrective)
        columns["failures"].append(costs.failures)
        columns["downtime"].append(costs.downtime)
        counts = self._counts
        counts["n_inspections"].append(trajectory.n_inspections)
        counts["n_preventive_actions"].append(trajectory.n_preventive_actions)
        counts["n_corrective_replacements"].append(
            trajectory.n_corrective_replacements
        )

    def extend(self, trajectories: Iterable[Trajectory]) -> None:
        """Fold many trajectories (see :meth:`add`)."""
        for trajectory in trajectories:
            self.add(trajectory)

    def add_batch(self, batch: TrajectoryBatch) -> None:
        """Fold a whole batch in (columns are appended via memcpy)."""
        if len(batch) == 0:
            return
        self._check_horizon(batch.horizon)
        self._failure_times.frombytes(batch.failure_times.tobytes())
        self._lengths.frombytes(batch.n_failures.tobytes())
        self._downtime.frombytes(batch.downtime.tobytes())
        for field in COST_FIELDS:
            self._costs[field].frombytes(batch.costs[field].tobytes())
        for field in _COUNT_FIELDS:
            self._counts[field].frombytes(getattr(batch, field).tobytes())

    def build(self) -> TrajectoryBatch:
        """Materialize the accumulated columns as a batch.

        The accumulator stays usable afterwards (the batch owns copies
        of the columns); the build transiently holds both the growable
        buffers and their numpy copies — use :meth:`finalize` when the
        accumulator is done for a peak of one representation only.
        """
        return self._materialize(destructive=False)

    def finalize(self) -> TrajectoryBatch:
        """Materialize destructively: each column buffer is released as
        soon as it has been copied, so the peak footprint is one
        representation plus a single column instead of two full
        representations.  The accumulator comes out empty (the horizon
        stays pinned) and may keep accumulating afterwards.
        """
        return self._materialize(destructive=True)

    def _materialize(self, destructive: bool) -> TrajectoryBatch:
        if self._horizon is None:
            raise ValidationError(
                "cannot build an empty batch without a pinned horizon"
            )
        n = len(self._downtime)

        def take(holder, key, dtype, fresh):
            column = np.array(holder[key], dtype=dtype)
            if destructive:
                holder[key] = array(fresh)
            return column

        scalars = {
            "lengths": self._lengths,
            "failure_times": self._failure_times,
            "downtime": self._downtime,
        }
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(take(scalars, "lengths", np.int64, "q"), out=offsets[1:])
        failure_times = take(scalars, "failure_times", np.float64, "d")
        downtime = take(scalars, "downtime", np.float64, "d")
        if destructive:
            self._lengths = scalars["lengths"]
            self._failure_times = scalars["failure_times"]
            self._downtime = scalars["downtime"]
        costs = {
            field: take(self._costs, field, np.float64, "d")
            for field in COST_FIELDS
        }
        counts = {
            field: take(self._counts, field, np.int64, "q")
            for field in _COUNT_FIELDS
        }
        return TrajectoryBatch(
            horizon=self._horizon,
            failure_times=failure_times,
            failure_offsets=offsets,
            downtime=downtime,
            costs=costs,
            n_inspections=counts["n_inspections"],
            n_preventive_actions=counts["n_preventive_actions"],
            n_corrective_replacements=counts["n_corrective_replacements"],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        horizon = "?" if self._horizon is None else f"{self._horizon:g}"
        return f"TrajectoryAccumulator(n={len(self)}, horizon={horizon})"
