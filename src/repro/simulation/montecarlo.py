"""Monte Carlo replication driver with confidence intervals.

:class:`MonteCarlo` owns the reproducibility story.  A single integer
seed expands via :class:`numpy.random.SeedSequence` into child RNG
streams, and :meth:`MonteCarlo._plan` is the one place that spawns
them: it cuts a run into a chunk plan, spawning each chunk's streams
in order when the chunk is made.  A lockstep chunk
(:func:`~repro.simulation.vectorized.lockstep_plan`) is
``chunk_trajectories`` rows on one stream, so lockstep results are
reproducible for a fixed seed and chunk size.  An object-engine chunk
is a run of per-trajectory streams, so object results are invariant
to how the run is chunked.

Two modes mirror the statistical model-checking workflow the paper's
analyses used: a fixed replication count (:meth:`MonteCarlo.run`) and
sequential estimation to a target relative precision
(:meth:`MonteCarlo.run_to_precision`).

One private driver, :meth:`MonteCarlo._drive`, runs every plan: chunk
source (in-process through :func:`~repro.simulation.parallel.
_simulate_chunk`, or the pool) → one sink (a
:class:`~repro.simulation.batch.TrajectoryAccumulator`) → one progress
hook, with an optional stop rule.  :meth:`~MonteCarlo.run`,
:meth:`~MonteCarlo.run_parallel`, :meth:`~MonteCarlo.run_to_precision`,
:meth:`~MonteCarlo.sample` and :meth:`~MonteCarlo.sample_batch` are
thin wrappers over it, so serial and pooled runs are bit-identical at
any process count, watched runs equal silent ones, and a sequential
run's rows are a prefix of the fixed-count run's rows.
"""

from __future__ import annotations

import time as _time
import warnings
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.tree import FaultMaintenanceTree
from repro.errors import ValidationError
from repro.maintenance.costs import CostModel
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import instrumentation as _obs
from repro.observability import spans as _spans
from repro.observability.instrumentation import Instrumentation
from repro.observability.logging_setup import get_logger, kv
from repro.observability.progress import (
    ProgressEvent,
    ProgressReporter,
    current_progress,
)
from repro.simulation import parallel
from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.executor import (
    DEFAULT_CHUNK_TRAJECTORIES,
    FMTSimulator,
    SimulationConfig,
)
from repro.simulation.metrics import (
    KpiSummary,
    reliability_curve,
    summarize,
)
from repro.simulation.trace import Trajectory
from repro.simulation.vectorized import lockstep_plan, vectorized_fallback_reason
from repro.stats.confidence import ConfidenceInterval
from repro.stats.sequential import RelativePrecisionRule, RunningStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.rareevent.estimator import RareEventConfig, RareEventResult

__all__ = ["MonteCarlo", "MonteCarloResult"]

logger = get_logger(__name__)

#: Statistics :meth:`MonteCarlo.run_to_precision` can control: the
#: per-trajectory value, read from the columns of a
#: :class:`~repro.simulation.batch.TrajectoryBatch` (the same floats
#: the trajectory objects give).
_TARGETS = {
    "failures": lambda b: b.n_failures.astype(np.float64),
    "unreliability": lambda b: (b.n_failures > 0).astype(np.float64),
    "cost": lambda b: b.cost_total,
}


@dataclass(frozen=True)
class MonteCarloResult:
    """Result of a Monte Carlo study: KPIs plus optional raw material.

    ``trajectories`` carries the full objects only when the study was
    run with ``keep_trajectories=True``.  ``batch`` carries the packed
    KPI columns (:class:`~repro.simulation.batch.TrajectoryBatch`) of
    every driver run — enough for :meth:`reliability_at` and further
    aggregation at a small fraction of the object list's footprint.
    """

    summary: KpiSummary
    trajectories: Optional[Tuple[Trajectory, ...]] = None
    batch: Optional[TrajectoryBatch] = None

    # Convenience pass-throughs used everywhere in the experiments.
    @property
    def n_runs(self) -> int:
        """Number of trajectories the KPIs summarize."""
        return self.summary.n_runs

    @property
    def unreliability(self) -> ConfidenceInterval:
        """P(failure within horizon), with CI."""
        return self.summary.unreliability

    @property
    def reliability(self) -> float:
        """1 - unreliability point estimate."""
        return self.summary.reliability

    @property
    def failures_per_year(self) -> ConfidenceInterval:
        """Expected number of system failures per year, with CI."""
        return self.summary.failures_per_year

    @property
    def availability(self) -> ConfidenceInterval:
        """Mean fraction of time the system is up, with CI."""
        return self.summary.availability

    @property
    def cost_per_year(self) -> ConfidenceInterval:
        """Expected annual total cost, with CI."""
        return self.summary.cost_per_year

    def reliability_at(
        self, times: Sequence[float], confidence: float = 0.95
    ) -> Tuple[np.ndarray, list]:
        """Survival curve on a grid (from kept trajectories or the batch)."""
        if self.trajectories is not None:
            return reliability_curve(self.trajectories, times, confidence)
        if self.batch is not None:
            return reliability_curve(self.batch, times, confidence)
        raise ValidationError(
            "reliability_at() needs the run's raw material (a trajectory "
            "batch or keep_trajectories=True in run())"
        )


class MonteCarlo:
    """Replicated simulation of one (model, strategy) pair.

    Parameters
    ----------
    tree:
        The fault maintenance tree (maintenance modules on the tree are
        replaced by the strategy's).
    strategy:
        Maintenance strategy to apply; defaults to corrective-only.
    horizon:
        Trajectory length in years.
    cost_model:
        Cost model for the cost KPI; optional.
    seed:
        Root seed; child streams are spawned from it in order, one per
        object-engine trajectory or one per lockstep chunk.
    record_events:
        Forwarded to :class:`~repro.simulation.executor.SimulationConfig`.
    instrumentation:
        Optional :class:`~repro.observability.instrumentation.Instrumentation`
        collecting simulation counters plus the ``sim.simulate.seconds``
        (object-engine trajectories), ``sim.chunk.seconds`` (lockstep
        chunks) and ``mc.summarize.seconds`` timers.  Observational
        only — KPIs are bit-identical with or without it.  Falls back to the
        ambient instrumentation (:func:`repro.observability.current`)
        when None.
    simulator:
        Validated :class:`~repro.simulation.executor.FMTSimulator`
        prototype to clone instead of building one from ``tree`` and
        ``strategy`` — skips strategy application and tree validation,
        which dominate setup cost when many studies share one model
        (see :class:`repro.studies.runner.StudyRunner`).  Mutually
        exclusive with ``tree``/``strategy``/``cost_model``;
        ``horizon``, if given, must agree with the prototype's.
        Results are bit-identical to the equivalent ``tree`` +
        ``strategy`` construction.
    kernel:
        Trajectory sampler for the batch drivers (:meth:`run`,
        :meth:`run_parallel`, :meth:`run_to_precision`): ``"object"``
        or ``"vectorized"`` (see
        :class:`~repro.simulation.executor.SimulationConfig`).  ``None``
        (the default) keeps the prototype's kernel, or ``"object"``
        when building from a tree.  Models with a
        :func:`~repro.simulation.vectorized.vectorized_fallback_reason`
        run on the object engine either way.  The per-trajectory entry
        points (:meth:`sample`, :meth:`sample_batch`, rare-event
        estimation) always use the object engine.
    chunk_trajectories:
        Lockstep chunk size for the vectorized kernel (see
        :class:`~repro.simulation.executor.SimulationConfig`).  ``None``
        (the default) keeps the prototype's / config default value.
    """

    def __init__(
        self,
        tree: Optional[FaultMaintenanceTree] = None,
        strategy: Optional[MaintenanceStrategy] = None,
        horizon: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        record_events: bool = False,
        instrumentation: Optional[Instrumentation] = None,
        rare_event: Optional["RareEventConfig"] = None,
        simulator: Optional[FMTSimulator] = None,
        kernel: Optional[str] = None,
        chunk_trajectories: Optional[int] = None,
    ):
        if simulator is not None:
            if tree is not None or strategy is not None or cost_model is not None:
                raise ValidationError(
                    "simulator= is mutually exclusive with tree/strategy/cost_model"
                )
            config = simulator.config
            if horizon is not None and horizon != config.horizon:
                raise ValidationError(
                    f"horizon={horizon:g} conflicts with the prototype's "
                    f"horizon {config.horizon:g}"
                )
            if record_events and not config.record_events:
                raise ValidationError(
                    "record_events=True conflicts with the prototype's "
                    "record_events=False configuration"
                )
            self.simulator = simulator.clone()
            overrides = {}
            if (
                instrumentation is not None
                and instrumentation is not config.instrumentation
            ):
                overrides["instrumentation"] = instrumentation
            if kernel is not None and kernel != config.kernel:
                overrides["kernel"] = kernel
            if (
                chunk_trajectories is not None
                and chunk_trajectories != config.chunk_trajectories
            ):
                overrides["chunk_trajectories"] = chunk_trajectories
            if overrides:
                # replace() re-runs config validation, so an invalid
                # kernel or kernel/record_events conflict raises here.
                self.simulator.config = replace(config, **overrides)
        else:
            if tree is None:
                raise ValidationError("give either tree= or simulator=")
            config = SimulationConfig(
                horizon=horizon if horizon is not None else 10.0,
                cost_model=cost_model if cost_model is not None else CostModel(),
                record_events=record_events,
                instrumentation=instrumentation,
                kernel=kernel if kernel is not None else "object",
                chunk_trajectories=(
                    chunk_trajectories
                    if chunk_trajectories is not None
                    else DEFAULT_CHUNK_TRAJECTORIES
                ),
            )
            self.simulator = FMTSimulator(tree, strategy, config=config)
        self.instrumentation = instrumentation
        self.seed = seed
        # Stored only; consumed exclusively by run_rare_event().  The
        # constructor performs no RNG activity for it, so crude-MC runs
        # are bit-identical with the subsystem configured but unused.
        self.rare_event = rare_event
        self._seed_sequence = np.random.SeedSequence(seed)

    @property
    def horizon(self) -> float:
        """Trajectory length in years."""
        return self.simulator.config.horizon

    @property
    def _streams_used(self) -> int:
        """Child seed streams this driver has spawned so far."""
        return self._seed_sequence.n_children_spawned

    def _plan(
        self, n_runs: Optional[int], lockstep: bool, object_chunk: int
    ) -> Iterator[parallel._Chunk]:
        """This driver's chunk plan on its next child streams, the one
        seed path (``n_runs=None``: endless).  A lockstep chunk is one
        stream (:func:`~repro.simulation.vectorized.lockstep_plan`), an
        object-engine chunk ``object_chunk`` per-trajectory streams;
        a chunk's streams are spawned, in order, when it is made."""
        if lockstep:
            return lockstep_plan(
                self._seed_sequence, self.simulator.config.chunk_trajectories, n_runs
            )

        def objects() -> Iterator[Tuple[np.random.SeedSequence, ...]]:
            done = 0
            while n_runs is None or done < n_runs:
                size = object_chunk
                if n_runs is not None:
                    size = min(size, n_runs - done)
                yield tuple(self._seed_sequence.spawn(size))
                done += size

        return objects()

    def _lockstep(self) -> bool:
        """Whether the batch drivers run on the lockstep kernel:
        ``kernel="vectorized"`` on a model with no fallback reason."""
        return (
            self.simulator.config.kernel == "vectorized"
            and vectorized_fallback_reason(self.simulator) is None
        )

    def _resolve_instrumentation(self) -> Optional[Instrumentation]:
        """Explicit instrumentation, else the simulator's, else ambient."""
        if self.instrumentation is not None:
            return self.instrumentation
        config_instrumentation = self.simulator.config.instrumentation
        if config_instrumentation is not None:
            return config_instrumentation
        return _obs.current()

    @staticmethod
    def _resolve_progress(
        progress: Optional[ProgressReporter],
    ) -> Optional[ProgressReporter]:
        """Explicit reporter, else the ambient one, else None."""
        return progress if progress is not None else current_progress()

    @staticmethod
    def _progress_step(n_runs: int) -> int:
        """Trajectories between progress events for an n-run study."""
        return max(1, min(1000, n_runs // 50))

    def _drive(
        self,
        n_runs: Optional[int],
        keep_trajectories: bool = False,
        reporter: Optional[ProgressReporter] = None,
        phase: str = "mc.run",
        lockstep: bool = False,
        processes: int = 1,
        pool: Optional[parallel.SharedSimulationPool] = None,
        stop: Optional["_StopRule"] = None,
    ) -> Tuple[TrajectoryBatch, Optional[List[Trajectory]]]:
        """The one Monte Carlo loop: plan → chunk source → sink.

        Object-engine chunks are ``stop.batch_size`` trajectories on an
        endless plan, four per worker when pooled, else one progress
        step.  In-process chunks run through ``parallel._simulate_chunk``
        into one accumulator, and ``stop`` sees each chunk's rows;
        pooled plans go through ``parallel.sample_parallel_batch``.
        Returns the batch, plus the trajectory objects when events are
        recorded and kept (a batch does not carry them).
        """
        if n_runs is not None and n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
        if n_runs is None:
            size = stop.batch_size
        elif processes > 1:
            size = n_runs // (4 * processes)
        else:
            size = self._progress_step(n_runs)
        plan = self._plan(n_runs, lockstep, max(1, size))
        hook = None if reporter is None else _Progress(reporter, phase, n_runs)
        keep_objects = keep_trajectories and self.simulator.config.record_events
        if processes > 1:
            context = _spans.current_context()
            telemetry = parallel.WorkerTelemetry(
                instrumentation=self._resolve_instrumentation(),
                collector=_spans.current_collector(),
                span_parent=None if context is None else context.to_dict(),
                progress=None if hook is None else hook.advance,
            )
            chunks = list(plan)
            if keep_objects:
                objects = parallel.sample_parallel(
                    self.simulator, chunks, processes, pool=pool, telemetry=telemetry
                )
                return TrajectoryBatch.from_trajectories(objects), objects
            batch = parallel.sample_parallel_batch(
                self.simulator, chunks, processes, pool=pool, telemetry=telemetry
            )
            return batch, None
        model = parallel._CachedModel(self.simulator)
        instr = self._resolve_instrumentation()
        accumulator = TrajectoryAccumulator(horizon=self.horizon)
        objects = [] if keep_objects else None
        for chunk in plan:
            within = None if hook is None else hook.within(len(chunk))
            rows = parallel._simulate_chunk(model, chunk, instr, within)
            if not isinstance(rows, TrajectoryBatch):
                if objects is not None:
                    objects.extend(rows)
                rows = TrajectoryBatch.from_trajectories(rows)
            accumulator.add_batch(rows)
            if hook is not None:
                hook.advance(len(chunk))
            if stop is not None and stop.observe(rows):
                break
        return accumulator.finalize(), objects

    def _result(
        self,
        batch: TrajectoryBatch,
        objects: Optional[List[Trajectory]],
        confidence: float,
        keep_trajectories: bool,
    ) -> MonteCarloResult:
        """Result carrying ``batch`` and, if kept, the trajectories (the
        recorded objects, else objects rebuilt from the batch)."""
        summary = self._summarize(batch, confidence)
        if not keep_trajectories:
            return MonteCarloResult(summary=summary, batch=batch)
        if objects is None:
            objects = batch.to_trajectories()
        return MonteCarloResult(
            summary=summary, trajectories=tuple(objects), batch=batch
        )

    def _summarize(self, batch: TrajectoryBatch, confidence: float) -> KpiSummary:
        """KPI aggregation, timed when instrumentation is active."""
        instr = self._resolve_instrumentation()
        if instr is None:
            return summarize(batch, confidence)
        with instr.timer(_obs.TIMER_SUMMARIZE).time():
            return summarize(batch, confidence)

    def sample(self, n_runs: int) -> List[Trajectory]:
        """Simulate ``n_runs`` fresh object-engine trajectories, raw
        (rebuilt from the batch columns, ``==``, unless events are
        recorded)."""
        batch, objects = self._drive(n_runs, keep_trajectories=True)
        return objects if objects is not None else batch.to_trajectories()

    def sample_batch(self, n_runs: int) -> TrajectoryBatch:
        """Simulate ``n_runs`` fresh trajectories as packed batch columns.

        Consumes exactly the same child seed streams as :meth:`sample`,
        streamed chunk by chunk into one accumulator — resident memory
        stays O(columns) instead of O(n_runs) objects.  The resulting
        batch yields KPIs bit-identical to ``sample``'s object list.
        """
        return self._drive(n_runs)[0]

    def run_parallel(
        self,
        n_runs: int,
        processes: Optional[int] = None,
        confidence: float = 0.95,
        keep_trajectories: bool = False,
        pool: Optional[parallel.SharedSimulationPool] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> MonteCarloResult:
        """Like :meth:`run`, fanned out over worker processes.

        The chunk plan (:meth:`_plan`) is the serial :meth:`run`'s from
        the same driver state, so the results are bit-identical on both
        kernels, at any process count, on a shared pool or not —
        parallelism is purely a wall-clock optimization.  Each worker
        task is one whole plan chunk, folded back in plan order.

        ``processes=None`` (the default) picks a sensible fan-out from
        the schedulable CPU count, capped so a small study does not pay
        the startup cost of idle workers; explicit values must be >= 1.
        Passing a :class:`~repro.simulation.parallel.SharedSimulationPool`
        reuses its workers instead of spawning a pool scoped to the call
        (the pool's size then wins over ``processes``).

        The raw material comes back as a :class:`~repro.simulation.
        batch.TrajectoryBatch` on the result, and ``keep_trajectories=
        True`` rebuilds the objects from it.  The one exception is a
        driver with ``record_events=True`` that keeps its trajectories:
        the events are not in a batch, so its workers ship the objects
        (:func:`~repro.simulation.parallel.sample_parallel`).

        With telemetry attached — instrumentation (explicit or
        ambient) or an ambient span collector — each worker chunk runs
        under a ``worker.chunk`` span parented to this call's
        ``mc.run_parallel`` span and ships its metrics registry back
        for merging, so parallel profiles report worker-side counters
        and per-worker ``sim.worker.<n>.*`` utilization gauges.  A
        progress reporter gets an event per folded chunk.  All of it is
        passive: results stay bit-identical.
        """
        if pool is not None:
            processes = pool.processes
        elif processes is None:
            processes = parallel.default_process_count(n_runs)
        elif processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        logger.info(kv("run_parallel fan-out", processes=processes, runs=n_runs))
        with _spans.span(
            "mc.run_parallel", {"n_runs": n_runs, "processes": processes}
        ):
            batch, objects = self._drive(
                n_runs, keep_trajectories, self._resolve_progress(progress),
                "mc.run_parallel", self._lockstep(), processes, pool,
            )
            return self._result(batch, objects, confidence, keep_trajectories)

    def run(
        self,
        n_runs: int,
        confidence: float = 0.95,
        keep_trajectories: bool = False,
        progress: Optional[ProgressReporter] = None,
    ) -> MonteCarloResult:
        """Run a fixed number of replications and summarize KPIs.

        The trajectories stream into a :class:`~repro.simulation.batch.
        TrajectoryBatch` chunk by chunk — peak memory is one chunk plus
        the packed columns, independent of ``n_runs`` — and the batch
        rides along on the result for curve estimation.  With
        ``keep_trajectories=True`` the objects come too (rebuilt from
        the batch unless events are recorded); KPIs are bit-identical
        either way.

        ``progress`` (or an ambient reporter installed with
        :func:`repro.observability.use_progress`) receives rate/ETA
        events at chunk boundaries, and inside lockstep chunks at
        calendar-fraction granularity; reporting is passive, so a
        watched run is bit-identical to a silent one.
        """
        with _spans.span(
            "mc.run", {"n_runs": n_runs, "keep_trajectories": keep_trajectories}
        ):
            batch, objects = self._drive(
                n_runs, keep_trajectories, self._resolve_progress(progress),
                "mc.run", self._lockstep(),
            )
            return self._result(batch, objects, confidence, keep_trajectories)

    def run_rare_event(
        self,
        config: Optional["RareEventConfig"] = None,
        confidence: float = 0.95,
        processes: int = 1,
    ) -> "RareEventResult":
        """Estimate the unreliability by importance splitting.

        Uses ``config``, falling back to the ``rare_event`` configuration
        given at construction, falling back to the defaults of
        :class:`~repro.rareevent.estimator.RareEventConfig`.  One child
        seed stream is consumed per independent unit (replication or
        RESTART root); ``processes > 1`` fans units out to worker
        processes with bit-identical results.

        Returns a :class:`~repro.rareevent.estimator.RareEventResult`
        whose ``unreliability`` interval is directly comparable to
        ``run(...).unreliability``.
        """
        from repro.rareevent.estimator import RareEventConfig, RareEventEstimator

        if config is None:
            config = self.rare_event
        if config is None:
            config = RareEventConfig()
        estimator = RareEventEstimator(self.simulator, config)
        seeds = self._seed_sequence.spawn(config.n_units)
        logger.info(
            kv(
                "rare-event run",
                method=config.method,
                units=config.n_units,
                levels=len(estimator.thresholds),
                processes=processes,
            )
        )
        with _spans.span(
            "mc.run_rare_event",
            {
                "method": config.method,
                "n_units": config.n_units,
                "levels": len(estimator.thresholds),
                "processes": processes,
            },
        ):
            return estimator.estimate(
                seeds, confidence=confidence, processes=processes
            )

    def run_to_precision(
        self,
        rule: Optional[RelativePrecisionRule] = None,
        batch_size: int = 200,
        confidence: float = 0.95,
        keep_trajectories: bool = True,
        target: str = "failures",
        max_zero_samples: int = 10_000,
        progress: Optional[ProgressReporter] = None,
    ) -> MonteCarloResult:
        """Sequential estimation to a target relative precision.

        Batches of ``batch_size`` trajectories are observed until the
        stopping ``rule`` declares the confidence interval of the
        ``target`` statistic tight enough (or its sample budget is
        exhausted).  All KPIs are then summarized over every observed
        trajectory.

        The rows come from the same chunk plan as :meth:`run`, streamed
        into columns so an open-ended run keeps a bounded footprint.
        On the object engine each chunk is one batch of fresh
        trajectories.  With ``kernel="vectorized"`` on a vectorizable
        model the chunks are whole lockstep chunks of
        ``chunk_trajectories``; batch boundaries run over the whole row
        stream, so a batch may span two chunks, and the unobserved tail
        of the last chunk is dropped — the rows of a chunk are
        independent trajectories and the stopping decision only ever
        saw the rows before it.  Either way the result is exactly the
        first ``n_runs`` rows of a :meth:`run` from a fresh driver with
        the same seed: ``run(n_runs)`` itself on the object engine, a
        run of whole chunks on the lockstep kernel (a lockstep chunk's
        rows depend on its size).

        ``target`` selects the controlled statistic: ``"failures"``
        (number of system failures per trajectory, the default),
        ``"unreliability"`` (failure indicator), or ``"cost"`` (total
        trajectory cost — requires a cost model).

        A stream on which the target statistic stays identically zero
        can never satisfy a *relative* precision rule; rather than
        simulate until the rule's full ``max_samples`` budget, the run
        stops after ``max_zero_samples`` all-zero trajectories with a
        :class:`RuntimeWarning` (consider :meth:`run_rare_event` —
        rare-event estimation is what importance splitting is for).

        ``progress`` (or an ambient reporter) receives one convergence
        event per batch: the running estimate, its CI half-width (at
        the rule's confidence), the relative half-width, and the
        rule's target relative error — so a long sequential run shows
        how far from convergence it is, not just how many samples it
        has burned.  The ``mc.run_to_precision`` span records the
        ``kernel`` that ran, ``n_samples`` (rows observed) and
        ``n_simulated`` (rows simulated, including a dropped tail).
        """
        column = _TARGETS.get(target)
        if column is None:
            raise ValidationError(
                f"unknown target {target!r}; expected one of "
                f"{sorted(_TARGETS)}"
            )
        if rule is None:
            rule = RelativePrecisionRule()
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        if max_zero_samples < 1:
            raise ValidationError(
                f"max_zero_samples must be >= 1, got {max_zero_samples}"
            )
        reporter = self._resolve_progress(progress)
        lockstep = self._lockstep()
        with _spans.span(
            "mc.run_to_precision",
            {
                "target": target,
                "batch_size": batch_size,
                "relative_error": rule.relative_error,
                "kernel": "vectorized" if lockstep else "object",
            },
        ) as run_span:
            stop = _StopRule(rule, column, batch_size, max_zero_samples, reporter)
            batch, objects = self._drive(
                None, keep_trajectories, lockstep=lockstep, stop=stop
            )
            n_samples = stop.statistics.count
            if stop.zero_capped:
                warnings.warn(
                    f"run_to_precision: target {target!r} is zero on all "
                    f"{n_samples} trajectories; the relative precision rule "
                    "cannot converge on an all-zero stream — stopping early "
                    "(consider run_rare_event)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                logger.warning(
                    kv(
                        "run_to_precision all-zero cap hit",
                        target=target,
                        samples=n_samples,
                    )
                )
            run_span.set_attribute("n_samples", n_samples)
            run_span.set_attribute("n_simulated", len(batch))
            if reporter is not None:
                reporter.update(stop.event(done=True))
            if len(batch) > n_samples:
                batch = batch.head(n_samples)
            return self._result(batch, objects, confidence, keep_trajectories)


class _Progress:
    """The driver's progress hook: rate/ETA events for one run.

    :meth:`advance` fires at chunk boundaries; :meth:`within` makes an
    in-process lockstep chunk's callback, which maps the calendar
    fraction to equivalent completed trajectories at the
    :meth:`MonteCarlo._progress_step` cadence.  No RNG is touched, so
    watched runs equal silent ones.
    """

    def __init__(self, reporter: ProgressReporter, phase: str, total: int):
        self.reporter, self.phase, self.total = reporter, phase, total
        self.step = MonteCarlo._progress_step(total)
        self.completed = 0
        self.start = _time.perf_counter()

    def report(self, completed: int) -> None:
        elapsed = _time.perf_counter() - self.start
        rate = completed / elapsed if elapsed > 0 else None
        self.reporter.update(
            ProgressEvent(
                phase=self.phase,
                completed=completed,
                total=self.total,
                elapsed_seconds=elapsed,
                rate_per_sec=rate,
                eta_seconds=((self.total - completed) / rate) if rate else None,
                done=completed >= self.total,
            )
        )

    def advance(self, rows: int) -> None:
        self.completed += rows
        self.report(self.completed)

    def within(self, rows: int) -> Callable[[float], None]:
        base = self.completed
        due = base + self.step

        def callback(fraction: float) -> None:
            nonlocal due
            equivalent = base + int(rows * fraction)
            if due <= equivalent < base + rows:
                due = equivalent + self.step
                self.report(equivalent)

        return callback


@dataclass
class _StopRule:
    """Sequential stopping at every ``batch_size`` row boundary.

    :meth:`observe` cuts each chunk's ``column`` values into batches
    and, after each, reports convergence and applies ``rule``, then the
    all-zero cap.  Rows past the stopping batch are the unobserved tail
    the caller drops; the next chunk is needed only when the next batch
    reaches past the rows already seen.
    """

    rule: RelativePrecisionRule
    column: Callable[[TrajectoryBatch], np.ndarray]
    batch_size: int
    max_zero_samples: int
    reporter: Optional[ProgressReporter]
    statistics: RunningStatistics = field(default_factory=RunningStatistics)
    zero_capped: bool = False
    pending: np.ndarray = field(default_factory=lambda: np.empty(0))
    start: float = field(default_factory=_time.perf_counter)

    def observe(self, rows: TrajectoryBatch) -> bool:
        """Fold one chunk's rows; True once sampling should stop."""
        statistics, size = self.statistics, self.batch_size
        self.pending = np.concatenate((self.pending, self.column(rows)))
        while len(self.pending) >= size:
            statistics.extend(self.pending[:size].tolist())
            self.pending = self.pending[size:]
            if self.reporter is not None:
                self.reporter.update(self.event(done=False))
            if self.rule.should_stop(statistics):
                return True
            if statistics.count >= self.max_zero_samples and statistics.mean == 0.0:
                self.zero_capped = True
                return True
        return False

    def event(self, done: bool) -> ProgressEvent:
        """Progress event describing how converged the run is."""
        statistics = self.statistics
        half_width = None
        relative_half_width = None
        if statistics.count >= 2:
            interval = statistics.confidence_interval(self.rule.confidence)
            half_width = interval.half_width
            if statistics.mean != 0.0:
                relative_half_width = interval.relative_half_width
        elapsed = _time.perf_counter() - self.start
        rate = statistics.count / elapsed if elapsed > 0 else None
        return ProgressEvent(
            phase="mc.run_to_precision",
            completed=statistics.count,
            elapsed_seconds=elapsed,
            rate_per_sec=rate,
            estimate=statistics.mean if statistics.count else None,
            ci_half_width=half_width,
            relative_half_width=relative_half_width,
            target=self.rule.relative_error,
            done=done,
        )
