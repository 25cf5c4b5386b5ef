"""Chunk execution and multiprocessing for Monte Carlo replication.

The Monte Carlo driver (:mod:`repro.simulation.montecarlo`) runs one
chunk plan for every batch entry point, and this module executes its
chunks.  A chunk is a :class:`~repro.simulation.vectorized.PlanChunk`
(one RNG stream, run on the lockstep kernel) or a run of
per-trajectory seeds (run on the object engine); :func:`_simulate_chunk`
runs either kind, in-process or in a worker.  A chunk's trajectories
are a function of its seeds alone, so pooled runs are **bit-identical**
to serial ones at any process count (the test suite asserts this).

Every pool is a :class:`SharedSimulationPool` (a call without one gets
a pool scoped to the call), and every task is one envelope
``(digest, blob, chunk, extras)`` for the one pool function,
:func:`_shared_worker`.  ``blob`` is the pickled simulator; workers
cache it, and the lockstep kernel compiled from it, by ``digest``.
The worker ships back packed :class:`~repro.simulation.batch.
TrajectoryBatch` columns, unless the simulator records events: a batch
does not carry them, so the :class:`~repro.simulation.trace.Trajectory`
objects cross the pipe instead.  :func:`sample_parallel_batch` folds
either payload into one batch, :func:`sample_parallel` into an object
list; both also take a plain seed list, sliced into object chunks.

A worker process dying (OOM-kill, segfault, ``os._exit``) surfaces as
a :class:`~repro.errors.SimulationError` instead of a hang or an
opaque pool exception.

Telemetry round-trip
--------------------
With metrics or spans attached (see :class:`WorkerTelemetry`),
``extras`` is a tiny :class:`ChunkExtras` and the worker wraps its
chunk in a fresh per-chunk :class:`~repro.observability.
instrumentation.Instrumentation` and a ``worker.chunk`` span parented
to the dispatching span's shipped :class:`~repro.observability.spans.
SpanContext`.  The chunk result then ships ``(payload, worker registry,
span record, pid, wall seconds)`` back; the driver folds the registry
into the parent one (:meth:`MetricsRegistry.merge`), feeds the span
record to the ambient collector, and finally publishes per-worker
utilization gauges (``sim.worker.<n>.chunks`` / ``.trajectories`` /
``.busy_seconds`` plus ``sim.workers``).  Without them ``extras`` is
None and the payload comes back bare — zero extra bytes on the pipe,
zero worker-side overhead.  Progress needs no round-trip: the driver's
hook (``WorkerTelemetry.progress``) is called as each chunk folds.
"""


from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.observability.instrumentation import (
    SIM_WORKER_PREFIX,
    SIM_WORKERS,
    Instrumentation,
)
from repro.observability.logging_setup import get_logger, kv
from repro.observability.spans import Span, SpanCollector
from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.executor import FMTSimulator
from repro.simulation.trace import Trajectory
from repro.simulation.vectorized import (
    PlanChunk,
    VectorizedKernel,
    simulate_plan_chunk,
)

__all__ = [
    "simulate_batch",
    "simulate_batch_columns",
    "sample_parallel",
    "sample_parallel_batch",
    "default_process_count",
    "SharedSimulationPool",
    "WorkerTelemetry",
]

logger = get_logger(__name__)

#: Default cap on the automatic fan-out: beyond this, per-worker
#: simulator unpickling and IPC overhead outweigh extra cores for the
#: replication counts this project runs.
MAX_DEFAULT_PROCESSES = 8

def _available_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine's CPUs even when a cgroup
    quota or CPU affinity mask (containers, CI runners, ``taskset``)
    restricts the process to far fewer — spawning workers for CPUs we
    cannot use only adds pickling and scheduling overhead.  The
    affinity mask (where the platform exposes one) is authoritative.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
        except OSError:  # pragma: no cover - platform quirk
            affinity = 0
        if affinity:
            return affinity
    return os.cpu_count() or 1


def default_process_count(n_tasks: Optional[int] = None) -> int:
    """Fan-out used when the caller does not pick one.

    The schedulable CPU count (see :func:`_available_cpu_count`) capped
    at :data:`MAX_DEFAULT_PROCESSES`, and at ``n_tasks`` when given (no
    point spawning more workers than there are trajectories).  Always
    >= 1.
    """
    count = min(_available_cpu_count(), MAX_DEFAULT_PROCESSES)
    if n_tasks is not None:
        count = min(count, n_tasks)
    return max(1, count)


def simulate_batch(
    simulator: FMTSimulator, seeds: Sequence[np.random.SeedSequence]
) -> List[Trajectory]:
    """Simulate one trajectory per seed, in-process."""
    return [
        simulator.simulate(np.random.default_rng(seed)) for seed in seeds
    ]


def simulate_batch_columns(
    simulator: FMTSimulator, seeds: Sequence[np.random.SeedSequence]
) -> TrajectoryBatch:
    """Simulate one object-engine trajectory per seed, as batch columns.

    Each trajectory object is folded into the accumulator as soon as
    it is produced and becomes garbage immediately — resident memory
    is one trajectory plus the columns, regardless of ``len(seeds)``.
    The simulator's ``kernel`` setting is not consulted: lockstep runs
    consume a chunk plan (:func:`~repro.simulation.vectorized.
    lockstep_plan`), not a seed list.
    """
    accumulator = TrajectoryAccumulator(horizon=simulator.config.horizon)
    simulate = simulator.simulate
    add = accumulator.add
    for seed in seeds:
        add(simulate(np.random.default_rng(seed)))
    return accumulator.finalize()


#: One chunk of a plan: a lockstep plan chunk, or a run of
#: per-trajectory seeds for the object engine.
_Chunk = Union[PlanChunk, Sequence[np.random.SeedSequence]]


class _CachedModel:
    """A simulator and, compiled on first use, its lockstep kernel."""

    __slots__ = ("simulator", "_kernel")

    def __init__(self, simulator: FMTSimulator):
        self.simulator = simulator
        self._kernel: Optional[VectorizedKernel] = None

    @property
    def kernel(self) -> VectorizedKernel:
        if self._kernel is None:
            self._kernel = VectorizedKernel(self.simulator)
        return self._kernel


def _simulate_chunk(
    model: _CachedModel,
    chunk: _Chunk,
    instr: Optional[Instrumentation] = None,
    progress: Optional[Callable[[float], None]] = None,
) -> Union[TrajectoryBatch, List[Trajectory]]:
    """One chunk's payload: a batch, or objects when events are recorded.

    A :class:`PlanChunk` runs on the lockstep kernel (timed into
    ``instr``, calendar fraction reported to ``progress``); a run of
    seeds runs on the object engine, which reports into the
    simulator's own instrumentation.
    """
    if isinstance(chunk, PlanChunk):
        return simulate_plan_chunk(model.kernel, chunk, instr, progress)
    if model.simulator.config.record_events:
        return simulate_batch(model.simulator, chunk)
    return simulate_batch_columns(model.simulator, chunk)


# ----------------------------------------------------------------------
# Telemetry round-trip
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChunkExtras:
    """Per-task telemetry envelope shipped to a worker.

    Picklable and tiny: the parent span's serialized
    :class:`~repro.observability.spans.SpanContext` (or None when
    tracing is off), whether to collect a per-chunk metrics registry,
    and the chunk's ordinal.
    """

    span_parent: Optional[Dict[str, str]]
    collect_metrics: bool
    chunk_index: int


@dataclass
class ChunkResult:
    """What a telemetry-enabled worker ships back per chunk."""

    payload: Any  # TrajectoryBatch, or List[Trajectory] with events
    registry: Optional[Any]  # MetricsRegistry, when metrics were collected
    span: Optional[Dict[str, Any]]  # completed span record
    pid: int
    n_trajectories: int
    seconds: float


@dataclass(frozen=True)
class WorkerTelemetry:
    """Driver-side telemetry configuration for one parallel dispatch.

    Built by the Monte Carlo driver from the explicit/ambient
    instrumentation and span collector; with neither, tasks carry no
    :class:`ChunkExtras`.  ``progress`` is the driver's progress hook,
    called with each chunk's row count as the chunk folds, in plan
    order.
    """

    instrumentation: Optional[Instrumentation] = None
    collector: Optional[SpanCollector] = None
    span_parent: Optional[Dict[str, str]] = None
    progress: Optional[Callable[[int], None]] = None


def _simulate_chunk_with_telemetry(
    model: _CachedModel, chunk: _Chunk, extras: ChunkExtras
) -> ChunkResult:
    """Worker-side chunk execution with per-chunk telemetry.

    The chunk simulates into a *fresh* registry (temporarily swapped
    into the simulator config) so long-lived workers ship deltas, not
    cumulative totals — the driver can then fold every chunk without
    double counting.  Strictly passive: the trajectories are the same
    with or without collection.
    """
    span = None
    if extras.span_parent is not None:
        span = Span.start(
            "worker.chunk",
            parent=extras.span_parent,
            attributes={
                "chunk": extras.chunk_index,
                "n_trajectories": len(chunk),
                "pid": os.getpid(),
            },
        )
    start = time.perf_counter()
    registry = None
    if extras.collect_metrics:
        instrumentation = Instrumentation()
        registry = instrumentation.registry
        simulator = model.simulator
        original = simulator.config
        simulator.config = replace(original, instrumentation=instrumentation)
        try:
            payload = _simulate_chunk(model, chunk, instrumentation)
        finally:
            simulator.config = original
    else:
        payload = _simulate_chunk(model, chunk)
    seconds = time.perf_counter() - start
    return ChunkResult(
        payload=payload,
        registry=registry,
        span=span.end().to_dict() if span is not None else None,
        pid=os.getpid(),
        n_trajectories=len(chunk),
        seconds=seconds,
    )


# Worker state: models cached by payload digest, so one pool can serve
# many different studies and each worker unpickles a given simulator
# (and compiles its lockstep kernel) at most once.
_WORKER_MODELS: Dict[str, _CachedModel] = {}

#: Cached models kept per shared-pool worker before the cache is
#: cleared; a study sweep touches a handful of simulators, and an
#: unbounded cache would pin every model a long-lived pool ever saw.
MAX_CACHED_SIMULATORS = 16


def _shared_worker(
    task: Tuple[str, bytes, _Chunk, Optional[ChunkExtras]],
) -> Any:
    """The one pool function: run one task envelope's chunk."""
    digest, blob, chunk, extras = task
    model = _WORKER_MODELS.get(digest)
    if model is None:
        if len(_WORKER_MODELS) >= MAX_CACHED_SIMULATORS:
            _WORKER_MODELS.clear()
        model = _WORKER_MODELS[digest] = _CachedModel(pickle.loads(blob))
    if extras is None:
        return _simulate_chunk(model, chunk)
    return _simulate_chunk_with_telemetry(model, chunk, extras)


class SharedSimulationPool:
    """A process pool reusable across many (simulator, seeds) studies.

    Without one, each parallel call spins up a pool scoped to the
    call — fine for a single large run, wasteful when an experiment
    sweep performs many medium runs back to back.  A shared pool is
    created once, sized once, and serves every study of a sweep: tasks
    carry the pickled simulator plus its digest, and workers cache
    unpickled simulators (and compiled lockstep kernels) by digest, so
    repeated studies of the same model pay the transfer but not the
    unpickling.

    Results are bit-identical to a scoped pool and to a serial run
    (the trajectories are functions of the seeds alone).  The pool is
    lazy — no processes exist until the first parallel study — and a
    worker crash poisons only the current executor: the next study
    transparently gets a fresh one.
    """

    def __init__(self, processes: Optional[int] = None):
        if processes is None:
            processes = default_process_count()
        elif processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        if self._executor is None:
            logger.debug(kv("shared pool start", processes=self.processes))
            self._executor = ProcessPoolExecutor(max_workers=self.processes)
        return self._executor

    def invalidate(self) -> None:
        """Discard a (possibly broken) executor; next use starts fresh."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Terminate the workers (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "SharedSimulationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "idle" if self._executor is None else "running"
        return f"SharedSimulationPool(processes={self.processes}, {state})"


class _TelemetryFold:
    """Driver-side accumulator folding returning chunk telemetry.

    Merges worker registries into the parent instrumentation, routes
    span records to the collector, and — once the dispatch completes —
    publishes per-worker utilization gauges.
    """

    def __init__(self, telemetry: WorkerTelemetry):
        self.telemetry = telemetry
        # pid -> [chunks, trajectories, busy seconds], ordinal by first
        # appearance in (deterministic) plan-order completion.
        self.workers: "Dict[int, List[float]]" = {}

    def fold(self, result: ChunkResult) -> Any:
        telemetry = self.telemetry
        stats = self.workers.setdefault(result.pid, [0, 0, 0.0])
        stats[0] += 1
        stats[1] += result.n_trajectories
        stats[2] += result.seconds
        if telemetry.instrumentation is not None and result.registry is not None:
            telemetry.instrumentation.registry.merge(result.registry)
        if telemetry.collector is not None and result.span is not None:
            telemetry.collector.add_record(result.span)
        return result.payload

    def finish(self) -> None:
        instrumentation = self.telemetry.instrumentation
        if instrumentation is None or not self.workers:
            return
        instrumentation.set_gauge(SIM_WORKERS, len(self.workers))
        for ordinal, pid in enumerate(self.workers):
            chunks, trajectories, busy = self.workers[pid]
            prefix = f"{SIM_WORKER_PREFIX}.{ordinal}"
            instrumentation.set_gauge(f"{prefix}.chunks", chunks)
            instrumentation.set_gauge(f"{prefix}.trajectories", trajectories)
            instrumentation.set_gauge(f"{prefix}.busy_seconds", busy)


def _dispatch_chunks(
    simulator: FMTSimulator,
    chunks: List[_Chunk],
    processes: int,
    pool: Optional[SharedSimulationPool],
    telemetry: Optional[WorkerTelemetry] = None,
) -> Iterator:
    """Yield per-chunk worker payloads in chunk order.

    Without ``pool``, a :class:`SharedSimulationPool` scoped to the call
    (no larger than the chunk count) serves the chunks.  With metrics
    or spans in ``telemetry``, tasks carry :class:`ChunkExtras`,
    workers return :class:`ChunkResult`, and the telemetry is folded
    driver-side as each chunk completes.
    """
    if telemetry is not None and (
        telemetry.instrumentation is None and telemetry.collector is None
    ):
        telemetry = None
    if pool is None:
        with SharedSimulationPool(max(1, min(processes, len(chunks)))) as scoped:
            yield from _dispatch_chunks(
                simulator, chunks, processes, scoped, telemetry
            )
        return
    total = sum(len(chunk) for chunk in chunks)
    logger.debug(
        kv(
            "sample_parallel dispatch",
            trajectories=total,
            processes=processes,
            chunks=len(chunks),
            chunk_size=max(len(chunk) for chunk in chunks) if chunks else 0,
            telemetry=telemetry is not None,
        )
    )
    fold = _TelemetryFold(telemetry) if telemetry is not None else None
    completed = 0
    try:
        blob = pickle.dumps(simulator, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        tasks = [
            (
                digest,
                blob,
                chunk,
                None
                if telemetry is None
                else ChunkExtras(
                    span_parent=telemetry.span_parent,
                    collect_metrics=telemetry.instrumentation is not None,
                    chunk_index=index,
                ),
            )
            for index, chunk in enumerate(chunks)
        ]
        results = pool.executor().map(_shared_worker, tasks)
        for chunk, result in zip(chunks, results):
            completed += len(chunk)
            yield fold.fold(result) if fold is not None else result
        if fold is not None:
            fold.finish()
    except BrokenProcessPool as exc:
        pool.invalidate()
        logger.error(
            kv(
                "worker process crashed",
                processes=processes,
                completed=completed,
                total=total,
            )
        )
        raise SimulationError(
            "a Monte Carlo worker process terminated abruptly "
            f"(completed {completed}/{total} trajectories); "
            "rerun with processes=1 to reproduce the failure in-process"
        ) from exc


def _payloads(
    simulator: FMTSimulator,
    seeds: Union[Sequence[np.random.SeedSequence], Sequence[_Chunk]],
    processes: int,
    chunk_size: Optional[int],
    pool: Optional[SharedSimulationPool],
    telemetry: Optional[WorkerTelemetry],
) -> Iterator:
    """Per-chunk payloads of a chunk plan or a seed list, in order.

    The one dispatcher behind both public folds.  A plan (lockstep
    chunks, or the driver's runs of object-engine seeds) is taken as
    given; a plain seed list is sliced into ``chunk_size`` seeds per
    chunk (default: four chunks per process).  One process runs the
    chunks in-process, more go through :func:`_dispatch_chunks`.
    ``telemetry.progress``, if set, is called as each chunk folds.
    """
    if pool is not None:
        processes = pool.processes
    if processes < 1:
        raise ValidationError(f"processes must be >= 1, got {processes}")
    if chunk_size is not None and chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    if seeds and not isinstance(seeds[0], np.random.SeedSequence):
        chunks = list(seeds)
    else:
        size = chunk_size or max(1, len(seeds) // (processes * 4))
        chunks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
    if processes > 1:
        payloads = _dispatch_chunks(
            simulator, chunks, processes, pool, telemetry
        )
    else:
        model = _CachedModel(simulator)
        instr = telemetry.instrumentation if telemetry is not None else None
        payloads = (_simulate_chunk(model, chunk, instr) for chunk in chunks)
    advance = telemetry.progress if telemetry is not None else None
    # Payloads first: the dispatcher publishes its gauges on exhaustion.
    for payload, chunk in zip(payloads, chunks):
        yield payload
        if advance is not None:
            advance(len(chunk))


def sample_parallel(
    simulator: FMTSimulator,
    seeds: Sequence[np.random.SeedSequence],
    processes: int,
    chunk_size: Optional[int] = None,
    pool: Optional[SharedSimulationPool] = None,
    telemetry: Optional[WorkerTelemetry] = None,
) -> List[Trajectory]:
    """Simulate one trajectory per seed across worker processes.

    Results are returned in seed order (hence identical to a serial
    run over the same seeds, regardless of worker scheduling).  When a
    :class:`SharedSimulationPool` is given its workers are reused and
    ``processes`` is taken from the pool; otherwise a pool scoped to
    this call is created.  ``telemetry`` opts into the worker
    metric/span round-trip and a per-chunk progress hook (see the
    module docstring) — trajectories are bit-identical with or without
    it.  ``seeds`` may be a chunk plan (see
    :func:`sample_parallel_batch`).

    A simulator that records events ships its trajectory objects;
    otherwise the objects are rebuilt from the workers' batch columns
    (:meth:`~repro.simulation.batch.TrajectoryBatch.to_trajectories`),
    which gives ``==`` objects.

    Raises
    ------
    SimulationError
        If a worker process dies (the pool is then unusable); the
        original pool exception is chained as ``__cause__``.
    """
    trajectories: List[Trajectory] = []
    for payload in _payloads(
        simulator, seeds, processes, chunk_size, pool, telemetry
    ):
        if isinstance(payload, TrajectoryBatch):
            payload = payload.to_trajectories()
        trajectories.extend(payload)
    return trajectories


def sample_parallel_batch(
    simulator: FMTSimulator,
    seeds: Union[Sequence[np.random.SeedSequence], Sequence[PlanChunk]],
    processes: int,
    chunk_size: Optional[int] = None,
    pool: Optional[SharedSimulationPool] = None,
    telemetry: Optional[WorkerTelemetry] = None,
    use_shared_memory: Optional[bool] = None,
) -> TrajectoryBatch:
    """Like :func:`sample_parallel`, returning packed batch columns.

    The batch's columns (and hence every KPI computed from them) are
    bit-identical to ``TrajectoryBatch.from_trajectories(
    sample_parallel(...))``, while resident memory stays O(columns):
    each worker payload is folded into one accumulator as it arrives.

    ``seeds`` may instead be a chunk plan: a list of
    :class:`~repro.simulation.vectorized.PlanChunk` for a lockstep-
    eligible simulator, or of per-trajectory seed runs for the object
    engine.  Each worker task is then one whole chunk, and the payloads
    fold in plan order — the serial run of the plan at any process
    count (``chunk_size`` does not apply).

    ``use_shared_memory`` is deprecated and ignored (the shared-memory
    fold was removed; columns always come back through the result
    pipe).  Passing it warns; the result is the same either way.
    """
    if use_shared_memory is not None:
        warnings.warn(
            "sample_parallel_batch(use_shared_memory=...) is deprecated "
            "and ignored: worker columns always come back through the "
            "result pipe",
            DeprecationWarning,
            stacklevel=2,
        )
    accumulator = TrajectoryAccumulator(horizon=simulator.config.horizon)
    for payload in _payloads(
        simulator, seeds, processes, chunk_size, pool, telemetry
    ):
        if isinstance(payload, TrajectoryBatch):
            accumulator.add_batch(payload)
        else:
            accumulator.extend(payload)
    return accumulator.finalize()
