"""One chunk plan: answers independent of how a run executes.

A lockstep (``kernel="vectorized"``) run is a pure function of its
seed, run count and chunk size.  Serial or parallel, on any number of
processes, on a shared or a call-scoped pool, watched or silent, the
summary is the same bit for bit, because every path consumes the same
chunks of :func:`repro.simulation.vectorized.lockstep_plan`.  An
object-engine run takes one stream per trajectory and is as exact,
kept trajectories and recorded events included.
"""

from __future__ import annotations

import glob
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import FMTBuilder
from repro.eijoint import build_ei_joint_fmt, current_policy
from repro.maintenance.actions import clean
from repro.maintenance.modules import InspectionModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import instrumentation as obs
from repro.observability import spans as sp
from repro.observability.instrumentation import Instrumentation
from repro.observability.progress import JsonlProgressReporter
from repro.observability.spans import SpanCollector
from repro.simulation.metrics import summarize
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.parallel import SharedSimulationPool
from repro.simulation.vectorized import lockstep_plan
from repro.stats.sequential import RelativePrecisionRule


def _segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _small_model():
    """A lockstep-eligible tree with an inspection calendar and an RDEP."""
    builder = FMTBuilder("plan")
    builder.degraded_event("wear", phases=3, mean=6.0, threshold=2)
    builder.basic_event("shock", rate=0.1)
    builder.or_gate("top", ["wear", "shock"])
    builder.rdep("accel", trigger="shock", targets=["wear"], factor=3.0)
    strategy = MaintenanceStrategy(
        "inspect",
        inspections=(
            InspectionModule("insp", period=0.5, targets=["wear"], action=clean()),
        ),
        on_system_failure="replace",
    )
    return builder.build("top"), strategy


def test_plan_chunks_take_the_next_child_streams_in_order():
    plan = list(lockstep_plan(np.random.SeedSequence(3), 10, 25))
    assert [(c.offset, c.size, len(c)) for c in plan] == [
        (0, 10, 10),
        (10, 10, 10),
        (20, 5, 5),
    ]
    expected = np.random.SeedSequence(3).spawn(3)
    assert [c.seed.spawn_key for c in plan] == [s.spawn_key for s in expected]

    endless = lockstep_plan(np.random.SeedSequence(3), 10)
    assert [next(endless).size for _ in range(5)] == [10] * 5


@pytest.mark.parametrize("chunk", [None, 2_500])
def test_roadmap_repro_same_answer_on_every_execution(chunk):
    """EI-joint current policy, seed 7, 6,000 runs on the lockstep kernel.

    Before the single chunk plan, serial, 2-process and 3-process runs
    of this study gave three different failure rates.
    """
    tree, policy = build_ei_joint_fmt(), current_policy()

    def driver():
        return MonteCarlo(
            tree, policy, horizon=50.0, seed=7, kernel="vectorized",
            chunk_trajectories=chunk,
        )

    serial = driver().run(6_000).summary
    before = _segments()
    for processes in (2, 3):
        assert driver().run_parallel(6_000, processes=processes).summary == serial
        with SharedSimulationPool(processes) as pool:
            assert driver().run_parallel(6_000, pool=pool).summary == serial
    # Lockstep chunks come back pickled; no shared-memory segment.
    assert _segments() == before


def test_pooled_lockstep_telemetry_parity():
    tree, strategy = _small_model()

    def driver(**kwargs):
        return MonteCarlo(
            tree, strategy, horizon=6.0, seed=21, kernel="vectorized",
            chunk_trajectories=16, **kwargs,
        )

    silent = driver().run(50)
    instr = Instrumentation()
    collector = SpanCollector()
    buffer = io.StringIO()
    with SharedSimulationPool(2) as pool, sp.use(collector):
        watched = driver(instrumentation=instr).run_parallel(
            50, pool=pool, progress=JsonlProgressReporter(stream=buffer)
        )
    assert watched.summary == silent.summary
    registry = instr.registry
    assert registry.to_dict()["counters"][obs.SIM_TRAJECTORIES] == 50
    # Plan: 16 + 16 + 16 + 2 rows, one timer sample per chunk.
    assert registry.timer(obs.TIMER_CHUNK).count == 4
    chunks = [r for r in collector.records if r["name"] == "worker.chunk"]
    parent = [r for r in collector.records if r["name"] == "mc.run_parallel"]
    assert len(parent) == 1
    assert sorted(c["attributes"]["n_trajectories"] for c in chunks) == [2, 16, 16, 16]
    assert all(c["parent_id"] == parent[0]["span_id"] for c in chunks)
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert [e["completed"] for e in events] == [16, 32, 48, 50]
    assert events[-1]["done"] is True


@pytest.fixture(scope="module")
def pools():
    pools = {n: SharedSimulationPool(n) for n in (1, 2, 3)}
    yield pools
    for pool in pools.values():
        pool.shutdown()


_MODEL = _small_model()


@pytest.mark.parametrize("kernel", ["object", "vectorized"])
@given(
    n_runs=st.integers(min_value=1, max_value=120),
    chunk=st.integers(min_value=1, max_value=64),
    processes=st.sampled_from([1, 2, 3]),
    pooled=st.booleans(),
    watched=st.booleans(),
    mode=st.sampled_from(["run", "run_parallel", "run_to_precision"]),
    batch_size=st.integers(min_value=1, max_value=40),
    keep=st.booleans(),
    record_events=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_answer_independent_of_execution(
    pools, kernel, n_runs, chunk, processes, pooled, watched, mode,
    batch_size, keep, record_events, seed,
):
    """Summaries and kept trajectories (events included when recorded)
    are the same serial or pooled, on any process count, watched or
    silent; a sequential run gives the first rows of a fixed-count
    run; a watched run reports up to its last row; no pooled run
    creates a shared-memory segment."""
    tree, strategy = _MODEL
    # The lockstep kernel records no events (the config rejects it).
    record_events = record_events and kernel == "object"

    def driver(**kwargs):
        return MonteCarlo(
            tree, strategy, horizon=3.0, seed=seed, kernel=kernel,
            chunk_trajectories=chunk, record_events=record_events, **kwargs,
        )

    kwargs = {"keep_trajectories": keep}
    buffer = io.StringIO()
    if watched:
        kwargs["progress"] = JsonlProgressReporter(stream=buffer)
    mc = driver(instrumentation=Instrumentation() if watched else None)
    before = _segments()
    if mode == "run_parallel":
        pool = pools[processes] if pooled else None
        result = mc.run_parallel(n_runs, processes=processes, pool=pool, **kwargs)
    elif mode == "run":
        result = mc.run(n_runs, **kwargs)
    else:
        rule = RelativePrecisionRule(
            relative_error=0.5, min_samples=2, max_samples=max(2, n_runs)
        )
        result = mc.run_to_precision(rule, batch_size=batch_size, **kwargs)
        n_runs = result.n_runs
    assert _segments() == before
    # Rows simulated: a sequential lockstep run draws whole chunks.
    streams = -(-n_runs // chunk) if kernel == "vectorized" else n_runs
    whole_chunks = mode == "run_to_precision" and kernel == "vectorized"
    simulated = streams * chunk if whole_chunks else n_runs
    reference = driver().run(simulated, keep_trajectories=keep)
    if simulated == n_runs:
        assert result.summary == reference.summary
    else:
        assert result.summary == summarize(reference.batch.head(n_runs))
    if keep:
        assert result.trajectories == reference.trajectories[:n_runs]
    else:
        assert result.trajectories is None
    if keep and record_events:
        assert all(t.events_recorded for t in result.trajectories)
    assert mc._streams_used == streams
    if watched:
        counters = mc.instrumentation.registry.to_dict()["counters"]
        assert counters[obs.SIM_TRAJECTORIES] == simulated
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        completed = [event["completed"] for event in events]
        assert completed == sorted(completed)
        assert completed[-1] == n_runs
        assert events[-1]["done"] is True


def test_object_kernel_parallel_still_per_trajectory(
    maintained_tree, inspection_strategy
):
    # Object-engine runs keep one stream per trajectory.
    def driver():
        return MonteCarlo(maintained_tree, inspection_strategy, horizon=5.0, seed=2)

    mc = driver()
    assert mc.run_parallel(30, processes=2).summary == driver().run(30).summary
    assert mc._streams_used == 30
