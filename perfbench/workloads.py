"""The four benchmark workloads, their inputs and their correctness checks.

Each workload has

* ``setup()``: what a fresh process does before its first timed
  operation; ``setup_s`` times it in fresh processes;
* ``prepare()``: untimed work the checks need (reference studies);
* ``run_pass(tracer)``: one pass of the workload's fixed operation
  list, returning a :class:`PassResult`;
* ``close()``: release pools, servers and temporary directories.

Inputs come only from the benchmark seed (``random.Random`` seeded
with the workload name and seed), never from the clock.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.spans import Tracer, maybe_span

ROOT = Path(__file__).resolve().parent.parent
#: Untracked scratch space inside the checkout (listed in .gitignore).
CACHE_DIR = ROOT / ".perfbench_cache"

#: Client threads and pool processes: one per schedulable CPU.
NPROC = len(os.sched_getaffinity(0))

#: The reference studies behind the sweep and precision checks: object
#: engine, fixed seed, cached on disk by study key, never timed.
REFERENCE_RUNS = 2000
REFERENCE_SEED = 20160628
#: Confidence of the intervals compared by the checks.  At 95% a sweep
#: of six CI-overlap and five monotonicity tests fails a few percent of
#: correct runs by chance; at 99.9% that is negligible.
CHECK_CONFIDENCE = 0.999


@dataclass
class Op:
    """One finished operation of a pass."""

    kind: str
    latency: float
    error: Optional[str] = None
    #: The error is a failed correctness check (not a raise/bad status).
    check: bool = False
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PassResult:
    wall: float
    trajectories: int
    ops: List[Op]
    #: Study-runner counters accumulated during the pass.
    counters: Dict[str, int] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)


def widened(interval, confidence: float = CHECK_CONFIDENCE) -> Tuple[float, float]:
    """``interval`` rescaled to ``confidence`` (normal approximation)."""
    normal = statistics.NormalDist()
    scale = normal.inv_cdf(0.5 + confidence / 2) / normal.inv_cdf(
        0.5 + interval.confidence / 2
    )
    half = interval.half_width * scale
    return interval.estimate - half, interval.estimate + half


def overlap(a, b) -> bool:
    """Whether two intervals overlap at :data:`CHECK_CONFIDENCE`."""
    a_lo, a_hi = widened(a)
    b_lo, b_hi = widened(b)
    return a_lo <= b_hi and b_lo <= a_hi


def _runner_counters(runner) -> Dict[str, int]:
    counters = runner.instrumentation.registry.to_dict()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("study.")}


def _diff(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _reference(tree, strategy, horizon: float):
    """Object-engine reference summary, cached on disk by study key."""
    from repro.studies import StudyRequest, StudyRunner

    with StudyRunner(cache_dir=str(CACHE_DIR / "reference")) as runner:
        return runner.summary(
            StudyRequest(
                tree=tree,
                strategy=strategy,
                horizon=horizon,
                seed=REFERENCE_SEED,
                n_runs=REFERENCE_RUNS,
            )
        )


class Workload:
    name = ""
    why = ""
    #: Passes per run at least, whatever ``--seconds`` says.
    min_passes = 1
    #: Seconds set-up spent starting pool workers (0 without a pool).
    pool_start_s = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Work a fresh process does before its first timed operation."""

    def prepare(self) -> None:
        """Untimed work the correctness checks need."""

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup acquired."""


# ----------------------------------------------------------------------
# paper-quick
# ----------------------------------------------------------------------
def _grid_neighbours() -> Tuple[float, float]:
    """The F5/F6 grid points either side of the current policy."""
    from repro.eijoint.strategies import CURRENT_INSPECTIONS_PER_YEAR
    from repro.experiments.fig5_enf import FREQUENCIES

    grid = sorted(FREQUENCIES)
    index = grid.index(CURRENT_INSPECTIONS_PER_YEAR)
    return grid[index - 1], grid[index + 1]


def check_experiment(key: str, result) -> Optional[str]:
    """The paper's claim the experiment must reproduce, or None."""
    if key == "table3":
        if not any("prediction and observation AGREE" in n for n in result.notes):
            return "T3: prediction and observation disagree"
    elif key == "fig6":
        totals = dict(zip(result.column("inspections/yr"), result.column("TOTAL")))
        best = float(min(totals, key=lambda f: float(totals[f])))
        low, high = _grid_neighbours()
        if best not in (low, 4.0, high):
            return f"F6: cost optimum at {best:g}/yr, not at or next to 4/yr"
    elif key == "optimum":
        row = next(r for r in result.rows if r[0] == "optimum found")
        low, high = _grid_neighbours()
        if not low <= float(row[1]) <= high:
            return f"OPT: optimum at {row[1]}/yr, not next to 4/yr"
    elif key in ("ctmc-crossval", "periodic-crossval"):
        misses = [row[0] for row in result.rows if row[-1] != "yes"]
        if misses:
            return f"{result.experiment_id}: simulator outside exact CI: {misses}"
    return None


class PaperQuick(Workload):
    name = "paper-quick"
    why = (
        "python -m repro all --quick: every experiment, object engine, many "
        "small studies, fixed CLI seed 2016"
    )

    def setup(self) -> None:
        from repro.experiments import ExperimentConfig, iter_experiments

        self.experiments = list(iter_experiments())
        self.config = ExperimentConfig().quick()

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        from repro.observability.instrumentation import Instrumentation
        from repro.studies import StudyRunner, use_runner

        # A fresh default runner per pass, as each CLI invocation has:
        # serial, no disk cache, an empty memo.
        runner = StudyRunner(instrumentation=Instrumentation())
        ops = []
        start = time.perf_counter()
        with runner, use_runner(runner):
            for key, run in self.experiments:
                began = time.perf_counter()
                error, check = None, False
                try:
                    with maybe_span(tracer, f"experiments.{key}"):
                        result = run(self.config)
                        result.to_text()
                    error = check_experiment(key, result)
                    check = error is not None
                except Exception as exc:  # counted as a failed operation
                    error = f"{key}: {type(exc).__name__}: {exc}"
                ops.append(Op("experiment", time.perf_counter() - began, error, check))
        wall = time.perf_counter() - start
        counters = _runner_counters(runner)
        return PassResult(
            wall, counters.get("study.fresh_trajectories", 0), ops, counters
        )


# ----------------------------------------------------------------------
# sweep-vectorized
# ----------------------------------------------------------------------
class SweepVectorized(Workload):
    name = "sweep-vectorized"
    why = (
        "paper's inspection-frequency sweep, 6 x 20k-run vectorized studies "
        "fanned out over nproc workers; every study a cache miss"
    )
    frequencies = (0.5, 1.0, 2.0, 4.0, 6.0, 12.0)
    #: Both CPUs are busy, so host noise hits this workload hardest;
    #: two passes average it.
    min_passes = 2
    n_runs = 20_000
    horizon = 50.0

    def setup(self) -> None:
        from repro.eijoint import build_ei_joint_fmt, inspection_policy
        from repro.observability.instrumentation import Instrumentation
        from repro.studies import StudyRunner

        self.tree = build_ei_joint_fmt()
        self.strategies = {f: inspection_policy(f) for f in self.frequencies}
        self.runner = StudyRunner(processes=NPROC, instrumentation=Instrumentation())
        if self.runner._pool is not None:
            # The runner has no public handle on its pool, and the pool
            # starts workers on demand; start them all now so the first
            # study does not pay for it.
            began = time.perf_counter()
            executor = self.runner._pool.executor()
            for future in [executor.submit(time.sleep, 0.05) for _ in range(NPROC)]:
                future.result()
            self.pool_start_s = time.perf_counter() - began

    def prepare(self) -> None:
        self.references = {
            f: _reference(self.tree, s, self.horizon)
            for f, s in self.strategies.items()
        }

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        from repro.studies import StudyRequest

        seed = self.rng.randrange(1, 2**31)
        before = _runner_counters(self.runner)
        ops, summaries = [], []
        start = time.perf_counter()
        for f, strategy in self.strategies.items():
            began = time.perf_counter()
            try:
                with maybe_span(tracer, "sweep.study"):
                    summary = self.runner.summary(
                        StudyRequest(
                            tree=self.tree,
                            strategy=strategy,
                            horizon=self.horizon,
                            seed=seed,
                            n_runs=self.n_runs,
                            kernel="vectorized",
                        )
                    )
                ops.append(Op("study", time.perf_counter() - began, detail={"f": f}))
                summaries.append((f, summary))
            except Exception as exc:  # counted as a failed operation
                ops.append(Op("study", time.perf_counter() - began,
                              f"f={f:g}: {type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start
        self._check(ops, summaries)
        counters = _diff(_runner_counters(self.runner), before)
        return PassResult(wall, self.n_runs * len(summaries), ops, counters)

    def _check(self, ops: List[Op], summaries) -> None:
        """ENF non-increasing in f, and each point agrees with its reference."""
        by_f = {op.detail.get("f"): op for op in ops if op.error is None}
        previous = None
        for f, summary in summaries:
            enf = summary.failures_per_year
            problems = []
            if not overlap(enf, self.references[f].failures_per_year):
                problems.append(
                    f"ENF {enf} disagrees with object reference "
                    f"{self.references[f].failures_per_year}"
                )
            if previous is not None and widened(enf)[0] > widened(previous)[1]:
                problems.append(f"ENF rises from {previous} to {enf}")
            previous = enf
            if problems:
                op = by_f[f]
                op.error = f"f={f:g}: " + "; ".join(problems)
                op.check = True

    def close(self) -> None:
        self.runner.close()


# ----------------------------------------------------------------------
# precision-current
# ----------------------------------------------------------------------
class PrecisionCurrent(Workload):
    name = "precision-current"
    why = (
        "time to a stated precision: run_to_precision on failures, current "
        "policy, kernel=vectorized; the only sequential-stopping workload"
    )
    relative_error = 0.03
    #: Stopping is random, so the run count reached varies by seed;
    #: a median over two passes damps that.
    min_passes = 2
    batch_size = 200
    horizon = 50.0

    def setup(self) -> None:
        from repro.eijoint import build_ei_joint_fmt, current_policy
        from repro.simulation.montecarlo import MonteCarlo

        self.tree = build_ei_joint_fmt()
        self.strategy = current_policy()
        MonteCarlo(self.tree, self.strategy, horizon=self.horizon, kernel="vectorized")

    def prepare(self) -> None:
        self.reference = _reference(self.tree, self.strategy, self.horizon)

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        from repro.simulation.montecarlo import MonteCarlo
        from repro.stats.sequential import RelativePrecisionRule

        seed = self.rng.randrange(1, 2**31)
        start = time.perf_counter()
        try:
            with maybe_span(tracer, "precision.run"):
                result = MonteCarlo(
                    self.tree, self.strategy, horizon=self.horizon, seed=seed,
                    kernel="vectorized",
                ).run_to_precision(
                    RelativePrecisionRule(relative_error=self.relative_error),
                    batch_size=self.batch_size,
                )
        except Exception as exc:  # counted as a failed operation
            wall = time.perf_counter() - start
            return PassResult(wall, 0, [Op("precision", wall,
                                           f"{type(exc).__name__}: {exc}")])
        wall = time.perf_counter() - start
        reached = result.summary.expected_failures
        problems = []
        if not reached.relative_half_width <= self.relative_error:
            problems.append(
                f"relative half-width {reached.relative_half_width:.4f} > "
                f"{self.relative_error}"
            )
        if not overlap(reached, self.reference.expected_failures):
            problems.append(
                f"failures {reached} disagree with object reference "
                f"{self.reference.expected_failures}"
            )
        op = Op("precision", wall, "; ".join(problems) or None, bool(problems))
        return PassResult(wall, result.n_runs, [op],
                          detail={"n_runs": result.n_runs, "batch_size": self.batch_size})


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
class ServiceMixed(Workload):
    name = "service-mixed"
    why = (
        "closed loop of nproc clients on the HTTP service: half repeats "
        "(cache reads), half fresh 2k-run studies (simulate, store, poll)"
    )
    #: Per client and pass; half fresh, half repeats.
    ops_per_client = 20
    #: 5 passes x nproc clients x 10 of each class >= 100 per class.
    min_passes = 5
    n_runs = 2000
    horizon = 20.0
    poll_interval = 0.01
    timeout = 60.0

    def setup(self) -> None:
        from repro import serve_app
        from repro.eijoint import build_ei_joint_fmt, current_policy
        from repro.service.wire import encode_wire
        from repro.studies import StudyRequest, StudyRunner

        self.store = CACHE_DIR / f"service-{os.getpid()}"
        shutil.rmtree(self.store, ignore_errors=True)
        self.runner = StudyRunner(cache_dir=str(self.store))
        self.server = serve_app(self.runner, workers=2, port=0).start()
        status, _ = self._call("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        envelope = encode_wire(
            StudyRequest(
                tree=build_ei_joint_fmt(),
                strategy=current_policy(),
                horizon=self.horizon,
                n_runs=self.n_runs,
            )
        )
        # No kernel field: the service routes the study itself.
        del envelope["payload"]["kernel"]
        self.envelope = envelope
        self.used_seeds = set()
        #: Per client: (body, first answer's result bytes) of its studies.
        self.done: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(NPROC)]

    def _call(self, method: str, path: str, body: Optional[bytes] = None):
        connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _body(self, seed: int) -> bytes:
        self.envelope["payload"]["seed"] = seed
        return json.dumps(self.envelope).encode("utf-8")

    def _plan(self) -> List[List[Tuple[str, Any]]]:
        """Each client's (kind, fresh body | repeat pick) list for a pass."""
        plans = []
        for client in range(NPROC):
            half = self.ops_per_client // 2
            kinds = ["fresh"] * half + ["hit"] * half
            self.rng.shuffle(kinds)
            if not self.done[client] and kinds[0] == "hit":
                kinds.remove("fresh")
                kinds.insert(0, "fresh")
            plan = []
            for kind in kinds:
                if kind == "fresh":
                    seed = self.rng.randrange(1, 2**31)
                    while seed in self.used_seeds:
                        seed = self.rng.randrange(1, 2**31)
                    self.used_seeds.add(seed)
                    plan.append(("fresh", (seed, self._body(seed))))
                else:
                    plan.append(("hit", self.rng.random()))
            plans.append(plan)
        return plans

    @staticmethod
    def _result_bytes(payload: dict) -> bytes:
        # The service renders with sorted keys and compact separators.
        return json.dumps(payload["result"], sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def _fresh(self, client: int, seed: int, body: bytes,
               tracer: Optional[Tracer]) -> Op:
        began = time.perf_counter()
        with maybe_span(tracer, "service.post"):
            status, data = self._call("POST", "/v1/studies", body)
        post = time.perf_counter() - began
        detail = {"seed": seed, "post_s": post, "polls": 0, "status": status}
        if status == 200:
            payload = json.loads(data)
        elif status == 202:
            location = json.loads(data)["location"]
            while True:
                if time.perf_counter() - began > self.timeout:
                    return Op("fresh", time.perf_counter() - began,
                              f"seed {seed}: not done after {self.timeout:g} s",
                              detail=detail)
                time.sleep(self.poll_interval)
                with maybe_span(tracer, "service.poll"):
                    status, data = self._call("GET", location)
                detail["polls"] += 1
                if status != 200:
                    break
                payload = json.loads(data)
                if payload["status"] in ("done", "failed"):
                    break
        latency = time.perf_counter() - began
        if status != 200:
            return Op("fresh", latency, f"seed {seed}: HTTP {status}", detail=detail)
        if payload["status"] != "done":
            return Op("fresh", latency, f"seed {seed}: {payload.get('error')}",
                      check=True, detail=detail)
        self.done[client].append((body, self._result_bytes(payload)))
        return Op("fresh", latency, detail=detail)

    def _repeat(self, client: int, pick: float, tracer: Optional[Tracer]) -> Op:
        studies = self.done[client]
        body, first = studies[int(pick * len(studies))]
        began = time.perf_counter()
        with maybe_span(tracer, "service.post"):
            status, data = self._call("POST", "/v1/studies", body)
        latency = time.perf_counter() - began
        detail = {"post_s": latency, "polls": 0, "status": status}
        if status != 200:
            return Op("hit", latency, f"repeat: HTTP {status}", detail=detail)
        payload = json.loads(data)
        if not payload.get("cached") or self._result_bytes(payload) != first:
            return Op("hit", latency, "repeat answer differs from the first",
                      check=True, detail=detail)
        return Op("hit", latency, detail=detail)

    def _client(self, client: int, plan, tracer: Optional[Tracer], out: List[Op]) -> None:
        for kind, argument in plan:
            try:
                with maybe_span(tracer, "service.request"):
                    if kind == "fresh":
                        op = self._fresh(client, *argument, tracer)
                    else:
                        op = self._repeat(client, argument, tracer)
            except Exception as exc:  # counted as a failed operation
                op = Op(kind, 0.0, f"{type(exc).__name__}: {exc}")
            out.append(op)

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        plans = self._plan()
        outputs: List[List[Op]] = [[] for _ in plans]
        before = _runner_counters(self.runner)
        threads = [
            threading.Thread(target=self._client, args=(c, plan, tracer, outputs[c]),
                             name=f"perfbench-client-{c}")
            for c, plan in enumerate(plans)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.timeout * len(plans[0]))
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a service client did not finish")
        ops = [op for output in outputs for op in output]
        fresh = sum(1 for op in ops if op.kind == "fresh" and op.error is None)
        counters = _diff(_runner_counters(self.runner), before)
        return PassResult(wall, fresh * self.n_runs, ops, counters)

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.store, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperQuick, SweepVectorized, PrecisionCurrent, ServiceMixed)}
