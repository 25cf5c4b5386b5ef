"""Per-layer metrics of the traced run, and the end-to-end metrics they move.

Every ``*_s`` metric is the summed self time (span duration minus the
time its child spans cover) of one layer's spans during the traced
pass, except ``experiments.<id>_s`` and ``service.job_s``, which are
whole durations.  Counts are exact.  Layers a workload does not reach
report 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence, Tuple

from perfbench.spans import Span, covered_length, self_times


class Metric(NamedTuple):
    name: str
    unit: str
    better: str


#: Seen by a user of the system; measured with tracing off.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("trajectories_per_s", "1/s", "higher"),
)

#: The registered experiments, in paper order (``experiments.<id>_s``).
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7",
    "fig8", "optimum", "sensitivity", "uncertainty", "ablation-rdep",
    "ablation-phases", "ablation-detection", "ctmc-crossval",
    "periodic-crossval", "rareevent",
)

#: (metric, unit, better, end-to-end metric / workload it should move).
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("simulation.executor.compile_s", "s", "lower", "wall_s on precision-current; setup_s"),
    ("simulation.executor.simulate_s", "s", "lower",
     "wall_s on paper-quick and precision-current; not sweep-vectorized or service-mixed"),
    ("simulation.executor.trajectories", "count", "lower",
     "object-engine trajectories; > 0 on precision-current shows it ignores kernel=vectorized"),
    ("simulation.vectorized.compile_s", "s", "lower", "wall_s on service-mixed; setup_s"),
    ("simulation.vectorized.chunk_s", "s", "lower",
     "wall_s on service-mixed (in-process); sweep-vectorized runs it in workers"),
    ("simulation.vectorized.chunks", "count", "lower", "wall_s on service-mixed"),
    ("simulation.vectorized.rows", "count", "lower", "trajectories_per_s on service-mixed"),
    ("simulation.parallel.run_parallel_s", "s", "lower",
     "wall_s and trajectories_per_s on sweep-vectorized only (includes worker time)"),
    ("simulation.parallel.pool_start_s", "s", "lower", "setup_s on sweep-vectorized"),
    ("simulation.montecarlo.run_s", "s", "lower", "wall_s on precision-current"),
    ("simulation.montecarlo.precision_runs", "count", "lower", "wall_s on precision-current"),
    ("simulation.montecarlo.precision_batches", "count", "lower", "wall_s on precision-current"),
    ("simulation.metrics.summarize_s", "s", "lower", "wall_s on paper-quick and service-mixed"),
    ("simulation.metrics.summarize_calls", "count", "lower", "wall_s on paper-quick"),
    ("studies.summary_s", "s", "lower", "wall_s on paper-quick and service-mixed"),
    ("studies.key_s", "s", "lower", "wall_s on service-mixed (cache reads)"),
    ("studies.prototype_s", "s", "lower", "wall_s on service-mixed (fresh studies)"),
    ("studies.disk_store_s", "s", "lower", "wall_s on service-mixed (fresh studies)"),
    ("studies.requests", "count", "lower", "wall_s on paper-quick and service-mixed"),
    ("studies.memo_hits", "count", "higher", "wall_s on paper-quick and service-mixed"),
    ("studies.misses", "count", "lower", "wall_s on paper-quick and service-mixed"),
    ("studies.hit_ratio", "ratio", "higher", "wall_s on paper-quick and service-mixed"),
    ("service.decode_s", "s", "lower", "wall_s on service-mixed"),
    ("service.encode_s", "s", "lower", "wall_s on service-mixed"),
    ("service.post_s", "s", "lower", "wall_s on service-mixed (repeats are one POST)"),
    ("service.job_s", "s", "lower", "wall_s on service-mixed (fresh studies)"),
    ("service.queue_wait_s", "s", "lower", "wall_s on service-mixed (fresh studies)"),
    ("service.polls", "count", "lower", "wall_s on service-mixed"),
    ("service.rejected", "count", "lower", "wall_s on service-mixed"),
) + tuple(
    (f"experiments.{key}_s", "s", "lower", "wall_s on paper-quick")
    for key in EXPERIMENT_IDS
) + (
    ("rareevent.estimate_s", "s", "lower", "wall_s on paper-quick"),
    ("trace_overhead_ratio", "ratio", "lower",
     "traced over untraced pass wall per simulated trajectory"),
    ("trace_coverage_ratio", "ratio", "higher", "share of the traced wall under top-level spans"),
)

#: The benchmark's own spans around each workload operation.
TOP_LEVEL = {
    "paper-quick": tuple(f"experiments.{key}" for key in EXPERIMENT_IDS),
    "sweep-vectorized": ("sweep.study",),
    "precision-current": ("precision.run",),
    "service-mixed": ("service.request",),
}


def layer_metrics(
    spans: Sequence[Span],
    window: Tuple[float, float],
    top_level: Sequence[str],
    counters: Dict[str, int],
    precision: Tuple[int, int],
    fresh_ops: Sequence[dict],
    rejected: int,
    pool_start_s: float,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``precision`` is (runs, batch size) of a sequential run, ``fresh_ops``
    the details (seed, latency, POST time) of fresh service requests.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_s(name: str) -> float:
        return sum(selfs[span.id] for span in by_name[name])

    def total_s(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    # Service jobs are the studies.summary spans without a parent: they
    # run on the service's worker threads.  Match them to requests by
    # seed, which is unique per fresh study.
    jobs = {
        span.attrs["seed"]: span.duration
        for span in by_name["studies.summary"]
        if span.parent is None
    }
    queue_wait = sum(
        max(0.0, op["latency"] - op["post_s"] - jobs[op["seed"]])
        for op in fresh_ops
        if op["seed"] in jobs
    )
    requests = counters.get("study.requests", 0)
    misses = counters.get("study.misses", 0)
    runs, batch = precision
    lo, hi = window
    tops = [(s.start, s.end) for name in top_level for s in by_name[name]]
    values = {
        "simulation.executor.compile_s": self_s("simulation.executor.compile"),
        "simulation.executor.simulate_s": self_s("simulation.executor.simulate"),
        "simulation.executor.trajectories": calls("simulation.executor.simulate"),
        "simulation.vectorized.compile_s": self_s("simulation.vectorized.compile"),
        "simulation.vectorized.chunk_s": self_s("simulation.vectorized.chunk"),
        "simulation.vectorized.chunks": calls("simulation.vectorized.chunk"),
        "simulation.vectorized.rows": sum(
            s.attrs["rows"] for s in by_name["simulation.vectorized.chunk"]
        ),
        "simulation.parallel.run_parallel_s": self_s("simulation.parallel.run_parallel"),
        "simulation.parallel.pool_start_s": pool_start_s,
        "simulation.montecarlo.run_s": self_s("simulation.montecarlo.run"),
        "simulation.montecarlo.precision_runs": runs,
        "simulation.montecarlo.precision_batches": math.ceil(runs / batch) if runs else 0,
        "simulation.metrics.summarize_s": self_s("simulation.metrics.summarize"),
        "simulation.metrics.summarize_calls": calls("simulation.metrics.summarize"),
        "studies.summary_s": self_s("studies.summary"),
        "studies.key_s": self_s("studies.key"),
        "studies.prototype_s": self_s("studies.prototype"),
        "studies.disk_store_s": self_s("studies.disk_store"),
        "studies.requests": requests,
        "studies.memo_hits": counters.get("study.memo_hits", 0),
        "studies.misses": misses,
        "studies.hit_ratio": (requests - misses) / requests if requests else 0.0,
        "service.decode_s": self_s("service.decode"),
        "service.encode_s": self_s("service.encode"),
        "service.post_s": self_s("service.post"),
        "service.job_s": sum(jobs.values()),
        "service.queue_wait_s": queue_wait,
        "service.polls": calls("service.poll"),
        "service.rejected": rejected,
        "rareevent.estimate_s": self_s("rareevent.estimate"),
        "trace_overhead_ratio": overhead_ratio,
        "trace_coverage_ratio": covered_length(tops, lo, hi) / (hi - lo),
    }
    for key in EXPERIMENT_IDS:
        values[f"experiments.{key}_s"] = total_s(f"experiments.{key}")
    return values
