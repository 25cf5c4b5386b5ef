#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the repository root, against the program in ``src/``.  The
workload repeats passes of its fixed operation list until ``--seconds``
have passed (and its minimum pass count is met), checks every output,
and prints a readable summary followed, on the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the untraced passes are followed by one traced pass and one more
untraced pass, and the metrics are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 3
#: No new pass starts after this many seconds of passes, so a run ends
#: well within its time limit even when the program gets much slower.
PASS_BUDGET_S = 100.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def probe(workload) -> int:
    """Set up, report readiness, and hold until stdin closes."""
    workload.setup()
    print("ready", flush=True)
    try:
        sys.stdin.read()
    finally:
        workload.close()
    return 0


def setup_times(args) -> list:
    """Seconds from launching a fresh process to the end of its set-up."""
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            child.stdin.close()
            code = child.wait(timeout=60)
            child.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return samples


def run_passes(workload, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() - start > PASS_BUDGET_S:
            break
        passes.append(workload.run_pass())
    return passes


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if shared memory started it.

    The tracker is a child process that would otherwise outlive the run
    by a moment; ``_stop`` closes its pipe and waits for it.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Import the benchmark as a package and the program from src/, not
    # from this script's directory.
    sys.path[:1] = [str(ROOT), str(SRC)]
    from perfbench.layers import END_TO_END, PER_LAYER, TOP_LEVEL, layer_metrics
    from perfbench.measure import Tally, percentile, validate_metric_name
    from perfbench.spans import Tracer, installed, layer_patches
    from perfbench.workloads import CACHE_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return probe(workload)

    setup = [] if args.trace else setup_times(args)
    workload.setup()
    traced = base = tracer = None
    try:
        workload.prepare()
        passes = run_passes(workload, args.seconds)
        if args.trace:
            tracer = Tracer()
            with installed(tracer, layer_patches()):
                window_start = time.perf_counter()
                traced = workload.run_pass(tracer)
                window = (window_start, time.perf_counter())
            # The tracing overhead base: an untraced pass as warm as the
            # traced one (the first pass also pays one-time costs).
            base = workload.run_pass()
    finally:
        workload.close()
        stop_resource_tracker()

    tally = Tally()
    for result in passes + [r for r in (traced, base) if r is not None]:
        for op in result.ops:
            tally.record(op.error, op.check)
    ops = [op for result in passes for op in result.ops]
    walls = [p.wall for p in passes]
    # name -> (value, unit, note); the end-to-end metrics plus readable extras.
    summary = {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "trajectories_per_s": (
            statistics.median(p.trajectories / p.wall for p in passes), "1/s", ""
        ),
        "requests_per_s": (len(ops) / sum(walls), "1/s", "operations per second"),
        "failed_ratio": (
            tally.failed_ratio, "ratio", f"{tally.failed}/{tally.attempted}"
        ),
    }
    if not args.trace:
        summary["setup_s"] = (
            statistics.median(setup), "s", f"median of {len(setup)} fresh processes"
        )
        summary["peak_rss_mb"] = (peak_rss_mb(), "MB", "")
    for kind in sorted({op.kind for op in ops}):
        latencies = [op.latency for op in ops if op.kind == kind and op.error is None]
        for p in (50, 90):
            value = percentile(latencies, p)
            if value is not None:
                summary[f"{kind}_p{p}_s"] = (value, "s", f"n={len(latencies)}")

    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={tally.attempted} failed={tally.failed} correct={tally.correct}")
    for name, (value, unit, note) in summary.items():
        print(f"  {name:<40} {value:<12.6g} {unit:<6} {note}")
    for reason in tally.reasons[:10]:
        print(f"  failed: {reason}", file=sys.stderr)

    if args.trace:
        CACHE_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(str(CACHE_DIR / f"trace-{args.workload}.jsonl"))
        fresh = [
            {"seed": op.detail["seed"], "latency": op.latency,
             "post_s": op.detail["post_s"]}
            for op in traced.ops if op.kind == "fresh" and op.error is None
        ]
        values = layer_metrics(
            tracer.spans,
            window,
            TOP_LEVEL[args.workload],
            traced.counters,
            (traced.detail.get("n_runs", 0), traced.detail.get("batch_size", 1)),
            fresh,
            sum(1 for op in traced.ops if op.detail.get("status") == 429),
            workload.pool_start_s,
            # Per trajectory: sequential stopping varies a pass's work.
            (traced.wall / max(traced.trajectories, 1))
            / (base.wall / max(base.trajectories, 1)),
        )
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        for name in units:
            print(f"  {name:<40} {values[name]:.6g} {units[name]}")
    else:
        values = {name: value for name, (value, _, _) in summary.items()}
        units = {m.name: m.unit for m in END_TO_END}
    metrics = {
        validate_metric_name(name): {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
