"""Diff a fresh engine benchmark against the committed baseline.

Loads two ``repro-bench/1`` JSON files (a fresh run and the committed
``BENCH_engine.json``), compares ``median_s_per_trajectory`` per
workload, and fails when any workload regressed by more than
``--max-regression`` (default 25% — generous enough to absorb machine
differences between the baseline host and CI runners, tight enough to
catch a hot-path pessimisation).  Improvements never fail.

``--require-speedup WORKLOAD:BASELINE:FACTOR`` (repeatable) gates a
minimum speedup *within the fresh results file* — both medians come
from the same host and run, so the committed baseline's hardware cannot
fake or mask the ratio.  CI uses it to hold the vectorized kernel to
its advertised edge over the object engine.

With ``--max-overhead`` it additionally measures the fully-instrumented
(spans + progress + metrics) throughput of the EI-joint current-policy
workload against an uninstrumented run and fails when the telemetry
costs more than the given fraction — the same budget
``tests/test_telemetry.py`` enforces, exercised here against the real
benchmark workload so the CI bench job guards it too.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py fresh.json
    PYTHONPATH=src python benchmarks/compare_bench.py fresh.json \
        --baseline BENCH_engine.json --max-regression 0.25 \
        --max-overhead 0.05
    PYTHONPATH=src python benchmarks/compare_bench.py fresh.json \
        --require-speedup eijoint-unmaintained-vectorized:eijoint-unmaintained:10
    PYTHONPATH=src python benchmarks/compare_bench.py fresh.json \
        --require-floor eijoint-current-policy-vectorized:25000
    PYTHONPATH=src python benchmarks/compare_bench.py --max-overhead 0.05

``--require-floor WORKLOAD:TRAJ_PER_SEC`` gates an absolute throughput
floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_engine.json")


def load_bench(path: str) -> Dict[str, dict]:
    """Workload table of a ``repro-bench/1`` file, schema-checked."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != "repro-bench/1":
        raise SystemExit(f"{path}: not a repro-bench/1 file")
    return payload["workloads"]


def compare(
    fresh: Dict[str, dict],
    baseline: Dict[str, dict],
    max_regression: float,
) -> Tuple[List[str], List[str]]:
    """(report lines, violation lines) for workloads present in both.

    Workloads only present on one side are reported but never fail the
    comparison: a quick run and a full baseline legitimately differ in
    batch sizing, not in workload set, so a disappearance is worth a
    line yet should not block adding or retiring a workload.
    """
    lines: List[str] = []
    violations: List[str] = []
    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        violations.append("no shared workloads between fresh run and baseline")
    for name in shared:
        fresh_median = fresh[name]["median_s_per_trajectory"]
        base_median = baseline[name]["median_s_per_trajectory"]
        delta = fresh_median / base_median - 1.0
        marker = " "
        if delta > max_regression:
            marker = "!"
            violations.append(
                f"{name}: {delta:+.1%} slower than baseline "
                f"(budget {max_regression:+.0%})"
            )
        lines.append(
            f"{marker} {name:32s} {base_median * 1e6:10.2f} -> "
            f"{fresh_median * 1e6:10.2f} us/traj  ({delta:+6.1%})"
        )
    for name in sorted(set(baseline) - set(fresh)):
        lines.append(f"  {name:32s} (not in fresh run)")
    for name in sorted(set(fresh) - set(baseline)):
        lines.append(f"  {name:32s} (new, no baseline)")
    return lines, violations


def parse_speedup_spec(spec: str) -> Tuple[str, str, float]:
    """Parse ``WORKLOAD:BASELINE:FACTOR`` into its three parts."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise SystemExit(
            f"--require-speedup {spec!r}: expected WORKLOAD:BASELINE:FACTOR"
        )
    workload, baseline, factor_text = parts
    try:
        factor = float(factor_text)
    except ValueError:
        raise SystemExit(
            f"--require-speedup {spec!r}: FACTOR must be a number"
        ) from None
    if factor <= 0.0:
        raise SystemExit(f"--require-speedup {spec!r}: FACTOR must be > 0")
    return workload, baseline, factor


def check_speedups(
    fresh: Dict[str, dict], specs: List[str]
) -> Tuple[List[str], List[str]]:
    """(report lines, violations) for ``--require-speedup`` gates.

    Both workloads come from the SAME fresh results file — a fresh-vs-
    fresh ratio on one host, so machine differences against the
    committed baseline can neither mask nor fake a kernel speedup.
    """
    lines: List[str] = []
    violations: List[str] = []
    for spec in specs:
        workload, baseline, factor = parse_speedup_spec(spec)
        missing = [name for name in (workload, baseline) if name not in fresh]
        if missing:
            violations.append(
                f"--require-speedup {spec}: missing workload(s) "
                f"{', '.join(missing)} in fresh run"
            )
            continue
        ratio = (
            fresh[baseline]["median_s_per_trajectory"]
            / fresh[workload]["median_s_per_trajectory"]
        )
        marker = " " if ratio >= factor else "!"
        lines.append(
            f"{marker} speedup {workload} vs {baseline}: {ratio:.1f}x "
            f"(required {factor:g}x)"
        )
        if ratio < factor:
            violations.append(
                f"{workload} is only {ratio:.2f}x faster than {baseline} "
                f"(required {factor:g}x)"
            )
    return lines, violations


def parse_floor_spec(spec: str) -> Tuple[str, float]:
    """Parse ``WORKLOAD:TRAJ_PER_SEC`` into its two parts."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise SystemExit(
            f"--require-floor {spec!r}: expected WORKLOAD:TRAJ_PER_SEC"
        )
    workload, floor_text = parts
    try:
        floor = float(floor_text)
    except ValueError:
        raise SystemExit(
            f"--require-floor {spec!r}: TRAJ_PER_SEC must be a number"
        ) from None
    if floor <= 0.0:
        raise SystemExit(f"--require-floor {spec!r}: TRAJ_PER_SEC must be > 0")
    return workload, floor


def check_floors(
    fresh: Dict[str, dict], specs: List[str]
) -> Tuple[List[str], List[str]]:
    """(report lines, violations) for ``--require-floor`` gates.

    Absolute throughput floors from the fresh results file — the
    acceptance criterion "this workload sustains N trajectories per
    second" checked on the machine that just ran it.
    """
    lines: List[str] = []
    violations: List[str] = []
    for spec in specs:
        workload, floor = parse_floor_spec(spec)
        if workload not in fresh:
            violations.append(
                f"--require-floor {spec}: workload {workload!r} missing "
                "in fresh run"
            )
            continue
        rate = fresh[workload]["trajectories_per_sec"]
        marker = " " if rate >= floor else "!"
        lines.append(
            f"{marker} floor {workload}: {rate:,.0f} traj/s "
            f"(required {floor:,.0f})"
        )
        if rate < floor:
            violations.append(
                f"{workload} sustains only {rate:,.0f} traj/s "
                f"(floor {floor:,.0f})"
            )
    return lines, violations


def measure_telemetry_overhead(n_runs: int = 300, reps: int = 5) -> float:
    """Fractional cost of full telemetry on the EI-joint workload.

    Interleaved plain/instrumented runs compared on CPU time
    (scheduler preemption must not masquerade as telemetry cost), with
    the per-leg minimum as the noise-robust estimator — mirrors
    tests/test_telemetry.py.
    """
    import io
    import time

    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.strategies import current_policy
    from repro.observability import (
        Instrumentation,
        JsonlProgressReporter,
        SpanCollector,
        spans,
        use_progress,
    )
    from repro.simulation.montecarlo import MonteCarlo

    tree = build_ei_joint_fmt()
    policy = current_policy()

    def leg(instrumented: bool) -> float:
        if instrumented:
            mc = MonteCarlo(
                tree, policy, horizon=15.0, seed=2016,
                instrumentation=Instrumentation(),
            )
            collector = SpanCollector()
            reporter = JsonlProgressReporter(stream=io.StringIO())
            start = time.process_time()
            with spans.use(collector), use_progress(reporter):
                mc.run(n_runs)
            return time.process_time() - start
        mc = MonteCarlo(tree, policy, horizon=15.0, seed=2016)
        start = time.process_time()
        mc.run(n_runs)
        return time.process_time() - start

    leg(False), leg(True)  # warm caches outside the measurement
    plain, full = [], []
    for _ in range(reps):
        plain.append(leg(False))
        full.append(leg(True))
    return min(full) / min(plain) - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh", nargs="?", metavar="FRESH_JSON",
        help="fresh benchmark JSON to compare (omit to only check overhead)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="PATH",
        help="committed baseline JSON (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25, metavar="FRACTION",
        help="fail when a workload is this much slower (default 0.25)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None, metavar="FRACTION",
        help="also measure full-telemetry overhead and fail above this",
    )
    parser.add_argument(
        "--require-speedup", action="append", default=[],
        metavar="WORKLOAD:BASELINE:FACTOR",
        help="fail unless WORKLOAD is at least FACTOR times faster than "
        "BASELINE within the fresh results file (repeatable; e.g. "
        "eijoint-unmaintained-vectorized:eijoint-unmaintained:10)",
    )
    parser.add_argument(
        "--require-floor", action="append", default=[],
        metavar="WORKLOAD:TRAJ_PER_SEC",
        help="fail unless WORKLOAD sustains at least this many "
        "trajectories per second in the fresh results file (repeatable; "
        "e.g. eijoint-current-policy-vectorized:25000)",
    )
    args = parser.parse_args(argv)
    if args.fresh is None and args.max_overhead is None:
        parser.error("give FRESH_JSON, --max-overhead, or both")
    if args.require_speedup and args.fresh is None:
        parser.error("--require-speedup needs FRESH_JSON")
    if args.require_floor and args.fresh is None:
        parser.error("--require-floor needs FRESH_JSON")

    violations: List[str] = []
    if args.fresh is not None:
        fresh = load_bench(args.fresh)
        baseline = load_bench(args.baseline)
        lines, bench_violations = compare(
            fresh, baseline, args.max_regression
        )
        print(f"fresh: {args.fresh}\nbaseline: {args.baseline}")
        for line in lines:
            print(line)
        violations.extend(bench_violations)
        if args.require_speedup:
            speedup_lines, speedup_violations = check_speedups(
                fresh, args.require_speedup
            )
            for line in speedup_lines:
                print(line)
            violations.extend(speedup_violations)
        if args.require_floor:
            floor_lines, floor_violations = check_floors(
                fresh, args.require_floor
            )
            for line in floor_lines:
                print(line)
            violations.extend(floor_violations)

    if args.max_overhead is not None:
        overhead: Optional[float] = None
        for _ in range(3):  # retry: absorb a noisy-machine outlier
            overhead = measure_telemetry_overhead()
            if overhead <= args.max_overhead:
                break
        print(
            f"telemetry overhead: {overhead:+.2%} "
            f"(budget {args.max_overhead:.0%})"
        )
        if overhead > args.max_overhead:
            violations.append(
                f"full telemetry costs {overhead:.1%} throughput "
                f"(budget {args.max_overhead:.0%})"
            )

    if violations:
        print("\nFAIL:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("OK: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
