"""Span recording for the traced run.

The shims wrap calls into the program's layers from the benchmark's
own files: methods are patched on their class, and functions that a
caller imported by name are patched where the caller looks them up.
Spans stay in memory until the run ends.  Worker processes are not
traced: their time shows up in the parent-process span that waits for
them.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    #: Id of the top-level span this one descends from (on its thread).
    request: int
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; parents follow the calling thread's context.

    A thread starts with an empty context, so spans opened on the
    service's own threads are top-level there.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        #: (current span id, its request id) of the calling thread.
        self._current = contextvars.ContextVar("perfbench_span", default=(None, None))

    @contextmanager
    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Iterator[None]:
        parent, request = self._current.get()
        span_id = next(self._ids)
        if request is None:
            request = span_id
        token = self._current.set((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(span_id, parent, name, start, end, request, attrs))

    def wrap(
        self,
        func: Callable,
        name: str,
        attrs: Optional[Callable[[tuple, dict], Dict[str, Any]]] = None,
    ) -> Callable:
        """``func`` recording one span ``name`` per call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, attrs(args, kwargs) if attrs is not None else None):
                return func(*args, **kwargs)

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), sort_keys=True) + "\n")


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str,
               attrs: Optional[Dict[str, Any]] = None) -> Iterator[None]:
    """A span when tracing, nothing otherwise."""
    if tracer is None:
        yield
        return
    with tracer.span(name, attrs):
        yield


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


class Patch(NamedTuple):
    owner: Any
    attribute: str
    span: str
    attrs: Optional[Callable[[tuple, dict], Dict[str, Any]]] = None


def layer_patches() -> List[Patch]:
    """The program's layer entry points the traced run wraps."""
    import repro.service.app as service_app
    import repro.simulation.montecarlo as montecarlo
    import repro.simulation.parallel as parallel
    from repro.rareevent.estimator import RareEventEstimator
    from repro.simulation.executor import FMTSimulator
    from repro.simulation.vectorized import VectorizedKernel
    from repro.studies.cache import DiskCache
    from repro.studies.runner import StudyRequest, StudyRunner

    run = "simulation.montecarlo.run"
    return [
        Patch(FMTSimulator, "__init__", "simulation.executor.compile"),
        Patch(FMTSimulator, "simulate", "simulation.executor.simulate"),
        Patch(VectorizedKernel, "__init__", "simulation.vectorized.compile"),
        Patch(VectorizedKernel, "simulate_chunk", "simulation.vectorized.chunk",
              lambda args, kwargs: {"rows": kwargs["n"] if "n" in kwargs else args[1]}),
        # run_parallel imports it from the module at call time.
        Patch(parallel, "sample_parallel_batch", "simulation.parallel.run_parallel"),
        Patch(montecarlo.MonteCarlo, "run", run),
        Patch(montecarlo.MonteCarlo, "run_parallel", run),
        Patch(montecarlo.MonteCarlo, "run_to_precision", run),
        Patch(montecarlo.MonteCarlo, "run_rare_event", run),
        # MonteCarlo calls summarize through its module global.
        Patch(montecarlo, "summarize", "simulation.metrics.summarize"),
        Patch(StudyRunner, "summary", "studies.summary",
              lambda args, kwargs: {"seed": (kwargs.get("request") or args[1]).seed}),
        Patch(StudyRunner, "_prototype", "studies.prototype"),
        Patch(StudyRequest, "key", "studies.key"),
        Patch(DiskCache, "store", "studies.disk_store"),
        # The service module imported the wire codecs by name.
        Patch(service_app, "decode_wire", "service.decode"),
        Patch(service_app, "encode_wire", "service.encode"),
        Patch(RareEventEstimator, "estimate", "rareevent.estimate"),
    ]


@contextmanager
def installed(tracer: Tracer, patches: Sequence[Patch]) -> Iterator[Tracer]:
    """Wrap every patch target for the duration of the block."""
    originals = []
    try:
        for patch in patches:
            original = (
                patch.owner.__dict__[patch.attribute]
                if isinstance(patch.owner, type)
                else getattr(patch.owner, patch.attribute)
            )
            originals.append((patch.owner, patch.attribute, original))
            setattr(
                patch.owner,
                patch.attribute,
                tracer.wrap(getattr(patch.owner, patch.attribute), patch.span, patch.attrs),
            )
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
