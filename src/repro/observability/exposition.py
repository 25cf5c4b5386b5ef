"""Prometheus text exposition and the ``/metrics`` scrape endpoint.

Renders a :class:`~repro.observability.metrics.MetricsRegistry`
snapshot (the :meth:`~repro.observability.metrics.MetricsRegistry.
to_dict` shape) to the Prometheus text exposition format, version
0.0.4 — ``# HELP`` / ``# TYPE`` comment lines plus one sample per
line — and serves it over a zero-dependency stdlib
:mod:`http.server`:

* counters → ``repro_<name>_total`` (type ``counter``);
* gauges → ``repro_<name>`` (type ``gauge``, the ``last`` value) plus
  ``_min`` / ``_max`` companions when the gauge was ever set;
* timers → ``repro_<name>`` (type ``summary``): ``{quantile="0.5"}``,
  ``{quantile="0.95"}``, ``_sum``, ``_count``, and a ``_max`` gauge.

Name mangling is stable: dots and any other non-metric characters
become underscores (``sim.worker.0.chunks`` →
``repro_sim_worker_0_chunks``), so dashboards survive refactors of the
dotted names.  ``python -m repro metrics-serve`` mounts
:class:`MetricsServer` on a port; the analysis service
(``python -m repro serve``) renders the same exposition from its own
``/metrics`` route — both run on the one shared server implementation
in :mod:`repro.service.http`.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, Union

__all__ = [
    "CONTENT_TYPE",
    "mangle_metric_name",
    "render_prometheus",
    "MetricsApp",
    "MetricsServer",
]

#: Content type of the Prometheus text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_START = re.compile(r"^[^a-zA-Z_:]")

#: HELP strings for the canonical metric families (keep in sync with
#: docs/observability.md; unknown names get a generic line).
_HELP: Dict[str, str] = {
    "sim.events.scheduled": "events pushed onto the simulation calendar",
    "sim.events.cancelled": "events cancelled before execution",
    "sim.events.executed": "event callbacks run",
    "sim.trajectories": "completed simulate() calls",
    "sim.system_failures": "top-event occurrences",
    "sim.simulate.seconds": "wall time per simulated trajectory",
    "sim.chunk.seconds": "wall time per lockstep chunk (vectorized kernel)",
    "mc.summarize.seconds": "KPI aggregation time per run",
    "sim.workers": "distinct worker processes that returned chunks",
    "study.requests": "artifact requests seen by the study runner",
    "study.fresh_trajectories": "trajectories simulated (not cache-served)",
    "study.kernel_auto_vectorized": "kernel=auto requests routed to lockstep",
    "study.kernel_auto_object": "kernel=auto requests routed to object",
}


def mangle_metric_name(name: str, namespace: str = "repro") -> str:
    """Map a dotted registry name to a valid Prometheus metric name."""
    flat = _INVALID_CHARS.sub("_", name)
    if namespace:
        flat = f"{namespace}_{flat}"
    if _INVALID_START.match(flat):
        flat = f"_{flat}"
    return flat


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _help_and_type(
    lines: List[str], dotted: str, exposed: str, kind: str
) -> None:
    help_text = _HELP.get(dotted, f"{kind} {dotted}")
    lines.append(f"# HELP {exposed} {help_text}")
    lines.append(f"# TYPE {exposed} {kind}")


def render_prometheus(
    snapshot: Dict[str, Dict], namespace: str = "repro"
) -> str:
    """Render a registry snapshot to Prometheus text exposition.

    ``snapshot`` is the :meth:`MetricsRegistry.to_dict` shape (also
    what ``--metrics-out`` writes), so a dump from a finished run can
    be served without the live registry.  Gauges are accepted in both
    the current ``{"last": ..., "min": ..., "max": ...}`` shape and
    the pre-PR-6 bare-float shape.
    """
    lines: List[str] = []
    for dotted, value in sorted(snapshot.get("counters", {}).items()):
        exposed = mangle_metric_name(dotted, namespace) + "_total"
        _help_and_type(lines, dotted, exposed, "counter")
        lines.append(f"{exposed} {_format_value(value)}")
    for dotted, value in sorted(snapshot.get("gauges", {}).items()):
        exposed = mangle_metric_name(dotted, namespace)
        _help_and_type(lines, dotted, exposed, "gauge")
        if isinstance(value, dict):
            lines.append(f"{exposed} {_format_value(value['last'])}")
            if "min" in value:
                lines.append(f"{exposed}_min {_format_value(value['min'])}")
            if "max" in value:
                lines.append(f"{exposed}_max {_format_value(value['max'])}")
        else:
            lines.append(f"{exposed} {_format_value(value)}")
    for dotted, summary in sorted(snapshot.get("timers", {}).items()):
        exposed = mangle_metric_name(dotted, namespace)
        _help_and_type(lines, dotted, exposed, "summary")
        lines.append(
            f'{exposed}{{quantile="0.5"}} '
            f"{_format_value(summary['p50_seconds'])}"
        )
        lines.append(
            f'{exposed}{{quantile="0.95"}} '
            f"{_format_value(summary['p95_seconds'])}"
        )
        lines.append(f"{exposed}_sum {_format_value(summary['total_seconds'])}")
        lines.append(f"{exposed}_count {_format_value(summary['count'])}")
        lines.append(f"{exposed}_max {_format_value(summary['max_seconds'])}")
    return "\n".join(lines) + "\n"


SnapshotProvider = Callable[[], Dict[str, Dict]]


class MetricsApp:
    """The scrape application: ``/metrics`` + ``/healthz``.

    Transport-free (mountable on :class:`repro.service.http.AppServer`
    next to the analysis service, or driven directly in tests).
    ``provider`` is a zero-argument callable returning a registry
    snapshot dict.
    """

    def __init__(self, provider: SnapshotProvider, namespace: str = "repro"):
        self.provider = provider
        self.namespace = namespace

    def handle(self, method: str, path: str, query: Dict, body: bytes):
        from repro.service.http import HttpResponse

        if path == "/metrics" and method == "GET":
            try:
                text = render_prometheus(
                    self.provider(), namespace=self.namespace
                )
            except Exception as exc:  # pragma: no cover - defensive
                return HttpResponse(
                    500,
                    f"scrape failed: {exc}\n".encode("utf-8"),
                    "text/plain; charset=utf-8",
                )
            return HttpResponse(200, text.encode("utf-8"), CONTENT_TYPE)
        if path == "/healthz" and method == "GET":
            body_bytes = json.dumps({"status": "ok"}).encode("utf-8") + b"\n"
            return HttpResponse(200, body_bytes, "application/json")
        return HttpResponse(
            404, b"try /metrics or /healthz\n", "text/plain; charset=utf-8"
        )


class MetricsServer:
    """HTTP server exposing ``/metrics`` and ``/healthz``.

    A :class:`MetricsApp` mounted on the package's one server
    implementation (:class:`repro.service.http.AppServer` — the same
    stack behind ``python -m repro serve``); this class remains as the
    stable convenience entry point of the ``metrics-serve`` verb.

    ``source`` is either a live registry-like object (anything with a
    ``to_dict()``) or a zero-argument callable returning a snapshot
    dict — the callable form lets the CLI re-read a ``--metrics-out``
    JSON file on every scrape, so a dashboard can watch a run that is
    still writing.

    ``port=0`` binds an ephemeral port (use :attr:`port` after
    construction); :meth:`start` serves from a daemon thread,
    :meth:`serve_forever` blocks (the CLI verb).
    """

    def __init__(
        self,
        source: Union[SnapshotProvider, object],
        host: str = "127.0.0.1",
        port: int = 9102,
        namespace: str = "repro",
    ):
        from repro.service.http import AppServer

        if callable(source):
            provider: SnapshotProvider = source  # type: ignore[assignment]
        else:
            provider = source.to_dict  # type: ignore[union-attr]
        self._server = AppServer(
            MetricsApp(provider, namespace=namespace), host=host, port=port
        )

    @property
    def requests_served(self) -> int:
        """Requests handled since the server was created."""
        return self._server.requests_served

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._server.host

    @property
    def port(self) -> int:
        """Bound port (resolved when constructed with ``port=0``)."""
        return self._server.port

    def start(self) -> "MetricsServer":
        """Serve from a background daemon thread; returns self."""
        self._server.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._server.serve_forever()

    def stop(self) -> None:
        """Shut the server down (idempotent)."""
        self._server.stop()

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsServer(http://{self.host}:{self.port})"
