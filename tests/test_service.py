"""The analysis service end to end: HTTP, cache fast path, backpressure.

The acceptance property of the service (ISSUE 9): submitting a study
as a JSON payload over HTTP twice yields byte-identical results to
calling :class:`~repro.studies.StudyRunner` in-process with the same
seed, and the second request is served from the StudyKey cache without
simulating a single new trajectory.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability.instrumentation import Instrumentation
from repro.service.app import StudyService, serve_app
from repro.service.jobs import JobQueue, QueueFull
from repro.service.wire import decode_wire, dumps, encode_wire
from repro.studies.runner import StudyRequest, StudyRunner


def _request(tree, n_runs=40, seed=11, **kwargs) -> StudyRequest:
    return StudyRequest(
        tree=tree,
        strategy=MaintenanceStrategy.none(),
        horizon=4.0,
        seed=seed,
        n_runs=n_runs,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Transport-free: drive StudyService.handle() directly
# ----------------------------------------------------------------------


@pytest.fixture
def service():
    service = StudyService(max_pending=8, workers=1)
    yield service
    service.close()


def _submit(service, request, raw=None):
    body = raw if raw is not None else dumps(request).encode("utf-8")
    return service.handle("POST", "/v1/studies", {}, body)


def _wait_done(service, job_id, timeout=30.0):
    job = service.jobs.get(job_id)
    assert job is not None
    assert job.wait(timeout), f"job {job_id} did not finish"
    return job


def test_submit_poll_and_cached_resubmit(service, simple_or_tree):
    request = _request(simple_or_tree)
    first = _submit(service, request)
    assert first.status == 202
    submitted = json.loads(first.body)
    assert submitted["status"] == "queued"
    assert submitted["cached"] is False
    assert submitted["study_key"] == request.key().digest

    _wait_done(service, submitted["job_id"])
    status = service.handle(
        "GET", submitted["location"], {}, b""
    )
    assert status.status == 200
    done = json.loads(status.body)
    assert done["status"] == "done"
    assert done["result"]["kind"] == "kpi_summary"

    # The resubmission is synchronous: 200, cached, no new job.
    second = _submit(service, request)
    assert second.status == 200
    cached = json.loads(second.body)
    assert cached["cached"] is True
    assert cached["result"] == done["result"]


def test_cached_result_byte_identical_to_in_process(simple_or_tree):
    request = _request(simple_or_tree)
    # Ground truth: the runner called in-process.
    runner = StudyRunner()
    try:
        expected = runner.summary(request)
    finally:
        runner.close()

    instrumentation = Instrumentation()
    service = StudyService(workers=1, instrumentation=instrumentation)
    try:
        submitted = json.loads(_submit(service, request).body)
        _wait_done(service, submitted["job_id"])
        first = _submit(service, request)
        second = _submit(service, request)
        fresh_after_first = instrumentation.registry.to_dict()["counters"][
            "study.fresh_trajectories"
        ]
        third = _submit(service, request)
        fresh_after_more = instrumentation.registry.to_dict()["counters"][
            "study.fresh_trajectories"
        ]
    finally:
        service.close()

    assert first.status == second.status == third.status == 200
    assert first.body == second.body == third.body  # byte-identical
    # ... and equal to the in-process result, wire-encoded.
    assert json.loads(first.body)["result"] == encode_wire(expected)
    # Cache hits simulate nothing.
    assert fresh_after_more == fresh_after_first == request.n_runs


def test_identical_inflight_submissions_share_a_job(simple_or_tree):
    # One worker busy on a long job; identical submissions must attach
    # to the queued job rather than multiply.
    service = StudyService(max_pending=8, workers=1)
    try:
        blocker = _request(simple_or_tree, n_runs=4000, seed=1)
        target = _request(simple_or_tree, n_runs=50, seed=2)
        _submit(service, blocker)
        a = json.loads(_submit(service, target).body)
        b = json.loads(_submit(service, target).body)
        assert a["job_id"] == b["job_id"]
        assert a["deduplicated"] is False
        assert b["deduplicated"] is True
    finally:
        service.close()


def test_backpressure_429_with_retry_after(simple_or_tree):
    # Stall the single worker with an event so the queue can fill.
    release = threading.Event()

    started = threading.Event()

    class _StallRunner(StudyRunner):
        def summary(self, request):
            started.set()
            release.wait(30.0)
            return super().summary(request)

    service = StudyService(
        _StallRunner(), max_pending=2, workers=1, retry_after=2.5
    )
    try:
        # First submit occupies the worker (wait until it actually
        # dequeues); the next two fill the queue.
        response = _submit(service, _request(simple_or_tree, seed=1))
        assert response.status == 202
        assert started.wait(10.0)
        for seed in (2, 3):
            response = _submit(service, _request(simple_or_tree, seed=seed))
            assert response.status == 202
        rejected = _submit(service, _request(simple_or_tree, seed=4))
        assert rejected.status == 429
        assert ("Retry-After", "2.5") in list(rejected.headers)
        body = json.loads(rejected.body)
        assert "retry_after" in body and body["retry_after"] == 2.5
    finally:
        release.set()
        service.close()


def test_events_stream_ndjson(service, simple_or_tree):
    request = _request(simple_or_tree, record_events=False)
    submitted = json.loads(_submit(service, request).body)
    _wait_done(service, submitted["job_id"])
    response = service.handle("GET", submitted["events"], {}, b"")
    assert response.status == 200
    assert response.content_type == "application/x-ndjson"
    lines = [json.loads(line) for line in response.body.splitlines()]
    assert lines[-1]["record"] == "job"
    assert lines[-1]["status"] == "done"
    assert lines[-1]["events"] == len(lines) - 1
    # Progress records carry the schema-v1 marker.
    assert all(
        line["record"] == "progress" and line["schema_version"] == 1
        for line in lines[:-1]
    )


def test_failed_job_reports_error(service):
    # A payload that decodes but cannot simulate: horizon <= 0 passes
    # construction? No — StudyRequest validates eagerly, so instead
    # break at simulation time with an unknown kernel.
    envelope = {
        "schema_version": 1,
        "kind": "study_request",
        "payload": {"tree": {"name": "x"}},  # malformed tree
    }
    response = _submit(service, None, raw=json.dumps(envelope).encode())
    assert response.status == 400


def test_http_error_paths(service):
    assert service.handle("GET", "/nope", {}, b"").status == 404
    assert service.handle("GET", "/v1/studies/zzz", {}, b"").status == 404
    assert service.handle("GET", "/v1/studies/zzz/events", {}, b"").status == 404
    assert service.handle("GET", "/v1/studies", {}, b"").status == 405
    assert service.handle("POST", "/healthz", {}, b"").status == 405
    bad = service.handle("POST", "/v1/studies", {}, b"{not json")
    assert bad.status == 400
    versioned = service.handle(
        "POST",
        "/v1/studies",
        {},
        json.dumps(
            {"schema_version": 99, "kind": "study_request", "payload": {}}
        ).encode(),
    )
    assert versioned.status == 400
    assert "schema_version" in json.loads(versioned.body)


def test_healthz_and_metrics(service, simple_or_tree):
    health = service.handle("GET", "/healthz", {}, b"")
    assert health.status == 200
    payload = json.loads(health.body)
    assert payload["status"] == "ok"
    assert payload["jobs"]["workers"] == 1

    submitted = json.loads(_submit(service, _request(simple_or_tree)).body)
    _wait_done(service, submitted["job_id"])
    _submit(service, _request(simple_or_tree))  # cache hit
    metrics = service.handle("GET", "/metrics", {}, b"")
    text = metrics.body.decode("utf-8")
    assert "repro_service_cache_hits_total 1.0" in text
    assert "repro_study_fresh_trajectories_total" in text


# ----------------------------------------------------------------------
# Over real HTTP
# ----------------------------------------------------------------------


def _http(method, url, body=None):
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def test_over_real_http(simple_and_tree):
    request = _request(simple_and_tree, n_runs=30)
    server = serve_app(port=0, workers=1).start()
    try:
        base = server.url
        payload = dumps(request).encode("utf-8")

        status, _, body = _http("POST", f"{base}/v1/studies", payload)
        assert status == 202
        submitted = json.loads(body)

        deadline = time.time() + 30.0
        while time.time() < deadline:
            status, _, body = _http("GET", base + submitted["location"])
            document = json.loads(body)
            if document["status"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert document["status"] == "done"

        status, headers, body = _http("POST", f"{base}/v1/studies", payload)
        assert status == 200
        cached = json.loads(body)
        assert cached["cached"] is True
        assert cached["result"] == document["result"]
        # The wire result decodes to a usable summary.
        summary = decode_wire(cached["result"], expect="kpi_summary")
        assert 0.0 <= summary.unreliability.estimate <= 1.0

        status, _, body = _http("GET", base + submitted["events"])
        assert status == 200
        assert json.loads(body.splitlines()[-1])["record"] == "job"

        status, _, body = _http("GET", f"{base}/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, _, body = _http("GET", f"{base}/metrics")
        assert status == 200 and b"repro_service_requests_total" in body
    finally:
        server.stop()


def test_server_stop_is_idempotent_and_closes_service(simple_or_tree):
    server = serve_app(port=0, workers=1).start()
    server.stop()
    server.stop()  # second stop is a no-op


# ----------------------------------------------------------------------
# JobQueue unit behavior
# ----------------------------------------------------------------------


def test_job_queue_validates_parameters():
    runner = StudyRunner()
    try:
        with pytest.raises(ValueError):
            JobQueue(runner, max_pending=0)
        with pytest.raises(ValueError):
            JobQueue(runner, workers=0)
    finally:
        runner.close()


def test_job_queue_retention_evicts_only_finished(simple_or_tree):
    runner = StudyRunner()
    queue = JobQueue(runner, max_pending=64, workers=1, max_finished=2)
    try:
        jobs = []
        for seed in range(5):
            job, created = queue.submit(
                _request(simple_or_tree, n_runs=5, seed=seed)
            )
            assert created
            jobs.append(job)
            assert job.wait(30.0)
        # Only the newest max_finished jobs remain queryable.
        retained = [job for job in jobs if queue.get(job.id) is not None]
        assert len(retained) == 2
        assert retained[-1] is jobs[-1]
    finally:
        queue.close()
        runner.close()


def test_queue_full_exception_carries_fields():
    error = QueueFull(7, 1.5)
    assert error.pending == 7
    assert error.retry_after == 1.5
    assert "7 pending" in str(error)


# ----------------------------------------------------------------------
# Service-side kernel routing (ISSUE 10)
# ----------------------------------------------------------------------


def _raw_submission(request, drop=("kernel",)):
    """Wire envelope bytes with fields removed from the payload."""
    envelope = encode_wire(request)
    for field in drop:
        envelope["payload"].pop(field, None)
    return json.dumps(envelope).encode("utf-8")


def test_omitted_kernel_upgrades_to_vectorized(service, simple_or_tree):
    from dataclasses import replace

    request = _request(simple_or_tree, n_runs=30, seed=71)
    response = _submit(service, request, raw=_raw_submission(request))
    assert response.status == 202
    submitted = json.loads(response.body)
    assert submitted["kernel"] == "vectorized"
    assert submitted["kernel_fallback_reason"] is None
    # The rewrite happens before the key is computed: the upgraded
    # request lives in the vectorized cache namespace, never aliasing
    # the object engine's artifacts.
    upgraded = replace(request, kernel="vectorized")
    assert submitted["study_key"] == upgraded.key().digest
    assert submitted["study_key"] != request.key().digest

    _wait_done(service, submitted["job_id"])
    status = json.loads(
        service.handle("GET", submitted["location"], {}, b"").body
    )
    assert status["status"] == "done"
    assert status["kernel"] == "vectorized"
    assert status["kernel_fallback_reason"] is None
    counters = service.instrumentation.registry.to_dict()["counters"]
    assert counters["service.kernel_upgrades"] >= 1


def test_explicit_kernel_choice_wins(service, simple_or_tree):
    # A payload that names the object kernel keeps it, even though the
    # model is vectorizable.
    request = _request(simple_or_tree, n_runs=30, seed=72)
    response = _submit(service, request)
    assert response.status == 202
    submitted = json.loads(response.body)
    assert submitted["kernel"] == "object"
    assert submitted["kernel_fallback_reason"] is None
    assert submitted["study_key"] == request.key().digest


def _degraded_tree():
    from repro.core.builder import FMTBuilder

    builder = FMTBuilder("routed")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    builder.or_gate("top", ["a", "b"])
    return builder.build("top")


def test_non_vectorizable_model_surfaces_fallback_reason(service):
    from repro.maintenance.modules import InspectionModule
    from repro.maintenance.actions import clean

    strategy = MaintenanceStrategy(
        "s",
        inspections=(
            InspectionModule(
                "i",
                period=1.0,
                targets=["a"],
                action=clean(),
                timing="exponential",
            ),
        ),
    )
    request = StudyRequest(
        tree=_degraded_tree(),
        strategy=strategy,
        horizon=4.0,
        seed=73,
        n_runs=20,
    )
    response = _submit(service, request, raw=_raw_submission(request))
    assert response.status == 202
    submitted = json.loads(response.body)
    # The model cannot ride the lockstep kernel, so the request stays
    # on the object engine and the reason is surfaced.
    assert submitted["kernel"] == "object"
    assert "exponential" in submitted["kernel_fallback_reason"]
    assert submitted["study_key"] == request.key().digest

    _wait_done(service, submitted["job_id"])
    status = json.loads(
        service.handle("GET", submitted["location"], {}, b"").body
    )
    assert status["status"] == "done"
    assert status["kernel"] == "object"
    assert "exponential" in status["kernel_fallback_reason"]


def test_explicit_vectorized_on_fallback_model_keeps_reason(service):
    from repro.maintenance.modules import InspectionModule
    from repro.maintenance.actions import clean

    strategy = MaintenanceStrategy(
        "s",
        inspections=(
            InspectionModule(
                "i",
                period=1.0,
                targets=["a"],
                action=clean(),
                delay=0.25,
            ),
        ),
    )
    request = StudyRequest(
        tree=_degraded_tree(),
        strategy=strategy,
        horizon=4.0,
        seed=74,
        n_runs=20,
        kernel="vectorized",
    )
    response = _submit(service, request)
    assert response.status == 202
    submitted = json.loads(response.body)
    # Explicit choice is honoured (the driver falls back internally,
    # bit-identical to the object engine) and the reason is surfaced.
    assert submitted["kernel"] == "vectorized"
    assert "delayed" in submitted["kernel_fallback_reason"]


def test_upgraded_submission_matches_in_process_vectorized(simple_or_tree):
    from dataclasses import replace

    service = StudyService(max_pending=8, workers=1)
    try:
        request = _request(simple_or_tree, n_runs=40, seed=75)
        response = _submit(service, request, raw=_raw_submission(request))
        submitted = json.loads(response.body)
        job = _wait_done(service, submitted["job_id"])
        runner = StudyRunner()
        try:
            expected = runner.summary(replace(request, kernel="vectorized"))
        finally:
            runner.close()
        assert encode_wire(job.result) == encode_wire(expected)
    finally:
        service.close()


def test_omitted_kernel_with_record_events_runs_on_object(
    service, simple_or_tree
):
    # A kernel-less submission that records events cannot ride the
    # lockstep kernel: the router keeps it on the object engine instead
    # of upgrading it into a job that fails validation.
    request = _request(simple_or_tree, n_runs=20, seed=76, record_events=True)
    response = _submit(service, request, raw=_raw_submission(request))
    assert response.status == 202
    submitted = json.loads(response.body)
    assert submitted["kernel"] == "object"
    assert "event" in submitted["kernel_fallback_reason"]
    assert submitted["study_key"] == request.key().digest

    _wait_done(service, submitted["job_id"])
    status = json.loads(
        service.handle("GET", submitted["location"], {}, b"").body
    )
    assert status["status"] == "done", status.get("error")
    assert status["kernel"] == "object"
    assert "event" in status["kernel_fallback_reason"]
