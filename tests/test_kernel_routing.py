"""The study runner's kernel router: ``StudyRequest(kernel="auto")``.

One rule decides which kernel a study runs on
(:meth:`repro.studies.StudyRunner.resolve`); the experiments and the
analysis service both go through it.  These tests pin its clauses, the
key identity of a resolved request with an explicit one, and the
study digests of explicit requests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.builder import FMTBuilder
from repro.eijoint import build_ei_joint_fmt, current_policy
from repro.eijoint.parameters import default_cost_model
from repro.errors import ValidationError
from repro.experiments import ExperimentConfig
from repro.maintenance.actions import clean
from repro.maintenance.modules import InspectionModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability.instrumentation import Instrumentation
from repro.studies import StudyRequest, StudyRunner


@pytest.fixture
def runner():
    runner = StudyRunner(instrumentation=Instrumentation())
    yield runner
    runner.close()


def _counters(runner):
    return runner.instrumentation.registry.to_dict()["counters"]


def _auto(tree, strategy=None, n_runs=40, seed=5, **kwargs):
    return StudyRequest(
        tree=tree,
        strategy=strategy if strategy is not None else MaintenanceStrategy.none(),
        horizon=4.0,
        seed=seed,
        n_runs=n_runs,
        kernel="auto",
        **kwargs,
    )


def _degraded_tree():
    builder = FMTBuilder("routed")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    builder.or_gate("top", ["a", "b"])
    return builder.build("top")


def _inspected(**module_kwargs):
    return MaintenanceStrategy(
        "s",
        inspections=(
            InspectionModule(
                "i", period=1.0, targets=["a"], action=clean(), **module_kwargs
            ),
        ),
    )


# ----------------------------------------------------------------------
# The clauses of the rule
# ----------------------------------------------------------------------


def test_eligible_study_routes_to_vectorized(runner, simple_or_tree):
    request = _auto(simple_or_tree)
    resolved, reason = runner.resolve(request)
    assert resolved.kernel == "vectorized"
    assert reason is None
    assert resolved == replace(request, kernel="vectorized")
    assert _counters(runner)["study.kernel_auto_vectorized"] == 1


def test_record_events_routes_to_object(runner, simple_or_tree):
    resolved, reason = runner.resolve(_auto(simple_or_tree, record_events=True))
    assert resolved.kernel == "object"
    assert "event" in reason
    assert _counters(runner)["study.kernel_auto_object"] == 1


@pytest.mark.parametrize(
    "module_kwargs,expected",
    [({"timing": "exponential"}, "exponential"), ({"delay": 0.25}, "delayed")],
)
def test_non_lockstep_model_routes_to_object(runner, module_kwargs, expected):
    request = _auto(_degraded_tree(), _inspected(**module_kwargs))
    resolved, reason = runner.resolve(request)
    assert resolved.kernel == "object"
    assert expected in reason


def test_rare_event_routes_to_object(runner, simple_or_tree):
    resolved, reason = runner.resolve(
        _auto(simple_or_tree, n_runs=1), artifact="rare_event"
    )
    assert resolved.kernel == "object"
    assert "rare-event" in reason


def test_pooled_studies_route_to_vectorized(simple_or_tree):
    # Lockstep answers do not depend on the process count, so whether a
    # study fans out to the pool plays no part in routing.  Building
    # the pool starts no worker processes.
    with StudyRunner(processes=2, parallel_threshold=100) as pooled:
        routed = [
            pooled.resolve(_auto(simple_or_tree, n_runs=n_runs))
            for n_runs in (99, 100, 500)
        ]
    assert routed == [
        (replace(_auto(simple_or_tree, n_runs=n_runs), kernel="vectorized"), None)
        for n_runs in (99, 100, 500)
    ]


def test_explicit_kernels_are_kept(runner, simple_or_tree):
    request = _auto(simple_or_tree)
    explicit_object = replace(request, kernel="object")
    assert runner.resolve(explicit_object) == (explicit_object, None)
    explicit_vectorized = replace(request, kernel="vectorized")
    assert runner.resolve(explicit_vectorized) == (explicit_vectorized, None)
    # An explicit lockstep request on a fallback model keeps its kernel
    # and reports why its driver will use the object engine.
    fallback = replace(
        _auto(_degraded_tree(), _inspected(delay=0.25)), kernel="vectorized"
    )
    resolved, reason = runner.resolve(fallback)
    assert resolved is fallback
    assert "delayed" in reason
    assert "study.kernel_auto_vectorized" not in _counters(runner)


def test_rejected_model_routes_to_object(runner):
    builder = FMTBuilder("bad")
    builder.degraded_event("a", phases=2, mean=4.0, threshold=1)
    builder.or_gate("top", ["a"])
    tree = builder.build("top")
    # The strategy inspects a component the tree does not have: the
    # simulator rejects it on either kernel.
    strategy = MaintenanceStrategy(
        "s",
        inspections=(
            InspectionModule("i", period=1.0, targets=["zz"], action=clean()),
        ),
    )
    resolved, reason = runner.resolve(_auto(tree, strategy))
    assert resolved.kernel == "object"
    assert "rejects the model" in reason
    with pytest.raises(Exception) as raised:
        runner.summary(_auto(tree, strategy))
    assert str(raised.value) in reason


# ----------------------------------------------------------------------
# Keys: "auto" never reaches a digest
# ----------------------------------------------------------------------


def test_unresolved_auto_has_no_key(simple_or_tree):
    request = _auto(simple_or_tree)
    with pytest.raises(ValidationError, match="resolve"):
        request.key()
    with pytest.raises(ValidationError, match="resolve"):
        request.simulator_material()


def test_resolved_key_equals_explicit_key(runner, simple_or_tree):
    eligible, _ = runner.resolve(_auto(simple_or_tree))
    assert eligible.key() == replace(eligible, kernel="vectorized").key()
    fallback, _ = runner.resolve(_auto(simple_or_tree, record_events=True))
    assert fallback.key() == replace(fallback, kernel="object").key()


def test_auto_summary_shares_the_explicit_cache_entry(runner, simple_or_tree):
    request = _auto(simple_or_tree, n_runs=60, seed=9)
    routed = runner.summary(request)
    explicit = runner.summary(replace(request, kernel="vectorized"))
    assert explicit is routed
    counters = _counters(runner)
    assert counters["study.misses"] == 1
    assert counters["study.memo_hits"] == 1
    assert runner.peek_summary(request) is routed


def test_every_entry_point_resolves(runner, simple_or_tree):
    request = _auto(simple_or_tree, n_runs=30, seed=4)
    runner.result(request)
    runner.reliability_curve(request, [1.0, 2.0])
    runner.statistic(request, "count", len)
    assert _counters(runner)["study.kernel_auto_vectorized"] == 3


def test_classification_runs_once_per_prototype(
    runner, simple_or_tree, monkeypatch
):
    import repro.simulation.vectorized as vectorized

    calls = []
    original = vectorized.vectorized_fallback_reason

    def counting(simulator):
        calls.append(simulator)
        return original(simulator)

    monkeypatch.setattr(vectorized, "vectorized_fallback_reason", counting)
    for seed in range(4):
        runner.resolve(_auto(simple_or_tree, seed=seed))
    assert len(calls) == 1


# Digests of explicit requests: routing must not move any existing
# cache entry.  The object digests predate the router; the vectorized
# ones carry the lockstep chunk-plan version (LOCKSTEP_PLAN_VERSION 2).
# They were computed under the 1.0.0 salt; a release moves every digest
# through CODE_SALT by design, so the tests pin the salt and check that
# nothing else in the key material moved.
_PINNED_SALT = "repro-1.0.0/studies-v1"
_PINNED = {
    "object": (
        "a8345f77285c05974b27ced39fe90ea5fa16c6d81e7d5553261e348cbafbc267",
        "2383999728e94273349405f49f62cad6565fa16c50844ad56075928207bcf32d",
    ),
    "vectorized": (
        "5f940f7b71c7670f3d5591d0ba0275a5500d9f5beb30cc3c7093b2b2423e94a4",
        "1dc1a7fa41c4498b40a9b6a885ac0db34c79e2a41d0720d3a0561a228428905c",
    ),
}

#: The vectorized digest under the material before the chunk-plan
#: version existed (pooled answers then depended on the process count).
_PRE_PLAN_VECTORIZED = (
    "2b14ae34346433190699d7059a9dc662c37049fc754087efc4746e967a360269"
)


@pytest.fixture
def pinned_salt(monkeypatch):
    from repro.studies import key as key_module

    monkeypatch.setattr(key_module, "CODE_SALT", _PINNED_SALT)


@pytest.mark.parametrize("kernel", sorted(_PINNED))
def test_explicit_digests_unchanged(pinned_salt, kernel):
    request = StudyRequest(
        tree=build_ei_joint_fmt(),
        strategy=current_policy(),
        horizon=20.0,
        cost_model=default_cost_model(),
        seed=7,
        n_runs=500,
        kernel=kernel,
    )
    key = request.key()
    assert (key.digest, key.derive("summary", None).digest) == _PINNED[kernel]


def test_vectorized_entry_under_pre_plan_material_is_not_served(
    pinned_salt, tmp_path
):
    from repro.studies.cache import DiskCache
    from repro.studies.key import CODE_SALT, StudyKey, canonical, strategy_signature

    request = StudyRequest(
        tree=build_ei_joint_fmt(),
        strategy=current_policy(),
        horizon=20.0,
        cost_model=default_cost_model(),
        seed=7,
        n_runs=500,
        kernel="vectorized",
    )
    old = StudyKey.from_material(
        canonical(
            {
                "salt": CODE_SALT,
                "model": request.tree,
                "strategy": strategy_signature(request.strategy),
                "horizon": request.horizon,
                "cost_model": request.cost_model,
                "seed": request.seed,
                "n_runs": request.n_runs,
                "confidence": request.confidence,
                "record_events": False,
                "kernel": "vectorized",
            }
        )
    )
    assert old.digest == _PRE_PLAN_VECTORIZED
    DiskCache(str(tmp_path)).store(old.derive("summary", None), "stale")
    instrumentation = Instrumentation()
    with StudyRunner(
        cache_dir=str(tmp_path), instrumentation=instrumentation
    ) as runner:
        summary = runner.summary(request)
    assert summary.n_runs == 500
    counters = instrumentation.registry.to_dict()["counters"]
    assert counters.get("study.disk_hits", 0) == 0
    assert counters["study.misses"] == 1


# ----------------------------------------------------------------------
# Surfaces that default to "auto"
# ----------------------------------------------------------------------


def test_payload_without_kernel_decodes_as_auto(simple_or_tree):
    data = replace(_auto(simple_or_tree), kernel="object").to_dict()
    del data["kernel"]
    assert StudyRequest.from_dict(data).kernel == "auto"
    data["kernel"] = "object"
    assert StudyRequest.from_dict(data).kernel == "object"


def test_experiment_config_kernel():
    assert ExperimentConfig().kernel == "auto"
    assert ExperimentConfig(kernel="object").quick().kernel == "object"
    with pytest.raises(ValidationError):
        ExperimentConfig(kernel="vectorized")
