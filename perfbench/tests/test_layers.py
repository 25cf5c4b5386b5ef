import pytest

from perfbench.layers import PER_LAYER, TOP_LEVEL, layer_metrics
from perfbench.spans import Span


def test_layer_metrics_from_synthetic_service_spans():
    spans = [
        Span(1, None, "service.request", 0.0, 1.0, 1),
        Span(2, 1, "service.post", 0.0, 0.1, 1),
        Span(3, 1, "service.poll", 0.5, 0.52, 1),
        # Worker-thread job, top-level on its thread.
        Span(4, None, "studies.summary", 0.2, 0.8, 4, {"seed": 7}),
        Span(5, 4, "simulation.vectorized.chunk", 0.3, 0.7, 4, {"rows": 2000}),
        Span(6, None, "service.request", 1.0, 1.5, 6),
        Span(7, 6, "service.post", 1.0, 1.5, 6),
    ]
    values = layer_metrics(
        spans,
        window=(0.0, 2.0),
        top_level=TOP_LEVEL["service-mixed"],
        counters={"study.requests": 4, "study.misses": 1, "study.memo_hits": 3},
        precision=(0, 200),
        fresh_ops=[{"seed": 7, "latency": 1.0, "post_s": 0.1}],
        rejected=0,
        pool_start_s=0.0,
        overhead_ratio=1.05,
    )
    assert set(values) == {name for name, _, _, _ in PER_LAYER}
    assert values["service.job_s"] == pytest.approx(0.6)
    assert values["service.queue_wait_s"] == pytest.approx(1.0 - 0.1 - 0.6)
    assert values["service.post_s"] == pytest.approx(0.6)
    assert values["service.polls"] == 1
    assert values["studies.summary_s"] == pytest.approx(0.2)
    assert values["simulation.vectorized.rows"] == 2000
    assert values["studies.hit_ratio"] == pytest.approx(0.75)
    assert values["trace_coverage_ratio"] == pytest.approx(0.75)
    assert values["simulation.montecarlo.precision_batches"] == 0


def test_precision_batches_round_up():
    values = layer_metrics([], (0.0, 1.0), (), {}, (4601, 200), [], 0, 0.0, 1.0)
    assert values["simulation.montecarlo.precision_batches"] == 24
    assert values["studies.hit_ratio"] == 0.0
