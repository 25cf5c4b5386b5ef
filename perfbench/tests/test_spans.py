import threading

import pytest

from perfbench.spans import Patch, Span, Tracer, covered_length, installed, self_times


def span(id, parent, start, end, name="x"):
    return Span(id, parent, name, start, end, id if parent is None else 1)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([(4, 6), (4, 6)], 0, 10) == 2


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),   # grandchild: already inside 2
        span(4, 1, 3.0, 6.0),   # overlaps 2: union counted once
        span(5, None, 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_links_parents_and_request_ids():
    tracer = Tracer()

    def leaf():
        return 42

    traced_leaf = tracer.wrap(leaf, "leaf", lambda args, kwargs: {"n": len(args)})
    with tracer.span("top"):
        assert traced_leaf() == 42
        with tracer.span("mid"):
            traced_leaf()
    with tracer.span("other"):
        pass
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    top, = by_name["top"]
    mid, = by_name["mid"]
    first, second = by_name["leaf"]
    other, = by_name["other"]
    assert top.parent is None and top.request == top.id
    assert first.parent == top.id and second.parent == mid.id
    assert {first.request, second.request, mid.request} == {top.id}
    assert other.request == other.id != top.id
    assert first.attrs == {"n": 0}
    assert all(s.end >= s.start for s in tracer.spans)


def test_spans_on_a_new_thread_are_top_level():
    tracer = Tracer()
    with tracer.span("client"):
        thread = threading.Thread(target=tracer.wrap(lambda: None, "server"))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    server = next(s for s in tracer.spans if s.name == "server")
    assert server.parent is None


def test_span_recorded_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]


class Target:
    def method(self, value):
        return value * 2


def module_function(value):
    return value + 1


def test_installed_patches_and_restores():
    import sys

    module = sys.modules[__name__]
    original_method = Target.__dict__["method"]
    original_function = module.module_function
    tracer = Tracer()
    patches = [
        Patch(Target, "method", "target.method"),
        Patch(module, "module_function", "module.function"),
    ]
    with installed(tracer, patches):
        assert Target().method(3) == 6
        assert module.module_function(3) == 4
    assert Target.__dict__["method"] is original_method
    assert module.module_function is original_function
    assert [s.name for s in tracer.spans] == ["target.method", "module.function"]
    Target().method(1)
    assert len(tracer.spans) == 2
