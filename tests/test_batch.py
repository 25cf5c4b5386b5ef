"""Columnar trajectory batches: equivalence with the object path.

The contract under test is *bit-identity*: every comparison of KPI
floats below uses exact ``==``, not ``pytest.approx`` — the columnar
path must reproduce the per-object reference arithmetic to the last
ulp, or cached/golden results would silently drift.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.maintenance.costs import CostBreakdown
from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.metrics import reliability_curve, summarize
from repro.simulation.trace import Trajectory

HORIZON = 10.0


def _trajectory(
    failures=(),
    downtime=0.0,
    costs=None,
    n_inspections=0,
    n_preventive_actions=0,
    n_corrective_replacements=0,
):
    trajectory = Trajectory(horizon=HORIZON, events_recorded=False)
    trajectory.failure_times = list(failures)
    trajectory.downtime = downtime
    trajectory.costs = costs if costs is not None else CostBreakdown()
    trajectory.n_inspections = n_inspections
    trajectory.n_preventive_actions = n_preventive_actions
    trajectory.n_corrective_replacements = n_corrective_replacements
    return trajectory


# Awkward floats on purpose: sums over these expose any change in the
# reduction order at the ulp level.
_money = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
)
_counts = st.integers(min_value=0, max_value=500)


@st.composite
def trajectories(draw):
    n_failures = draw(st.integers(min_value=0, max_value=4))
    failures = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=HORIZON, allow_nan=False),
                min_size=n_failures,
                max_size=n_failures,
            )
        )
    )
    return _trajectory(
        failures=failures,
        downtime=draw(st.floats(min_value=0.0, max_value=HORIZON)),
        costs=CostBreakdown(
            inspections=draw(_money),
            preventive=draw(_money),
            corrective=draw(_money),
            failures=draw(_money),
            downtime=draw(_money),
        ),
        n_inspections=draw(_counts),
        n_preventive_actions=draw(_counts),
        n_corrective_replacements=draw(_counts),
    )


def _assert_summaries_identical(left, right):
    assert left.n_runs == right.n_runs
    assert left.horizon == right.horizon
    for name in (
        "unreliability",
        "expected_failures",
        "failures_per_year",
        "availability",
        "cost_per_year",
    ):
        a, b = getattr(left, name), getattr(right, name)
        assert (a.estimate, a.lower, a.upper) == (b.estimate, b.lower, b.upper), name
    assert left.cost_breakdown_per_year == right.cost_breakdown_per_year
    assert left.inspections_per_year == right.inspections_per_year
    assert left.preventive_actions_per_year == right.preventive_actions_per_year
    assert (
        left.corrective_replacements_per_year
        == right.corrective_replacements_per_year
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(trajectories(), min_size=1, max_size=30))
def test_summarize_batch_identical_to_objects(objects):
    batch = TrajectoryBatch.from_trajectories(objects)
    _assert_summaries_identical(summarize(objects), summarize(batch))


@settings(max_examples=30, deadline=None)
@given(st.lists(trajectories(), min_size=1, max_size=30))
def test_reliability_curve_batch_identical_to_objects(objects):
    grid = [0.0, 2.5, 5.0, 7.5, HORIZON]
    batch = TrajectoryBatch.from_trajectories(objects)
    _, from_objects = reliability_curve(objects, grid)
    _, from_batch = reliability_curve(batch, grid)
    assert from_objects == from_batch


@settings(max_examples=30, deadline=None)
@given(st.lists(trajectories(), min_size=1, max_size=30))
def test_accumulator_streaming_equals_bulk_conversion(objects):
    accumulator = TrajectoryAccumulator()
    for trajectory in objects:
        accumulator.add(trajectory)
    streamed = accumulator.build()
    bulk = TrajectoryBatch.from_trajectories(objects)
    assert streamed.horizon == bulk.horizon
    np.testing.assert_array_equal(streamed.failure_times, bulk.failure_times)
    np.testing.assert_array_equal(streamed.failure_offsets, bulk.failure_offsets)
    np.testing.assert_array_equal(streamed.downtime, bulk.downtime)
    for field, column in bulk.costs.items():
        np.testing.assert_array_equal(streamed.costs[field], column)
    np.testing.assert_array_equal(streamed.n_inspections, bulk.n_inspections)
    np.testing.assert_array_equal(
        streamed.n_preventive_actions, bulk.n_preventive_actions
    )
    np.testing.assert_array_equal(
        streamed.n_corrective_replacements, bulk.n_corrective_replacements
    )


@settings(max_examples=20, deadline=None)
@given(
    st.lists(trajectories(), min_size=1, max_size=10),
    st.lists(trajectories(), min_size=1, max_size=10),
)
def test_add_batch_and_merge_equal_concatenation(first, second):
    whole = TrajectoryBatch.from_trajectories(first + second)
    merged = TrajectoryBatch.merge(
        [
            TrajectoryBatch.from_trajectories(first),
            TrajectoryBatch.from_trajectories(second),
        ]
    )
    np.testing.assert_array_equal(whole.failure_times, merged.failure_times)
    np.testing.assert_array_equal(whole.failure_offsets, merged.failure_offsets)
    np.testing.assert_array_equal(whole.downtime, merged.downtime)
    _assert_summaries_identical(summarize(whole), summarize(merged))


@settings(max_examples=20, deadline=None)
@given(st.lists(trajectories(), min_size=1, max_size=15))
def test_to_trajectories_round_trip(objects):
    batch = TrajectoryBatch.from_trajectories(objects)
    rebuilt = batch.to_trajectories()
    assert len(rebuilt) == len(objects)
    for original, copy in zip(objects, rebuilt):
        assert copy.horizon == original.horizon
        assert copy.failure_times == original.failure_times
        assert copy.downtime == original.downtime
        assert copy.costs == original.costs
        assert copy.n_inspections == original.n_inspections
        assert copy.events_recorded is False
    _assert_summaries_identical(summarize(objects), summarize(rebuilt))


@settings(max_examples=20, deadline=None)
@given(st.lists(trajectories(), min_size=1, max_size=15), st.data())
def test_head_equals_batch_of_leading_trajectories(objects, data):
    n = data.draw(st.integers(min_value=1, max_value=len(objects)))
    head = TrajectoryBatch.from_trajectories(objects).head(n)
    prefix = TrajectoryBatch.from_trajectories(objects[:n])
    np.testing.assert_array_equal(head.failure_times, prefix.failure_times)
    np.testing.assert_array_equal(head.failure_offsets, prefix.failure_offsets)
    np.testing.assert_array_equal(head.downtime, prefix.downtime)
    _assert_summaries_identical(summarize(head), summarize(prefix))


def test_head_rejects_out_of_range():
    batch = TrajectoryBatch.from_trajectories([_trajectory(), _trajectory()])
    assert len(batch.head(0)) == 0
    with pytest.raises(ValidationError):
        batch.head(3)
    with pytest.raises(ValidationError):
        batch.head(-1)


def test_first_failure_and_counts():
    batch = TrajectoryBatch.from_trajectories(
        [
            _trajectory(failures=[2.0, 5.0]),
            _trajectory(),
            _trajectory(failures=[7.5]),
        ]
    )
    assert list(batch.n_failures) == [2, 0, 1]
    assert list(batch.first_failure) == [2.0, np.inf, 7.5]
    assert list(batch.failure_times_of(0)) == [2.0, 5.0]
    assert list(batch.failure_times_of(1)) == []
    assert len(batch) == batch.n_runs == 3
    assert batch.nbytes > 0


def test_from_trajectories_rejects_empty_and_mixed_horizons():
    with pytest.raises(ValidationError):
        TrajectoryBatch.from_trajectories([])
    other = Trajectory(horizon=20.0)
    with pytest.raises(ValidationError):
        TrajectoryBatch.from_trajectories([_trajectory(), other])


def test_accumulator_rejects_mixed_horizons():
    accumulator = TrajectoryAccumulator(horizon=HORIZON)
    accumulator.add(_trajectory())
    with pytest.raises(ValidationError):
        accumulator.add(Trajectory(horizon=20.0))


def test_accumulator_empty_build():
    with pytest.raises(ValidationError):
        TrajectoryAccumulator().build()
    empty = TrajectoryAccumulator(horizon=HORIZON).build()
    assert len(empty) == 0
    with pytest.raises(ValidationError):
        summarize(empty)


def test_accumulator_reusable_after_build():
    accumulator = TrajectoryAccumulator(horizon=HORIZON)
    accumulator.add(_trajectory(failures=[1.0]))
    first = accumulator.build()
    accumulator.add(_trajectory(failures=[2.0, 3.0]))
    second = accumulator.build()
    # The first build is untouched by the later append.
    assert list(first.n_failures) == [1]
    assert list(second.n_failures) == [1, 2]


def test_batch_offsets_validation():
    good = TrajectoryBatch.from_trajectories([_trajectory(failures=[1.0])])
    with pytest.raises(ValidationError):
        TrajectoryBatch(
            horizon=HORIZON,
            failure_times=good.failure_times,
            failure_offsets=np.array([0, 2], dtype=np.int64),  # exceeds data
            downtime=good.downtime,
            costs=good.costs,
            n_inspections=good.n_inspections,
            n_preventive_actions=good.n_preventive_actions,
            n_corrective_replacements=good.n_corrective_replacements,
        )
