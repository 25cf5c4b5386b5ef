import pytest

from perfbench.measure import Tally, percentile, validate_metric_name


def test_percentile_needs_ten_samples_beyond():
    assert percentile([], 50) is None
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(1, 101)), 90) == 90


def test_percentile_is_nearest_rank_of_unsorted_samples():
    samples = [float(x) for x in reversed(range(1, 201))]
    assert percentile(samples, 50) == 100.0
    assert percentile(samples, 90) == 180.0


@pytest.mark.parametrize("p", [0, 100, -1, 150])
def test_percentile_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        percentile([1.0] * 50, p)


@pytest.mark.parametrize(
    "name",
    ["wall_s", "setup_s", "simulation.executor.compile_s",
     "experiments.ablation-rdep_s", "9lives", "a" * 64],
)
def test_valid_metric_names(name):
    assert validate_metric_name(name) == name


@pytest.mark.parametrize(
    "name",
    ["", "_wall", ".x", "-x", "wall s", "wall/s", "p90%", "a" * 65, "wäll", None],
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.record()
    tally.record(None)
    tally.record("HTTP 429")
    tally.record("raised", check=False)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_ratio == 0.5
    # Errors without a failed check leave the output correct.
    assert tally.correct
    tally.record("answer differs", check=True)
    assert (tally.attempted, tally.failed, tally.check_failures) == (5, 3, 1)
    assert not tally.correct
    assert tally.reasons == ["HTTP 429", "raised", "answer differs"]


def test_empty_tally():
    assert Tally().failed_ratio == 0.0
    assert Tally().correct
