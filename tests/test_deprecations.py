"""Every active deprecation shim warns and still works.

The deprecation policy (docs/api.md, "API stability & deprecation")
keeps replaced surfaces behind shims for at least one release; this
module pins each shim's warning *and* its behaviour, so a shim cannot
silently rot before its removal release, and pins each removal.
"""

import warnings

import pytest

from repro.simulation.engine import Engine


# ----------------------------------------------------------------------
# Removed at 1.1.0, one release after their shims shipped
# ----------------------------------------------------------------------
def test_scheduled_event_ordering_removed():
    # Handles no longer order; the calendar orders plain tuples.
    engine = Engine()
    early = engine.schedule(1.0, lambda: None, priority=0)
    late = engine.schedule(2.0, lambda: None, priority=0)
    with pytest.raises(TypeError):
        early < late
    assert (early.time, early.priority, early.seq) < (
        late.time, late.priority, late.seq
    )


def test_scheduled_event_ordering_ties_break_by_priority_then_seq():
    # The tie-break the handle ordering exposed still holds on the calendar.
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: fired.append("first"), priority=1)
    engine.schedule(1.0, lambda: fired.append("second"), priority=0)
    engine.schedule(1.0, lambda: fired.append("third"), priority=1)
    engine.run_until(2.0)
    assert fired == ["second", "first", "third"]  # priority, then insertion


def test_experiments_dict_removed():
    import repro.experiments as experiments
    from repro.experiments.registry import iter_experiments

    assert not hasattr(experiments, "EXPERIMENTS")
    assert "EXPERIMENTS" not in experiments.__all__
    assert next(iter_experiments())[0] == "table1"


def test_cli_leading_options_rejected(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--quick", "table1"])
    assert excinfo.value.code == 2
    assert "ferrous_dust" not in capsys.readouterr().out


def test_engine_hot_path_emits_no_deprecation_warnings():
    """The engine's hot path emits no deprecation warnings."""
    engine = Engine()
    fired = []
    engine.schedule(2.0, lambda: fired.append(2))
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(1.0, lambda: fired.append(0), priority=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        engine.run_until(10.0)
    assert fired == [0, 1, 2]


def test_experiments_unknown_attribute_still_raises():
    import repro.experiments as experiments

    with pytest.raises(AttributeError):
        experiments.NOT_A_REAL_NAME


# ----------------------------------------------------------------------
# Shims must not leak into ordinary library use
# ----------------------------------------------------------------------
def test_simulation_stack_is_warning_free():
    import numpy as np

    from repro.eijoint import build_ei_joint_fmt, current_policy
    from repro.simulation.executor import FMTSimulator

    simulator = FMTSimulator(build_ei_joint_fmt(), current_policy(), horizon=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        simulator.simulate(np.random.default_rng(3))
        simulator.clone().simulate(np.random.default_rng(3))


def test_cli_command_first_is_warning_free(capsys):
    from repro.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert main(["table1", "--quick"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# Parallel dispatch (simplicity: one worker, no shared-memory fold)
# ----------------------------------------------------------------------
def _batches_equal(a, b):
    import numpy as np

    assert a.horizon == b.horizon
    for name in (
        "failure_times",
        "failure_offsets",
        "downtime",
        "n_inspections",
        "n_preventive_actions",
        "n_corrective_replacements",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.costs.keys() == b.costs.keys()
    for field in a.costs:
        assert np.array_equal(a.costs[field], b.costs[field]), field


def test_use_shared_memory_keyword_warns_and_is_ignored(
    maintained_tree, inspection_strategy
):
    import numpy as np

    from repro.simulation.executor import FMTSimulator
    from repro.simulation.parallel import sample_parallel_batch

    simulator = FMTSimulator(maintained_tree, inspection_strategy, horizon=25.0)

    def run(**kwargs):
        seeds = np.random.SeedSequence(42).spawn(24)
        return sample_parallel_batch(
            simulator, seeds, processes=2, chunk_size=7, **kwargs
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        reference = run()
    for flag in (True, False):
        with pytest.warns(DeprecationWarning, match="use_shared_memory"):
            batch = run(use_shared_memory=flag)
        _batches_equal(batch, reference)


def test_seed_list_vectorized_drivers_warn_and_keep_their_scheme():
    import numpy as np

    from repro.core.builder import FMTBuilder
    from repro.maintenance.strategy import MaintenanceStrategy
    from repro.simulation.batch import TrajectoryBatch
    from repro.simulation.executor import FMTSimulator, SimulationConfig
    from repro.simulation.vectorized import (
        PlanChunk,
        VectorizedKernel,
        iter_vectorized_batches,
        simulate_batch_columns_vectorized,
        simulate_plan_chunk,
    )

    builder = FMTBuilder("seed-list")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    builder.or_gate("top", ["a", "b"])
    simulator = FMTSimulator(
        builder.build("top"),
        MaintenanceStrategy.none(),
        config=SimulationConfig(horizon=20.0, kernel="vectorized"),
    )

    def seeds():
        return np.random.SeedSequence(5).spawn(50)

    # The seed-list scheme: one lockstep chunk per chunk_size seeds,
    # drawing from a child of the chunk's first seed.
    kernel = VectorizedKernel(simulator)
    expected = TrajectoryBatch.merge(
        [
            simulate_plan_chunk(
                kernel, PlanChunk(start, len(chunk), chunk[0].spawn(1)[0])
            )
            for start, chunk in ((s, seeds()[s:s + 20]) for s in (0, 20, 40))
        ]
    )
    with pytest.warns(DeprecationWarning, match="iter_vectorized_batches"):
        chunks = list(iter_vectorized_batches(simulator, seeds(), chunk_size=20))
    assert [len(chunk) for chunk in chunks] == [20, 20, 10]
    _batches_equal(TrajectoryBatch.merge(chunks), expected)
    with pytest.warns(DeprecationWarning, match="simulate_batch_columns_vectorized"):
        merged = simulate_batch_columns_vectorized(
            simulator, seeds(), chunk_size=20
        )
    _batches_equal(merged, expected)
