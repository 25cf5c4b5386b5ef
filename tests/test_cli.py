"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dsl import save_file


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig6" in out


def test_unknown_experiment(capsys):
    assert main(["nonsense"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    assert "ferrous_dust" in capsys.readouterr().out


def test_quick_flag_and_overrides(capsys):
    code = main(["fig5", "--quick", "--runs", "100", "--horizon", "20", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ENF per year" in out


def test_analyze_missing_path(capsys):
    assert main(["analyze"]) == 2
    assert "missing model file" in capsys.readouterr().err


def test_analyze_model_file(tmp_path, capsys, layered_tree):
    path = tmp_path / "model.fmt"
    save_file(layered_tree, path)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "minimal cut sets" in out
    assert "unreliability" in out


def test_simulate_model_file(tmp_path, capsys, maintained_tree):
    path = tmp_path / "model.fmt"
    save_file(maintained_tree, path)
    assert main(["simulate", str(path), "--runs", "50", "--horizon", "10"]) == 0
    out = capsys.readouterr().out
    assert "failures/yr" in out
    assert "50 trajectories" in out


def test_simulate_absorbing_flag(tmp_path, capsys, maintained_tree):
    path = tmp_path / "model.fmt"
    save_file(maintained_tree, path)
    assert main(["simulate", str(path), "--runs", "50", "--absorbing"]) == 0
    assert "unreliability" in capsys.readouterr().out


def test_simulate_kernel_flag(tmp_path, capsys, maintained_tree):
    path = tmp_path / "model.fmt"
    save_file(maintained_tree, path)
    code = main(
        ["simulate", str(path), "--runs", "50", "--horizon", "10",
         "--kernel", "vectorized"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "vectorized kernel" in out
    assert "failures/yr" in out


def test_simulate_default_kernel_follows_routing_rule(tmp_path, capsys):
    """The default ``--kernel auto`` prints the kernel the study ran:
    lockstep on an eligible model, the object engine (with the reason)
    on a fallback model."""
    from repro.core.builder import FMTBuilder

    eligible = FMTBuilder("eligible")
    eligible.degraded_event("wear", phases=3, mean=6.0, threshold=2)
    eligible.basic_event("shock", rate=0.1)
    eligible.or_gate("top", ["wear", "shock"])
    fallback = FMTBuilder("fallback")
    fallback.basic_event("a", rate=0.2)
    fallback.basic_event("b", rate=0.3)
    fallback.basic_event("c", rate=0.1)
    fallback.and_gate("ab", ["a", "b"])
    fallback.or_gate("top", ["ab", "c"])
    fallback.rdep("accel", trigger="ab", targets=["c"], factor=2.0)
    for builder, kernel in ((eligible, "vectorized"), (fallback, "object")):
        path = tmp_path / f"{builder.name}.fmt"
        save_file(builder.build("top"), path)
        assert main(["simulate", str(path), "--runs", "50", "--horizon", "5"]) == 0
        out = capsys.readouterr().out
        assert f"50 trajectories, seed 0, {kernel} kernel" in out
    assert "RDEP trigger 'ab' is a gate" in out


def test_simulate_kernel_flag_rejects_unknown(tmp_path, maintained_tree):
    path = tmp_path / "model.fmt"
    save_file(maintained_tree, path)
    with pytest.raises(SystemExit):
        main(["simulate", str(path), "--kernel", "warp"])


def test_simulate_missing_path(capsys):
    assert main(["simulate"]) == 2
    assert "missing model file" in capsys.readouterr().err


def test_render_ascii(tmp_path, capsys, layered_tree):
    path = tmp_path / "model.fmt"
    save_file(layered_tree, path)
    assert main(["render", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[OR]" in out or "[AND]" in out


def test_render_dot(tmp_path, capsys, layered_tree):
    path = tmp_path / "model.fmt"
    save_file(layered_tree, path)
    assert main(["render", str(path), "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_render_missing_path(capsys):
    assert main(["render"]) == 2
    assert "missing model file" in capsys.readouterr().err


def test_shipped_example_models_load():
    from pathlib import Path

    from repro.dsl import load_file

    models = Path(__file__).parent.parent / "examples" / "models"
    for path in sorted(models.glob("*.fmt")):
        tree = load_file(path)
        assert tree.basic_events


def test_parser_version():
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["--version"])
    assert excinfo.value.code == 0


def test_profile_and_metrics_out(tmp_path, capsys):
    import json

    metrics_path = tmp_path / "m.json"
    code = main(
        [
            "fig5",
            "--quick",
            "--runs",
            "100",
            "--horizon",
            "20",
            "--profile",
            "--metrics-out",
            str(metrics_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "== profile ==" in out
    # fig5's studies are routed to the lockstep kernel, which times
    # whole chunks rather than single trajectories.
    assert "sim.chunk.seconds" in out
    assert "wall time:" in out  # per-experiment timing surfaced as a note
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["sim.trajectories"] > 0
    assert metrics["counters"]["study.kernel_auto_vectorized"] > 0
    assert metrics["timers"]["sim.chunk.seconds"]["count"] > 0
    assert metrics["timers"]["experiment.fig5.seconds"]["count"] == 1


def test_profile_object_kernel_times_trajectories(
    tmp_path, capsys, maintained_tree
):
    import json

    path = tmp_path / "m.fmt"
    save_file(maintained_tree, path)
    metrics_path = tmp_path / "m.json"
    code = main(
        [
            "simulate", str(path), "--runs", "50", "--horizon", "10",
            "--kernel", "object", "--profile",
            "--metrics-out", str(metrics_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sim.simulate.seconds" in out
    metrics = json.loads(metrics_path.read_text())
    assert metrics["timers"]["sim.simulate.seconds"]["count"] == 50
    assert "sim.chunk.seconds" not in metrics["timers"]


def test_no_profile_keeps_output_clean(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "== profile ==" not in out
    assert "wall time:" not in out


def test_trace_writes_jsonl(tmp_path, capsys, maintained_tree):
    import json

    from repro.dsl import save_file

    model = tmp_path / "model.fmt"
    save_file(maintained_tree, model)
    out_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "trace",
            str(model),
            "--runs",
            "5",
            "--horizon",
            "10",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    lines = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert lines[0]["record"] == "header"
    assert lines[0]["n_trajectories"] == 5
    assert sum(1 for r in lines if r["record"] == "trajectory") == 5


def test_trace_to_stdout(tmp_path, capsys, maintained_tree):
    import json

    from repro.dsl import save_file

    model = tmp_path / "model.fmt"
    save_file(maintained_tree, model)
    assert main(["trace", str(model), "--runs", "2", "--horizon", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0])["record"] == "header"


def test_trace_missing_path(capsys):
    assert main(["trace"]) == 2
    assert "missing model file" in capsys.readouterr().err


def test_log_level_flag_emits_logs(tmp_path, capsys, maintained_tree):
    import logging

    from repro.dsl import save_file

    model = tmp_path / "model.fmt"
    save_file(maintained_tree, model)
    try:
        assert (
            main(["trace", str(model), "--runs", "1", "--horizon", "2",
                  "--out", str(tmp_path / "t.jsonl"), "--log-level", "info"])
            == 0
        )
    finally:
        logging.getLogger("repro").setLevel(logging.WARNING)
    assert logging.getLogger("repro").handlers  # setup_logging installed one


def test_cache_dir_warm_rerun_simulates_nothing(tmp_path, capsys):
    import json

    cache = tmp_path / "cache"
    args = ["fig5", "--quick", "--runs", "60", "--horizon", "10",
            "--cache-dir", str(cache)]
    assert main(args + ["--metrics-out", str(tmp_path / "m1.json")]) == 0
    first_out = capsys.readouterr().out
    assert cache.is_dir() and any(cache.glob("*.pkl"))

    assert main(args + ["--metrics-out", str(tmp_path / "m2.json")]) == 0
    second_out = capsys.readouterr().out

    m1 = json.loads((tmp_path / "m1.json").read_text())
    m2 = json.loads((tmp_path / "m2.json").read_text())
    assert m1["counters"]["study.fresh_trajectories"] > 0
    assert "study.fresh_trajectories" not in m2["counters"]
    assert m2["counters"]["study.disk_hits"] > 0
    # The rendered table is identical modulo the wall-time note.
    strip = lambda text: [
        line for line in text.splitlines()
        if not line.startswith("note: wall time")
    ]
    assert strip(first_out) == strip(second_out)


def test_no_cache_flag_bypasses_disk(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["fig5", "--quick", "--runs", "60", "--horizon", "10",
            "--cache-dir", str(cache), "--no-cache"]
    assert main(args) == 0
    capsys.readouterr()
    assert not cache.exists()


def test_processes_flag_validation(capsys):
    assert main(["fig5", "--quick", "--processes", "0"]) == 2
    assert "--processes" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Subparser CLI (PR 8): per-verb help, deprecation shim, serve verb
# ----------------------------------------------------------------------


def test_per_verb_help_is_scoped(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["simulate", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--kernel" in out and "--absorbing" in out
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["render", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--dot" in out and "--kernel" not in out


def test_serve_verb_exists_with_service_flags(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["serve", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--max-pending" in out and "--workers" in out and "--port" in out


def test_serve_validates_worker_count(capsys):
    assert main(["serve", "--workers", "0", "--port", "0"]) == 2
    assert "--workers" in capsys.readouterr().err
    assert main(["serve", "--max-pending", "0", "--port", "0"]) == 2
    assert "--max-pending" in capsys.readouterr().err


def test_command_first_form_warns_nothing(recwarn, capsys):
    assert main(["table1"]) == 0
    capsys.readouterr()
    deprecations = [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]
    assert not deprecations


def test_missing_command_is_an_error(capsys):
    assert main([]) == 2
    assert "missing command" in capsys.readouterr().err


def test_list_mentions_serve(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "serve" in out and "metrics-serve" in out
