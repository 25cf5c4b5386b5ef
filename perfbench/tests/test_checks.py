import pytest

from repro.experiments.common import ExperimentResult
from repro.stats.confidence import ConfidenceInterval

from perfbench.workloads import check_experiment, overlap, widened


def table(experiment_id, headers, rows, notes=()):
    result = ExperimentResult(experiment_id, "t", list(headers))
    for row in rows:
        result.add_row(*row)
    result.notes.extend(notes)
    return result


def fig6(totals):
    headers = ["inspections/yr", "inspections", "preventive", "corrective",
               "failures", "downtime", "TOTAL"]
    return table("F6", headers, [(f, 0, 0, 0, 0, 0, t) for f, t in totals])


def test_fig6_optimum_at_or_next_to_quarterly():
    grid = ["0", "1", "2", "4", "6", "8", "12"]
    for best in ("2", "4", "6"):
        totals = [(f, 100 if f == best else 200) for f in grid]
        assert check_experiment("fig6", fig6(totals)) is None
    totals = [(f, 100 if f == "8" else 200) for f in grid]
    assert "F6" in check_experiment("fig6", fig6(totals))


def test_optimum_between_grid_neighbours_of_quarterly():
    headers = ["policy", "inspections/yr", "cost/yr [EUR]", "ENF/yr"]
    ok = table("OPT", headers, [("optimum found", "2.97", "x", "y"),
                                ("current policy", "4", "x", "y")])
    assert check_experiment("optimum", ok) is None
    far = table("OPT", headers, [("optimum found", "7.50", "x", "y")])
    assert "OPT" in check_experiment("optimum", far)


def test_crossval_rows_must_fall_within_ci():
    headers = ["KPI", "exact", "simulated", "within CI"]
    ok = table("A5", headers, [("u", "0.1", "0.1 ±0.01", "yes")] * 3)
    assert check_experiment("periodic-crossval", ok) is None
    bad = table("A3", headers, [("u", "0.1", "0.1 ±0.01", "yes"),
                                ("E[f]", "0.2", "0.3 ±0.01", "NO")])
    assert "E[f]" in check_experiment("ctmc-crossval", bad)


def test_table3_agreement_note():
    agree = table("T3", ["a"], [], ["validation: prediction and observation "
                                   "AGREE (confidence intervals overlap)"])
    disagree = table("T3", ["a"], [], ["validation: prediction and observation "
                                      "DISAGREE"])
    assert check_experiment("table3", agree) is None
    assert "T3" in check_experiment("table3", disagree)
    assert check_experiment("fig4", disagree) is None


def interval(estimate, half, confidence=0.95):
    return ConfidenceInterval(estimate, estimate - half, estimate + half, confidence)


def test_widened_rescales_the_half_width():
    lo, hi = widened(interval(1.0, 1.959964), 0.999)
    assert hi - 1.0 == pytest.approx(3.290527, rel=1e-5)
    assert 1.0 - lo == pytest.approx(hi - 1.0)


def test_overlap_at_check_confidence():
    assert overlap(interval(1.0, 0.1), interval(1.25, 0.1))
    assert not overlap(interval(1.0, 0.1), interval(1.4, 0.1))
