"""Tests of the benchmark's own arithmetic: self time from nested spans, the
coefficient hit ratio, the reference comparison and the seeded scenarios.

    python3 -m pytest bench
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_self_time_subtracts_direct_children_only():
    recs = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 6.0, 0],
    ]
    assert spans.self_times(recs) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    recs = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],
        ["d", 9.0, 12.0, 0],
    ]
    assert spans.self_times(recs)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_self_times_sum_to_root():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    leaf = tracer.wrap("leaf", leaf)
    counted = tracer.counted("count", abs)

    def root():
        counted(-1)
        return leaf(leaf(0))

    assert tracer.wrap("root", root)() == 2
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["root", "leaf", "leaf"]
    assert parents == [-1, 0, 0]
    assert tracer.counts["count"] == 1
    own = spans.self_times(tracer.spans)
    assert min(own) >= 0.0
    root_span = tracer.spans[0]
    assert sum(own) == pytest.approx(root_span[2] - root_span[1], abs=1e-12)


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer()
    boom = tracer.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer.wrap("next", lambda: None)() is None
    assert tracer.spans[1][3] == -1


def test_coeff_hit_ratio():
    calls = {"integrators.reduced_at": 4503, "integrators.vehicle_at": 1500,
             "coupling.constraint_rates": 3001,
             "pathgeom.frame_kinematics": 1501}
    assert spans.coeff_hit_ratio(calls) == pytest.approx(1.0 - 4502 / 6003)


def test_bandwidth_and_array_bytes():
    K = np.diag(np.ones(5)) + np.diag(np.ones(3), 2) + np.diag(np.full(1, 1e-14), 4)
    assert spans.bandwidth(K) == 2

    from dataclasses import dataclass

    @dataclass
    class Holder:
        a: np.ndarray
        b: np.ndarray
        n: int

    assert spans.array_bytes(Holder(np.zeros(3), np.zeros((2, 2)), 7)) == 56


def test_max_rel_deviation_scales_by_column():
    ref = np.array([[0.0, 100.0, 0.0], [1.0, -200.0, 0.0]])
    assert checks.max_rel_deviation(ref.copy(), ref) == 0.0
    values = ref.copy()
    values[0, 1] += 2e-6           # column scale 200
    values[1, 2] = 3e-12           # zero column: absolute
    assert checks.max_rel_deviation(values, ref) == pytest.approx(1e-8)
    assert checks.max_rel_deviation(ref[:1], ref) == math.inf


def _csv(rows):
    return ("t,x\n" + "".join("%.17e,%.17e\n" % r for r in rows)).encode()


def test_csv_check_accepts_identical_and_tiny_deviation_with_a_note():
    ref = _csv([(0.0, 1.0), (1e-3, 2.0)])
    assert checks.csv_check(ref, ref) == ("sha256 matches the reference", [])
    note, problems = checks.csv_check(_csv([(0.0, 1.0), (1e-3, 2.0 + 1e-12)]), ref)
    assert problems == [] and "sha256 differs" in note and "5e-13" in note
    note, problems = checks.csv_check(_csv([(0.0, 1.0), (1e-3, 2.0 + 1e-6)]), ref)
    assert len(problems) == 1 and "5e-07" in problems[0]
    assert checks.csv_check(_csv([(0.0, 1.0)]), ref)[1]


def test_report_problems():
    good = {"max_residual_disp": 1e-12, "max_residual_vel": 0.0,
            "max_residual_acc": 2e-10, "centripetal": None,
            "oscillation_indices": {"lam_y": 3.0}, "car_acc_exceeds_limit": False}
    assert checks.report_problems(good, "A") == []
    assert checks.report_problems(good, "C") == []
    loose = dict(good, max_residual_disp=1e-6)
    assert checks.report_problems(loose, "A") == []
    assert len(checks.report_problems(loose, "C")) == 1
    bad = dict(good, oscillation_indices={"lam_y": float("nan")})
    assert checks.report_problems(bad, "A") == [
        "report.json: oscillation_indices.lam_y is not finite"]


def test_crossing_reference_is_the_pinned_default_run():
    assert checks.sha256(checks.reference_csv("crossing")) == (
        "1cf205e40d556fdde619d4fde37c1a4297571f39fe0f7a39c0519f34c4ee1b4e")


def test_seed_zero_gives_the_fixed_inputs():
    assert run.scenario_for("crossing", 0) == {}
    assert run.scenario_for("fine_mesh", 0) == run.WORKLOADS["fine_mesh"]
    assert run.scenario_for("projected_fine_dt", 0) == run.WORKLOADS["projected_fine_dt"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seeded_scenarios_are_valid(workload):
    from vtsi.scenario import parse_scenario

    for seed in range(1, 30):
        data = run.scenario_for(workload, seed)
        assert data == run.scenario_for(workload, seed)
        sc = parse_scenario(data)
        assert sc.vehicle.v <= 100.0
        if workload == "projected_fine_dt":
            # past the straight first span, so the curvature branch runs
            assert sc.vehicle.v * sc.run.horizon > 30.0


def _child(wall, traced, problems=()):
    rep = {"wall_s": wall, "traced": traced, "problems": list(problems)}
    if traced and not problems:
        rep["result"] = {"layers": {name: 1 for name in spans.LAYER_UNITS}}
    return rep


def test_per_layer_overhead_compares_child_repetitions_only():
    problems = []
    out = run.per_layer([_child(9.0, True), _child(7.0, False),
                         _child(11.0, True), _child(8.0, False)], problems)
    assert problems == []
    assert out["trace.overhead_s"] == pytest.approx(10.0 - 7.5)
    assert out["beams.n_red"] == 1


def test_per_layer_without_a_traced_success_reports_nan():
    problems = []
    out = run.per_layer([_child(9.0, True, ["exit code 1"]),
                         _child(7.0, False)], problems)
    assert problems == ["no traced repetition succeeded"]
    assert math.isnan(out["beams.n_red"])
    assert math.isnan(out["trace.overhead_s"])
