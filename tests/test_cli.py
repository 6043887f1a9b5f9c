import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vtsi.cli
import vtsi.integrators as integ
import vtsi.simulate
from vtsi import _lapack, parse_scenario
from vtsi.cli import cli
from vtsi.metrics import oscillation_index
from vtsi.output import timehistory_header
from vtsi.scenario import default_plan_spec
from vtsi.simulate import (build_scenario_model, run_simulation,
                           scenario_scheme)


CHEAP_SCENARIO = {
    "plan": {"spans": [{"kind": "straight", "length": 30.0}]},
    "bridge": {"kind": "fem"},
    "run": {"horizon": 0.25},
}


@pytest.fixture()
def scenario_file(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(CHEAP_SCENARIO))
    return p


class TestRun:
    def test_writes_outputs_and_exits_zero(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert cli(["run", str(scenario_file), "-o", str(out)]) == 0
        csv = out / "timehistory.csv"
        rep = out / "report.json"
        assert csv.is_file() and rep.is_file()
        assert csv.read_text().splitlines()[0].startswith("t,ut1")
        assert len(csv.read_text().splitlines()) == 252  # header + 251 rows
        report = json.loads(rep.read_text())
        assert "oscillation_indices" in report
        assert report["centripetal"] is None  # straight path, no arc

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert cli(["run", str(tmp_path / "nope.json"),
                    "-o", str(tmp_path / "out")]) == 1
        assert "error" in capsys.readouterr().err

    # A run steps a block of steps, then checks their states at once: the
    # first state that is not finite is still the one named, wherever it
    # falls in its block.
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_divergence_exits_two(self, where, scenario_file, tmp_path,
                                  capsys, monkeypatch):
        scenario = parse_scenario(CHEAP_SCENARIO)
        block = integ.Stepper(build_scenario_model(scenario),
                              scenario_scheme(scenario),
                              scenario.run.strategy).block_steps()
        step = {"first": block + 1, "middle": 50, "last": 2 * block}[where]
        assert where != "middle" or 1 < step % block
        healthy = integ.vehicle_matrices
        tabulated = [0]

        def poisoned(*args, **kwargs):
            # The run tabulates the vehicle at t_f of steps 1..n in order
            # before the first step, so entry n - 1 is step n.
            veh = healthy(*args, **kwargs)
            P = veh.P.copy()
            P[max(step - 1 - tabulated[0], 0):] = np.nan
            tabulated[0] += len(P)
            return dataclasses.replace(veh, P=P)

        monkeypatch.setattr(integ, "vehicle_matrices", poisoned)
        pinned = _lapack._POOL and _lapack._POOL.get()
        out = tmp_path / "out"
        assert cli(["run", str(scenario_file), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "step %d " % step in err and "t=%g" % (step * 1e-3) in err
        assert not (out / "timehistory.csv").exists()
        # The run left its one-thread steps with an exception, and the BLAS
        # pool is back at its pinned count.
        assert (_lapack._POOL and _lapack._POOL.get()) == pinned

    def test_divergence_named_before_a_later_singular_solve(
            self, scenario_file, tmp_path, capsys, monkeypatch):
        # Step 50's state is not finite and step 55's reduced matrix is
        # singular, in the same block: the run still names step 50.
        healthy = integ.vehicle_matrices
        tabulated = [0]

        def poisoned(*args, **kwargs):
            veh = healthy(*args, **kwargs)
            P, M, C, K = (a.copy() for a in (veh.P, veh.M, veh.C, veh.K))
            P[max(49 - tabulated[0], 0):] = np.nan
            for a in (M, C, K):
                a[max(54 - tabulated[0], 0):] = 0.0
            tabulated[0] += len(P)
            return dataclasses.replace(veh, P=P, M=M, C=C, K=K)

        monkeypatch.setattr(integ, "vehicle_matrices", poisoned)
        assert cli(["run", str(scenario_file), "-o",
                    str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "step 50 " in err and "singular" not in err

    def test_default_supports_on_a_tight_arc(self, tmp_path):
        # The bridge's fit of the arc ends 1.8e-9 m short of 30 m, where
        # the default end support is.
        p = tmp_path / "arc.json"
        p.write_text(json.dumps({
            "plan": {"spans": [{"kind": "arc", "length": 30.0,
                                "radius_start": 150, "radius_end": 150}]},
            "run": {"horizon": 0.2}}))
        out = tmp_path / "out"
        assert cli(["run", str(p), "-o", str(out)]) == 0
        assert (out / "timehistory.csv").is_file()

    def test_nonfinite_coupling_rows_exit_two(self, tmp_path, capsys,
                                              monkeypatch, call_log):
        healthy = integ.constraint_rates

        def poisoned(*args, **kwargs):
            # The run evaluates the constraint at t = 0, then, in one chunk
            # of its 200 steps, at t_{n+1} of steps 1..200 and at t_f of
            # steps 1..200, so entry 1 + 200 + 49 is t_f of step 50. The
            # evaluations are counted in a file, which the producer's
            # evaluations reach.
            snap = healthy(*args, **kwargs)
            vals = snap.rows.vals
            vals[max(250 - sum(call_log.read()), 0):] = np.nan
            call_log.add(len(vals))
            return snap

        monkeypatch.setattr(integ, "constraint_rates", poisoned)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"bridge": {"kind": "fem"},
                                        "run": {"horizon": 0.2}}))
        out = tmp_path / "out"
        assert cli(["run", str(scenario), "-o", str(out)]) == 2
        assert call_log.read() == [1, 400]
        err = capsys.readouterr().err
        assert "step 50 " in err and "t=0.05" in err
        assert not (out / "timehistory.csv").exists()


FIXED = [0, 1, 2, 3, 4, 5]


class TestSupports:
    def _run(self, tmp_path, data):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "out"
        return cli(["run", str(p), "-o", str(out)]), out

    def test_fully_fixed_bridge_runs_quietly(self, tmp_path, capfd):
        # Every DOF fixed: the bridge has no reduced DOF, and LAPACK is
        # never handed the empty matrix (it used to print an error).
        code, out = self._run(tmp_path, {
            "plan": {"spans": [{"kind": "straight", "length": 20}]},
            "bridge": {"kind": "fem", "elements_per_span": 1,
                       "supports": [[0, FIXED], [20, FIXED]]},
            "run": {"horizon": 0.02}})
        assert code == 0
        assert capfd.readouterr() == ("", "")
        assert (out / "timehistory.csv").is_file()

    # One support fixing only u_n leaves the bridge free to move: its
    # static self-weight state has no solution. A run that would start from
    # the undeformed bridge is refused too.
    @pytest.mark.parametrize("kind,static_init", [
        ("nurbs", True), ("fem", True), ("nurbs", False), ("fem", False)],
        ids=["nurbs", "fem", "nurbs-no-static-init", "fem-no-static-init"])
    def test_under_supported_bridge_exits_two(self, kind, static_init,
                                              tmp_path, capsys):
        code, out = self._run(tmp_path, {
            "bridge": {"kind": kind, "supports": [[10, [1]]]},
            "run": {"horizon": 0.02, "bridge_static_init": static_init}})
        assert code == 2
        assert "bridge.supports" in capsys.readouterr().err
        assert not (out / "timehistory.csv").exists()

    # A straight span of 1e5 m on its default supports: NURBS's reduced K
    # is too ill-conditioned for its static state, which FEM solves. The
    # message names the spans as well as the supports.
    @pytest.mark.parametrize("kind,want", [("nurbs", 2), ("fem", 0)])
    def test_long_span_names_plan_spans(self, kind, want, tmp_path, capsys):
        code, out = self._run(tmp_path, {
            "plan": {"spans": [{"kind": "straight", "length": 1e5}]},
            "bridge": {"kind": kind}, "run": {"horizon": 0.02}})
        err = capsys.readouterr().err
        assert code == want
        if want:
            assert len(err.splitlines()) == 1
            assert "plan.spans" in err and "bridge.supports" in err
            assert not (out / "timehistory.csv").exists()

    @pytest.mark.parametrize("kind", ["nurbs", "fem"])
    def test_bridge_fixed_at_one_end_runs(self, kind, tmp_path):
        code, out = self._run(tmp_path, {
            "bridge": {"kind": kind, "supports": [[0, FIXED]]},
            "run": {"horizon": 0.02}})
        assert code == 0
        assert (out / "timehistory.csv").is_file()


# A negative radius turns right.
radii = st.floats(150.0, 6000.0) | st.floats(-6000.0, -150.0)


@st.composite
def plans(draw):
    """1-3 spans whose curvature is continuous at the joints (a first span
    may start curved), turning either way."""
    spans, radius = [], draw(st.none() | radii)
    for _ in range(draw(st.integers(1, 3))):
        end = draw(st.none() | st.just(radius) | radii)
        kind = ("transition" if end != radius
                else "straight" if end is None else "arc")
        spans.append({"kind": kind, "length": draw(st.floats(10.0, 40.0)),
                      "radius_start": radius, "radius_end": end})
        radius = end
    return spans


@st.composite
def whole_runs(draw):
    """A scenario a coarse bridge runs in a few dozen steps: a plan of
    ``plans``, random supports (fully fixed ends among them), probes,
    speed, strategy and static initial state."""
    spans = draw(plans())
    length = sum(span["length"] for span in spans)
    where = st.floats(0.0, length)
    fields = st.lists(st.integers(0, 5), min_size=1, max_size=6,
                      unique=True).map(sorted)
    supports = draw(st.none()
                    | st.just([[0.0, [0, 1, 2, 3, 4, 5]],
                               [length, [0, 1, 2, 3, 4, 5]]])
                    | st.lists(st.tuples(where, fields).map(list),
                               min_size=1, max_size=4))
    dt = draw(st.sampled_from([5e-4, 1e-3, 5e-3]))
    data = {
        "plan": {"spans": spans},
        "bridge": {"kind": draw(st.sampled_from(["nurbs", "fem"])),
                   "degree": draw(st.integers(1, 4)),
                   "elements_per_span": draw(st.integers(1, 4))},
        "vehicle": {"v": draw(st.floats(0.0, 100.0))},
        "run": {"strategy": draw(st.sampled_from("ABC")), "dt": dt,
                "horizon": draw(st.integers(7, 40)) * dt,
                "bridge_static_init": draw(st.booleans())},
        "probes": [{"s": s} for s in draw(st.lists(where, max_size=2))],
    }
    if supports is not None:
        data["bridge"]["supports"] = supports
    # Strategy C runs plain Newmark only; A and B take any spectral radius.
    if data["run"]["strategy"] != "C":
        rho_inf = draw(st.none() | st.just("auto") | st.floats(0.0, 1.0))
        if rho_inf != "auto":
            data["run"]["rho_inf"] = rho_inf
    return data


def finite_json(value) -> bool:
    """No NaN or infinity anywhere in a parsed JSON value."""
    if isinstance(value, dict):
        return all(map(finite_json, value.values()))
    if isinstance(value, list):
        return all(map(finite_json, value))
    return not isinstance(value, float) or math.isfinite(value)


class TestWholeRuns:
    # Every run `check` accepts ends in exit 0, 1 or 2, never in an
    # exception, and prints nothing on stdout (LAPACK's error messages go
    # there); a run that exits 0 writes finite outputs and nothing on
    # stderr, and under strategy C holds all three constraint levels from
    # its first row on.
    @settings(derandomize=True, deadline=None, max_examples=50,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=whole_runs())
    # The bridge is deflected at s = 0, where the wheel starts at rest: the
    # wheel starts in contact there, not 5.8e-5 m away.
    @example(data={
        "plan": {"spans": [{"kind": "straight", "length": 10.0}]},
        "bridge": {"kind": "nurbs", "degree": 4, "elements_per_span": 4,
                   "supports": [[4.285, FIXED], [9.696, FIXED]]},
        "vehicle": {"v": 0.0},
        "run": {"strategy": "C", "dt": 0.005, "horizon": 0.075}})
    # The NURBS fit of a tight arc ends short of the plan, and a probe at
    # the plan's exact end is taken at the fit's end, as a support is.
    @example(data={
        "plan": {"spans": [{"kind": "arc", "length": 30, "radius_start": 50,
                            "radius_end": 50}]},
        "bridge": {"elements_per_span": 4}, "vehicle": {"v": 10},
        "run": {"horizon": 0.02}, "probes": [{"name": "end", "s": 30.0}]})
    # Below rho_inf 1/3 generalized-alpha's gamma exceeds 1, which the
    # scheme used to reject with a traceback.
    @example(data={"run": {"horizon": 0.02, "rho_inf": 0.0}})
    # The damping overflows, which used to raise ValueError in a traceback
    # and then to print numpy's overflow warning before a message that
    # named no key; it exits 2 with one line naming bridge.rayleigh.
    @example(data={"bridge": {"rayleigh": [1e300, 1e300]},
                   "run": {"horizon": 0.02}})
    def test_exits_cleanly_with_finite_outputs(self, data, capfd):
        capfd.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
            scenario.write_text(json.dumps(data))
            code = cli(["run", str(scenario), "-o", str(out)])
            printed = capfd.readouterr()
            assert code in (0, 1, 2) and printed.out == ""
            # A failure prints its one message line, and no warning.
            assert len(printed.err.splitlines()) == (code != 0)
            if data.get("bridge", {}).get("rayleigh") == [1e300, 1e300]:
                assert code == 2 and "bridge.rayleigh" in printed.err
            if code == 0:
                assert printed.err == ""
                table = np.loadtxt(out / "timehistory.csv", delimiter=",",
                                   skiprows=1, ndmin=2)
                assert np.all(np.isfinite(table))
                report = json.loads((out / "report.json").read_text())
                assert finite_json(report)
                if data["run"].get("strategy") == "C":
                    for level in ("disp", "vel", "acc"):
                        assert report["max_residual_" + level] <= 1e-9


# The columns that a plan's mirror image negates: the vehicle's lateral and
# roll DOFs (*1 and *3), lam_y and lam_thx, and each probe's ub_n and ab_n.
# Each column's group is its quantity: ut, vt, at, lam, ub or ab.
MIRROR_FLIPS = {"ut1", "ut3", "vt1", "vt3", "at1", "at3", "lam_y", "lam_thx",
                "ub_n", "ab_n"}
# Mirrored runs differ by round-off only, scaled by the largest value of
# the column's group: at most 5e-7 on these runs (the default plan's ab,
# 0.03 s in), and 0 on most plans. Round-off between 1 and 2 BLAS threads
# reaches 2e-6 on a 32-element-per-span bridge; a wrong right-hand model
# is off by about 1.
MIRROR_TOL = 1e-5


def _mirror_table(data: dict):
    """A run's time history as one table and its columns' names, or the
    error that stopped the run and None."""
    try:
        history = run_simulation(parse_scenario(data))
    except RuntimeError as err:
        return str(err), None
    names = timehistory_header(history)[1:]
    table = np.column_stack([history.ut, history.vt, history.at,
                             history.lam, *history.probes.values()])
    return table, names


class TestMirror:
    # Negating every radius mirrors the run: the lateral columns flip sign
    # and the others keep theirs, under each strategy and bridge kind.
    @pytest.mark.parametrize("strategy", "ABC")
    @pytest.mark.parametrize("kind", ["nurbs", "fem"])
    @settings(derandomize=True, deadline=None, max_examples=4,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spans=plans())
    # The default plan turning right: its car's vertical displacement once
    # peaked at 1.89 m, against 4.13 mm turning left.
    @example(spans=[{"kind": span.kind, "length": span.length,
                     "radius_start": span.radius_start,
                     "radius_end": span.radius_end}
                    for span in default_plan_spec().spans])
    def test_negated_radii_mirror_the_run(self, spans, kind, strategy):
        data = {"plan": {"spans": spans},
                "bridge": {"kind": kind, "elements_per_span": 2},
                "run": {"strategy": strategy, "horizon": 0.03}}
        mirrored = json.loads(json.dumps(data))
        for span in mirrored["plan"]["spans"]:
            for end in ("radius_start", "radius_end"):
                if span[end] is not None:
                    span[end] = -span[end]
        (left, names), (right, _) = map(_mirror_table, (data, mirrored))
        if names is None:
            assert right == left
            return
        sign = np.array([-1.0 if n in MIRROR_FLIPS else 1.0 for n in names])
        groups = np.array([n.rstrip("0123456789").partition("_")[0]
                           for n in names])
        for group in set(groups):
            cols = groups == group
            scale = np.abs(left[:, cols]).max()
            assert (np.abs(left[:, cols] - sign[cols] * right[:, cols]).max()
                    <= MIRROR_TOL * scale), group


class TestOutputPath:
    # An output path that cannot be a directory (a file, or a path under a
    # file) fails before any step runs; it used to fail after the run.
    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--param", "run.rho_inf", "--values", "1.0,0.9"]],
        ids=["run", "sweep"])
    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    def test_unusable_path_exits_one(self, command, under, scenario_file,
                                     tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(vtsi.cli, "run_simulation", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "out" if under else taken
        assert cli([command[0], str(scenario_file), *command[1:],
                    "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert taken.read_text() == ""


class TestCheck:
    def test_valid_scenario(self, scenario_file, capsys):
        assert cli(["check", str(scenario_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_key_named(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"run": {"timestep": 1e-3}}))
        assert cli(["check", str(p)]) == 1
        assert "'timestep'" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert cli(["check", str(p)]) == 1
        assert "error" in capsys.readouterr().err


class TestMalformedScenario:
    @pytest.mark.parametrize("data,key", [
        # Interior support: index 7 would fix a DOF of the next control point.
        ({"bridge": {"supports": [[0.0, [0, 1, 2, 3, 4, 5]], [60.0, [7]],
                                  [150.0, [0, 1, 2, 3, 4, 5]]]}},
         "bridge.supports[1]"),
        # End support: index 6 runs past the last control point.
        ({"bridge": {"supports": [[0.0, [0, 1, 2]], [150.0, [2, 6]]]}},
         "bridge.supports[1]"),
        ({"bridge": {"supports": [[0.0, [-1]]]}}, "bridge.supports[0]"),
        ({"plan": {"spans": [{"kind": "straight", "length": 30.0},
                             {"kind": "arc", "length": 30.0}]}},
         "plan.spans[1]"),
        # Wrong JSON types, which used to end in a traceback ...
        ({"bridge": {"supports": [5.0]}}, "bridge.supports[0]"),
        ({"plan": {"spans": 3}}, "plan.spans"),
        ({"run": {"dt": "abc"}}, "run.dt"),
        ({"probes": {"s": 1}}, "probes"),
        ({"bridge": {"rayleigh": 5}}, "bridge.rayleigh"),
        # ... values found only at assembly or in the fit ...
        ({"bridge": {"supports": [[0.0, [0, 1, 2, 3, 4, 5]], [500.0, [1]]]}},
         "bridge.supports[1]"),
        ({"plan": {"ctrl_per_span": 0}}, "plan.ctrl_per_span"),
        # ... and values that were accepted as a different model.
        ({"run": {"dt": float("nan")}}, "run.dt"),
        ({"run": {"t0_correction": "false"}}, "run.t0_correction"),
        ({"run": {"newmark": "false"}}, "run.newmark"),
        ({"bridge": {"degree": 3.7}}, "bridge.degree"),
        ({"vehicle": {"v": True}}, "vehicle.v"),
        ({"run": []}, "run must be an object"),
        ({"flags": {"add_static_axle_load": 1}}, "flags.add_static_axle_load"),
        # Step counts past MAX_STEPS, or not finite, which used to pass
        # `check` and end `run` in a traceback or an unbounded allocation.
        ({"run": {"dt": 1e-320}}, "run.dt"),
        ({"run": {"horizon": 1e6}, "vehicle": {"v": 0.0}}, "run.horizon"),
        # Strategy C runs plain Newmark; a rho_inf used to be dropped.
        ({"run": {"strategy": "C", "rho_inf": 0.5}}, "run.rho_inf"),
        # One step, too few for the report, which used to fail after the
        # time history was written.
        ({"run": {"horizon": 1e-3}}, "run.horizon"),
        # Sizes whose dense matrices would not fit in memory.
        ({"bridge": {"elements_per_span": 100000}}, "bridge.elements_per_span"),
        ({"plan": {"ctrl_per_span": 1000}}, "plan.ctrl_per_span"),
        # Negative damping, which feeds energy in, and a bridge with no
        # supports, which used to run the default supports.
        ({"bridge": {"rayleigh": [-1, 0]}}, "bridge.rayleigh"),
        ({"bridge": {"supports": []}}, "bridge.supports"),
        # Two probes of one name, which used to share one column group;
        # an unnamed probe at index i is named probe<i>.
        ({"probes": [{"name": "a", "s": 10}, {"name": "a", "s": 20}]},
         "probes[1].name"),
        ({"probes": [{"name": "probe1", "s": 10}, {"s": 20}]},
         "probes[1].name"),
        # A support that fixes no field, which used to pass `check` and end
        # `run` in a traceback from the bridge assembly.
        ({"bridge": {"supports": [[0, []]]}}, "bridge.supports[0]"),
        # A span whose length overflows when the elements cube it, which
        # used to pass `check` and end `run` in a traceback.
        ({"plan": {"spans": [{"kind": "straight", "length": 30.0},
                             {"kind": "straight", "length": 1e104}]},
          "bridge": {"kind": "fem"}}, "plan.spans[1]"),
    ])
    def test_rejected_with_key_named(self, data, key, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert cli(["check", str(p)]) == 1
        assert key in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli(["run", str(p), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_file(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"probes": [{"name": "br\xfccke", "s": 75.0}]}'
                      .encode("latin-1"))
        assert cli(["check", str(p)]) == 1
        assert "cannot parse" in capsys.readouterr().err


class TestSweep:
    def test_dissipation_sweep_orders_oscillation(self, scenario_file,
                                                  tmp_path):
        out = tmp_path / "sweep"
        assert cli(["sweep", str(scenario_file),
                    "--param", "run.rho_inf", "--values", "1.0,0.9",
                    "-o", str(out)]) == 0
        dirs = [out / "run.rho_inf=1.0", out / "run.rho_inf=0.9"]
        indices = []
        for d in dirs:
            assert (d / "timehistory.csv").is_file()
            data = np.loadtxt(d / "timehistory.csv", delimiter=",",
                              skiprows=1)
            indices.append(oscillation_index(data[:, 10], 1e-3))  # at2
        # Numerical dissipation strictly damps the wheel-acceleration noise.
        assert indices[1] < indices[0]

    @pytest.mark.parametrize("param,values,assembled", [
        ("run.rho_inf", ["1.0", "0.9", "0.8"], 1),
        ("bridge.elements_per_span", ["2", "4", "8"], 3),
    ])
    def test_sweep_shares_its_bridge(self, scenario_file, tmp_path,
                                     monkeypatch, param, values, assembled):
        # Values that leave the plan and the bridge as they are run on one
        # bridge, and each writes the bytes of its own vtsi run.
        calls = []
        assemble = vtsi.simulate.assemble_bridge

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(vtsi.simulate, "assemble_bridge", counted)
        out = tmp_path / "sweep"
        assert cli(["sweep", str(scenario_file), "--param", param,
                    "--values", ",".join(values), "-o", str(out)]) == 0
        assert len(calls) == assembled
        for text in values:
            data = json.loads(scenario_file.read_text())
            vtsi.cli._set_dotted(data, param, vtsi.cli._coerce(text))
            single = tmp_path / ("single-%s.json" % text)
            single.write_text(json.dumps(data))
            assert cli(["run", str(single), "-o", str(tmp_path / text)]) == 0
            for name in ("timehistory.csv", "report.json"):
                assert ((out / ("%s=%s" % (param, text)) / name).read_bytes()
                        == (tmp_path / text / name).read_bytes())

    def test_bad_value_exits_one(self, scenario_file, tmp_path, capsys):
        assert cli(["sweep", str(scenario_file),
                    "--param", "run.rho_inf", "--values", "2.0",
                    "-o", str(tmp_path / "s")]) == 1
        assert "rho_inf" in capsys.readouterr().err

    @pytest.mark.parametrize("param,values", [
        ("run.rho_inf", "1.0,2.0"),     # every value is parsed before a run
        ("run.dt.x", "1"),              # run.dt is not an object
    ])
    def test_bad_sweep_runs_nothing(self, scenario_file, tmp_path, param,
                                    values):
        out = tmp_path / "s"
        assert cli(["sweep", str(scenario_file), "--param", param,
                    "--values", values, "-o", str(out)]) == 1
        assert not out.exists()

    def test_empty_values_exits_one(self, scenario_file, tmp_path):
        assert cli(["sweep", str(scenario_file),
                    "--param", "run.dt", "--values", "",
                    "-o", str(tmp_path / "s")]) == 1
