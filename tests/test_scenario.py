import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtsi.scenario import (RunConfig, Scenario, ScenarioError,
                           load_scenario, parse_scenario)
from vtsi.simulate import scenario_scheme


class TestDefaults:
    def test_empty_object_gives_full_default(self):
        sc = parse_scenario({})
        kinds = [sp.kind for sp in sc.plan.spans]
        assert kinds == ["straight", "transition", "arc", "transition",
                        "straight"]
        assert all(sp.length == 30.0 for sp in sc.plan.spans)
        assert sc.plan.spans[2].radius_start == 6000.0
        assert sc.ctrl_per_span == 10

        br = sc.bridge
        assert (br.kind, br.degree, br.elements_per_span) == ("nurbs", 3, 8)
        assert br.rayleigh == (0.0, 0.0)
        sect = br.section
        assert sect.E == 28.25e9
        assert sect.G == 1e12
        assert sect.A == 7.73
        assert sect.I_t == 15.65
        assert sect.I_n == 7.84
        assert sect.I_b == 74.42
        assert sect.rho_lin == 41740.0

        veh = sc.vehicle
        assert veh.m_w == 7120.0
        assert veh.m_c == 41750.0
        assert veh.I_w == 1140.0
        assert veh.I_c == 23200.0
        assert veh.k_s == 865.6e3
        assert veh.l_0 == 1.37
        assert veh.v == 100.0
        assert veh.g == pytest.approx(9.81)

        run = sc.run
        assert (run.strategy, run.rho_inf) == ("A", 0.9)
        assert not run.newmark
        assert (run.dt, run.horizon) == (1e-3, 1.5)
        assert run.t0_correction and run.bridge_static_init
        assert run.displacement_repair_every == 0

        assert len(sc.probes) == 1
        assert sc.probes[0].name == "midspan"
        assert sc.probes[0].s == 75.0
        assert not sc.add_static_axle_load

    def test_arc_window(self):
        # The first arc's start and span, from which the report's
        # centripetal check takes its window [60, 90] m.
        sc = parse_scenario({})
        assert sc.first_arc == (60.0, sc.plan.spans[2])
        straight = parse_scenario(
            {"plan": {"spans": [{"kind": "straight", "length": 30.0}]},
             "run": {"horizon": 0.3}})
        assert straight.first_arc is None
        assert straight.probes[0].s == 15.0


class TestOverrides:
    def test_strategy_b_defaults_to_newmark(self):
        sc = parse_scenario({"run": {"strategy": "B", "horizon": 0.9}})
        assert sc.run.strategy == "B"
        assert sc.run.newmark

    @pytest.mark.parametrize("run", [
        {"strategy": "A"}, {"strategy": "B"}, {"strategy": "C"},
        {"strategy": "B", "rho_inf": 0.8}, {"strategy": "B", "rho_inf": None},
        {"strategy": "B", "newmark": False}, {"strategy": "A", "newmark": True},
        {"strategy": "C", "rho_inf": 0.5, "newmark": True}])
    def test_python_and_json_configs_agree(self, run):
        # The strategy's default scheme lives in RunConfig itself, so a
        # config built in Python runs what the same keys in a file run.
        built = RunConfig(**run, horizon=0.9)
        parsed = parse_scenario({"run": {**run, "horizon": 0.9}})
        assert built == parsed.run
        assert scenario_scheme(Scenario(run=built)) == scenario_scheme(parsed)

    @pytest.mark.parametrize("run,rho_inf,newmark", [
        ({"strategy": "A"}, 0.9, False),
        ({"strategy": "B"}, None, True),
        ({"strategy": "C"}, None, True),
        ({"strategy": "B", "newmark": False}, 0.9, False),
        ({"strategy": "B", "rho_inf": None}, None, False),
        ({"strategy": "A", "newmark": True}, 0.9, True)])
    def test_scheme_defaults_by_strategy(self, run, rho_inf, newmark):
        cfg = RunConfig(**run)
        assert (cfg.rho_inf, cfg.newmark) == (rho_inf, newmark)

    def test_strategy_b_keeps_explicit_rho(self):
        sc = parse_scenario({"run": {"strategy": "B", "rho_inf": 0.8,
                                     "horizon": 0.9}})
        assert not sc.run.newmark
        assert sc.run.rho_inf == 0.8

    def test_section_and_vehicle_keys_lower_snake(self):
        sc = parse_scenario({
            "bridge": {"section": {"e": 30e9, "i_n": 8.0}},
            "vehicle": {"m_w": 7000.0, "v": 80.0},
        })
        assert sc.bridge.section.E == 30e9
        assert sc.bridge.section.I_n == 8.0
        assert sc.bridge.section.A == 7.73  # untouched default
        assert sc.vehicle.m_w == 7000.0
        assert sc.vehicle.v == 80.0

    def test_probes_and_flags(self):
        sc = parse_scenario({
            "probes": [{"name": "joint", "s": 30.0}, {"s": 75.0}],
            "flags": {"add_static_axle_load": True},
        })
        assert [p.name for p in sc.probes] == ["joint", "probe1"]
        assert sc.add_static_axle_load


class TestRejection:
    @pytest.mark.parametrize("data,named", [
        ({"speed": 10.0}, "'speed' in scenario"),
        ({"plan": {"span": []}}, "'span' in plan"),
        ({"plan": {"spans": [{"len": 30.0}]}}, "'len' in plan.spans[0]"),
        ({"bridge": {"order": 3}}, "'order' in bridge"),
        ({"bridge": {"section": {"ei": 1.0}}}, "'ei' in bridge.section"),
        ({"vehicle": {"mass": 1.0}}, "'mass' in vehicle"),
        ({"run": {"step": 1e-3}}, "'step' in run"),
        ({"probes": [{"x": 1.0}]}, "'x' in probes[0]"),
        ({"flags": {"verbose": True}}, "'verbose' in flags"),
    ])
    def test_unknown_keys_are_named(self, data, named):
        with pytest.raises(ScenarioError, match="unknown key %s"
                           % named.replace("[", "\\[")):
            parse_scenario(data)

    def test_probe_off_path(self):
        with pytest.raises(ScenarioError, match="off the path"):
            parse_scenario({"probes": [{"name": "far", "s": 400.0}]})

    def test_horizon_longer_than_crossing(self):
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario({"run": {"horizon": 2.0}})

    def test_bad_values(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"run": {"strategy": "X"}})
        with pytest.raises(ScenarioError):
            parse_scenario({"run": {"dt": -1.0}})
        with pytest.raises(ScenarioError):
            parse_scenario({"bridge": {"kind": "shell"}})
        with pytest.raises(ScenarioError):
            parse_scenario({"vehicle": {"m_w": -1.0}})
        with pytest.raises(ScenarioError):
            parse_scenario([1, 2, 3])

    def test_curvature_jump_in_plan(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"plan": {"spans": [
                {"kind": "straight", "length": 30.0},
                {"kind": "arc", "length": 30.0,
                 "radius_start": 500.0, "radius_end": 500.0},
            ]}})


class TestLoading:
    def test_round_trip_file(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps({"run": {"strategy": "C", "horizon": 0.5}}))
        sc = load_scenario(p)
        assert isinstance(sc, Scenario)
        assert sc.run.strategy == "C"
        assert sc.run.newmark

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ not json")
        with pytest.raises(ScenarioError, match="cannot parse"):
            load_scenario(p)


# A scenario that sets every key, for single-value mutations.
FULL_SCENARIO = {
    "plan": {"spans": [
        {"kind": "straight", "length": 30.0},
        {"kind": "transition", "length": 30.0, "radius_start": None,
         "radius_end": 6000.0},
        {"kind": "arc", "length": 30.0, "radius_start": 6000.0,
         "radius_end": 6000.0},
    ], "ctrl_per_span": 10},
    "bridge": {"kind": "nurbs", "degree": 3, "elements_per_span": 8,
               "section": {"e": 28.25e9, "g": 1e12, "a": 7.73, "a_n": 7.73,
                           "a_b": 7.73, "i_t": 15.65, "i_n": 7.84,
                           "i_b": 74.42, "rho_lin": 41740.0},
               "supports": [[0.0, [0, 1, 2, 3, 4, 5]], [90.0, [1, 2, 3]]],
               "rayleigh": [0.0, 0.0]},
    "vehicle": {"m_w": 7120.0, "m_c": 41750.0, "i_w": 1140.0, "i_c": 23200.0,
                "k_s": 865.6e3, "l_0": 1.37, "g": 9.81, "v": 100.0},
    "run": {"strategy": "A", "rho_inf": 0.9, "newmark": False, "dt": 1e-3,
            "horizon": 0.9, "t0_correction": True,
            "displacement_repair_every": 0, "bridge_static_init": True},
    "probes": [{"name": "midspan", "s": 75.0}],
    "flags": {"add_static_axle_load": False},
}


def _node_paths(node, prefix=()):
    """Key paths of every value below ``node``, containers included."""
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    paths = [prefix] if prefix else []
    for key, child in items:
        paths.extend(_node_paths(child, prefix + (key,)))
    return paths


def _replaced(data, path, value):
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
    | st.sampled_from(["A", "b", "fem", "arc", "straight", "transition"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12)

KEYS = sorted({k for p in _node_paths(FULL_SCENARIO) for k in p
               if isinstance(k, str)})

scenario_shaped = st.dictionaries(
    st.sampled_from(sorted(FULL_SCENARIO)),
    st.dictionaries(st.sampled_from(KEYS), json_values, max_size=4)
    | json_values, max_size=4)

mutated_full = st.builds(_replaced, st.just(FULL_SCENARIO),
                         st.sampled_from(_node_paths(FULL_SCENARIO)),
                         json_values)


class TestReaderProperty:
    def test_full_scenario_is_valid(self):
        sc = parse_scenario(FULL_SCENARIO)
        assert sc.bridge.supports == ((0.0, (0, 1, 2, 3, 4, 5)),
                                      (90.0, (1, 2, 3)))
        assert sc.plan.spans[1].radius_end == 6000.0

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(json_values, scenario_shaped, mutated_full))
    def test_parses_or_names_the_error(self, data):
        try:
            sc = parse_scenario(data)
        except ScenarioError as exc:
            assert str(exc)
        else:
            assert isinstance(sc, Scenario)
