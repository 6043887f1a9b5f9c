"""Temporal convergence orders of the three strategies.

The check for a change to the arithmetic that keeps no bits: each strategy
keeps the order at which its outputs converge as dt falls. A small bridge
(a transition and an arc of 30 m, 4 elements per span, n_red 51) is run
for 0.1 s at four dt, 4 to 0.5 ms, and once at the reference dt 1/16 ms.
An output's error at one dt is the RMS, over the 4 ms grid, of its
difference from the reference run of the same strategy, divided by the
reference's RMS; its order is the least-squares slope of log error against
log dt, steadier than any one pair of dt.

The reference is Arnold & Bruls 2007 (Multibody Syst. Dyn. 18:185) on
generalized-alpha for index-3 systems: second order in the positions, and
order reduction in the constraint forces lam. Strategy C's first-order
bridge displacement comes from its velocity projection.

Print the full order table:  PYTHONPATH=src python tests/test_convergence.py
"""
import numpy as np
import pytest

from vtsi import parse_scenario
from vtsi.simulate import (build_scenario_bridge, build_scenario_model,
                           build_scenario_path, run_simulation)

SCENARIO = {
    "plan": {"spans": [
        {"kind": "transition", "length": 30.0, "radius_start": None,
         "radius_end": 600.0},
        {"kind": "arc", "length": 30.0, "radius_start": 600.0,
         "radius_end": 600.0}]},
    "bridge": {"elements_per_span": 4},
    "probes": [{"name": "midspan", "s": 15.0}],
}
HORIZON = 0.1
DTS = (4e-3, 2e-3, 1e-3, 5e-4)
REFERENCE_DT = 6.25e-5

OUTPUTS = {
    "car u": lambda h: h.ut[:, 3],
    "midspan u_b": lambda h: h.probes["midspan"][:, 1],
    "wheel u": lambda h: h.ut[:, 1],
    "lam vertical": lambda h: h.lam[:, 1],
    "lam lateral": lambda h: h.lam[:, 0],
}

# The run settings of each row of the table.
SCHEMES = {
    "A (rho_inf 0.9)": {"strategy": "A"},
    "B (plain Newmark)": {"strategy": "B"},
    "B (rho_inf 0.9)": {"strategy": "B", "rho_inf": 0.9},
    "C (plain Newmark)": {"strategy": "C"},
}

# Lower bounds on the orders, each about 0.2 below the slope measured with
# 1 and 2 BLAS threads (in brackets); B's car, which dips to 1.3 on one
# pair of dt over a 0.2 s horizon, about 0.5.
BOUNDS = {
    ("A (rho_inf 0.9)", "car u"): 1.8,           # 2.01
    ("A (rho_inf 0.9)", "midspan u_b"): 1.4,     # 1.60
    ("A (rho_inf 0.9)", "wheel u"): 1.4,         # 1.62
    ("A (rho_inf 0.9)", "lam vertical"): 0.9,    # 1.11
    ("A (rho_inf 0.9)", "lam lateral"): 0.9,     # 1.06
    ("B (plain Newmark)", "car u"): 1.5,         # 2.01
    ("B (plain Newmark)", "midspan u_b"): 1.5,   # 1.74
    ("B (plain Newmark)", "wheel u"): 1.5,       # 1.95
    ("C (plain Newmark)", "car u"): 1.8,         # 2.02
    ("C (plain Newmark)", "midspan u_b"): 0.9,   # 1.07
    ("C (plain Newmark)", "wheel u"): 0.9,       # 1.08
    ("C (plain Newmark)", "lam vertical"): 0.9,  # 1.06
}


def errors(scheme: dict) -> dict:
    """Each output's relative RMS error at each of DTS."""
    first = parse_scenario(dict(SCENARIO, run={"horizon": HORIZON}))
    path = build_scenario_path(first)
    bridge = build_scenario_bridge(first, path)

    def history(dt):
        scenario = parse_scenario(dict(SCENARIO, run=dict(
            scheme, dt=dt, horizon=HORIZON)))
        return run_simulation(scenario,
                              build_scenario_model(scenario, path, bridge))

    reference = history(REFERENCE_DT)
    runs = [history(dt) for dt in DTS]
    out = {}
    for name, output in OUTPUTS.items():
        # The 4 ms grid, without t = 0, where every run starts alike.
        want = output(reference)[::round(DTS[0] / REFERENCE_DT)][1:]
        out[name] = [
            np.sqrt(np.mean((output(h)[::round(DTS[0] / dt)][1:] - want)
                            ** 2)) / np.sqrt(np.mean(want ** 2))
            for dt, h in zip(DTS, runs)]
    return out


def order(errs) -> float:
    """The least-squares slope of log error against log dt."""
    return float(np.polyfit(np.log(DTS), np.log(errs), 1)[0])


@pytest.fixture(scope="module")
def table() -> dict:
    """Each scheme's errors, by output."""
    return {label: errors(scheme) for label, scheme in SCHEMES.items()}


@pytest.mark.parametrize("scheme,output", BOUNDS, ids=[
    "%s-%s" % (scheme.split()[0], output.replace(" ", "-"))
    for scheme, output in BOUNDS])
def test_order_at_least_its_bound(table, scheme, output):
    assert order(table[scheme][output]) >= BOUNDS[scheme, output]


def test_strategy_b_lam_converges_only_with_numerical_damping(table):
    # Under plain Newmark, B's undamped high-frequency contact oscillation
    # holds the vertical contact force's error near 5e-4 at every dt
    # (slope 0.36); with rho_inf 0.9 it converges at first order (1.06).
    plain = table["B (plain Newmark)"]["lam vertical"]
    damped = table["B (rho_inf 0.9)"]["lam vertical"]
    assert order(plain) < 0.6
    assert plain[-1] > 0.3 * plain[0]
    assert order(damped) >= 0.9


if __name__ == "__main__":
    print("orders over dt = %s ms; errors at the smallest dt in brackets"
          % ", ".join("%g" % (1e3 * dt) for dt in DTS))
    print("| scheme | " + " | ".join(OUTPUTS) + " |")
    print("|---" * (len(OUTPUTS) + 1) + "|")
    for label, scheme in SCHEMES.items():
        errs = errors(scheme)
        print("| %s | " % label + " | ".join(
            "%.2f (%.1e)" % (order(errs[name]), errs[name][-1])
            for name in OUTPUTS) + " |")
