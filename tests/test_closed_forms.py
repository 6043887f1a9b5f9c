"""Each bridge kind against its beam theory's closed-form frequencies.

The case: a simply supported straight 30 m span of the default section,
whose ends fix u_n, u_b and theta_t and one end also u_t. Its frequencies
come from ``scipy.linalg.eigh(K, M)``, and each mode is classified by the
field that dominates its shape on the straight span: u_b for vertical
bending, u_n for lateral.

* FEM is an Euler-Bernoulli beam: cubic Hermite bending with no shear and
  translational mass only. Its frequencies are f_k = (k pi / L)^2
  sqrt(EI / m) / (2 pi).
* NURBS is a Timoshenko beam with rotary inertia (shear area A, kappa = 1;
  Han, Benaroya & Wei 1999, J. Sound Vib. 225:935). Its frequencies are
  the lower roots of the simply supported frequency equation.

The two theories' first vertical frequencies differ by 5.7e-3, and the
first lateral by 5 %, so each tolerance below tells one theory from the
other. These checks depend neither on the BLAS build nor on its thread
count.
"""
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from vtsi import parse_scenario
from vtsi.beams import F_TT, F_UB, F_UN, F_UT, N_FIELDS, BeamSection
from vtsi.simulate import build_scenario_bridge, build_scenario_path

LENGTH = 30.0
SUPPORTS = [[0.0, [0, 1, 2, 3]], [LENGTH, [1, 2, 3]]]

# The largest relative error of the four frequencies at 16 elements per
# span was 8.3e-5 (FEM, third vertical) and 3.2e-4 (NURBS, third
# vertical); at 64 it was 3.3e-7 and 6.1e-8. Each tolerance is 3 times
# the error measured at 16, and 10 times that at 64.
TOL = {("fem", 16): 2.5e-4, ("nurbs", 16): 1e-3,
       ("fem", 64): 3.3e-6, ("nurbs", 64): 6.1e-7}


def euler_bernoulli(k: int, EI: float, m: float) -> float:
    """The k-th bending frequency in Hz of a simply supported
    Euler-Bernoulli beam."""
    return (k * math.pi / LENGTH) ** 2 * math.sqrt(EI / m) / (2 * math.pi)


def timoshenko(k: int, EI: float, rhoI: float, GA: float, m: float) -> float:
    """The k-th bending frequency in Hz of a simply supported Timoshenko
    beam with rotary inertia: the lower root w^2 of
    (GA q^2 - m w^2)(EI q^2 + GA - rhoI w^2) = (GA q)^2, q = k pi / L."""
    q = k * math.pi / LENGTH
    a = m * rhoI
    b = m * (EI * q ** 2 + GA) + rhoI * GA * q ** 2
    c = GA * EI * q ** 4
    w2 = (b - math.sqrt(b * b - 4 * a * c)) / (2 * a)
    return math.sqrt(w2) / (2 * math.pi)


def closed_forms(kind: str) -> tuple:
    """The first three vertical and the first lateral frequency of the
    kind's beam theory, for the default section."""
    s = BeamSection()
    rho = s.rho_lin / s.A       # per unit volume: rotary inertia rho I
    if kind == "fem":
        return ([euler_bernoulli(k, s.E * s.I_n, s.rho_lin)
                 for k in (1, 2, 3)],
                euler_bernoulli(1, s.E * s.I_b, s.rho_lin))
    return ([timoshenko(k, s.E * s.I_n, rho * s.I_n, s.G * s.A_b, s.rho_lin)
             for k in (1, 2, 3)],
            timoshenko(1, s.E * s.I_b, rho * s.I_b, s.G * s.A_n, s.rho_lin))


def frequencies(kind: str, elements: int) -> tuple:
    """The first three vertical and the first lateral bending frequency in
    Hz of the simply supported span."""
    scenario = parse_scenario({
        "plan": {"spans": [{"kind": "straight", "length": LENGTH}]},
        "bridge": {"kind": kind, "elements_per_span": elements,
                   "supports": SUPPORTS},
        "run": {"horizon": 0.3}})
    br = build_scenario_bridge(scenario, build_scenario_path(scenario))
    w2, modes = eigh(br.K, br.M, subset_by_index=[0, 11])
    shapes = br.Z[np.arange(br.n_full)] @ modes
    fields = [F_UT, F_UN, F_UB, F_TT]
    dominant = np.array(fields)[np.argmax(
        [np.linalg.norm(shapes[f::N_FIELDS], axis=0) for f in fields],
        axis=0)]
    f = np.sqrt(w2) / (2 * math.pi)
    return f[dominant == F_UB][:3], f[dominant == F_UN][:1]


@pytest.mark.parametrize("elements", [16, 64])
@pytest.mark.parametrize("kind", ["fem", "nurbs"])
def test_frequencies_match_the_beam_theory(kind, elements):
    vertical, lateral = frequencies(kind, elements)
    want_vertical, want_lateral = closed_forms(kind)
    assert len(vertical) == 3 and len(lateral) == 1
    errors = np.abs(np.append(vertical / want_vertical,
                              lateral / want_lateral) - 1)
    assert errors.max() <= TOL[kind, elements], errors
