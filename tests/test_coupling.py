import math

import numpy as np
import pytest

from vtsi import parse_scenario
from vtsi.coupling import constraint_rates
from vtsi.integrators import (Stepper, coupled_model, initial_state,
                              scheme_params)
from vtsi.simulate import build_scenario_bridge
from vtsi.vehicle import L_TR, VehicleParams, vehicle_matrices
from vtsi.pathgeom import frame_kinematics


def residual(vehicle, bridge, Lb, ut, vt, at, ub, vb, ab, lam):
    """Block residuals of the coupled equations (train, bridge, constraint)
    with reduced coupling rows ``Lb``."""
    r_t = (vehicle.M @ at + vehicle.C @ vt + vehicle.K @ ut + L_TR @ lam
           - vehicle.P)
    r_b = (bridge.M @ ab + bridge.C @ vb + bridge.K @ ub + Lb.T @ lam
           - bridge.P)
    r_c = L_TR.T @ ut + Lb @ ub
    return r_t, r_b, r_c


@pytest.fixture(scope="module")
def fem_bridge(default_scenario, default_path):
    return build_scenario_bridge(
        parse_scenario({"bridge": {"kind": "fem"}}), default_path)


class TestConstraintMatrix:
    def test_reproduces_constant_fields(self, default_bridge, fem_bridge):
        # Each coupling row interpolates one field: a unit constant field
        # (all other DOFs zero) must evaluate to exactly 1 anywhere.
        from vtsi.beams import F_TT, F_UB, F_UN, N_FIELDS
        for br in (default_bridge, fem_bridge):
            for s in (7.3, 43.125, 75.0, 131.9):
                L = constraint_rates(br, s, 0.0).L
                for row, f in zip(L, (F_UN, F_UB, F_TT)):
                    u = np.zeros(br.n_full)
                    u[f::N_FIELDS] = 1.0
                    assert row @ u == pytest.approx(1.0, abs=1e-10)

    def test_off_bridge_rejected(self, default_bridge):
        with pytest.raises(ValueError):
            constraint_rates(default_bridge, -0.5, 0.0)
        with pytest.raises(ValueError):
            constraint_rates(default_bridge, default_bridge.length + 1.0,
                             0.0)

    def test_full_row_rank_inside_path(self, default_bridge):
        rng = np.random.default_rng(5)
        Z = default_bridge.Z[np.arange(default_bridge.n_full)]
        for s in rng.uniform(1.0, 149.0, 25):
            L = constraint_rates(default_bridge, float(s), 0.0).L @ Z
            assert np.linalg.matrix_rank(L) == 3

    def test_interpolates_bridge_fields(self, default_bridge):
        # A manufactured reduced displacement: rows reproduce point values of
        # (u_n, u_b) obtained from the probe rows.
        rng = np.random.default_rng(11)
        ub = rng.normal(size=default_bridge.n_red)
        Z = default_bridge.Z[np.arange(default_bridge.n_full)]
        for s in (22.0, 75.0, 110.0):
            L = constraint_rates(default_bridge, s, 0.0).L @ Z
            probe = default_bridge.probe_rows(s)
            assert L[0] @ ub == pytest.approx(probe[0] @ ub, rel=1e-10)
            assert L[1] @ ub == pytest.approx(probe[1] @ ub, rel=1e-10)


class TestConstraintRates:
    @pytest.mark.parametrize("kind", ["nurbs", "fem"])
    def test_rates_match_finite_differences(self, kind, default_bridge,
                                            fem_bridge):
        br = default_bridge if kind == "nurbs" else fem_bridge
        v, s0 = 100.0, 43.125  # element midpoint, stencil stays inside
        t0 = s0 / v
        snap = constraint_rates(br, s0, v)
        scale1 = np.max(np.abs(snap.L_dot))
        scale2 = np.max(np.abs(snap.L_ddot))
        e1, e2 = [], []
        for h in (2e-3, 1e-3):
            Lp = constraint_rates(br, v * (t0 + h), v).L
            Lm = constraint_rates(br, v * (t0 - h), v).L
            e1.append(np.max(np.abs((Lp - Lm) / (2 * h) - snap.L_dot))
                      / scale1)
            e2.append(np.max(np.abs((Lp - 2 * snap.L + Lm) / h ** 2
                                    - snap.L_ddot)) / scale2)
        assert math.log2(e1[0] / e1[1]) >= 1.9
        # The second difference of a piecewise-cubic row is exact inside an
        # element, so the error may sit at the roundoff floor.
        assert math.log2(e2[0] / max(e2[1], 1e-300)) >= 1.9 or e2[0] <= 1e-8

    def test_zero_speed(self, default_bridge):
        snap = constraint_rates(default_bridge, 50.0, 0.0)
        assert np.max(np.abs(snap.L_dot)) == 0.0
        assert np.max(np.abs(snap.L_ddot)) == 0.0

    def test_reduction_through_null_space(self, default_bridge):
        snap = constraint_rates(default_bridge, 64.2, 100.0)
        L, Ld, Ldd, r = snap[0]
        assert L.shape == (3, default_bridge.n_red)
        Z = default_bridge.Z[np.arange(default_bridge.n_full)]
        assert np.allclose(L, snap.L @ Z)
        assert np.allclose(Ldd, snap.L_ddot @ Z)
        assert np.array_equal(r, np.zeros((3, 3)))


class TestCoupledSystem:
    def test_sizes(self, default_scenario, default_bridge, default_path):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        assert (model.n_t, model.n_b, model.n_lam) == (
            4, default_bridge.n_red, 3)

    def test_residual_of_consistent_state(self, default_bridge, default_path):
        # Static check: solve the coupled static problem directly and verify
        # all three block residuals vanish.
        vp = VehicleParams(v=0.0)
        fk = frame_kinematics(default_path.curve, default_path.amap, 40.0,
                              0.0)
        veh = vehicle_matrices(vp, fk)
        snap = constraint_rates(default_bridge, 40.0, 0.0)
        nb = default_bridge.n_red
        Lb = snap.L @ default_bridge.Z[np.arange(default_bridge.n_full)]
        A = np.zeros((4 + nb + 3, 4 + nb + 3))
        A[:4, :4] = veh.K
        A[:4, 4 + nb:] = L_TR
        A[4:4 + nb, 4:4 + nb] = default_bridge.K
        A[4:4 + nb, 4 + nb:] = Lb.T
        A[4 + nb:, :4] = L_TR.T
        A[4 + nb:, 4:4 + nb] = Lb
        rhs = np.concatenate([veh.P, default_bridge.P, np.zeros(3)])
        x = np.linalg.solve(A, rhs)
        ut, ub, lam = x[:4], x[4:4 + nb], x[4 + nb:]
        z = np.zeros
        r_t, r_b, r_c = residual(veh, default_bridge, Lb, ut, z(4), z(4), ub,
                                 z(nb), z(nb), lam)
        assert np.max(np.abs(r_t)) <= 1e-6
        assert np.max(np.abs(r_b)) <= 1e-6 * np.max(np.abs(default_bridge.P))
        assert np.max(np.abs(r_c)) <= 1e-12

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_step_solves_equations_at_collocation_point(
            self, strategy, default_scenario, default_bridge, default_path):
        # One step of the generalized-alpha (A) or Newmark (B) scheme: the
        # vehicle and bridge equations hold at t_f with accelerations
        # averaged by alpha_m and all other states by alpha_f.
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        p = scheme_params(rho_inf=0.9, newmark=(strategy == "B"))
        st0 = initial_state(model)
        st1 = Stepper(model, p, strategy).step(st0)
        am, af = p.alpha_m, p.alpha_f
        tf = (1.0 - af) * st1.t + af * st0.t

        def avg(alpha, name):
            return ((1.0 - alpha) * getattr(st1, name)
                    + alpha * getattr(st0, name))

        veh = model.vehicle_at(np.array([tf]))[0]
        con = model.reduced_at(np.array([tf]))[0]
        br = default_bridge
        ut, vt, at = avg(af, "ut"), avg(af, "vt"), avg(am, "at")
        ub, vb, ab = avg(af, "ub"), avg(af, "vb"), avg(am, "ab")
        r_t, r_b, _ = residual(veh, br, con.L,
                               ut, vt, at, ub, vb, ab, st1.lam)
        # Round-off scale of each row: sum of |term| over all its terms.
        scale_t = (abs(veh.M) @ abs(at) + abs(veh.C) @ abs(vt)
                   + abs(veh.K) @ abs(ut) + abs(veh.P))
        scale_b = (abs(br.M) @ abs(ab) + abs(br.C) @ abs(vb)
                   + abs(br.K) @ abs(ub) + abs(br.P))
        assert np.max(abs(r_t)) <= 1e-12 * np.max(scale_t)
        assert np.max(abs(r_b)) <= 1e-12 * np.max(scale_b)
