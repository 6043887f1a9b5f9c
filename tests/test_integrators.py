import copy

import numpy as np
import pytest

from vtsi.coupling import ConstraintTable
from vtsi.integrators import (CoupledModel, Stepper, constraint_residuals,
                              coupled_model, initial_state,
                              project_constraints, run_model,
                              run_rigid_profile, scheme_params)
from vtsi.pathgeom import CosineProfile
from vtsi.vehicle import VehicleParams, VehicleSystem


class Sys:
    """Minimal structural block (mass/damping/stiffness/load)."""

    def __init__(self, m, c, k, p):
        self.M = np.atleast_2d(np.asarray(m, float))
        self.C = np.atleast_2d(np.asarray(c, float))
        self.K = np.atleast_2d(np.asarray(k, float))
        self.P = np.atleast_1d(np.asarray(p, float))
        self.Z = np.eye(self.M.shape[0])


class TestSchemeParams:
    def test_newmark_average_acceleration(self):
        p = scheme_params(newmark=True, dt=2e-3)
        assert (p.alpha_m, p.alpha_f, p.beta, p.gamma) == (0.0, 0.0, 0.25, 0.5)
        assert p.is_newmark
        assert p.dt == 2e-3

    def test_no_dissipation_limit(self):
        p = scheme_params(rho_inf=1.0)
        assert (p.alpha_m, p.alpha_f) == (0.5, 0.5)
        assert p.beta == pytest.approx(0.25)
        assert p.gamma == pytest.approx(0.5)
        assert not p.is_newmark

    def test_frozen_default_dissipation(self):
        p = scheme_params(rho_inf=0.9)
        assert p.alpha_m == pytest.approx(0.4210526315789474, abs=1e-15)
        assert p.alpha_f == pytest.approx(0.4736842105263158, abs=1e-15)
        assert p.beta == pytest.approx(0.27700831024930755, abs=1e-15)
        assert p.gamma == pytest.approx(0.5526315789473684, abs=1e-15)

    @pytest.mark.parametrize("rho_inf", [0.0, 0.2, 1.0 / 3.0])
    def test_strong_dissipation_accepted(self, rho_inf):
        # Below rho_inf 1/3 Chung-Hulbert's gamma exceeds 1; at 0 it is 1.5.
        p = scheme_params(rho_inf=rho_inf)
        am = (2.0 * rho_inf - 1.0) / (rho_inf + 1.0)
        af = rho_inf / (rho_inf + 1.0)
        assert (p.alpha_m, p.alpha_f) == (am, af)
        assert p.gamma == 0.5 - am + af
        assert p.gamma == pytest.approx(
            0.5 + (1.0 - rho_inf) / (1.0 + rho_inf), abs=1e-15)
        assert p.beta == 0.25 * (1.0 - am + af) ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            scheme_params(rho_inf=1.5)
        with pytest.raises(ValueError):
            scheme_params(rho_inf=0.9, dt=0.0)


class TestOscillatorAccuracy:
    """Forced 1-DOF oscillator u'' + w^2 u = f, zero initial state.

    Exact solution (f/w^2)(1 - cos w t); halving dt must cut the endpoint
    error by about four (second-order accuracy) for both scheme families.
    """

    W = 2.0 * np.pi
    F = 3.0

    def _final_error(self, rho_inf, newmark, dt, t_end):
        model = CoupledModel(bridge=Sys(1.0, 0.0, self.W ** 2, self.F))
        p = scheme_params(rho_inf=rho_inf, dt=dt, newmark=newmark)
        stepper = Stepper(model, p, "A")
        st = initial_state(model, bridge_static_init=False)
        # Consistent initial acceleration; starting from a = 0 injects a
        # first-order velocity error through the first update.
        st.ab[:] = self.F
        for _ in range(int(round(t_end / dt))):
            st = stepper.step(st)
        exact = (self.F / self.W ** 2) * (1.0 - np.cos(self.W * st.t))
        return abs(st.ub[0] - exact)

    @pytest.mark.parametrize("rho_inf,newmark", [(None, True), (0.9, False),
                                                 (1.0, False)])
    def test_second_order_convergence(self, rho_inf, newmark):
        e1 = self._final_error(rho_inf, newmark, 1e-3, 0.73)
        e2 = self._final_error(rho_inf, newmark, 5e-4, 0.73)
        assert 3.5 <= e1 / e2 <= 4.5


class TestProjection:
    def test_levels_and_idempotence(self, default_scenario, default_path,
                                    default_bridge):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        rng = np.random.default_rng(3)
        st = initial_state(model, t0_correction=False)
        st.t = 0.31
        st.con = model.reduced_at(np.array([st.t]))[0]
        st.ut = rng.normal(size=4)
        st.vt = rng.normal(size=4)
        st.at = rng.normal(size=4)
        st.ub = rng.normal(scale=1e-3, size=model.n_b)
        st.vb = rng.normal(scale=1e-3, size=model.n_b)
        st.ab = rng.normal(scale=1e-1, size=model.n_b)
        assert constraint_residuals(st)[0] > 1e-3
        for i, level in enumerate(("displacement", "velocity",
                                   "acceleration")):
            project_constraints(st, level)
            assert constraint_residuals(st)[i] <= 1e-12
            before = copy.deepcopy(st)
            project_constraints(st, level)
            assert np.array_equal(st.ut, before.ut)
            assert np.array_equal(st.vt, before.vt)
            assert np.array_equal(st.at, before.at)
        # All three now hold at once (each level touches different rows).
        assert max(constraint_residuals(st)) <= 1e-12

    def test_unknown_level(self, default_scenario, default_path,
                           default_bridge):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        with pytest.raises(ValueError):
            project_constraints(initial_state(model), "jerk")

    def test_car_row_untouched(self, default_scenario, default_path,
                               default_bridge):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        st = initial_state(model, t0_correction=False)
        st.ut[:] = [1.0, 2.0, 3.0, 4.0]
        project_constraints(st, "displacement")
        assert st.ut[3] == 4.0


class TestInitialState:
    def test_static_bridge_start(self, default_scenario, default_path,
                                 default_bridge):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        st = initial_state(model, bridge_static_init=True)
        r = default_bridge.K @ st.ub - default_bridge.P
        assert np.max(np.abs(r)) <= 1e-8 * np.max(np.abs(default_bridge.P))
        assert np.max(np.abs(st.vb)) == 0.0

    def test_t0_correction_zeroes_rate_residuals(self, default_scenario,
                                                 default_path,
                                                 default_bridge):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        st = initial_state(model, t0_correction=True)
        _, rv, ra = constraint_residuals(st)
        assert rv <= 1e-12 and ra <= 1e-12


class TestRigidProfile:
    def test_flat_profile_stays_quiescent(self):
        prof = CosineProfile(0.0, 30.0, 200.0)
        hist = run_rigid_profile(VehicleParams(), prof,
                                 scheme_params(rho_inf=0.9), horizon=0.2)
        assert np.max(np.abs(hist.ut)) <= 1e-12
        assert np.max(np.abs(hist.lam)) <= 1e-9

    def test_corrected_start_matches_analytic_acceleration(self):
        amp, lam_w, v = 0.01, 30.0, 100.0
        prof = CosineProfile(amp, lam_w, 200.0)
        hist = run_rigid_profile(VehicleParams(v=v), prof,
                                 scheme_params(rho_inf=0.9), horizon=0.1,
                                 t0_correction=True)
        a0 = 0.5 * amp * (2.0 * np.pi * v / lam_w) ** 2
        assert hist.at[0, 1] == pytest.approx(a0, abs=1e-10)

    def test_profile_shorter_than_horizon(self):
        prof = CosineProfile(0.01, 30.0, 5.0)
        with pytest.raises(ValueError):
            run_rigid_profile(VehicleParams(), prof,
                              scheme_params(rho_inf=0.9), horizon=1.0)


class TestModelShapes:
    # A model is a bridge alone, a vehicle on its constraint, or both with
    # a bridge; nothing else is built, and the stepper serves nothing else.
    @pytest.mark.parametrize("blocks", [
        {"vehicle_at": lambda t: None},
        {"vehicle_at": lambda t: None, "bridge": Sys(1.0, 0.0, 1.0, 0.0)},
        {"reduced_at": lambda t: None},
        {"reduced_at": lambda t: None, "bridge": Sys(1.0, 0.0, 1.0, 0.0)},
        {}],
        ids=["vehicle", "vehicle-bridge", "constraint", "constraint-bridge",
             "empty"])
    def test_other_shapes_raise(self, blocks):
        with pytest.raises(ValueError, match="model"):
            CoupledModel(**blocks)


class TestSaddleSystem:
    def test_singular_system_raises(self):
        # A zero vehicle, and a wheel constraint with no bridge columns and
        # no gap, stacked over the instants.
        def vehicles(t):
            return VehicleSystem(*(np.zeros(t.shape + shape) for shape in (
                (4, 4), (4, 4), (4, 4), (4,))))

        model = CoupledModel(
            vehicle_at=vehicles,
            reduced_at=lambda t: ConstraintTable(np.zeros(t.shape + (3, 3))))
        stepper = Stepper(model, scheme_params(newmark=True), "A")
        with pytest.raises(RuntimeError,
                           match=r"^singular saddle system at t=0\.001$"):
            stepper.step(initial_state(model, t0_correction=False,
                                       bridge_static_init=False))

    def test_bad_strategy(self):
        model = CoupledModel(bridge=Sys(1.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            Stepper(model, scheme_params(newmark=True), "D")

    def test_strategy_c_rejects_generalized_alpha(self):
        model = CoupledModel(bridge=Sys(1.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="strategy C"):
            Stepper(model, scheme_params(rho_inf=0.9), "C")
        with pytest.raises(ValueError, match="strategy C"):
            run_model(model, scheme_params(rho_inf=1.0), "C", 1)


class TestStrategyBehaviour:
    def test_strategy_b_satisfies_acceleration_constraint(
            self, strategy_b_history):
        assert np.max(strategy_b_history.res_acc) <= 1e-9
        # The displacement constraint is only enforced through its second
        # derivative, so it drifts away from zero.
        assert np.max(strategy_b_history.res_disp) > 1e-8

    def test_strategy_a_satisfies_displacement_constraint(
            self, default_history):
        assert np.max(default_history.res_disp) <= 1e-9

    def test_strategy_c_projection_levels(self, default_scenario,
                                          default_path, default_bridge):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        hist = run_model(model, scheme_params(newmark=True, dt=1e-3), "C", 60)
        assert np.max(hist.res_disp) <= 1e-9
        assert np.max(hist.res_vel) <= 1e-9
        assert np.max(hist.res_acc) <= 1e-9

    def test_displacement_repair_zeroes_drift(self, default_scenario,
                                              default_path, default_bridge):
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        hist = run_model(model, scheme_params(rho_inf=0.9, dt=1e-3), "B", 100,
                         displacement_repair_every=50)
        assert hist.res_disp[50] == 0.0
        assert hist.res_disp[100] == 0.0
        assert np.max(hist.res_disp[1:50]) > 0.0


class TestCoefficientEvaluations:
    """A run evaluates its time-varying coefficients a chunk of blocks of
    steps at a time, in one call of each model callable per chunk on the
    chunk's instants, and the initial state evaluates the constraint at
    t_0: every instant once, the constraint at t_0, at every t_{n+1} and at
    every t_f (which equals t_{n+1} under Newmark), the vehicle frame at
    every t_f and once at the path start for the gravity reference.
    Projection, repair, and the residual record reuse the constraint the
    state carries."""

    N_STEPS = 7

    @pytest.mark.parametrize("strategy,rows_per_step", [("A", 2), ("B", 1),
                                                        ("C", 1)])
    def test_one_evaluation_per_instant(self, monkeypatch, strategy,
                                        rows_per_step, default_path,
                                        default_bridge):
        import vtsi.integrators
        import vtsi.pathgeom
        from vtsi import parse_scenario
        from vtsi.simulate import build_scenario_model, run_simulation

        calls, instants = {}, {}

        def counting(name, fn, arg):
            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                instants[name] = instants.get(name, 0) + np.size(args[arg])
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(vtsi.integrators, "constraint_rates", counting(
            "constraint_rates", vtsi.integrators.constraint_rates, 1))
        monkeypatch.setattr(vtsi.pathgeom, "frame_kinematics", counting(
            "frame_kinematics", vtsi.pathgeom.frame_kinematics, 2))
        n = self.N_STEPS
        probes = []
        for axle_load in (False, True):
            calls.clear()
            instants.clear()
            scenario = parse_scenario({
                "run": {"strategy": strategy, "horizon": n * 1e-3,
                        "displacement_repair_every": 2},
                "flags": {"add_static_axle_load": axle_load}})
            model = build_scenario_model(scenario, default_path,
                                         default_bridge)
            model.vehicle_at = counting("vehicle_at", model.vehicle_at, 0)
            model.reduced_at = counting("reduced_at", model.reduced_at, 0)
            hist = run_simulation(scenario, model)
            # One chunk holds the run's steps; reduced_at also runs at t_0.
            assert calls == {"vehicle_at": 1, "reduced_at": 2,
                             "constraint_rates": 2, "frame_kinematics": 2}
            assert instants == {"reduced_at": rows_per_step * n + 1,
                                "constraint_rates": rows_per_step * n + 1,
                                "vehicle_at": n,
                                "frame_kinematics": n + 1}
            assert hist.n_steps == n
            assert np.all(np.isfinite(hist.ut))
            assert np.all(np.isfinite(hist.lam))
            probes.append(hist.probes["midspan"])
        # The static axle load reaches the bridge.
        assert not np.array_equal(*probes)
