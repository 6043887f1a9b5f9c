import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from vtsi import parse_scenario
from vtsi.beams import (BeamSection, F_TB, F_TN, F_TT, F_UB, F_UN, F_UT,
                        N_FIELDS, assemble_bridge, element_matrices_fem,
                        element_matrices_iga, strain_operator)
from vtsi.pathgeom import PlanSpec, Span, build_plan_path
from vtsi.simulate import build_scenario_model, run_simulation
from vtsi.splines import eval_nurbs, eval_nurbs_basis


@pytest.fixture(scope="module")
def straight_path():
    return build_plan_path(PlanSpec(spans=(Span("straight", 30.0),)),
                           ctrl_per_span=8)


@pytest.fixture(scope="module")
def arc_path():
    return build_plan_path(PlanSpec(spans=(
        Span("arc", 30.0, 6000.0, 6000.0),)), ctrl_per_span=8)


PIN = [(0.0, (F_UT, F_UN, F_UB, F_TT)), (30.0, (F_UT, F_UN, F_UB, F_TT))]


class TestSection:
    def test_validation(self):
        with pytest.raises(ValueError):
            BeamSection(E=-1.0)
        with pytest.raises(ValueError):
            BeamSection(rho_lin=0.0)

    def test_shear_areas_default_to_area(self):
        s = BeamSection()
        assert s.A_n == s.A
        assert s.A_b == s.A

    def test_stiffness_diag(self):
        s = BeamSection()
        d = s.stiffness_diag
        assert d[0] == pytest.approx(s.E * s.A)
        assert d[3] == pytest.approx(s.G * s.I_t)
        assert d[5] == pytest.approx(s.E * s.I_b)


class TestStrainOperator:
    def test_rigid_translation_straight(self, straight_path):
        c, amap = straight_path.curve, straight_path.amap
        B, idx = strain_operator(c, amap, 1.3)
        u = np.zeros(N_FIELDS * len(idx))
        u[F_UT::N_FIELDS] = 0.7
        u[F_UN::N_FIELDS] = -0.2
        u[F_UB::N_FIELDS] = 1.1
        assert np.max(np.abs(B @ u)) < 1e-12

    def test_linear_axial_field(self, straight_path):
        c, amap = straight_path.curve, straight_path.amap
        xi = 2.2
        bspan = eval_nurbs_basis(c, xi, 0)
        B, idx = strain_operator(c, amap, xi)
        grad = 1e-4
        u = np.zeros(N_FIELDS * len(idx))
        # control values of a field linear in arclength: u_t = grad * s
        for j, i in enumerate(idx):
            # Greville-style sample: use the control point's own arclength via
            # the curve x-coordinate (straight path along x)
            u[N_FIELDS * j + F_UT] = grad * c.control_points[i, 0]
        strains = B @ u
        assert strains[0] == pytest.approx(grad, rel=1e-6)
        assert np.max(np.abs(strains[1:])) < 1e-9 * abs(grad) + 1e-15

    def test_curved_transverse_couples_into_axial(self, arc_path):
        c, amap = arc_path.curve, arc_path.amap
        xi = 1.7
        B, idx = strain_operator(c, amap, xi)
        u = np.zeros(N_FIELDS * len(idx))
        u[F_UN::N_FIELDS] = 1.0
        strains = B @ u
        assert strains[0] == pytest.approx(-1.0 / 6000.0, rel=1e-3)


class TestElementMatricesIga:
    def test_symmetry_and_psd(self, arc_path):
        sect = BeamSection()
        K, M, P, idx = element_matrices_iga(sect, arc_path.curve,
                                            arc_path.amap, 3)
        assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))
        assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
        assert np.min(np.linalg.eigvalsh(M)) > 0.0
        assert np.min(np.linalg.eigvalsh(K)) > -1e-9 * np.max(np.abs(K))

    def test_rigid_translation_zero_force(self, straight_path):
        sect = BeamSection()
        K, _, _, idx = element_matrices_iga(sect, straight_path.curve,
                                            straight_path.amap, 2)
        u = np.zeros(N_FIELDS * len(idx))
        u[F_UB::N_FIELDS] = 1.0
        assert np.max(np.abs(K @ u)) <= 1e-9 * np.max(np.abs(K))

    def test_total_translational_mass(self, straight_path):
        sect = BeamSection()
        total = 0.0
        for e in range(straight_path.curve.knots.n_elems):
            _, M, _, idx = element_matrices_iga(sect, straight_path.curve,
                                                straight_path.amap, e)
            ones = np.zeros(N_FIELDS * len(idx))
            ones[F_UB::N_FIELDS] = 1.0
            total += ones @ M @ ones
        assert total == pytest.approx(sect.rho_lin * 30.0, rel=1e-3)

    def test_self_weight_resultant(self, straight_path):
        sect = BeamSection()
        total = 0.0
        for e in range(straight_path.curve.knots.n_elems):
            _, _, P, idx = element_matrices_iga(sect, straight_path.curve,
                                                straight_path.amap, e)
            total += P[F_UB::N_FIELDS].sum()
        assert total == pytest.approx(-sect.rho_lin * 9.81 * 30.0, rel=1e-3)


class TestElementMatricesFem:
    def test_axial_and_torsion_entries(self):
        sect = BeamSection()
        ell = 5.0
        K, M, P = element_matrices_fem(sect, [0.0, 0, 0], [ell, 0, 0])
        assert K[F_UT, F_UT] == pytest.approx(sect.E * sect.A / ell)
        assert K[F_UT, 6 + F_UT] == pytest.approx(-sect.E * sect.A / ell)
        assert K[F_TT, F_TT] == pytest.approx(sect.G * sect.I_t / ell)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            element_matrices_fem(BeamSection(), [1.0, 2, 3], [1.0, 2, 3])

    def test_cantilever_tip_deflection(self):
        # 8 elements, tip force: delta = F L^3 / (3 E I).
        sect = BeamSection()
        L, ne = 30.0, 8
        ell = L / ne
        n = 6 * (ne + 1)
        K = np.zeros((n, n))
        for e in range(ne):
            Ke, _, _ = element_matrices_fem(sect, [e * ell, 0, 0],
                                            [(e + 1) * ell, 0, 0])
            d = np.arange(6 * e, 6 * e + 12)
            K[np.ix_(d, d)] += Ke
        F = np.zeros(n)
        F[6 * ne + F_UB] = 1e5
        free = np.arange(6, n)
        u = np.linalg.solve(K[np.ix_(free, free)], F[free])
        tip = u[6 * (ne - 1) + F_UB]
        assert tip == pytest.approx(1e5 * L ** 3 / (3 * sect.E * sect.I_n),
                                    rel=5e-3)

    def test_consistent_mass_total(self):
        sect = BeamSection()
        _, M, _ = element_matrices_fem(sect, [0.0, 0, 0], [4.0, 0, 0])
        ones = np.zeros(12)
        ones[[F_UB, 6 + F_UB]] = 1.0
        # Hermite translation + rotation pattern integrates the full mass.
        ones[[F_TN, 6 + F_TN]] = 0.0
        assert ones @ M @ ones <= sect.rho_lin * 4.0
        # exact when the rotation DOFs carry the rigid-field slopes (zero)
        assert ones @ M @ ones == pytest.approx(sect.rho_lin * 4.0, rel=0.25)


class TestAssembly:
    def test_default_support_count(self, default_bridge):
        assert default_bridge.n_full - default_bridge.n_red == 2 * 6 + 4 * 3

    def test_reduced_stiffness_positive_definite(self, default_bridge):
        assert np.min(np.linalg.eigvalsh(default_bridge.K)) > 0.0

    @pytest.mark.parametrize("kind", ["nurbs", "fem"])
    @pytest.mark.parametrize("field", [-1, 6])
    def test_rejects_support_field_outside_range(self, straight_path, kind,
                                                 field):
        with pytest.raises(ValueError, match="0..5"):
            assemble_bridge(straight_path, BeamSection(), kind=kind,
                            elems_per_span=2, supports=[(15.0, (field,))])

    def test_rayleigh_damping(self, straight_path):
        sect = BeamSection()
        br0 = assemble_bridge(straight_path, sect, supports=PIN)
        assert np.max(np.abs(br0.C)) == 0.0
        br1 = assemble_bridge(straight_path, sect, supports=PIN,
                              rayleigh=(2.0, 3e-4))
        assert np.allclose(br1.C, 2.0 * br1.M + 3e-4 * br1.K)

    def test_undamped_c_is_a_read_only_zero_view(self, straight_path):
        br = assemble_bridge(straight_path, BeamSection(), supports=PIN)
        assert br.C.shape == br.M.shape
        assert br.C.strides == (0, 0)
        assert not br.C.any()
        with pytest.raises(ValueError, match="read-only"):
            br.C[0, 0] = 1.0

    def test_static_midspan_deflection(self, straight_path):
        # Simply supported under self-weight: 5 w L^4 / (384 E I).
        sect = BeamSection()
        br = assemble_bridge(straight_path, sect, elems_per_span=12,
                             supports=PIN)
        u = np.linalg.solve(br.K, br.P)
        w = sect.rho_lin * 9.81
        ref = -5 * w * 30.0 ** 4 / (384 * sect.E * sect.I_n)
        assert (br.probe_rows(15.0) @ u)[1] == pytest.approx(ref, rel=5e-3)

    def test_first_frequency_shear_rigid(self, straight_path):
        # Shear-rigid limit: A_n large enough to kill shear flexibility but
        # small enough not to lock the cubic basis.
        sect = BeamSection(A_n=773.0, A_b=773.0)
        br = assemble_bridge(straight_path, sect, elems_per_span=12,
                             supports=PIN)
        w2 = eigh(br.K, br.M, eigvals_only=True)
        f1 = np.sqrt(w2[0]) / (2 * np.pi)
        f_ref = (np.pi / 30.0) ** 2 * np.sqrt(
            sect.E * sect.I_n / sect.rho_lin) / (2 * np.pi)
        assert f1 == pytest.approx(f_ref, rel=0.01)

    def test_support_off_path_rejected(self, straight_path):
        with pytest.raises(ValueError):
            assemble_bridge(straight_path, BeamSection(),
                            supports=[(45.0, (F_UB,))])

    def test_unknown_kind_rejected(self, straight_path):
        with pytest.raises(ValueError):
            assemble_bridge(straight_path, BeamSection(), kind="shell")

    def test_energy_consistency(self, arc_path):
        # 1/2 u_red^T K u_red equals an independently coded quadrature of
        # the generalized-strain energy density of u = Z u_red.
        sect = BeamSection()
        br = assemble_bridge(arc_path, sect, elems_per_span=8,
                             supports=PIN)
        rng = np.random.default_rng(3)
        u_red = rng.normal(size=br.n_red)
        u = br.Z[np.arange(br.n_full)] @ u_red
        geo = br.shape
        c, amap = geo.curve, geo.amap
        from numpy.polynomial.legendre import leggauss
        nodes, wts = leggauss(c.degree + 1)
        D = sect.stiffness_diag
        energy = 0.0
        bks = c.knots.breakpoints
        for e in range(c.knots.n_elems):
            a, b = bks[e], bks[e + 1]
            for t, wq in zip(nodes, wts):
                xi = 0.5 * (a + b) + 0.5 * (b - a) * t
                B, idx = strain_operator(c, amap, xi)
                dofs = np.concatenate(
                    [N_FIELDS * i + np.arange(N_FIELDS) for i in idx])
                eps = B @ u[dofs]
                energy += (0.5 * (b - a) * wq * amap.jacobian(xi)
                           * 0.5 * eps @ (D * eps))
        assert energy == pytest.approx(0.5 * u_red @ br.K @ u_red, rel=1e-10)


class TestCurvatureContinuity:
    def test_nurbs_second_derivative_knot_jumps(self, default_path):
        c = default_path.curve
        scale = max(np.linalg.norm(eval_nurbs(c, xi, 2)[2])
                    for xi in np.linspace(*c.domain, 300))
        for bp in c.knots.breakpoints[1:-1]:
            dm = eval_nurbs(c, bp - 1e-9, 2)[2]
            dp = eval_nurbs(c, bp + 1e-9, 2)[2]
            assert np.linalg.norm(dp - dm) / scale <= 1e-8

    def test_fem_chords_drop_curvature(self, arc_path):
        # Straight chords carry zero curvature, an O(1) relative error
        # against the true arc curvature inside every element.
        joints = arc_path.spec.joints
        ne = 8
        s_nodes = np.linspace(joints[0], joints[-1], ne + 1)
        pts = arc_path.spec.point(s_nodes)
        chords = np.diff(pts, axis=0)
        # curvature of the chord polyline interior is identically zero
        # relative deviation from true curvature is 1
        kappa_true = 1.0 / 6000.0
        assert abs(0.0 - kappa_true) / kappa_true >= 0.5
        # while the heading change concentrates at nodes: angle = kappa ds
        c0 = chords[3] / np.linalg.norm(chords[3])
        c1 = chords[4] / np.linalg.norm(chords[4])
        angle = np.arccos(np.clip(c0 @ c1, -1.0, 1.0))
        ds = 30.0 / ne
        assert angle == pytest.approx(kappa_true * ds, rel=1e-3)


class TestBridgeMemory:
    # The dense arrays a run holds, counted by tracemalloc in units of one
    # n_full^2 float64 array: set-up reduces M and K one at a time and then
    # keeps the null-space basis by its rows, and the step block is formed
    # in panels. Three n_red^2 arrays are at most 2.85 units at 32 elements
    # per span; a damped bridge adds its C while it steps. Before this
    # layout set-up peaked at 4.97 and a run at 4.84 (5.79 damped).
    # Damping is elementwise, so it is checked at 32 elements per span only.
    @pytest.mark.parametrize("kind,elements,damped", [
        ("nurbs", 32, False), ("nurbs", 32, True), ("nurbs", 64, False),
        ("fem", 32, False), ("fem", 32, True), ("fem", 64, False)],
        ids=["nurbs-32", "nurbs-32-damped", "nurbs-64", "fem-32",
             "fem-32-damped", "fem-64"])
    def test_dense_arrays_at_peak(self, kind, elements, damped,
                                  default_path):
        scenario = parse_scenario({
            "bridge": {"kind": kind, "elements_per_span": elements,
                       "rayleigh": [0.5, 1e-4] if damped else [0.0, 0.0]},
            "run": {"horizon": 0.007}})
        tracemalloc.start()
        try:
            model = build_scenario_model(scenario, default_path)
            setup = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            run_simulation(scenario, model)
            run = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = 8.0 * model.bridge.n_full ** 2
        assert setup / unit <= 3.5
        assert run / unit <= (4.2 if damped else 3.2)
