"""Batched coefficient kernels against one-at-a-time evaluation, bit for bit.

The reference functions below evaluate one parameter per call with scalar
numpy arithmetic: the exact plan heading and position, Cox-de Boor, NURBS
points and bases, the arclength map, frame kinematics and NURBS coupling
rows. They live here only, as the oracle. Equality is exact
(``np.array_equal``): a last-bit change in the frame or coupling rows moves
the crossing time history by far more than round-off. The same holds for
the time step, checked against a copy that forms every product with
numpy's ``@``, including those whose scheme weight is zero, and solves with
``lu_solve`` and ``np.linalg.solve``, for a run's blocks of tabulated
step operators, checked against blocks of one step, and for the bridge's
null-space basis kept by its rows and its step block and damping formed in
panels, checked against the dense basis and whole arrays. The element
integrals, formed for every element at once, are checked against a loop
over Gauss points, and the assembled arrays, one ``np.add.at`` each,
against a loop over elements.
"""
import dataclasses
from math import comb, cos, sin

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lu_solve

import vtsi.beams
import vtsi.integrators as integrators
from vtsi import _lapack, parse_scenario
from vtsi.beams import (F_UB, F_UN, BasisRows, BeamSection, FieldRows,
                        element_matrices_iga)
from vtsi.coupling import COUPLED_FIELDS, constraint_rates
from vtsi.integrators import (TABLE_BLOCK, CoupledState, Stepper,
                              _step_block, coupled_model, initial_state,
                              project_constraints, run_model, scheme_params)
from vtsi.pathgeom import (ARCLENGTH_SUBDIV, GAUSS_ARCLENGTH, GAUSS_PLAN,
                           STRAIGHT_CURVATURE_TOL, UP, CosineProfile,
                           PlanSpec, Span, build_plan_path, frame_kinematics)
from vtsi.scenario import default_plan_spec
from vtsi.simulate import (build_scenario_bridge, build_scenario_model,
                           run_simulation, scenario_scheme)
from vtsi.splines import (KnotVector, NurbsCurve, eval_bspline_basis,
                          eval_nurbs, eval_nurbs_basis)
from vtsi.vehicle import L_TR, VehicleParams, vehicle_matrices

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------
# Scalar oracle
# --------------------------------------------------------------------------

def ref_heading(spec: PlanSpec, s: float) -> float:
    """Integral of curvature from 0 to s, span by span."""
    joints = spec.joints
    theta = 0.0
    for i, sp in enumerate(spec.spans):
        s0, s1 = joints[i], joints[i + 1]
        ds = min(s, s1) - s0
        if ds <= 0.0:
            break
        k0 = sp.curvature(0.0)
        k1 = sp.curvature(ds)
        theta += 0.5 * (k0 + k1) * ds
        if s <= s1:
            break
    return theta


def ref_point(spec: PlanSpec, s: float) -> np.ndarray:
    """Plan position at s: 20 Gauss nodes of the heading per span, each
    heading integrated from 0."""
    nodes, wts = GAUSS_PLAN
    x = y = 0.0
    joints = spec.joints
    for i, sp in enumerate(spec.spans):
        s0, s1 = joints[i], joints[i + 1]
        hi = min(s, s1)
        if hi <= s0:
            break
        half = 0.5 * (hi - s0)
        mid = 0.5 * (hi + s0)
        for t, w in zip(nodes, wts):
            th = ref_heading(spec, mid + half * t)
            x += half * w * cos(th)
            y += half * w * sin(th)
        if s <= s1:
            break
    return np.array([x, y, 0.0])


def ref_basis(knots: KnotVector, xi: float, k: int):
    """(span index, (k + 1, p + 1) table) at one parameter."""
    p = knots.degree
    U = knots.values
    lo, hi = knots.domain
    xi = min(max(xi, lo), hi)
    span = int(np.searchsorted(U, xi, side="right")) - 1
    span = min(max(span, p), knots.n - 1)
    ndu = np.zeros((p + 1, p + 1))
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = xi - U[span + 1 - j]
        right[j] = U[span + j] - xi
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((k + 1, p + 1))
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for kk in range(1, min(k, p) + 1):
            d = 0.0
            rk, pk = r - kk, p - kk
            if r >= kk:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = kk - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, kk] = -a[s1, kk - 1] / ndu[pk + 1, r]
                d += a[s2, kk] * ndu[r, pk]
            ders[kk, r] = d
            s1, s2 = s2, s1
    r = float(p)
    for kk in range(1, min(k, p) + 1):
        ders[kk] *= r
        r *= p - kk
    return span, ders


def _ref_quotient(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    out = np.zeros_like(A)
    for j in range(len(A)):
        v = A[j].copy()
        for i in range(1, j + 1):
            v -= comb(j, i) * W[i] * out[j - i]
        out[j] = v / W[0]
    return out


def ref_nurbs(curve: NurbsCurve, xi: float, k: int) -> np.ndarray:
    span, table = ref_basis(curve.knots, xi, k)
    idx = np.arange(span - curve.degree, span + 1)
    w = curve.weights[idx]
    A = table @ (curve.control_points[idx] * w[:, None])
    return _ref_quotient(A, table @ w)


def ref_nurbs_basis(curve: NurbsCurve, xi: float, k: int):
    span, table = ref_basis(curve.knots, xi, k)
    w = curve.weights[span - curve.degree:span + 1]
    return span, _ref_quotient(table * w[None, :], table @ w)


class RefArclength:
    """Scalar arclength map: grid quadrature and Newton inversion."""

    def __init__(self, curve: NurbsCurve):
        self.curve = curve
        nodes, wts = GAUSS_ARCLENGTH
        bps = curve.knots.breakpoints
        grid = [curve.domain[0]]
        for a, b in zip(bps[:-1], bps[1:]):
            grid.extend(np.linspace(a, b, ARCLENGTH_SUBDIV + 1)[1:])
        self.xi = np.asarray(grid)
        segs = np.zeros(len(self.xi))
        for i in range(1, len(self.xi)):
            a, b = self.xi[i - 1], self.xi[i]
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            segs[i] = half * sum(w * self.jacobian(mid + half * t)
                                 for t, w in zip(nodes, wts))
        self.s = np.cumsum(segs)
        self.length = float(self.s[-1])

    def jacobian(self, xi: float) -> float:
        return float(np.linalg.norm(ref_nurbs(self.curve, xi, 1)[1]))

    def s_of_xi(self, xi: float) -> float:
        i = int(np.searchsorted(self.xi, xi)) - 1
        i = min(max(i, 0), len(self.xi) - 2)
        a = self.xi[i]
        half, mid = 0.5 * (xi - a), 0.5 * (xi + a)
        ds = half * sum(w * self.jacobian(mid + half * t)
                        for t, w in zip(*GAUSS_ARCLENGTH))
        return float(self.s[i] + ds)

    def xi_of_s(self, s: float) -> float:
        s = min(max(s, 0.0), self.length)
        xi = float(np.interp(s, self.s, self.xi))
        lo, hi = self.curve.domain
        for _ in range(30):
            err = self.s_of_xi(xi) - s
            if abs(err) <= 1e-12 * max(self.length, 1.0):
                break
            xi = min(max(xi - err / self.jacobian(xi), lo), hi)
        return xi


def ref_frame(curve: NurbsCurve, amap: RefArclength, s: float, v: float):
    """(rotation, omega, omega_dot, origin_vel, origin_acc) at one s."""
    d = np.zeros((5, 3))
    d[:4] = ref_nurbs(curve, amap.xi_of_s(s), 3)
    x1, x2, x3, x4 = d[1:]
    sp = np.linalg.norm(x1)
    c = np.cross(x1, x2)
    cn = np.linalg.norm(c)
    kappa = cn / sp ** 3
    tau = dkap = dtau = 0.0
    if kappa < STRAIGHT_CURVATURE_TOL:
        kappa = 0.0
    else:
        cp = np.cross(x1, x3)
        dkap = ((c @ cp) / (cn * sp ** 3)
                - 3.0 * kappa * (x1 @ x2) / sp ** 2) / sp
        tau = (c @ x3) / cn ** 2
        dtau = ((cp @ x3 + c @ x4) / cn ** 2
                - 2.0 * tau * (c @ cp) / cn ** 2) / sp
    t = x1 / np.linalg.norm(x1)
    b = UP - (UP @ t) * t if kappa == 0.0 else c
    b = b / np.linalg.norm(b)
    n = np.cross(b, t)
    return (np.column_stack([t, n, b]), v * np.array([tau, 0.0, kappa]),
            v * v * np.array([dtau, 0.0, dkap]), v * t, v * v * kappa * n)


def ref_rows(curve: NurbsCurve, amap: RefArclength, s: float, fields,
             n_full: int) -> np.ndarray:
    """(3, len(fields), n_full) rows of orders 0..2 at one s."""
    xi = amap.xi_of_s(s)
    span, R = ref_nurbs_basis(curve, xi, 2)
    d = ref_nurbs(curve, xi, 2)
    J = float(np.linalg.norm(d[1]))
    Jp = float(d[1] @ d[2] / np.linalg.norm(d[1]))
    vals = [R[0], R[1] / J, R[2] / J ** 2 - R[1] * Jp / J ** 3]
    rows = np.zeros((3, len(fields), n_full))
    cols = 6 * np.arange(span - curve.degree, span + 1)
    for j, f in enumerate(fields):
        rows[:, j, cols + f] = vals
    return rows


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

@st.composite
def plans(draw):
    """Curvature-continuous plans of 1 to 6 spans with uneven lengths: a
    straight or a transition from zero curvature, an arc or a transition
    from a curved end, turning either way."""
    radius = st.floats(150.0, 9000.0).flatmap(
        lambda r: st.sampled_from([r, -r]))
    spans, r = [], None
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.floats(0.5, 80.0))
        kind = draw(st.sampled_from(
            ["straight", "transition"] if r is None else ["arc", "transition"]))
        if kind == "straight":
            spans.append(Span(kind, length))
        elif kind == "arc":
            spans.append(Span(kind, length, r, r))
        else:
            end = draw(st.none() | radius) if r is not None else draw(radius)
            spans.append(Span(kind, length, r, end))
            r = end
    return PlanSpec(tuple(spans))


def plan_samples(spec: PlanSpec, u: np.ndarray) -> np.ndarray:
    """Arclengths at the fractions ``u`` of the plan, with 0, every joint,
    its neighbours one ulp away, the total length and values past both
    ends."""
    J, L = spec.joints, spec.total_length
    return np.concatenate([u * L, J, np.nextafter(J, -np.inf),
                           np.nextafter(J, np.inf), [-1.0, L + 1e-9, L + 7.0]])


def _arc() -> NurbsCurve:
    """Rational quadratic: an exact quarter circle, then a straight leg."""
    knots = KnotVector(np.array([0.0, 0, 0, 1, 2, 2, 2]), 2)
    pts = np.array([[1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0], [-1.0, 1, 0.5]])
    return NurbsCurve(knots, pts, np.array([1.0, 1 / np.sqrt(2), 1.0, 1.0]))


@pytest.fixture(scope="module")
def curves(default_path):
    return [default_path.curve, _arc()]


@pytest.fixture(scope="module")
def ref_map(default_path):
    return RefArclength(default_path.curve)


@pytest.fixture(scope="module")
def ref_bridge_map(default_bridge):
    return RefArclength(default_bridge.shape.curve)


@pytest.fixture(scope="module")
def fem_bridge(default_path):
    return build_scenario_bridge(parse_scenario({"bridge": {"kind": "fem"}}),
                                 default_path)


def unit_points():
    """Arrays of positions in [0, 1]; the ends, and positions that land on
    knots of the curves and bridges used here, are drawn often."""
    special = st.sampled_from([0.0, 1.0, 0.5, 0.2, 0.4, 0.6, 0.8])
    return st.lists(st.one_of(st.floats(0.0, 1.0), special),
                    min_size=1, max_size=24).map(np.array)


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------

class TestPlanGeometry:
    @SETTINGS
    @given(spec=plans(), u=unit_points())
    def test_heading_and_point_equal_scalar_oracle(self, spec, u):
        s = plan_samples(spec, u)
        heading, point = spec.heading(s), spec.point(s)
        assert np.array_equal(heading, [ref_heading(spec, x) for x in s])
        assert np.array_equal(point, [ref_point(spec, x) for x in s])
        for i in (0, len(u), len(s) - 1):
            assert spec.heading(float(s[i])) == heading[i]
            assert np.array_equal(spec.point(float(s[i])), point[i])

    def test_plan_sampled_once_per_fit(self, monkeypatch):
        """Building a model samples the exact plan in one call per fit: the
        vehicle path and the NURBS bridge's own geometry. The count does
        not grow with the sample count."""
        calls = {}

        def counting(name):
            fn = getattr(PlanSpec, name)

            def wrapped(self, s):
                calls[name] = calls.get(name, 0) + 1
                return fn(self, s)
            return wrapped

        monkeypatch.setattr(PlanSpec, "point", counting("point"))
        monkeypatch.setattr(PlanSpec, "heading", counting("heading"))
        for data in ({}, {"plan": {"ctrl_per_span": 30}},
                     {"bridge": {"elements_per_span": 32}}):
            scenario = parse_scenario(data)
            calls.clear()
            build_scenario_model(scenario)
            assert calls == {"point": 2, "heading": 2}


def ref_element_matrices_iga(section, curve, amap, elems):
    """Stiffness, mass and load of each element, summed one Gauss point at
    a time, each point's products formed element by element."""
    bks = curve.knots.breakpoints
    a, b = bks[elems][:, None], bks[elems + 1][:, None]
    m = curve.degree + 1
    nodes, wts = np.polynomial.legendre.leggauss(m)
    K = np.zeros((len(elems), 6 * m, 6 * m))
    M = np.zeros_like(K)
    P = np.zeros((len(elems), 6 * m))
    D, rho = section.stiffness_diag, section.inertia_diag
    xi = (0.5 * (a + b) + 0.5 * (b - a) * nodes).ravel()
    B_q, _ = vtsi.beams.strain_operator(curve, amap, xi)
    J_q = amap.jacobian(xi)
    R_q = eval_nurbs_basis(curve, xi, 0).table[:, 0]
    w_q = (0.5 * (b - a) * wts).ravel()
    for k, (B, J, R, wq) in enumerate(zip(B_q, J_q, R_q, w_q)):
        e = k // m
        K[e] += wq * J * (B.T * D) @ B
        N = np.zeros((6, 6 * m))
        for f in range(6):
            N[f, f::6] = R
        M[e] += wq * J * (N.T * rho) @ N
        P[e, F_UB::6] -= wq * J * section.rho_lin * 9.81 * R
    return K, M, P


def ref_summed(values, dofs, n):
    """The full vector or matrix of element vectors or matrices, added on
    their DOFs one element at a time."""
    out = np.zeros((n,) * (values.ndim - 1))
    for v, d in zip(values, dofs):
        out[np.ix_(*[d] * v.ndim)] += v
    return out


class TestElementIntegrals:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_array_equals_one_element_calls(self, degree):
        path = build_plan_path(default_plan_spec(), ctrl_per_span=2,
                               p=degree)
        section = BeamSection()
        elems = np.arange(path.curve.knots.n_elems)
        stacked = element_matrices_iga(section, path.curve, path.amap, elems)
        for e in elems:
            one = element_matrices_iga(section, path.curve, path.amap, int(e))
            for got, want in zip(stacked, one):
                assert np.array_equal(got[e], want)
        with pytest.raises(ValueError, match="outside knot domain"):
            element_matrices_iga(section, path.curve, path.amap,
                                 np.array([0, len(elems)]))

    @pytest.mark.parametrize("elements", [1, 8, 32])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_stacked_points_equal_point_loop(self, degree, elements):
        # Each Gauss point's products, stacked over the elements, are each
        # element's own gemm, added in point order.
        path = build_plan_path(default_plan_spec(), ctrl_per_span=elements,
                               p=degree)
        section = BeamSection()
        elems = np.arange(path.curve.knots.n_elems)
        got = element_matrices_iga(section, path.curve, path.amap, elems)
        want = ref_element_matrices_iga(section, path.curve, path.amap,
                                        elems)
        for g, w in zip(got, want):
            assert np.array_equal(bits(g), bits(w))


class TestSplineKernel:
    @SETTINGS
    @given(u=unit_points())
    def test_basis_and_curve_equal_scalar_oracle(self, curves, u):
        for curve in curves:
            lo, hi = curve.domain
            xi = lo + u * (hi - lo)
            for k in range(4):
                basis = eval_bspline_basis(curve.knots, xi, k)
                rational = eval_nurbs_basis(curve, xi, k)
                pts = eval_nurbs(curve, xi, k)
                for i, x in enumerate(xi):
                    span, table = ref_basis(curve.knots, float(x), k)
                    assert basis.span_index[i] == span
                    assert np.array_equal(basis.table[i], table)
                    assert np.array_equal(rational.table[i],
                                          ref_nurbs_basis(curve, x, k)[1])
                    assert np.array_equal(pts[i], ref_nurbs(curve, x, k))


class TestArclength:
    @SETTINGS
    @given(u=unit_points())
    def test_inversion_equals_scalar_oracle(self, default_path, ref_map, u):
        amap = default_path.amap
        assert amap.length == ref_map.length
        s = u * amap.length
        xi = amap.xi_of_s(s)
        assert np.array_equal(xi, [ref_map.xi_of_s(float(x)) for x in s])
        assert np.array_equal(amap.s_of_xi(xi),
                              [ref_map.s_of_xi(float(x)) for x in xi])
        assert np.array_equal(amap.jacobian(xi),
                              [ref_map.jacobian(float(x)) for x in xi])


class TestBatchedRows:
    @SETTINGS
    @given(u=unit_points())
    def test_rows_equal_one_at_a_time(self, default_bridge, fem_bridge,
                                      ref_bridge_map, u):
        for bridge in (default_bridge, fem_bridge):
            s = u * bridge.length
            rows = bridge.shape.rows(s, COUPLED_FIELDS, 2).dense()
            snap = constraint_rates(bridge, s, 100.0)
            for i, x in enumerate(s):
                one = bridge.shape.rows(float(x), COUPLED_FIELDS, 2).dense()
                assert np.array_equal(rows[i], one[0])
                if bridge is default_bridge:
                    assert np.array_equal(rows[i], ref_rows(
                        bridge.shape.curve, ref_bridge_map, float(x),
                        COUPLED_FIELDS, bridge.n_full))
                # The compact reduction equals the dense full-row product.
                ref = constraint_rates(bridge, float(x), 100.0)
                Z = bridge.Z[np.arange(bridge.n_full)]
                dense = (ref.L @ Z, ref.L_dot @ Z, ref.L_ddot @ Z)
                for got, want in zip(snap[i], dense):
                    assert np.array_equal(got, want)

    @SETTINGS
    @given(u=unit_points())
    def test_frames_and_vehicle_equal_one_at_a_time(self, default_path,
                                                    ref_map, u):
        params = VehicleParams()
        curve, amap = default_path.curve, default_path.amap
        s = u * amap.length
        R0 = frame_kinematics(curve, amap, 0.0, params.v).rotation
        fk = frame_kinematics(curve, amap, s, params.v)
        veh = vehicle_matrices(params, fk, rotation_ref=R0)
        names = ("rotation", "omega", "omega_dot", "origin_vel", "origin_acc")
        for i, x in enumerate(s):
            one = frame_kinematics(curve, amap, float(x), params.v)
            ref = ref_frame(curve, ref_map, float(x), params.v)
            for name, want in zip(names, ref):
                assert np.array_equal(getattr(fk[i], name), want)
                assert np.array_equal(getattr(one, name), want)
            ref = vehicle_matrices(params, one, rotation_ref=R0)
            for name in ("M", "C", "K", "P"):
                assert np.array_equal(getattr(veh[i], name),
                                      getattr(ref, name))


class TestTabulatedRun:
    @pytest.mark.parametrize("rho_inf,newmark", [(0.9, False), (None, True)])
    def test_tabulated_instants_are_the_t_column(
            self, default_scenario, default_path, default_bridge, rho_inf,
            newmark):
        # Longer than one chunk of steps, so the instants span calls.
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        seen = {"vehicle": [], "constraint": []}

        def recording(name, fn):
            def wrapped(t):
                seen[name].append(t)
                return fn(t)
            return wrapped

        model.vehicle_at = recording("vehicle", model.vehicle_at)
        model.reduced_at = recording("constraint", model.reduced_at)
        p = scheme_params(rho_inf=rho_inf, dt=1e-3, newmark=newmark)
        n = TABLE_BLOCK + 3
        hist = run_model(model, p, "A", n)
        t = hist.t
        tf = (1.0 - p.alpha_f) * t[1:] + p.alpha_f * t[:-1]
        assert len(seen["vehicle"]) >= 2
        assert np.array_equal(np.concatenate(seen["vehicle"]), tf)
        # Every instant once, across all calls: t_0, each t_{n+1} and each
        # t_f (which is t_{n+1} under Newmark).
        instants = np.sort(np.concatenate(seen["constraint"]))
        assert np.array_equal(instants, np.unique(np.concatenate([t, tf])))
        assert len(instants) == (n + 1 if newmark else 2 * n + 1)

    @pytest.mark.parametrize("rho_inf,newmark", [(0.9, False), (None, True)])
    def test_tabulated_run_equals_direct_steps(self, default_scenario,
                                               default_path, default_bridge,
                                               rho_inf, newmark):
        # Longer than one chunk of steps, so the run evaluates its
        # coefficients in more than one call.
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        calls = []
        reduced_at = model.reduced_at

        def counting(t):
            calls.append(len(t))
            return reduced_at(t)

        model.reduced_at = counting
        p = scheme_params(rho_inf=rho_inf, dt=1e-3, newmark=newmark)
        n = TABLE_BLOCK + 3
        hist = run_model(model, p, "A", n)
        assert len(calls) >= 3  # t = 0, then at least two chunks
        stepper = Stepper(model, p, "A")
        state = initial_state(model)
        for i in range(1, n + 1):
            state = stepper.step(state)
            assert state.t == hist.t[i]
            assert np.array_equal(state.ut, hist.ut[i])
            assert np.array_equal(state.lam, hist.lam[i])


# --------------------------------------------------------------------------
# Step oracle: the step with numpy's `@` for every product, scipy's
# `lu_solve` for the bridge solves and `np.linalg.solve` for the 7 x 7.
# --------------------------------------------------------------------------

class RefStepper:
    """The one-step solver with every product and solve through numpy and
    ``lu_solve``, on the step block factored by ``vtsi._lapack``: scipy's
    OpenBLAS build factors some blocks to other bits (``C`` and
    ``A-rayleigh`` at 8 elements per span)."""

    def __init__(self, model, params, strategy):
        self.model, self.params, self.strategy = model, params, strategy
        p, br = params, model.bridge
        self.lu = _lapack.lu_factor(
            (1.0 - p.alpha_m) * br.M
            + (1.0 - p.alpha_f) * (p.gamma * p.dt * br.C
                                   + p.beta * p.dt ** 2 * br.K))

    def step(self, state):
        """One step from ``state``, with the constraint at t_{n+1} = t + dt
        and at t_f, and the vehicle at t_f, each from one call of the
        model's callable on that instant."""
        m, p = self.model, self.params
        dt, beta, gamma = p.dt, p.beta, p.gamma
        am, af = p.alpha_m, p.alpha_f
        t1 = state.t + dt
        tf = np.array([(1.0 - af) * t1 + af * state.t])
        con1 = m.reduced_at(np.array([t1]))[0]
        conf = m.reduced_at(tf)[0]
        veh = m.vehicle_at(tf)[0]

        def weighted(alpha, new, old):
            return (1.0 - alpha) * new + alpha * old

        ut_pred = state.ut + dt * state.vt + dt * dt * (0.5 - beta) * state.at
        vt_pred = state.vt + dt * (1.0 - gamma) * state.at
        ub_pred = state.ub + dt * state.vb + dt * dt * (0.5 - beta) * state.ab
        vb_pred = state.vb + dt * (1.0 - gamma) * state.ab
        A_t = ((1.0 - am) * veh.M
               + (1.0 - af) * (gamma * dt * veh.C + beta * dt * dt * veh.K))
        r_t = (veh.P - veh.M @ (am * state.at)
               - veh.C @ weighted(af, vt_pred, state.vt)
               - veh.K @ weighted(af, ut_pred, state.ut))
        br = m.bridge
        P_b = br.P
        if m.axle_load is not None:
            P_b = P_b + conf.L.T @ m.axle_load
        r_b = (P_b - br.M @ (am * state.ab)
               - br.C @ weighted(af, vb_pred, state.vb)
               - br.K @ weighted(af, ub_pred, state.ub))
        L1, Ld1, Ldd1, r1 = con1
        if self.strategy == "B":
            C_t = L_TR.T
            C_b = beta * dt * dt * Ldd1 + gamma * dt * 2.0 * Ld1 + L1
            r_c = -(Ldd1 @ ub_pred + 2.0 * Ld1 @ vb_pred) - r1[2]
        else:
            C_t = beta * dt * dt * L_TR.T
            C_b = beta * dt * dt * L1
            r_c = -(L_TR.T @ ut_pred + L1 @ ub_pred) - r1[0]
        y0 = lu_solve(self.lu, r_b)
        Y = lu_solve(self.lu, conf.L.T)
        A = np.zeros((7, 7))
        b = np.zeros(7)
        A[:4, :4] = A_t
        A[:4, 4:] = L_TR
        b[:4] = r_t
        A[4:, :4] = C_t
        b[4:] = r_c
        A[4:, 4:] -= C_b @ Y
        b[4:] -= C_b @ y0
        x = np.linalg.solve(A, b)
        at1, lam1 = x[:4], x[4:]
        ab1 = y0 - Y @ lam1
        new = CoupledState(state.t + dt, ut_pred + beta * dt * dt * at1,
                           vt_pred + gamma * dt * at1, at1,
                           ub_pred + beta * dt * dt * ab1,
                           vb_pred + gamma * dt * ab1, ab1, lam1, con1)
        if self.strategy == "C":
            project_constraints(new, "velocity")
            project_constraints(new, "acceleration")
        return new


STATE_FIELDS = ("t", "ut", "vt", "at", "ub", "vb", "ab", "lam")


@pytest.fixture(scope="module")
def bridges(default_path):
    """Bridges on the default path, built once per bridge config."""
    built = {}

    def bridge(scenario):
        key = dataclasses.astuple(scenario.bridge)
        if key not in built:
            built[key] = build_scenario_bridge(scenario, default_path)
        return built[key]
    return bridge


class TestStepOracle:
    @pytest.mark.parametrize("elements", [8, 32])
    @pytest.mark.parametrize("case", [
        {"run": {"strategy": "A"}},
        {"run": {"strategy": "B"}, "flags": {"add_static_axle_load": True}},
        {"run": {"strategy": "C"}},
        {"run": {"strategy": "A"}, "bridge": {"rayleigh": [0.5, 1e-4]}},
        # alpha_m is exactly 0 and alpha_f 1/3: the step leaves out the
        # alpha_m terms and keeps the alpha_f averages.
        {"run": {"rho_inf": 0.5}},
    ], ids=["A", "B-axle-load", "C", "A-rayleigh", "A-rho-0.5"])
    def test_step_equals_numpy_oracle(self, case, elements, default_path,
                                      bridges):
        scenario = parse_scenario(dict(case, bridge=dict(
            case.get("bridge", {}), elements_per_span=elements)))
        model = build_scenario_model(scenario, default_path,
                                     bridges(scenario))
        params = scenario_scheme(scenario)
        stepper = Stepper(model, params, scenario.run.strategy)
        ref = RefStepper(model, params, scenario.run.strategy)
        state = want = initial_state(model)
        for _ in range(20):
            state = stepper.step(state)
            want = ref.step(want)
            for name in STATE_FIELDS:
                assert np.array_equal(getattr(state, name),
                                      getattr(want, name)), name

    def test_bridge_products_bypass_numpy_matmul(self, default_scenario,
                                                 default_path, default_bridge):
        # The steps' bridge products are the products that the Stepper
        # binds once, on C-contiguous matrices, not a `@` of the bridge's
        # arrays per step; set-up's static check is K @ u.
        class NoMatmul(np.ndarray):
            def __matmul__(self, other):
                raise AssertionError("bridge matrix product through numpy @")

            __rmatmul__ = __matmul__

        guarded = dataclasses.replace(default_bridge, **{
            name: getattr(default_bridge, name).view(NoMatmul)
            for name in ("M", "C", "K")})
        p = scheme_params(rho_inf=0.9, dt=1e-3)
        model = coupled_model(default_path, default_bridge,
                              default_scenario.vehicle)
        stepper = Stepper(dataclasses.replace(model, bridge=guarded), p, "A")
        want = Stepper(model, p, "A")
        state = expected = initial_state(model)
        for _ in range(20):
            state, expected = stepper.step(state), want.step(expected)
            for name in STATE_FIELDS:
                assert np.array_equal(getattr(state, name),
                                      getattr(expected, name)), name

    @pytest.mark.parametrize("strategy,rayleigh,products", [
        ("A", (0.0, 0.0), 2),
        ("A", (0.5, 1e-4), 3),
        ("C", (0.0, 0.0), 1),
        ("C", (0.5, 1e-4), 2),
    ], ids=["undamped", "rayleigh", "newmark-undamped", "newmark-rayleigh"])
    def test_bridge_products_per_step(self, strategy, rayleigh, products,
                                      default_path, bridges):
        # An undamped bridge's C is zero, so its product is left out; so is
        # the M product under Newmark, whose alpha_m is zero.
        scenario = parse_scenario({"bridge": {"rayleigh": list(rayleigh)},
                                   "run": {"strategy": strategy}})
        model = build_scenario_model(scenario, default_path,
                                     bridges(scenario))
        stepper = Stepper(model, scenario_scheme(scenario), strategy)
        calls = []

        def counting(product):
            def call():
                calls.append(product)
                return product()
            return call

        for name in ("_M", "_C", "_K"):
            if getattr(stepper, name) is not None:
                setattr(stepper, name, counting(getattr(stepper, name)))
        state = initial_state(model)
        for n in range(1, 4):
            state = stepper.step(state)
            assert len(calls) == products * n


# --------------------------------------------------------------------------
# Step tables: a run's blocks of tabulated operators against one-step blocks.
# --------------------------------------------------------------------------

TABLE_CASES = {
    "A": {"run": {"strategy": "A"}},
    "B-axle-load": {"run": {"strategy": "B"},
                    "flags": {"add_static_axle_load": True}},
    "C": {"run": {"strategy": "C"}},
    "A-rayleigh": {"run": {"strategy": "A"},
                   "bridge": {"rayleigh": [0.5, 1e-4]}},
    # Repairs every 4 steps fall inside the blocks.
    "B-repair": {"run": {"strategy": "B", "displacement_repair_every": 4}},
}


class TestStepTables:
    def _model(self, case, elements, default_path, bridges):
        scenario = parse_scenario(dict(case, bridge=dict(
            case.get("bridge", {}), elements_per_span=elements)))
        model = build_scenario_model(scenario, default_path,
                                     bridges(scenario))
        return model, scenario_scheme(scenario), scenario.run.strategy

    @staticmethod
    def _counting_blocks(monkeypatch) -> list:
        """The block lengths ``Stepper.tabulate`` is called with, from now
        on."""
        blocks = []
        tabulate = Stepper.tabulate

        def counting(self, con1, conf, veh, n):
            blocks.append(n)
            return tabulate(self, con1, conf, veh, n)

        monkeypatch.setattr(Stepper, "tabulate", counting)
        return blocks

    @staticmethod
    def _assert_direct_steps_equal(hist, model, params, strategy,
                                   probe_rows=None, repair=0, **init):
        """Every recorded row of ``hist`` against one-step blocks: the
        state's t, ut, vt, at and lam, the probe's u and a (``rows @ ub``,
        ``rows @ ab``) and the three residuals of the state alone."""
        stepper = Stepper(model, params, strategy)
        state = initial_state(model, **init)
        for i in range(1, hist.n_steps + 1):
            state = stepper.step(state)
            if repair and i % repair == 0:
                project_constraints(state, "displacement")
            assert state.t == hist.t[i]
            for name in ("ut", "vt", "at", "lam"):
                assert np.array_equal(getattr(state, name),
                                      getattr(hist, name)[i]), (i, name)
            if probe_rows is not None:
                assert np.array_equal(probe_rows @ state.ub,
                                      hist.probes["mid"][i, :2])
                assert np.array_equal(probe_rows @ state.ab,
                                      hist.probes["mid"][i, 2:])
            assert integrators.constraint_residuals(state) == (
                hist.res_disp[i], hist.res_vel[i], hist.res_acc[i]), i

    # At 16 elements per span (n_red 474) a Schur solve wider than
    # SCHUR_COLUMNS changes bits with one BLAS thread, and above 21
    # columns with two.
    @pytest.mark.parametrize("elements", [8, 16, 32])
    @pytest.mark.parametrize("case", TABLE_CASES.values(), ids=TABLE_CASES)
    def test_blocks_equal_one_step_blocks(self, case, elements, default_path,
                                          bridges, monkeypatch):
        model, params, strategy = self._model(case, elements, default_path,
                                              bridges)
        block = Stepper(model, params, strategy).block_steps()
        assert block % (integrators.SCHUR_COLUMNS // 3) == 0
        n = 2 * block + 2
        repair = case["run"].get("displacement_repair_every", 0)
        blocks = self._counting_blocks(monkeypatch)
        hist = run_model(model, params, strategy, n, probes={"mid": 75.0},
                         displacement_repair_every=repair)
        assert blocks == [block, block, 2]
        self._assert_direct_steps_equal(
            hist, model, params, strategy,
            probe_rows=model.bridge.probe_rows(75.0), repair=repair)

    def test_rigid_profile_blocks_equal_one_step_blocks(self, monkeypatch):
        # No bridge: the blocks' bridge rows have no columns.
        runs = []

        def recording(model, params, strategy, n_steps, **kwargs):
            runs.append((model, params, strategy, kwargs))
            return run_model(model, params, strategy, n_steps, **kwargs)

        monkeypatch.setattr(integrators, "run_model", recording)
        params = scheme_params(rho_inf=0.9, dt=1e-3)
        block = Stepper(integrators.CoupledModel(
            vehicle_at=lambda t: None, reduced_at=lambda t: None), params,
            "A").block_steps()
        n = 2 * block + 2
        blocks = self._counting_blocks(monkeypatch)
        hist = integrators.run_rigid_profile(
            VehicleParams(v=100.0), CosineProfile(0.01, 30.0, 200.0), params,
            n * params.dt)
        assert blocks == [block, block, 2]
        (model, _, strategy, kwargs), = runs
        assert model.n_b == 0 and hist.n_steps == n
        assert np.max(hist.res_acc[1:]) > 0.0
        self._assert_direct_steps_equal(
            hist, model, params, strategy,
            t0_correction=kwargs["t0_correction"],
            bridge_static_init=kwargs["bridge_static_init"])

    @pytest.mark.parametrize("case", ["A", "C"])
    def test_solves_per_step(self, case, default_path, bridges,
                             monkeypatch):
        # One one-column solve per step for the state; the Schur columns,
        # three per step, in solves of SCHUR_COLUMNS columns whose unused
        # ones are zero.
        model, params, strategy = self._model(TABLE_CASES[case], 16,
                                              default_path, bridges)
        widths, getrs = [], integrators.getrs

        def recording(lu, piv, b):
            solve = getrs(lu, piv, b)

            def call():
                if b.ndim == 1:
                    widths.append(1)
                else:
                    assert b.shape[1] == integrators.SCHUR_COLUMNS
                    used = np.flatnonzero(b.any(axis=0))
                    widths.append(-len(used))
                    assert np.array_equal(used, np.arange(len(used)))
                return solve()
            return call

        monkeypatch.setattr(integrators, "getrs", recording)
        n = 3 * Stepper(model, params, strategy).block_steps() + 1
        run_model(model, params, strategy, n)
        schur = [-w for w in widths if w < 0]
        assert widths.count(1) == n
        assert sum(schur) == 3 * n
        assert max(schur) <= 9


# --------------------------------------------------------------------------
# The bridge's arrays: the null-space basis kept by its rows, and the step
# block and a damped C formed by panels.
# --------------------------------------------------------------------------

def whole_step_block(bridge, p, damped):
    """A_b from whole arrays, in two Fortran-ordered buffers."""
    A = np.empty(bridge.M.shape, order="F")
    B = np.multiply(p.beta * p.dt ** 2, bridge.K, order="F")
    if damped:
        B += np.multiply(p.gamma * p.dt, bridge.C, out=A)
    B *= 1.0 - p.alpha_f
    np.multiply(1.0 - p.alpha_m, bridge.M, out=A)
    A += B
    return A


def bits(a: np.ndarray) -> np.ndarray:
    """The bits of a float64 array, so that -0.0 differs from +0.0."""
    return np.ascontiguousarray(a).view(np.int64)


class TestBridgeArrays:
    @SETTINGS
    @given(data=st.data())
    def test_basis_rows_equal_dense_rows(self, data):
        # A sparse matrix with +-0.0 entries, as _null_space returns a basis:
        # the transpose of the trailing rows of a larger array.
        n, n_red = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 8))
        skip = data.draw(st.integers(0, 3))
        base = data.draw(arrays(
            np.float64, (n_red + skip, n),
            elements=st.sampled_from([1.0, -1.0, -0.0]) | st.floats(),
            fill=st.sampled_from([0.0, -0.0])))
        dense = base[skip:].T
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                           max_size=2 * n)), dtype=np.intp)
        got = BasisRows(dense)[rows]
        assert got.shape == (len(rows), n_red)
        assert np.array_equal(bits(got), bits(dense[rows]))

    @pytest.mark.parametrize("elements", [1, 8, 32])
    @pytest.mark.parametrize("kind", ["nurbs", "fem"])
    def test_bridge_basis_rows(self, kind, elements, default_path,
                               monkeypatch):
        bases = []
        null_space = vtsi.beams._null_space

        def recording(rows):
            bases.append(null_space(rows))
            return bases[-1]

        monkeypatch.setattr(vtsi.beams, "_null_space", recording)
        br = build_scenario_bridge(parse_scenario({"bridge": {
            "kind": kind, "elements_per_span": elements}}), default_path)
        basis, = bases
        n = br.n_full
        assert br.Z.shape == basis.shape
        assert np.array_equal(bits(br.Z[np.arange(n)]), bits(basis))
        # The windows of FieldRows lookups: runs of consecutive DOFs.
        for w in (12, 24, 36):
            for first in range(0, n - w + 1):
                rows = np.arange(first, first + w)
                assert np.array_equal(bits(br.Z[rows]), bits(basis[rows]))

    @pytest.mark.parametrize("elements", [1, 8, 32])
    @pytest.mark.parametrize("bridge", [
        {"degree": 2}, {"degree": 3}, {"degree": 4}, {"kind": "fem"}],
        ids=["nurbs-2", "nurbs-3", "nurbs-4", "fem"])
    def test_assembly_equals_element_loop(self, bridge, elements,
                                          default_path, monkeypatch):
        # One np.add.at per assembled array adds the elements in order:
        # the bits of one element at a time, for P, and for M and K before
        # and after their reduction.
        summed, reduced, checked = vtsi.beams._summed, vtsi.beams._reduced, []

        def checked_summed(values, dofs, n):
            got = summed(values, dofs, n)
            assert np.array_equal(bits(got), bits(ref_summed(values, dofs, n)))
            checked.append(values.ndim)
            return got

        def checked_reduced(Z, elements, dofs):
            got = reduced(Z, elements, dofs)
            want = (Z.T @ ref_summed(elements, dofs, len(Z))) @ Z
            assert np.array_equal(bits(got), bits(want))
            checked.append("reduced")
            return got

        monkeypatch.setattr(vtsi.beams, "_summed", checked_summed)
        monkeypatch.setattr(vtsi.beams, "_reduced", checked_reduced)
        build_scenario_bridge(parse_scenario({"bridge": {
            **bridge, "elements_per_span": elements}}), default_path)
        assert checked == [2, 3, "reduced", 3, "reduced"]

    @pytest.mark.parametrize("panel_bytes", [None, 8, 20_000],
                             ids=["default", "one-column", "uneven"])
    @pytest.mark.parametrize("rayleigh", [(0.0, 0.0), (0.5, 1e-4)],
                             ids=["undamped", "damped"])
    @pytest.mark.parametrize("elements", [1, 8, 32])
    def test_panels_equal_whole_arrays(self, elements, rayleigh, panel_bytes,
                                       default_path, monkeypatch):
        if panel_bytes is not None:
            monkeypatch.setattr(vtsi.beams, "PANEL_BYTES", panel_bytes)
        scenario = parse_scenario({"bridge": {
            "elements_per_span": elements, "rayleigh": list(rayleigh)}})
        br = build_scenario_bridge(scenario, default_path)
        damped = bool(br.C.any())
        assert damped == any(rayleigh)
        if damped:
            a0, a1 = rayleigh
            assert np.array_equal(bits(br.C), bits(a0 * br.M + a1 * br.K))
        newmark = parse_scenario({"run": {"strategy": "C"}})
        alpha = parse_scenario({"run": {"rho_inf": 0.5}})
        for sc in (scenario, newmark, alpha):
            params = scenario_scheme(sc)
            got = _step_block(br, params, damped)
            assert got.flags.f_contiguous
            assert np.array_equal(bits(got),
                                  bits(whole_step_block(br, params, damped)))


# --------------------------------------------------------------------------
# Probe rows and where a run's LAPACK work runs.
# --------------------------------------------------------------------------

class TestProbeRows:
    # At 64 elements per span the full-row product L @ Z is left out: there
    # OpenBLAS splits its sum at column 384, and the rows at two span
    # joints differ from the window's product in their last bits.
    @pytest.mark.parametrize("kind,elements", [
        ("nurbs", 8), ("fem", 8), ("nurbs", 32), ("fem", 32)],
        ids=["nurbs", "fem", "nurbs-32", "fem-32"])
    @SETTINGS
    @given(data=st.data())
    def test_probe_rows_are_full_rows_times_z(self, kind, elements, data,
                                              default_path, bridges):
        br = bridges(parse_scenario({"bridge": {
            "kind": kind, "elements_per_span": elements}}))
        shape = br.shape
        knots = (shape.amap.s_of_xi(shape.curve.knots.breakpoints)
                 if kind == "nurbs" else shape.s_nodes)
        special = [min(float(s), br.length) for s in np.concatenate(
            [[0.0, br.length], default_path.spec.joints, knots])]
        s = data.draw(st.one_of(st.sampled_from(special),
                                st.floats(0.0, br.length)))
        want = (shape.rows(s, (F_UN, F_UB), 0).dense()[0, 0]
                @ br.Z[np.arange(br.n_full)])

        def dense(self):
            raise AssertionError("probe_rows formed the full rows")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FieldRows, "dense", dense)
            got = br.probe_rows(s)
        assert np.array_equal(got, want)


class TestRunSchedule:
    def test_steps_call_no_numpy_solve(self, default_path, monkeypatch):
        # The static solve is numpy's; the steps' small systems go through
        # the dgesv that the Stepper binds, and the factor runs once.
        scenario = parse_scenario({"bridge": {"elements_per_span": 16},
                                   "run": {"horizon": 0.02}})
        model = build_scenario_model(scenario, default_path)
        n_red = model.bridge.n_red
        events = []
        solve, factor = np.linalg.solve, integrators.lu_factor

        def recording_solve(a, b):
            events.append(("solve", len(a)))
            return solve(a, b)

        def recording_factor(a, **kwargs):
            events.append(("factor", len(a)))
            return factor(a, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        monkeypatch.setattr(integrators, "lu_factor", recording_factor)
        run_simulation(scenario, model)
        assert sorted(events) == [("factor", n_red), ("solve", n_red)]

    @pytest.mark.parametrize("elements,serial", [(8, True), (32, False)])
    def test_small_bridges_step_on_one_thread(self, elements, serial,
                                              default_path, monkeypatch):
        # Set-up (numpy's static solve and its residual, and the factor)
        # runs at the pinned thread count, whose bits it needs; the steps run
        # on one thread below SERIAL_BRIDGE_DOFS.
        pool = _lapack._POOL
        if pool is None or pool.get() == 1:
            pytest.skip("the BLAS pool is pinned to one thread or cannot "
                        "be reached")
        pinned = pool.get()
        scenario = parse_scenario({
            "bridge": {"elements_per_span": elements},
            "run": {"horizon": 0.01}})
        model = build_scenario_model(scenario, default_path)
        assert (model.n_b < integrators.SERIAL_BRIDGE_DOFS) == serial
        events = []

        def recording(name, f):
            def call(*args, **kwargs):
                events.append((name, pool.get()))
                return f(*args, **kwargs)
            return call

        def binding(name, bind):
            # The bound call, recorded as it is made.
            def bound(*args):
                call = bind(*args)
                if name == "gesv":
                    return recording(name, call[0]), call[1]
                return recording(name, call)
            return bound

        for name in ("getrs", "gesv"):
            monkeypatch.setattr(integrators, name,
                                binding(name, getattr(integrators, name)))
        monkeypatch.setattr(integrators, "lu_factor",
                            recording("lu_factor", integrators.lu_factor))
        monkeypatch.setattr(np.linalg, "solve",
                            recording("solve", np.linalg.solve))
        run_simulation(scenario, model)
        setup = [count for name, count in events
                 if name in ("solve", "lu_factor")]
        steps = [count for name, count in events
                 if name in ("getrs", "gesv")]
        assert {name for name, _ in events} == {"solve", "lu_factor",
                                                "getrs", "gesv"}
        assert setup == [pinned, pinned]
        assert set(steps) == {1 if serial else pinned}
        assert pool.get() == pinned
