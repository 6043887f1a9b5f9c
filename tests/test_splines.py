import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vtsi.splines import (KnotVector, NurbsCurve, distinct,
                          eval_bspline_basis, eval_nurbs, eval_nurbs_basis,
                          fit_least_squares, make_open_uniform_knots)


def unit_circle_quarter():
    """Exact quarter circle as a quadratic NURBS arc (textbook weights)."""
    knots = KnotVector(np.array([0.0, 0, 0, 1, 1, 1]), 2)
    pts = np.array([[1.0, 0, 0], [1.0, 1.0, 0], [0.0, 1.0, 0]])
    w = np.array([1.0, 1.0 / np.sqrt(2.0), 1.0])
    return NurbsCurve(knots, pts, w)


class TestKnots:
    @given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 7.0])),
           st.sampled_from([float, int]))
    def test_distinct_equals_np_unique(self, values, dtype):
        # distinct stands in for np.unique, which imports numpy.ma.
        a = np.array(values).astype(dtype)
        got, want = distinct(a), np.unique(a)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_open_uniform_structure(self):
        kv = make_open_uniform_knots(3, 5)
        assert kv.n == 8
        assert kv.n_elems == 5
        assert kv.domain == (0.0, 5.0)
        assert np.all(kv.values[:4] == 0.0) and np.all(kv.values[-4:] == 5.0)

    def test_rejects_unclamped(self):
        with pytest.raises(ValueError):
            KnotVector(np.array([0.0, 0, 1, 2, 3, 3]), 2)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KnotVector(np.array([0.0, 0, 0, 2, 1, 3, 3, 3]), 2)

    def test_find_span(self):
        kv = make_open_uniform_knots(2, 4)
        assert kv.find_span(0.0) == 2
        assert kv.find_span(2.5) == 4
        assert kv.find_span(4.0) == kv.n - 1
        with pytest.raises(ValueError):
            kv.find_span(4.5)


class TestBsplineBasis:
    def test_partition_of_unity(self):
        kv = make_open_uniform_knots(3, 6)
        for xi in np.linspace(0.0, 6.0, 200):
            span = eval_bspline_basis(kv, xi, 0)
            assert span.table[0].sum() == pytest.approx(1.0, abs=1e-13)

    def test_derivative_sums_vanish(self):
        kv = make_open_uniform_knots(3, 6)
        for xi in np.linspace(0.1, 5.9, 50):
            span = eval_bspline_basis(kv, xi, 2)
            assert abs(span.table[1].sum()) < 1e-12
            assert abs(span.table[2].sum()) < 1e-11

    def test_derivatives_match_finite_differences(self):
        kv = make_open_uniform_knots(3, 4)
        h = 1e-6
        for xi in (0.7, 1.9, 3.3):
            d = eval_bspline_basis(kv, xi, 1)
            lo = eval_bspline_basis(kv, xi - h, 0)
            hi = eval_bspline_basis(kv, xi + h, 0)
            assert lo.span_index == hi.span_index == d.span_index
            fd = (hi.table[0] - lo.table[0]) / (2 * h)
            assert np.allclose(d.table[1], fd, atol=1e-6)

    def test_quadratic_hat_value(self):
        # Degree-2 uniform basis at a knot midpoint takes the known 1/8, 3/4,
        # 1/8 stencil.
        kv = make_open_uniform_knots(2, 4)
        span = eval_bspline_basis(kv, 1.5, 0)
        assert np.allclose(sorted(span.table[0]), [0.125, 0.125, 0.75])


class TestNurbs:
    def test_quarter_circle_on_curve(self):
        c = unit_circle_quarter()
        for xi in np.linspace(0.0, 1.0, 50):
            pt = eval_nurbs(c, xi, 0)[0]
            assert np.hypot(pt[0], pt[1]) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_circle_curvature_one(self):
        c = unit_circle_quarter()
        for xi in (0.2, 0.5, 0.8):
            d = eval_nurbs(c, xi, 2)
            num = np.linalg.norm(np.cross(d[1], d[2]))
            kappa = num / np.linalg.norm(d[1]) ** 3
            assert kappa == pytest.approx(1.0, rel=1e-10)

    def test_rational_basis_partition_of_unity(self):
        c = unit_circle_quarter()
        for xi in np.linspace(0.0, 1.0, 1000):
            span = eval_nurbs_basis(c, xi, 0)
            assert abs(span.table[0].sum() - 1.0) <= 1e-12

    def test_rational_derivatives_match_fd(self):
        c = unit_circle_quarter()
        for xi in (0.3, 0.6):
            d = eval_nurbs(c, xi, 2)
            h = 1e-6
            fd1 = (eval_nurbs(c, xi + h, 0)[0]
                   - eval_nurbs(c, xi - h, 0)[0]) / (2 * h)
            assert np.allclose(d[1], fd1, atol=1e-6)
            h = 1e-4  # second difference: balance truncation vs roundoff
            fd2 = (eval_nurbs(c, xi + h, 0)[0] - 2 * eval_nurbs(c, xi, 0)[0]
                   + eval_nurbs(c, xi - h, 0)[0]) / h ** 2
            assert np.allclose(d[2], fd2, atol=1e-5)

    def test_control_point_count_checked(self):
        kv = make_open_uniform_knots(2, 2)
        with pytest.raises(ValueError):
            NurbsCurve(kv, np.zeros((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            NurbsCurve(kv, np.zeros((4, 3)), np.array([1.0, 1, -1, 1]))


class TestFit:
    def test_reproduces_polynomial_exactly(self):
        # A cubic space curve lies in the degree-3 spline space.
        t = np.linspace(0.0, 1.0, 60)
        pts = np.column_stack([t, t ** 3 - 0.5 * t, 0.2 * t ** 2])
        c = fit_least_squares(t, pts, p=3, n_ctrl=8)
        lo, hi = c.domain
        for ti, pt in zip(t[::7], pts[::7]):
            xi = lo + ti * (hi - lo)
            assert np.allclose(eval_nurbs(c, xi, 0)[0], pt, atol=1e-9)

    def test_too_many_control_points(self):
        t = np.linspace(0.0, 1.0, 5)
        pts = np.column_stack([t, t, t])
        with pytest.raises(ValueError):
            fit_least_squares(t, pts, p=3, n_ctrl=6)

    def test_inactive_basis_rejected(self):
        # All samples crowded at one end leave interior functions untouched.
        t = np.concatenate([np.linspace(0.0, 0.05, 30), [1.0]])
        pts = np.column_stack([t, t, np.zeros_like(t)])
        with pytest.raises(ValueError):
            fit_least_squares(t, pts, p=3, n_ctrl=12)
