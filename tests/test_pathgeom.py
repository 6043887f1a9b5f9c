import numpy as np
import pytest

from vtsi.pathgeom import (CosineProfile, PlanSpec, Span, build_plan_path,
                           frame_kinematics)
from vtsi.splines import eval_nurbs

R_ARC = 6000.0


def five_span_spec():
    return PlanSpec(spans=(
        Span("straight", 30.0),
        Span("transition", 30.0, None, R_ARC),
        Span("arc", 30.0, R_ARC, R_ARC),
        Span("transition", 30.0, R_ARC, None),
        Span("straight", 30.0),
    ))


@pytest.fixture(scope="module")
def five_span_path():
    return build_plan_path(five_span_spec())


class TestPlanSpec:
    def test_total_length(self):
        assert five_span_spec().total_length == pytest.approx(150.0)

    def test_curvature_profile(self):
        # Midway along each span: 15, 45, 75, 105 and 135 m.
        spans = five_span_spec().spans
        assert spans[0].curvature(15.0) == 0.0
        assert spans[1].curvature(15.0) == pytest.approx(0.5 / R_ARC)
        assert spans[2].curvature(15.0) == pytest.approx(1.0 / R_ARC)
        assert spans[3].curvature(15.0) == pytest.approx(0.5 / R_ARC)
        assert spans[4].curvature(15.0) == 0.0

    def test_rejects_curvature_jump(self):
        with pytest.raises(ValueError):
            PlanSpec(spans=(Span("straight", 30.0),
                            Span("arc", 30.0, 500.0, 500.0)))

    def test_rejects_arc_without_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Span("arc", 10.0)

    def test_rejects_unequal_arc_radii(self):
        with pytest.raises(ValueError):
            Span("arc", 10.0, 100.0, 200.0)


class TestBuildPlanPath:
    def test_total_arclength(self, five_span_path):
        assert five_span_path.amap.length == pytest.approx(150.0, abs=1e-3)

    def test_arc_span_curvature(self, five_span_path):
        c, amap = five_span_path.curve, five_span_path.amap
        for s in np.linspace(62.0, 88.0, 9):
            fk = frame_kinematics(c, amap, s, 1.0)
            kappa = abs(fk.omega[2])  # omega = v (tau t + kappa b), v = 1
            assert kappa == pytest.approx(1.0 / R_ARC, rel=0.01)

    def test_straight_span_curvature(self):
        path = build_plan_path(PlanSpec(spans=(Span("straight", 30.0),)))
        for s in np.linspace(0.5, 29.5, 12):
            fk = frame_kinematics(path.curve, path.amap, s, 1.0)
            assert np.linalg.norm(fk.omega) <= 1e-9

    def test_arclength_roundtrip(self, five_span_path):
        amap = five_span_path.amap
        for s in np.linspace(0.0, amap.length, 23):
            assert abs(amap.s_of_xi(amap.xi_of_s(s)) - s) <= 1e-9 * amap.length


def _rotation(path, s):
    return frame_kinematics(path.curve, path.amap, s, 1.0).rotation


class TestFrenetFrames:
    def test_orthonormal_right_handed(self, five_span_path):
        rng = np.random.default_rng(7)
        for s in rng.uniform(0.0, 150.0, 100):
            R = _rotation(five_span_path, s)
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-10)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)

    def test_straight_fallback_binormal_up(self, five_span_path):
        t, n, b = _rotation(five_span_path, 10.0).T
        assert np.allclose(b, [0.0, 0.0, 1.0], atol=1e-6)
        assert np.allclose(n, np.cross(b, t), atol=1e-10)

    def test_circle_normal_points_to_center(self, five_span_path):
        # On the arc the curve center lies along +n at distance R.
        c, amap = five_span_path.curve, five_span_path.amap
        centers = [eval_nurbs(c, amap.xi_of_s(s))[0]
                   + R_ARC * _rotation(five_span_path, s)[:, 1]
                   for s in (70.0, 80.0)]
        assert np.linalg.norm(centers[0] - centers[1]) < 0.05

    def test_frame_continuity_across_joints(self, five_span_path):
        for s0 in (30.0, 60.0, 90.0, 120.0):
            Ra = _rotation(five_span_path, s0 - 5e-3)
            Rb = _rotation(five_span_path, s0 + 5e-3)
            cos_angle = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
            angle = np.arccos(np.clip(cos_angle, -1.0, 1.0))
            assert angle <= 1e-3

    def test_plan_is_horizontal(self, five_span_path):
        for s in np.linspace(0.0, 150.0, 60):
            b = _rotation(five_span_path, s)[:, 2]
            assert abs(abs(b @ np.array([0.0, 0.0, 1.0])) - 1.0) <= 1e-6


class TestFrameKinematics:
    def test_straight_zero_rates(self, five_span_path):
        fk = frame_kinematics(five_span_path.curve, five_span_path.amap,
                              10.0, 100.0)
        assert np.linalg.norm(fk.omega) <= 1e-7
        assert np.linalg.norm(fk.origin_acc) <= 1e-3

    def test_arc_rates(self, five_span_path):
        fk = frame_kinematics(five_span_path.curve, five_span_path.amap,
                              75.0, 100.0)
        assert np.linalg.norm(fk.omega) == pytest.approx(100.0 / R_ARC,
                                                         rel=0.01)
        assert np.linalg.norm(fk.origin_acc) == pytest.approx(
            100.0 ** 2 / R_ARC, rel=0.01)

    def test_omega_matches_rotation_fd(self, five_span_path):
        # omega_hat = R^T dR/dt along the moving frame.
        c, amap = five_span_path.curve, five_span_path.amap
        v, h = 100.0, 1e-5
        for s in (45.0, 75.0, 105.0):
            fk = frame_kinematics(c, amap, s, v)
            Rp = frame_kinematics(c, amap, s + v * h, v).rotation
            Rm = frame_kinematics(c, amap, s - v * h, v).rotation
            W = fk.rotation.T @ (Rp - Rm) / (2 * h)
            w_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
            assert np.allclose(w_fd, fk.omega, atol=1e-5)

    def test_transition_omega_dot(self, five_span_path):
        # On a clothoid the binormal rate component equals v^2 dkappa/ds.
        c, amap = five_span_path.curve, five_span_path.amap
        v, h = 100.0, 1e-4
        s = 45.0
        fk = frame_kinematics(c, amap, s, v)
        wp = frame_kinematics(c, amap, s + v * h, v).omega
        wm = frame_kinematics(c, amap, s - v * h, v).omega
        fd = (wp - wm) / (2 * h)
        assert fk.omega_dot[2] == pytest.approx(fd[2], rel=0.01)
        assert fk.omega_dot[2] == pytest.approx(v * v * (1.0 / R_ARC) / 30.0,
                                                rel=0.02)


class TestCosineProfile:
    def test_flat_profile(self):
        prof = CosineProfile(0.0, 30.0, 100.0)
        assert prof.height(12.3) == 0.0
        assert prof.z_ddot(12.3, 100.0) == 0.0

    def test_start_values(self):
        prof = CosineProfile(0.01, 30.0, 100.0)
        assert prof.height(0.0) == 0.0
        assert prof.slope(0.0) == 0.0
        assert prof.curvature(0.0) == pytest.approx(
            0.005 * (2 * np.pi / 30.0) ** 2)

    def test_peak_vertical_acceleration(self):
        # (A/2) (2 pi v / lambda)^2 at the crest of the cosine.
        prof = CosineProfile(0.01, 30.0, 100.0)
        v = 100.0
        peak = max(abs(prof.z_ddot(s, v))
                   for s in np.linspace(0.0, 60.0, 2401))
        assert peak == pytest.approx(0.005 * (2 * np.pi * v / 30.0) ** 2,
                                     rel=1e-6)

    def test_time_derivatives_match_fd(self):
        prof = CosineProfile(0.02, 25.0, 100.0)
        v, h = 80.0, 1e-6
        for t in (0.1, 0.37):
            zd = prof.z_dot(v * t, v)
            fd = (prof.height(v * (t + h)) - prof.height(v * (t - h))) / (2 * h)
            assert zd == pytest.approx(fd, abs=1e-7)
