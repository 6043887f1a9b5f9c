"""Plan geometry of the track and moving-frame kinematics.

A track plan is a sequence of straight, transition (clothoid), and circular
spans in the horizontal plane. The exact geometry is integrated numerically,
sampled, and fitted with a spline; Frenet frames and the angular
velocity/acceleration of the moving frame follow from the fitted curve.
Positive curvature turns left (binormal up).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf, cos, sin, pi

import numpy as np
from numpy.polynomial.legendre import leggauss

from .splines import NurbsCurve, eval_nurbs, fit_least_squares

__all__ = [
    "Span",
    "PlanSpec",
    "FrameKinematics",
    "ArclengthMap",
    "PlanPath",
    "build_plan_path",
    "frame_kinematics",
    "CosineProfile",
]

UP = np.array([0.0, 0.0, 1.0])

# Below this (curvature in 1/m) the binormal of the fitted curve is numerical
# noise; fall back to the global-up convention so frames stay continuous.
STRAIGHT_CURVATURE_TOL = 1e-9

# Gauss-Legendre (nodes, weights): 20 points per span for the exact plan
# position, 10 per grid interval for the arclength of the fitted curve.
GAUSS_PLAN = leggauss(20)
GAUSS_ARCLENGTH = leggauss(10)
ARCLENGTH_SUBDIV = 24   # arclength grid intervals per knot span
SAMPLES_PER_ELEM = 20   # exact-plan samples per knot span of the fit
# Intervals per batched curve evaluation in the arclength quadrature: each
# costs 10 evaluation points, and larger batches only add to peak memory.
QUADRATURE_BLOCK = 64


def _curv(radius) -> float:
    if radius is None or radius == 0 or radius == inf:
        return 0.0
    return 1.0 / float(radius)


@dataclass(frozen=True)
class Span:
    """One plan span: ``straight``, ``transition``, or ``arc``."""

    kind: str
    length: float
    radius_start: float | None = None
    radius_end: float | None = None

    def __post_init__(self):
        if self.kind not in ("straight", "transition", "arc"):
            raise ValueError("unknown span kind %r" % self.kind)
        if self.length <= 0.0:
            raise ValueError("span length must be positive")
        if self.kind == "arc" and _curv(self.radius_start) != _curv(self.radius_end):
            raise ValueError("arc span must have equal start/end radii")
        if self.kind == "arc" and not _curv(self.radius_start):
            raise ValueError("arc span needs a finite nonzero radius")
        if self.kind == "straight" and (_curv(self.radius_start) or _curv(self.radius_end)):
            raise ValueError("straight span cannot carry a radius")

    def curvature(self, ds: float) -> float:
        """Curvature at local arclength ``ds`` (linear in s for transitions)."""
        k0, k1 = _curv(self.radius_start), _curv(self.radius_end)
        if self.kind == "straight":
            return 0.0
        if self.kind == "arc":
            return k0
        return k0 + (k1 - k0) * ds / self.length


@dataclass(frozen=True)
class PlanSpec:
    """Ordered spans of the plan geometry."""

    spans: tuple

    def __post_init__(self):
        spans = tuple(self.spans)
        object.__setattr__(self, "spans", spans)
        if not spans:
            raise ValueError("plan needs at least one span")
        # Curvature continuity at joints.
        for a, b in zip(spans[:-1], spans[1:]):
            ka = a.curvature(a.length)
            kb = b.curvature(0.0)
            if abs(ka - kb) > 1e-12:
                raise ValueError(
                    "curvature jump %.3g at span joint" % abs(ka - kb))
        joints = np.concatenate([[0.0], np.cumsum([sp.length for sp in spans])])
        object.__setattr__(self, "_joints", joints)
        # Per-span curvature k0 + dk ds / length: the transition formula
        # gives straight and arc spans their constant bits too.
        k0 = np.array([sp.curvature(0.0) for sp in spans])
        dk = np.array([_curv(sp.radius_end) for sp in spans]) - k0
        object.__setattr__(self, "_k0", k0)
        object.__setattr__(self, "_dk", dk)
        object.__setattr__(self, "_length", np.array([sp.length
                                                      for sp in spans]))
        # Heading and position at each joint, span by span: each is the
        # previous joint's plus the whole span, the partial sums in the
        # order that a sample past them adds them up.
        theta = np.zeros(len(joints))
        xy = np.zeros((len(joints), 2))
        object.__setattr__(self, "_theta", theta)
        object.__setattr__(self, "_xy", xy)
        for i in range(len(spans)):
            theta[i + 1] = self.heading(joints[i + 1])
            xy[i + 1] = self.point(joints[i + 1])[:2]

    @property
    def total_length(self) -> float:
        return float(self._joints[-1])

    @property
    def joints(self) -> np.ndarray:
        """Cumulative arclengths of span boundaries, including both ends."""
        return self._joints

    def _span(self, s: np.ndarray):
        """Span i with J_i < s <= J_{i+1} of each s, clipped to the plan,
        and the joints J_i and J_{i+1}."""
        i = np.clip(np.searchsorted(self._joints, s, side="left") - 1, 0,
                    len(self.spans) - 1)
        return i, self._joints[i], self._joints[i + 1]

    def heading(self, s):
        """Integral of curvature from 0 to s (closed form per span), at one
        s or at each of an array of them: the heading at the span's start
        joint plus the trapezoid over [J_i, min(s, J_{i+1})]. Zero for
        s <= 0, and the final heading past the end."""
        s = np.asarray(s, dtype=float)
        i, s0, s1 = self._span(s)
        ds = np.minimum(s, s1) - s0
        k0 = self._k0[i]
        k1 = k0 + self._dk[i] * ds / self._length[i]
        theta = np.where(ds > 0.0, self._theta[i] + 0.5 * (k0 + k1) * ds,
                         self._theta[i])
        return theta if theta.ndim else float(theta)

    def point(self, s) -> np.ndarray:
        """Exact plan position (x, y, 0) at one s, or (m, 3) at an array of
        them, by Gauss quadrature of the heading: the position at the
        span's start joint plus the 20 node terms over [J_i, min(s,
        J_{i+1})], added node by node where that interval is non-empty."""
        s = np.asarray(s, dtype=float)
        i, s0, s1 = self._span(s)
        hi = np.minimum(s, s1)
        on = hi > s0
        half = 0.5 * (hi - s0)
        mid = 0.5 * (hi + s0)
        nodes, wts = GAUSS_PLAN
        th = self.heading(mid[..., None] + half[..., None] * nodes)
        x, y = self._xy[i, 0], self._xy[i, 1]
        for q, w in enumerate(wts):
            x = np.where(on, x + half * w * np.cos(th[..., q]), x)
            y = np.where(on, y + half * w * np.sin(th[..., q]), y)
        return np.stack([x, y, np.zeros_like(x)], axis=-1)


@dataclass(frozen=True)
class FrameKinematics:
    """Snapshot of the moving Frenet frame at one wheel position, or a stack
    of them with a leading axis over positions."""

    rotation: np.ndarray      # R^F, frame -> global
    omega: np.ndarray         # angular velocity, frame components (t, n, b)
    omega_dot: np.ndarray     # its time derivative, frame components
    origin_vel: np.ndarray    # global
    origin_acc: np.ndarray    # global

    def __getitem__(self, i) -> "FrameKinematics":
        return FrameKinematics(*(getattr(self, f.name)[i]
                                 for f in fields(self)))


def ipow(x: np.ndarray, n: int) -> np.ndarray:
    """x ** n element by element through the C library's pow, which is what
    a scalar ``x ** n`` computes; numpy's array power rounds differently in
    the last bit for some x."""
    out = [pow(float(v), n) for v in np.ravel(x)]
    return np.array(out).reshape(np.shape(x))


class ArclengthMap:
    """Bidirectional map between curve parameter and arclength.

    Forward values come from per-span Gauss quadrature of the parametric
    speed accumulated on a fine grid; inversion refines a grid guess with
    Newton steps using the exact jacobian. Every method takes one value or
    an array of them and evaluates the curve for the whole array at once.
    """

    def __init__(self, curve: NurbsCurve):
        self.curve = curve
        grid = [curve.domain[0]]
        for a, b in zip(curve.knots.breakpoints[:-1], curve.knots.breakpoints[1:]):
            grid.extend(np.linspace(a, b, ARCLENGTH_SUBDIV + 1)[1:])
        self._xi = np.asarray(grid)
        segs = np.zeros(len(self._xi))
        segs[1:] = self._quadrature(self._xi[:-1], self._xi[1:])
        self._s = np.cumsum(segs)

    @property
    def length(self) -> float:
        return float(self._s[-1])

    def _quadrature(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gauss quadrature of J over each interval [a_i, b_i], evaluated
        QUADRATURE_BLOCK intervals at a time."""
        nodes, wts = GAUSS_ARCLENGTH
        out = np.empty(len(a))
        for i in range(0, len(a), QUADRATURE_BLOCK):
            ai, bi = a[i:i + QUADRATURE_BLOCK], b[i:i + QUADRATURE_BLOCK]
            half, mid = 0.5 * (bi - ai), 0.5 * (ai + bi)
            J = self.jacobian(mid[:, None] + half[:, None] * nodes)
            # Node by node: a dot product or np.sum may reorder the sum.
            total = 0
            for q, w in enumerate(wts):
                total = total + w * J[:, q]
            out[i:i + QUADRATURE_BLOCK] = half * total
        return out

    def jacobian(self, xi):
        """J = ds/dxi."""
        x = np.asarray(xi, dtype=float)
        d = eval_nurbs(self.curve, x.ravel(), 1)[:, 1]
        J = np.sqrt(np.vecdot(d, d)).reshape(x.shape)
        return J if x.ndim else float(J)

    def jacobian_prime(self, xi):
        """dJ/dxi = x' . x'' / J."""
        x = np.atleast_1d(xi)
        d = eval_nurbs(self.curve, x, 2)
        Jp = np.vecdot(d[:, 1], d[:, 2]) / np.sqrt(np.vecdot(d[:, 1], d[:, 1]))
        return Jp if np.ndim(xi) else float(Jp[0])

    def s_of_xi(self, xi):
        x = np.atleast_1d(np.asarray(xi, dtype=float))
        i = np.clip(np.searchsorted(self._xi, x) - 1, 0, len(self._xi) - 2)
        s = self._s[i] + self._quadrature(self._xi[i], x)
        return s if np.ndim(xi) else float(s[0])

    def xi_of_s(self, s):
        """Parameter at arclength ``s``: a grid guess, then Newton steps on
        each point until its own residual meets the tolerance."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        outside = ~((-1e-9 * self.length <= s_arr)
                    & (s_arr <= self.length * (1 + 1e-9)))
        if np.any(outside):
            raise ValueError("arclength %g outside [0, %g]"
                             % (s_arr[outside][0], self.length))
        s_arr = np.minimum(np.maximum(s_arr, 0.0), self.length)
        xi = np.interp(s_arr, self._s, self._xi)
        lo, hi = self.curve.domain
        tol = 1e-12 * max(self.length, 1.0)
        active = np.arange(len(xi))
        for _ in range(30):
            err = self.s_of_xi(xi[active]) - s_arr[active]
            moving = ~(np.abs(err) <= tol)
            active, err = active[moving], err[moving]
            if not len(active):
                break
            x = xi[active]
            xi[active] = np.minimum(np.maximum(x - err / self.jacobian(x), lo),
                                    hi)
        return xi if np.ndim(s) else float(xi[0])


@dataclass(frozen=True)
class PlanPath:
    """Fitted spline path together with its arclength map and plan spec."""

    spec: PlanSpec
    curve: NurbsCurve
    amap: ArclengthMap


def build_plan_path(spec: PlanSpec, ctrl_per_span: int = 10,
                    p: int = 3) -> PlanPath:
    """Fit the exact plan geometry with a spline.

    Each span is meshed into ``ctrl_per_span`` knot spans so that span joints
    (where the curvature derivative may jump) land on knots. The exact
    plan is sampled at every span's samples in one call; sample parameters
    are assigned per span by chord length, scaled to the knot interval of
    the span.
    """
    n_spans = len(spec.spans)
    e = ctrl_per_span
    joints = spec.joints
    m = e * SAMPLES_PER_ELEM + 1
    s_all = np.concatenate([np.linspace(joints[i], joints[i + 1], m)
                            for i in range(n_spans)])
    xi_all, pts_all = [], []
    for i, pts in enumerate(spec.point(s_all).reshape(n_spans, m, 3)):
        chord = np.concatenate([[0.0], np.cumsum(
            np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        xi = i * e + chord / chord[-1] * e
        if i > 0:
            xi, pts = xi[1:], pts[1:]
        xi_all.append(xi)
        pts_all.append(pts)
    xi_all = np.concatenate(xi_all)
    pts_all = np.concatenate(pts_all, axis=0)
    curve = fit_least_squares(xi_all, pts_all, p, n_spans * e + p)
    return PlanPath(spec, curve, ArclengthMap(curve))


def _curvature_terms(curve: NurbsCurve, xi: np.ndarray):
    """Curve derivatives (m, 5, 3) and (kappa, tau, dkappa/ds, dtau/ds),
    each of shape (m,), at the parameters ``xi``; all four are zero where
    the curvature is below STRAIGHT_CURVATURE_TOL. kappa and dkappa/ds are
    signed as ``PlanSpec``'s radius: negative where the curve turns right,
    (x1 x x2) . UP < 0."""
    k = min(curve.degree, 4)
    d = np.zeros((len(xi), 5, 3))
    d[:, : k + 1] = eval_nurbs(curve, xi, k)
    x1, x2, x3, x4 = d[:, 1], d[:, 2], d[:, 3], d[:, 4]
    sp = np.sqrt(np.vecdot(x1, x1))
    c = np.cross(x1, x2)
    cn = np.sqrt(np.vecdot(c, c))
    kappa = cn / ipow(sp, 3)
    terms = np.zeros((4, len(xi)))
    bent = ~(kappa < STRAIGHT_CURVATURE_TOL)
    if bent.any():
        x1, x2, x3, x4, c = x1[bent], x2[bent], x3[bent], x4[bent], c[bent]
        sp, cn, kappa = sp[bent], cn[bent], kappa[bent]
        cp = np.cross(x1, x3)
        cn2 = ipow(cn, 2)
        # d/dxi of kappa and tau, then chain rule through J = sp.
        kap_xi = (np.vecdot(c, cp) / (cn * ipow(sp, 3))
                  - 3.0 * kappa * np.vecdot(x1, x2) / ipow(sp, 2))
        tau = np.vecdot(c, x3) / cn2
        tau_xi = ((np.vecdot(cp, x3) + np.vecdot(c, x4)) / cn2
                  - 2.0 * tau * np.vecdot(c, cp) / cn2)
        # Signed after the unsigned arithmetic, which a left turn keeps.
        sign = np.where(np.vecdot(c, UP) < 0.0, -1.0, 1.0)
        terms[:, bent] = sign * kappa, tau, sign * (kap_xi / sp), tau_xi / sp
    return d, *terms


def frame_kinematics(curve: NurbsCurve, amap: ArclengthMap, s,
                     v: float) -> FrameKinematics:
    """Moving-frame kinematics at arclength ``s`` (one value or an array of
    them) for constant speed ``v``.

    omega = v (tau t + kappa b) and its time derivative v^2 (tau' t + kappa' b),
    both in frame components; the origin travels at v t with centripetal
    acceleration v^2 kappa n.
    """
    if v < 0.0:
        raise ValueError("speed must be nonnegative")
    xi = amap.xi_of_s(np.atleast_1d(s))
    d, kappa, tau, dkap, dtau = _curvature_terms(curve, xi)
    x1 = d[:, 1]
    t = x1 / np.sqrt(np.vecdot(x1, x1))[:, None]
    # The binormal keeps the up side: x1 x x2 points down on a right turn.
    b = np.cross(x1, d[:, 2])
    b[kappa < 0.0] *= -1.0
    straight = kappa == 0.0
    b[straight] = UP - np.vecdot(t[straight], UP)[:, None] * t[straight]
    b /= np.sqrt(np.vecdot(b, b))[:, None]
    n = np.cross(b, t)
    zero = np.zeros_like(kappa)
    fk = FrameKinematics(
        rotation=np.stack([t, n, b], axis=-1),
        omega=v * np.stack([tau, zero, kappa], axis=-1),
        omega_dot=v * v * np.stack([dtau, zero, dkap], axis=-1),
        origin_vel=v * t,
        origin_acc=(v * v * kappa)[:, None] * n,
    )
    return fk if np.ndim(s) else fk[0]


@dataclass(frozen=True)
class CosineProfile:
    """Rigid vertical profile z(s) = (A/2)(1 - cos(2 pi s / wavelength))."""

    amplitude: float
    wavelength: float
    length: float

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")

    def height(self, s: float) -> float:
        w = 2.0 * pi / self.wavelength
        return 0.5 * self.amplitude * (1.0 - cos(w * s))

    def slope(self, s: float) -> float:
        w = 2.0 * pi / self.wavelength
        return 0.5 * self.amplitude * w * sin(w * s)

    def curvature(self, s: float) -> float:
        w = 2.0 * pi / self.wavelength
        return 0.5 * self.amplitude * w * w * cos(w * s)

    # Time derivatives for a wheel moving at constant speed v (s = v t).
    def z_dot(self, s: float, v: float) -> float:
        return v * self.slope(s)

    def z_ddot(self, s: float, v: float) -> float:
        return v * v * self.curvature(s)
