"""B-spline and NURBS primitives.

Open (clamped) knot vectors, Cox-de Boor basis evaluation with derivatives,
rational basis functions, 3D NURBS curve evaluation, and least-squares curve
fitting. All objects are immutable after construction and evaluation is pure,
so everything here is safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "KnotVector",
    "BasisSpan",
    "NurbsCurve",
    "make_open_uniform_knots",
    "eval_bspline_basis",
    "eval_nurbs_basis",
    "eval_nurbs",
    "fit_least_squares",
]


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D array, as ``np.unique`` gives
    them. ``np.unique`` imports numpy.ma on its first call (about 10 ms and
    1.3 MB)."""
    s = np.sort(values)
    first = np.empty(s.shape, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


@dataclass(frozen=True)
class KnotVector:
    """Clamped knot vector with degree ``p``.

    The first and last knots must each appear exactly ``p + 1`` times and the
    sequence must be non-decreasing.
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        p = self.degree
        if p < 1:
            raise ValueError("degree must be >= 1")
        if vals.ndim != 1 or len(vals) < 2 * (p + 1):
            raise ValueError("knot vector too short for degree %d" % p)
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("knots must be non-decreasing")
        if not (np.all(vals[: p + 1] == vals[0]) and vals[p + 1] > vals[0]):
            raise ValueError("first knot must have multiplicity exactly %d" % (p + 1))
        if not (np.all(vals[-(p + 1):] == vals[-1]) and vals[-(p + 2)] < vals[-1]):
            raise ValueError("last knot must have multiplicity exactly %d" % (p + 1))
        if self.n < p + 1:
            raise ValueError("too few basis functions")

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return len(self.values) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.values[self.degree]), float(self.values[-self.degree - 1])

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (element boundaries)."""
        return distinct(self.values)

    @property
    def n_elems(self) -> int:
        """Number of nonzero knot spans."""
        return len(self.breakpoints) - 1

    def find_span(self, xi):
        """Knot-span index of ``xi`` (one parameter or an array of them)."""
        xi = np.asarray(xi, dtype=float)
        lo, hi = self.domain
        outside = ~((lo - 1e-12 <= xi) & (xi <= hi + 1e-12))
        if np.any(outside):
            raise ValueError("parameter %g outside knot domain [%g, %g]"
                             % (np.ravel(xi[outside])[0], lo, hi))
        xi = np.minimum(np.maximum(xi, lo), hi)
        span = np.searchsorted(self.values, xi, side="right") - 1
        return np.minimum(np.maximum(span, self.degree), self.n - 1)


@dataclass(frozen=True)
class BasisSpan:
    """Nonzero basis functions over one knot span.

    ``table[j, i]`` holds the ``j``-th derivative of the basis function with
    global index ``span_index - p + i``. Row 0 of a rational span sums to one
    (partition of unity); higher rows sum to zero. Evaluated at an array of
    parameters, ``span_index`` and ``table`` gain a leading axis over them.
    """

    span_index: int | np.ndarray
    table: np.ndarray

    @property
    def indices(self) -> np.ndarray:
        p = self.table.shape[-1] - 1
        return np.asarray(self.span_index)[..., None] + np.arange(-p, 1)

    def view(self, xi) -> "BasisSpan":
        """This batch itself, or its only point when ``xi`` is a scalar."""
        if np.ndim(xi):
            return self
        return BasisSpan(int(self.span_index[0]), self.table[0])


def make_open_uniform_knots(p: int, n_elems: int) -> KnotVector:
    """Open uniform knot vector {0 x (p+1), 1, ..., n_elems x (p+1)}."""
    if p < 1 or n_elems < 1:
        raise ValueError("degree and element count must both be >= 1")
    interior = np.arange(1, n_elems)
    vals = np.concatenate([
        np.zeros(p + 1),
        interior,
        np.full(p + 1, float(n_elems)),
    ])
    return KnotVector(vals, p)


def eval_bspline_basis(knots: KnotVector, xi, k: int = 0) -> BasisSpan:
    """Nonzero B-spline basis values and derivatives up to order ``k`` at
    ``xi``, one parameter or a 1-D array of them.

    Cox-de Boor recursion with the triangular derivative scheme (Piegl &
    Tiller, The NURBS Book, A2.2/A2.3), run on all points at once: every
    branch depends on the degree and order only, so each point sees the
    same operations in the same order as it would alone.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    p = knots.degree
    U = knots.values
    span = knots.find_span(x)
    lo, hi = knots.domain
    x = np.minimum(np.maximum(x, lo), hi)
    m = len(x)

    # ndu[j][r]: basis values of degree j and the knot differences; the
    # last axis runs over the points.
    ndu = np.zeros((p + 1, p + 1, m))
    left = np.zeros((p + 1, m))
    right = np.zeros((p + 1, m))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - U[span + 1 - j]
        right[j] = U[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((k + 1, p + 1, m))
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1, m))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for kk in range(1, min(k, p) + 1):
            d = 0.0
            rk = r - kk
            pk = p - kk
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
    # Orders beyond the polynomial degree are identically zero inside a span.
    # A contiguous table keeps the products with it on the BLAS kernels that
    # a single point's table uses, and so their summation order.
    table = np.ascontiguousarray(ders.transpose(2, 0, 1))
    return BasisSpan(span, table).view(xi)


@dataclass(frozen=True)
class NurbsCurve:
    """Weighted 3D NURBS curve over a clamped knot vector."""

    knots: KnotVector
    control_points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "control_points", pts)
        object.__setattr__(self, "weights", w)
        n = self.knots.n
        if pts.shape != (n, 3):
            raise ValueError("expected %d 3D control points, got %r" % (n, pts.shape))
        if w.shape != (n,):
            raise ValueError("expected %d weights" % n)
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def domain(self) -> tuple[float, float]:
        return self.knots.domain


def _rational(curve: NurbsCurve, xi, k: int):
    """B-spline basis at ``xi`` (always batched), the weights of its
    functions, and the derivatives W of the weight sum sum N_i w_i."""
    bspan = eval_bspline_basis(curve.knots, np.atleast_1d(xi), k)
    w = curve.weights[bspan.indices]                    # (m, p+1)
    W = (bspan.table @ w[..., None])[..., 0]            # (m, k+1)
    return bspan, w, W


def _quotient(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Derivatives of X / W from those of X (m, k+1, ...) and W (m, k+1):
    the quotient-rule recurrence of rational curves and bases."""
    out = np.zeros_like(X)
    for j in range(X.shape[1]):
        v = X[:, j].copy()
        for i in range(1, j + 1):
            v -= (comb(j, i) * W[:, i])[:, None] * out[:, j - i]
        out[:, j] = v / W[:, 0, None]
    return out


def eval_nurbs(curve: NurbsCurve, xi, k: int = 0) -> np.ndarray:
    """Point and parametric derivatives of a NURBS curve.

    Returns an array of shape ``(k + 1, 3)`` whose row ``j`` is the ``j``-th
    derivative of the curve with respect to ``xi``, or ``(m, k + 1, 3)`` for
    an array of ``m`` parameters. Rational derivatives use the quotient-rule
    recurrence on the weighted numerator and the weight sum.
    """
    bspan, w, W = _rational(curve, xi, k)
    pw = curve.control_points[bspan.indices] * w[..., None]
    out = _quotient(bspan.table @ pw, W)
    return out if np.ndim(xi) else out[0]


def eval_nurbs_basis(curve: NurbsCurve, xi, k: int = 0) -> BasisSpan:
    """Rational basis functions R_{i,p} and derivatives up to order ``k``."""
    bspan, w, W = _rational(curve, xi, k)
    table = _quotient(bspan.table * w[:, None, :], W)
    return BasisSpan(bspan.span_index, table).view(xi)


def fit_least_squares(xi_samples, points, p: int, n_ctrl: int) -> NurbsCurve:
    """Least-squares B-spline fit (unit weights) through sampled points.

    Sample parameters are mapped affinely onto the open uniform knot domain
    ``[0, n_ctrl - p]``. The normal equations are solved directly; a sample set
    that leaves basis functions inactive raises ``ValueError``.
    """
    xi = np.asarray(xi_samples, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape != (len(xi), 3):
        raise ValueError("points must be (m, 3) matching the parameter samples")
    if n_ctrl <= p:
        raise ValueError("need n_ctrl > degree")
    if n_ctrl > len(xi):
        raise ValueError("more control points than samples")

    knots = make_open_uniform_knots(p, n_ctrl - p)
    lo, hi = knots.domain
    span = xi.max() - xi.min()
    if span <= 0.0:
        raise ValueError("degenerate parameter samples")
    u = lo + (xi - xi.min()) * (hi - lo) / span

    B = np.zeros((len(u), n_ctrl))
    bspan = eval_bspline_basis(knots, u, 0)
    np.put_along_axis(B, bspan.indices, bspan.table[:, 0], axis=1)

    gram = B.T @ B
    if np.any(np.diag(gram) <= 0.0):
        raise ValueError("samples fail to activate every basis function")
    rhs = B.T @ pts
    try:
        ctrl = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("rank-deficient normal matrix") from exc
    if not np.all(np.isfinite(ctrl)):
        raise ValueError("rank-deficient normal matrix")
    return NurbsCurve(knots, ctrl, np.ones(n_ctrl))
