"""Bridge discretizations: isogeometric curved Timoshenko beams and classical
Hermitian frame elements.

Both kinds carry six fields per control point / node, ordered
(u_t, u_n, u_b, th_t, th_n, th_b) in the Frenet field basis along the path.
The isogeometric kind uses the same NURBS basis for geometry and solution;
the FEM kind treats each element as straight (curvature ignored inside
elements), which is exactly the approximation that loses inter-element
curvature continuity on curved paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .pathgeom import (ArclengthMap, PlanPath, build_plan_path, ipow,
                       _curvature_terms)
from ._lapack import svd
from .splines import NurbsCurve, distinct, eval_nurbs_basis

__all__ = [
    "BeamSection",
    "BridgeSystem",
    "strain_operator",
    "element_matrices_iga",
    "element_matrices_fem",
    "assemble_bridge",
]

N_FIELDS = 6
F_UT, F_UN, F_UB, F_TT, F_TN, F_TB = range(6)
# Bytes of each temporary of an elementwise formula over n_red^2 arrays
# formed a panel at a time (``panels``).
PANEL_BYTES = 1 << 18


def panels(n: int, line_bytes: int) -> list:
    """Slices of n lines, each panel of them at most PANEL_BYTES (or one
    line, if a line takes more)."""
    step = max(1, PANEL_BYTES // max(1, line_bytes))
    return [slice(i, i + step) for i in range(0, n, step)]


@dataclass(frozen=True)
class BeamSection:
    """Material and section constants of the bridge beam.

    ``rho_lin`` is the mass per unit length (ballast included); the rotary
    inertia block uses rho_lin / A times the area moments.
    """

    E: float = 28.25e9
    G: float = 1.0e12       # unusually large: puts the beam in the shear-rigid regime
    A: float = 7.73
    A_n: float | None = None
    A_b: float | None = None
    I_t: float = 15.65
    I_n: float = 7.84
    I_b: float = 74.42
    rho_lin: float = 41740.0

    def __post_init__(self):
        if self.A_n is None:
            object.__setattr__(self, "A_n", self.A)
        if self.A_b is None:
            object.__setattr__(self, "A_b", self.A)
        for name in ("E", "G", "A", "A_n", "A_b", "I_t", "I_n", "I_b", "rho_lin"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive" % name)

    @property
    def stiffness_diag(self) -> np.ndarray:
        return np.array([
            self.E * self.A, self.G * self.A_n, self.G * self.A_b,
            self.G * self.I_t, self.E * self.I_n, self.E * self.I_b,
        ])

    @property
    def inertia_diag(self) -> np.ndarray:
        r = self.rho_lin
        ri = r / self.A
        return np.array([r, r, r, ri * self.I_t, ri * self.I_n, ri * self.I_b])


# ----------------------------------------------------------------------------
# Isogeometric kind
# ----------------------------------------------------------------------------

def strain_operator(curve: NurbsCurve, amap: ArclengthMap,
                    xi) -> tuple[np.ndarray, np.ndarray]:
    """Generalized-strain operator B at parameter ``xi``, or stacked at each
    of an array of parameters.

    Maps the element control values, ordered (ctrl point, field), to the six
    generalized strains (axial, two shear, twist, two bending). Returns
    ``(B, indices)`` where ``indices`` are the supporting control points.
    """
    x = np.atleast_1d(xi)
    bspan = eval_nurbs_basis(curve, x, 1)
    J = amap.jacobian(x)
    _, kappa, tau, _, _ = _curvature_terms(curve, x)
    R = bspan.table[:, 0]
    dRds = bspan.table[:, 1] / J[:, None]
    kR, tR = kappa[:, None] * R, tau[:, None] * R
    B = np.zeros((len(x), 6, N_FIELDS * R.shape[1]))
    for row, field, value in (
            (0, F_UT, dRds), (0, F_UN, -kR),
            (1, F_UN, dRds), (1, F_UT, kR), (1, F_UB, -tR), (1, F_TB, -R),
            (2, F_UB, dRds), (2, F_UN, tR), (2, F_TN, R),
            (3, F_TT, dRds), (3, F_TN, -kR),
            (4, F_TN, dRds), (4, F_TT, kR), (4, F_TB, -tR),
            (5, F_TB, dRds), (5, F_TN, -tR)):
        B[:, row, field::N_FIELDS] = value
    if np.ndim(xi):
        return B, bspan.indices
    return B[0], bspan.indices[0]


def element_matrices_iga(section: BeamSection, curve: NurbsCurve,
                         amap: ArclengthMap, elem):
    """Stiffness, consistent mass, and self-weight load of one knot span,
    or stacked for each of an array of them.

    Gauss-Legendre with p + 1 points; self-weight acts in the -b direction.
    Returns ``(K_e, M_e, P_e, indices)``, each with a leading axis over the
    elements when ``elem`` is an array. The strain operator, jacobian and
    basis come from one evaluation at every element's Gauss points. The
    integrals are then summed point by point, each point's products formed
    for every element at once: one stacked matmul per point and matrix,
    which calls each element's own gemm, so every element has the bits of
    a loop over its points.
    """
    bks = curve.knots.breakpoints
    el = np.atleast_1d(elem)
    outside = (el < 0) | (el >= len(bks) - 1)
    if np.any(outside):
        raise ValueError("element %d outside knot domain" % el[outside][0])
    a, b = bks[el][:, None], bks[el + 1][:, None]
    p = curve.degree
    nodes, wts = leggauss(p + 1)
    m = p + 1
    K = np.zeros((len(el), N_FIELDS * m, N_FIELDS * m))
    M = np.zeros_like(K)
    P = np.zeros((len(el), N_FIELDS * m))
    D = section.stiffness_diag
    rho = section.inertia_diag
    g = 9.81
    xi = (0.5 * (a + b) + 0.5 * (b - a) * nodes).ravel()
    B_q, idx = strain_operator(curve, amap, xi)
    # Weight times jacobian, strain operator and basis, by element (axis 0)
    # and Gauss point (axis 1).
    wJ = ((0.5 * (b - a) * wts).ravel() * amap.jacobian(xi)).reshape(-1, m)
    B_q = B_q.reshape(len(el), m, *B_q.shape[1:])
    R_q = eval_nurbs_basis(curve, xi, 0).table[:, 0].reshape(len(el), m, m)
    N = np.zeros((len(el), N_FIELDS, N_FIELDS * m))
    for q in range(m):
        c, B, R = wJ[:, q, None, None], B_q[:, q], R_q[:, q]
        K += c * (np.swapaxes(B, 1, 2) * D) @ B
        for f in range(N_FIELDS):
            N[:, f, f::N_FIELDS] = R
        M += c * (np.swapaxes(N, 1, 2) * rho) @ N
        P[:, F_UB::N_FIELDS] -= c[:, 0] * section.rho_lin * g * R
    idx = idx[m - 1::m]
    if np.ndim(elem):
        return K, M, P, idx
    return K[0], M[0], P[0], idx[0]


# ----------------------------------------------------------------------------
# Classical frame kind
# ----------------------------------------------------------------------------

def _hermite(x: np.ndarray, ell: np.ndarray, order: int) -> np.ndarray:
    """Cubic Hermite shape functions (w_a, slope_a, w_b, slope_b) and
    derivatives with respect to x, one row per entry of x."""
    t = x / ell
    t2, t3 = ipow(t, 2), ipow(t, 3)
    if order == 0:
        cols = (1 - 3 * t2 + 2 * t3,
                ell * (t - 2 * t2 + t3),
                3 * t2 - 2 * t3,
                ell * (-t2 + t3))
    elif order == 1:
        cols = ((-6 * t + 6 * t2) / ell,
                1 - 4 * t + 3 * t2,
                (6 * t - 6 * t2) / ell,
                -2 * t + 3 * t2)
    elif order == 2:
        ell2 = ipow(ell, 2)
        cols = ((-6 + 12 * t) / ell2,
                (-4 + 6 * t) / ell,
                (6 - 12 * t) / ell2,
                (-2 + 6 * t) / ell)
    else:
        raise ValueError("order must be 0, 1, or 2")
    return np.stack(cols, axis=-1)


def _linear(x: np.ndarray, ell: np.ndarray, order: int) -> np.ndarray:
    if order == 0:
        return np.stack((1 - x / ell, x / ell), axis=-1)
    if order == 1:
        return np.stack((-1.0 / ell, 1.0 / ell), axis=-1)
    return np.zeros(np.shape(x) + (2,))


def _fem_local(section: BeamSection, ell: float):
    """12x12 local frame element (field order per node) and self-weight load."""
    if ell <= 0.0:
        raise ValueError("zero-length element")
    K = np.zeros((12, 12))
    M = np.zeros((12, 12))
    P = np.zeros(12)
    r = section.rho_lin
    # Axial and torsion (linear shapes).
    for f, k_ax, m_ax in ((F_UT, section.E * section.A / ell, r * ell / 6.0),
                          (F_TT, section.G * section.I_t / ell,
                           r * section.I_t / section.A * ell / 6.0)):
        ii = [f, 6 + f]
        K[np.ix_(ii, ii)] += k_ax * np.array([[1.0, -1.0], [-1.0, 1.0]])
        M[np.ix_(ii, ii)] += m_ax * np.array([[2.0, 1.0], [1.0, 2.0]])
    # Bending blocks (Hermitian cubic, consistent mass).
    k4 = np.array([
        [12, 6 * ell, -12, 6 * ell],
        [6 * ell, 4 * ell ** 2, -6 * ell, 2 * ell ** 2],
        [-12, -6 * ell, 12, -6 * ell],
        [6 * ell, 2 * ell ** 2, -6 * ell, 4 * ell ** 2],
    ]) / ell ** 3
    m4 = r * ell / 420.0 * np.array([
        [156, 22 * ell, 54, -13 * ell],
        [22 * ell, 4 * ell ** 2, 13 * ell, -3 * ell ** 2],
        [54, 13 * ell, 156, -22 * ell],
        [-13 * ell, -3 * ell ** 2, -22 * ell, 4 * ell ** 2],
    ])
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    # In-plane bending: (u_n, th_b), slope = +th_b, inertia I_b.
    ii = [F_UN, F_TB, 6 + F_UN, 6 + F_TB]
    K[np.ix_(ii, ii)] += section.E * section.I_b * k4
    M[np.ix_(ii, ii)] += m4
    # Out-of-plane bending: (u_b, th_n), slope = -th_n, inertia I_n.
    ii = [F_UB, F_TN, 6 + F_UB, 6 + F_TN]
    K[np.ix_(ii, ii)] += section.E * section.I_n * flip @ k4 @ flip
    M[np.ix_(ii, ii)] += flip @ m4 @ flip
    # Self-weight in -b.
    q = -r * 9.81
    P[[F_UB, F_TN, 6 + F_UB, 6 + F_TN]] += np.array(
        [q * ell / 2.0, -q * ell ** 2 / 12.0, q * ell / 2.0, q * ell ** 2 / 12.0])
    return K, M, P


def element_matrices_fem(section: BeamSection, node_a, node_b):
    """12x12 frame element between two 3D nodes, rotated to global axes.

    Local x runs along the chord; local z follows global up (projected), and
    the per-node DOF order is (3 translations, 3 rotations) matching the
    field order of the bridge.
    """
    pa = np.asarray(node_a, dtype=float)
    pb = np.asarray(node_b, dtype=float)
    d = pb - pa
    ell = float(np.linalg.norm(d))
    if ell <= 0.0:
        raise ValueError("zero-length element")
    K, M, P = _fem_local(section, ell)
    ex = d / ell
    up = np.array([0.0, 0.0, 1.0])
    ez = up - (up @ ex) * ex
    if np.linalg.norm(ez) < 1e-9:
        ez = np.array([1.0, 0.0, 0.0]) - ex[0] * ex
    ez /= np.linalg.norm(ez)
    ey = np.cross(ez, ex)
    R = np.column_stack([ex, ey, ez])
    Lam = np.zeros((12, 12))
    for blk in range(4):
        Lam[3 * blk:3 * blk + 3, 3 * blk:3 * blk + 3] = R
    return Lam @ K @ Lam.T, Lam @ M @ Lam.T, Lam @ P


# ----------------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------------

class FieldRows(NamedTuple):
    """Rows of some bridge fields and of their first k arclength
    derivatives at m positions, over the full DOFs, stored compactly.

    At position i the rows are nonzero only in the DOFs
    ``first[i] + window``. There, the row of field j and order o holds
    ``vals[i, o, place[j]]``. The last entry of ``vals`` is a zero, which
    ``place`` -1 selects.
    """

    first: np.ndarray    # (m,) int
    vals: np.ndarray     # (m, k + 1, n_vals + 1)
    window: np.ndarray   # (w,) int, increasing
    place: np.ndarray    # (n_fields, w) int
    n_full: int

    def block(self, i) -> np.ndarray:
        """(k + 1, n_fields, w) rows over the window of position(s) i."""
        return self.vals[i][..., self.place]

    def dense(self) -> np.ndarray:
        """(m, k + 1, n_fields, n_full) rows."""
        blocks = self.block(slice(None))
        out = np.zeros(blocks.shape[:-1] + (self.n_full,))
        cols = (self.first[:, None] + self.window)[:, None, None, :]
        np.put_along_axis(out, np.broadcast_to(cols, blocks.shape), blocks,
                          axis=-1)
        return out

    def reduced(self, i, Z) -> np.ndarray:
        """(k + 1, n_fields, n_red) rows of position i times Z, or for an
        index array i those of each position stacked: one product per
        order over the window's rows of Z, in one stacked matmul per run of
        positions with the same first DOF. Z is a dense array or a
        ``BasisRows``; either gives its dense rows for an index array. The
        window keeps the DOF order of the full rows, and the full-row
        product L @ Z gives the same bits (tests/test_batched.py) unless
        OpenBLAS splits its sum at a block edge: on the default plan at 64
        elements per span, the rows at the joints 30 and 90 m differ by
        about 1e-38 of their largest entry."""
        idx = np.atleast_1d(i)
        blocks, first = self.block(idx), self.first[idx]
        out = np.empty(blocks.shape[:-1] + Z.shape[1:])
        cuts = [0, *(np.flatnonzero(np.diff(first)) + 1).tolist(), len(idx)]
        for a, b in zip(cuts, cuts[1:]):
            np.matmul(blocks[a:b], Z[first[a] + self.window], out=out[a:b])
        return out if np.ndim(i) else out[0]


class BasisRows:
    """A dense matrix kept by the entries of its rows whose bits are not
    all zero, so a -0.0 is kept and a +0.0 is not. ``basis[rows]``, for an
    index array, returns those dense rows bit for bit.

    A null-space basis from supports is 0.1% nonzero (1,146 entries in
    978 x 954 at 32 elements per span), and most of its rows hold a single
    +-1. So a lookup writes each row's one entry into zeros, in one
    scatter, and then copies in the few rows with more than one entry,
    which are kept dense: about the cost of indexing the dense matrix.
    """

    def __init__(self, dense: np.ndarray):
        n = len(dense)
        self.shape = dense.shape
        rows, cols = np.nonzero(dense.view(np.int64))
        # Each row's entry; a row without one writes a +0.0 in column 0.
        self._col = np.zeros(n, dtype=np.intp)
        self._col[rows] = cols
        self._val = np.zeros(n)
        self._val[rows] = dense[rows, cols]
        multi = np.flatnonzero(np.bincount(rows, minlength=n) > 1)
        self._multi = dense[multi]
        self._slot = np.full(n, -1)
        self._slot[multi] = np.arange(len(multi))

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        n_red = self.shape[1]
        out = np.zeros((len(rows), n_red))
        if not out.size:
            return out
        # Each row's entry, at its column of the row's start in flat out.
        starts = np.arange(0, out.size, n_red)
        out.ravel()[starts + self._col[rows]] = self._val[rows]
        slot = self._slot[rows]
        hit = np.flatnonzero(slot >= 0)
        if len(hit):
            out[hit] = self._multi[slot[hit]]
        return out


def _zero_padded(vals: np.ndarray) -> np.ndarray:
    """``vals`` of FieldRows with the zero that ``place`` -1 selects."""
    return np.concatenate([vals, np.zeros(vals.shape[:-1] + (1,))], axis=-1)


def _layout(offsets, value_index):
    """Window and placement of FieldRows from each field's DOF offsets
    (relative to ``first``) and the entries of ``vals`` they hold."""
    window = distinct(np.concatenate(offsets))
    place = np.full((len(offsets), len(window)), -1)
    for j, (off, idx) in enumerate(zip(offsets, value_index)):
        place[j, np.searchsorted(window, off)] = idx
    return window, place


class _NurbsShape:
    """Shape-function provider: all six fields share the rational basis."""

    def __init__(self, curve: NurbsCurve, amap: ArclengthMap):
        self.curve = curve
        self.amap = amap
        self.n_full = N_FIELDS * curve.knots.n

    def rows(self, s, fields, k: int) -> FieldRows:
        """Rows of each field and its first ``k`` <= 2 arclength
        derivatives at the arclengths ``s`` (a scalar or an array), from
        one basis evaluation; ``vals`` holds the p + 1 basis values."""
        xi = self.amap.xi_of_s(np.atleast_1d(s))
        bspan = eval_nurbs_basis(self.curve, xi, k)
        tab = bspan.table
        vals = tab.copy()
        if k >= 1:
            J = self.amap.jacobian(xi)[:, None]
            vals[:, 1] = tab[:, 1] / J
        if k >= 2:
            Jp = self.amap.jacobian_prime(xi)[:, None]
            vals[:, 2] = tab[:, 2] / ipow(J, 2) - tab[:, 1] * Jp / ipow(J, 3)
        ctrl = np.arange(self.curve.degree + 1)
        window, place = _layout([N_FIELDS * ctrl + f for f in fields],
                                [ctrl] * len(fields))
        return FieldRows(N_FIELDS * bspan.indices[:, 0], _zero_padded(vals),
                         window, place, self.n_full)


class _FemShape:
    """Shape-function provider for the nodal kind (Hermite / linear)."""

    def __init__(self, s_nodes: np.ndarray):
        self.s_nodes = np.asarray(s_nodes, dtype=float)
        self.n_full = N_FIELDS * len(self.s_nodes)

    def _locate(self, s: np.ndarray):
        sn = self.s_nodes
        outside = ~((sn[0] - 1e-9 <= s) & (s <= sn[-1] + 1e-9))
        if np.any(outside):
            raise ValueError("arclength %g outside the mesh" % s[outside][0])
        e = np.searchsorted(sn, np.minimum(np.maximum(s, sn[0]), sn[-1]),
                            side="right") - 1
        e = np.clip(e, 0, len(sn) - 2)
        return e, s - sn[e], sn[e + 1] - sn[e]

    def rows(self, s, fields, k: int) -> FieldRows:
        """Rows of each field and its first ``k`` arclength derivatives at
        the arclengths ``s``; ``vals`` holds each field's shape values in
        turn."""
        e, x, ell = self._locate(np.atleast_1d(np.asarray(s, dtype=float)))
        offsets, value_index, vals = [], [], []
        for f in fields:
            dofs, v = zip(*(_fem_field(f, x, ell, order)
                            for order in range(k + 1)))
            value_index.append(sum(len(d) for d in offsets)
                               + np.arange(len(dofs[0])))
            offsets.append(dofs[0])
            vals.append(np.stack(v, axis=1))
        window, place = _layout(offsets, value_index)
        return FieldRows(N_FIELDS * e,
                         _zero_padded(np.concatenate(vals, axis=-1)), window,
                         place, self.n_full)


def _fem_field(f: int, x: np.ndarray, ell: np.ndarray, order: int):
    """DOFs over an element's two nodes of field f, and their shape values
    (one row per entry of x)."""
    if f in (F_UT, F_TT):
        return np.array([f, 6 + f]), _linear(x, ell, order)
    flip = np.array([1.0, -1.0, 1.0, -1.0])
    if f == F_UN:
        return (np.array([F_UN, F_TB, 6 + F_UN, 6 + F_TB]),
                _hermite(x, ell, order))
    if f == F_UB:
        return (np.array([F_UB, F_TN, 6 + F_UB, 6 + F_TN]),
                _hermite(x, ell, order) * flip)
    # Rotation fields th_n / th_b ride on the bending slopes.
    if f == F_TN:
        return (np.array([F_UB, F_TN, 6 + F_UB, 6 + F_TN]),
                -_hermite(x, ell, order + 1) * flip)
    return (np.array([F_UN, F_TB, 6 + F_UN, 6 + F_TB]),
            _hermite(x, ell, order + 1))


@dataclass
class BridgeSystem:
    """Assembled bridge: reduced matrices plus the full-DOF shape provider.

    An undamped bridge's C is a read-only zero view with strides (0, 0).
    The null-space basis Z is kept by its rows (``BasisRows``); ``Z[rows]``
    and ``Z.shape`` are all that is read of it, so a dense array serves too.
    """

    kind: str
    section: BeamSection
    shape: object
    length: float
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Z: BasisRows

    @property
    def n_full(self) -> int:
        return self.shape.n_full

    @property
    def n_red(self) -> int:
        return self.Z.shape[1]

    def probe_rows(self, s: float) -> np.ndarray:
        """2 x n_red rows for (u_n, u_b) at ``s`` in reduced coordinates,
        reduced over the rows' window, so that no n_full-long numpy product
        runs (see ``integrators``). Like a support's, the rows of a probe
        beyond the fit's end are taken there (``assemble_bridge``)."""
        return self.shape.rows(min(s, self.length), (F_UN, F_UB),
                               0).reduced(0, self.Z)[0]


def _default_supports(joints: np.ndarray):
    sup = []
    for i, s in enumerate(joints):
        if i == 0 or i == len(joints) - 1:
            sup.append((float(s), tuple(range(6))))
        else:
            sup.append((float(s), (F_UN, F_UB, F_TT)))
    return sup


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of support rows, as
    ``scipy.linalg.null_space`` forms it, bits and strides: the right
    singular vectors past the singular values above eps * max(m, n) * s_max,
    taken from the Fortran-ordered v^T that dgesdd writes (``_lapack.svd``).
    Its strides pick the kernel of the reductions' matmul, and so their
    bits."""
    m, n = rows.shape
    s, vt = svd(rows)
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(m, n))
    return vt[np.sum(s > tol, dtype=int):].T


def _summed(values: np.ndarray, dofs: np.ndarray, n: int) -> np.ndarray:
    """The full n-vector, or n x n matrix, that sums each element's vector
    or matrix of ``values`` on its ``dofs``, in one ``np.add.at``, which
    adds in element order: the bits of adding one element at a time."""
    out = np.zeros((n,) * (values.ndim - 1))
    index = dofs if values.ndim == 2 else dofs[:, :, None] * n + dofs[:, None]
    np.add.at(out.reshape(-1), index, values)
    return out


def _reduced(Z: np.ndarray, elements: np.ndarray,
             dofs: np.ndarray) -> np.ndarray:
    """Z^T A Z, where the full matrix A sums the element matrices on their
    DOFs, formed as (Z^T A) Z with A freed before the second product."""
    A = _summed(elements, dofs, len(Z))
    T = Z.T @ A
    del A
    return T @ Z


def assemble_bridge(path: PlanPath, section: BeamSection, kind: str = "nurbs",
                    degree: int = 3, elems_per_span: int = 8,
                    supports=None, rayleigh=(0.0, 0.0)) -> BridgeSystem:
    """Assemble the global bridge system and apply boundary conditions.

    ``supports`` is a list of (arclength, fixed field indices); by default the
    ends are fully fixed and every interior span joint restrains transverse,
    vertical, and torsion fields. Constraints are removed by a null-space
    reduction of the point-evaluation rows, which for nodal bases degenerates
    to classical row/column elimination.

    At most three n_full^2-sized arrays are alive at once: the dense basis
    Z, a full matrix and Z^T times it while M is reduced, then Z, Z^T K and
    the reduced K while reduced M is kept by its stored entries, and at the
    end reduced M and K and Z, which is then kept by its rows
    (``BasisRows``). A damped bridge's C is formed in panels, so it adds
    only itself.
    """
    spec = path.spec
    joints = spec.joints
    if supports is None:
        supports = _default_supports(joints)

    # Each element's stiffness, mass and load, and its nodes.
    if kind == "nurbs":
        geo = build_plan_path(spec, ctrl_per_span=elems_per_span, p=degree)
        shape = _NurbsShape(geo.curve, geo.amap)
        length = geo.amap.length
        K_e, M_e, P_e, nodes = element_matrices_iga(
            section, geo.curve, geo.amap, np.arange(geo.curve.knots.n_elems))
    elif kind == "fem":
        s_nodes = np.concatenate([
            np.linspace(joints[i], joints[i + 1], elems_per_span + 1)[(1 if i else 0):]
            for i in range(len(spec.spans))])
        shape = _FemShape(s_nodes)
        length = float(s_nodes[-1])
        K_e, M_e, P_e = map(np.array, zip(*(
            _fem_local(section, ell) for ell in np.diff(s_nodes))))
        nodes = np.arange(len(K_e))[:, None] + np.arange(2)
    else:
        raise ValueError("unknown bridge kind %r" % kind)
    dofs = (N_FIELDS * nodes[:, :, None]
            + np.arange(N_FIELDS)).reshape(len(nodes), -1)

    # A support up to the path's exact end is on the path: a NURBS fit of
    # a tight arc ends short of it (1.5e-7 m at R 50), and the support's
    # rows are taken at the fit's end.
    end = max(length, joints[-1]) + 1e-9
    rows = []
    for s, fields in supports:
        if not (0.0 <= s <= end):
            raise ValueError("support at s=%g is not on the path" % s)
        if not all(0 <= f < N_FIELDS for f in fields):
            raise ValueError("support field indices %s outside 0..5"
                             % list(fields))
        rows.extend(shape.rows(min(s, length), fields, 0).dense()[0, 0])
    Z = _null_space(np.array(rows)) if rows else np.eye(shape.n_full)

    P = _summed(P_e, dofs, shape.n_full)

    Mr = _reduced(Z, M_e, dofs)
    # Reduced M is kept by its stored entries while K is reduced.
    stored = np.flatnonzero(Mr.view(np.int64))
    values = Mr.ravel()[stored]
    del Mr, M_e
    Kr = _reduced(Z, K_e, dofs)
    del K_e
    Mr = np.zeros_like(Kr)
    Mr.ravel()[stored] = values
    Pr = Z.T @ P
    Z = BasisRows(Z)

    a0, a1 = rayleigh
    if a0 or a1:
        # a0 M + a1 K, a panel of rows at a time; damping that overflows
        # names its key.
        try:
            with np.errstate(over="raise"):
                Cr = np.multiply(a0, Mr)
                for lines in panels(len(Cr), Cr.strides[0]):
                    Cr[lines] += a1 * Kr[lines]
        except FloatingPointError:
            raise RuntimeError("bridge.rayleigh %s overflows the damping "
                               "matrix a0 M + a1 K" % list(rayleigh)) from None
    else:
        # Undamped: a read-only zero view, which holds no n_red^2 buffer.
        Cr = np.broadcast_to(0.0, Mr.shape)
    return BridgeSystem(
        kind=kind, section=section, shape=shape, length=length,
        M=Mr, C=Cr, K=Kr, P=Pr, Z=Z)
