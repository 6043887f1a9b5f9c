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

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import null_space

from .pathgeom import ArclengthMap, PlanPath, build_plan_path, _curvature_terms
from .splines import NurbsCurve, eval_nurbs_basis

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

def strain_operator(curve: NurbsCurve, amap: ArclengthMap, xi: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized-strain operator B at parameter ``xi``.

    Maps the element control values, ordered (ctrl point, field), to the six
    generalized strains (axial, two shear, twist, two bending). Returns
    ``(B, indices)`` where ``indices`` are the supporting control points.
    """
    bspan = eval_nurbs_basis(curve, xi, 1)
    J = amap.jacobian(xi)
    _, kappa, tau, _, _ = _curvature_terms(curve, xi)
    R = bspan.table[0]
    dRds = bspan.table[1] / J
    m = len(R)
    B = np.zeros((6, N_FIELDS * m))
    for i in range(m):
        c = N_FIELDS * i
        B[0, c + F_UT] = dRds[i]
        B[0, c + F_UN] = -kappa * R[i]
        B[1, c + F_UN] = dRds[i]
        B[1, c + F_UT] = kappa * R[i]
        B[1, c + F_UB] = -tau * R[i]
        B[1, c + F_TB] = -R[i]
        B[2, c + F_UB] = dRds[i]
        B[2, c + F_UN] = tau * R[i]
        B[2, c + F_TN] = R[i]
        B[3, c + F_TT] = dRds[i]
        B[3, c + F_TN] = -kappa * R[i]
        B[4, c + F_TN] = dRds[i]
        B[4, c + F_TT] = kappa * R[i]
        B[4, c + F_TB] = -tau * R[i]
        B[5, c + F_TB] = dRds[i]
        B[5, c + F_TN] = -tau * R[i]
    return B, bspan.indices


def element_matrices_iga(section: BeamSection, curve: NurbsCurve,
                         amap: ArclengthMap, elem: int):
    """Stiffness, consistent mass, and self-weight load of one knot span.

    Gauss-Legendre with p + 1 points; self-weight acts in the -b direction.
    Returns ``(K_e, M_e, P_e, indices)``.
    """
    bks = curve.knots.breakpoints
    if not (0 <= elem < len(bks) - 1):
        raise ValueError("element %d outside knot domain" % elem)
    a, b = bks[elem], bks[elem + 1]
    p = curve.degree
    nodes, wts = leggauss(p + 1)
    m = p + 1
    K = np.zeros((N_FIELDS * m, N_FIELDS * m))
    M = np.zeros_like(K)
    P = np.zeros(N_FIELDS * m)
    D = section.stiffness_diag
    rho = section.inertia_diag
    g = 9.81
    idx = None
    for t, w in zip(nodes, wts):
        xi = 0.5 * (a + b) + 0.5 * (b - a) * t
        wq = 0.5 * (b - a) * w
        B, idx = strain_operator(curve, amap, xi)
        J = amap.jacobian(xi)
        K += wq * J * (B.T * D) @ B
        bspan = eval_nurbs_basis(curve, xi, 0)
        R = bspan.table[0]
        N = np.zeros((N_FIELDS, N_FIELDS * m))
        for i in range(m):
            for f in range(N_FIELDS):
                N[f, N_FIELDS * i + f] = R[i]
        M += wq * J * (N.T * rho) @ N
        for i in range(m):
            P[N_FIELDS * i + F_UB] -= wq * J * section.rho_lin * g * R[i]
    return K, M, P, idx


# ----------------------------------------------------------------------------
# Classical frame kind
# ----------------------------------------------------------------------------

def _hermite(x: float, ell: float, order: int) -> np.ndarray:
    """Cubic Hermite shape functions (w_a, slope_a, w_b, slope_b) and
    derivatives with respect to x."""
    t = x / ell
    if order == 0:
        return np.array([
            1 - 3 * t ** 2 + 2 * t ** 3,
            ell * (t - 2 * t ** 2 + t ** 3),
            3 * t ** 2 - 2 * t ** 3,
            ell * (-t ** 2 + t ** 3),
        ])
    if order == 1:
        return np.array([
            (-6 * t + 6 * t ** 2) / ell,
            1 - 4 * t + 3 * t ** 2,
            (6 * t - 6 * t ** 2) / ell,
            -2 * t + 3 * t ** 2,
        ])
    if order == 2:
        return np.array([
            (-6 + 12 * t) / ell ** 2,
            (-4 + 6 * t) / ell,
            (6 - 12 * t) / ell ** 2,
            (-2 + 6 * t) / ell,
        ])
    raise ValueError("order must be 0, 1, or 2")


def _linear(x: float, ell: float, order: int) -> np.ndarray:
    if order == 0:
        return np.array([1 - x / ell, x / ell])
    if order == 1:
        return np.array([-1.0 / ell, 1.0 / ell])
    return np.zeros(2)


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

class _NurbsShape:
    """Shape-function provider: all six fields share the rational basis."""

    def __init__(self, curve: NurbsCurve, amap: ArclengthMap):
        self.curve = curve
        self.amap = amap
        self.n_full = N_FIELDS * curve.knots.n

    def rows(self, s: float, fields, k: int) -> np.ndarray:
        """(k + 1, len(fields), n_full) rows of each field and its first
        ``k`` <= 2 arclength derivatives, from one basis evaluation."""
        xi = self.amap.xi_of_s(s)
        bspan = eval_nurbs_basis(self.curve, xi, k)
        vals = [bspan.table[0]]
        if k >= 1:
            J = self.amap.jacobian(xi)
            vals.append(bspan.table[1] / J)
        if k >= 2:
            Jp = self.amap.jacobian_prime(xi)
            vals.append(bspan.table[2] / J ** 2 - bspan.table[1] * Jp / J ** 3)
        rows = np.zeros((k + 1, len(fields), self.n_full))
        cols = N_FIELDS * bspan.indices
        for j, f in enumerate(fields):
            rows[:, j, cols + f] = vals
        return rows


class _FemShape:
    """Shape-function provider for the nodal kind (Hermite / linear)."""

    def __init__(self, s_nodes: np.ndarray):
        self.s_nodes = np.asarray(s_nodes, dtype=float)
        self.n_full = N_FIELDS * len(self.s_nodes)

    def _locate(self, s: float):
        sn = self.s_nodes
        if not (sn[0] - 1e-9 <= s <= sn[-1] + 1e-9):
            raise ValueError("arclength %g outside the mesh" % s)
        e = int(np.searchsorted(sn, min(max(s, sn[0]), sn[-1]), side="right")) - 1
        e = min(max(e, 0), len(sn) - 2)
        return e, s - sn[e], sn[e + 1] - sn[e]

    def rows(self, s: float, fields, k: int) -> np.ndarray:
        """(k + 1, len(fields), n_full) rows of each field and its first
        ``k`` arclength derivatives."""
        e, x, ell = self._locate(s)
        rows = np.zeros((k + 1, len(fields), self.n_full))
        for order in range(k + 1):
            for j, f in enumerate(fields):
                dofs, vals = _fem_field(f, x, ell, order)
                rows[order, j, N_FIELDS * e + dofs] = vals
        return rows


def _fem_field(f: int, x: float, ell: float, order: int):
    """DOFs over an element's two nodes, and their shape values, of field f."""
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
    """Assembled bridge: reduced matrices plus the full-DOF shape provider."""

    kind: str
    section: BeamSection
    shape: object
    length: float
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Z: np.ndarray

    @property
    def n_full(self) -> int:
        return self.shape.n_full

    @property
    def n_red(self) -> int:
        return self.Z.shape[1]

    def probe_rows(self, s: float) -> np.ndarray:
        """2 x n_red rows for (u_n, u_b) at ``s`` in reduced coordinates."""
        return self.shape.rows(s, (F_UN, F_UB), 0)[0] @ self.Z


def _default_supports(joints: np.ndarray):
    sup = []
    for i, s in enumerate(joints):
        if i == 0 or i == len(joints) - 1:
            sup.append((float(s), tuple(range(6))))
        else:
            sup.append((float(s), (F_UN, F_UB, F_TT)))
    return sup


def assemble_bridge(path: PlanPath, section: BeamSection, kind: str = "nurbs",
                    degree: int = 3, elems_per_span: int = 8,
                    supports=None, rayleigh=(0.0, 0.0)) -> BridgeSystem:
    """Assemble the global bridge system and apply boundary conditions.

    ``supports`` is a list of (arclength, fixed field indices); by default the
    ends are fully fixed and every interior span joint restrains transverse,
    vertical, and torsion fields. Constraints are removed by a null-space
    reduction of the point-evaluation rows, which for nodal bases degenerates
    to classical row/column elimination.
    """
    spec = path.spec
    joints = spec.joints
    if supports is None:
        supports = _default_supports(joints)

    if kind == "nurbs":
        geo = build_plan_path(spec, ctrl_per_span=elems_per_span, p=degree)
        shape = _NurbsShape(geo.curve, geo.amap)
        length = geo.amap.length
        nfull = shape.n_full
        M = np.zeros((nfull, nfull))
        K = np.zeros((nfull, nfull))
        P = np.zeros(nfull)
        for e in range(geo.curve.knots.n_elems):
            Ke, Me, Pe, idx = element_matrices_iga(section, geo.curve, geo.amap, e)
            dofs = np.concatenate([N_FIELDS * i + np.arange(N_FIELDS) for i in idx])
            M[np.ix_(dofs, dofs)] += Me
            K[np.ix_(dofs, dofs)] += Ke
            P[dofs] += Pe
    elif kind == "fem":
        s_nodes = np.concatenate([
            np.linspace(joints[i], joints[i + 1], elems_per_span + 1)[(1 if i else 0):]
            for i in range(len(spec.spans))])
        shape = _FemShape(s_nodes)
        length = float(s_nodes[-1])
        nfull = shape.n_full
        M = np.zeros((nfull, nfull))
        K = np.zeros((nfull, nfull))
        P = np.zeros(nfull)
        for e in range(len(s_nodes) - 1):
            ell = s_nodes[e + 1] - s_nodes[e]
            Ke, Me, Pe = _fem_local(section, ell)
            dofs = np.arange(N_FIELDS * e, N_FIELDS * (e + 2))
            M[np.ix_(dofs, dofs)] += Me
            K[np.ix_(dofs, dofs)] += Ke
            P[dofs] += Pe
    else:
        raise ValueError("unknown bridge kind %r" % kind)

    rows = []
    for s, fields in supports:
        if not (0.0 <= s <= length + 1e-9):
            raise ValueError("support at s=%g is not on the path" % s)
        if not all(0 <= f < N_FIELDS for f in fields):
            raise ValueError("support field indices %s outside 0..5"
                             % list(fields))
        rows.extend(shape.rows(min(s, length), fields, 0)[0])
    Z = null_space(np.array(rows)) if rows else np.eye(nfull)

    a0, a1 = rayleigh
    Mr = Z.T @ M @ Z
    Kr = Z.T @ K @ Z
    Cr = a0 * Mr + a1 * Kr
    Pr = Z.T @ P
    return BridgeSystem(
        kind=kind, section=section, shape=shape, length=length,
        M=Mr, C=Cr, K=Kr, P=Pr, Z=Z)
