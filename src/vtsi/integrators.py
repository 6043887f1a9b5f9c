"""Time stepping of the coupled train-bridge DAE.

Three interchangeable strategies:

* ``A`` - generalized-alpha on the index-3 system, displacement constraint
  enforced at the end of the step;
* ``B`` - Newmark with the constraint enforced at acceleration level
  (displacement drift is expected and can be repaired periodically);
* ``C`` - Newmark on the index-3 system with wheel velocity and acceleration
  projected onto the differentiated constraints after every step.

The strategies differ only in the level at which the time-varying coupling
rows enter the step system, and the model supplies those rows from one
source: ``CoupledModel.reduced_at``, a ``coupling.ConstraintTable``. The
model's callables take an array of instants and return one entry per
instant. A run knows every instant before its first step (t_{n+1} = t_n +
dt, accumulated, and the collocation instant t_f between t_n and t_{n+1}),
and one generator, ``Stepper.blocks``, schedules them: it calls each
callable once per chunk of whole blocks of steps, on the chunk's instants,
at most TABLE_BLOCK of them, so no table grows with the run, and yields
each block's operators. A direct ``Stepper.step`` takes the first block of
a run of one step. The t_{n+1} constraint travels with the new state as
``CoupledState.con``, so projection, displacement repair, and the residual
record read it there.

What a step uses that depends only on its index is tabulated ahead of it,
a block of steps at a time (``Stepper.tabulate``): the coupling rows of
each distinct instant, reduced through Z by stacked matmuls; the
constraint rows C_b; the Schur columns Y = A_b^-1 Lf^T; C_b Y, in one
stacked matmul; the reduced (a_t, lam) matrix; and, with an axle load, the
bridge load. The step itself forms the predictors and the residuals, makes
one one-column bridge solve, and solves a copy of the tabulated matrix. A
direct ``Stepper.step`` tabulates a block of one step, so every step runs
the same code. A block is sized by bytes, at most STEP_TABLE_BYTES (at
n_red 234, 12 steps under Newmark and 9 under generalized-alpha; from 954
on, 3), since a run's peak memory is reached while it steps. It holds a
multiple of three steps: the Schur columns of three steps, 9 columns, are
one getrs call, on one 9-column buffer whose columns past those in use
are zero. A wider call costs less per column, though far from in
proportion: with 1 thread, 1 column took 15 us at n_red 234 and 314 us at
954, and 9 columns 106 us and 1.35 ms (medians of 300 calls on a 2-core
x86-64 machine). But from n_red 474 on OpenBLAS's trsm rounds differently
above 9 columns with 1 thread (above 21 with 2). Up to 9, each column in
use has the bits of a solve of those columns alone (tests/test_lapack.py),
so every operator has the bits of a block of one step, and a run's output
does not depend on its blocks.

A run also records a block of steps at once. Each step writes its new ut,
vt, at and lam straight into the time history's rows, and its new ub, vb
and ab into a buffer of the block's steps (counted in the block's bytes).
After the block, one stacked product per probe and level forms the probe
columns, ``constraint_residuals`` forms every step's three residuals from
the block's constraints in stacked products, and one ``isfinite`` over the
block's rows names the first step whose state is not finite. A stacked
matmul (k, 3, n) @ (k, n, 1) calls, item by item, the gemv that one
state's ``L @ x`` calls, so every record has the bits of a state-by-state
record. The steps after a non-finite one in its block still run; their
states are never recorded, since the run stops at the check.

The same machinery also integrates a bridge alone, and the rigid-profile
run, whose constraint has no bridge columns and a prescribed gap instead.

A step's bridge work and its (a_t, lam) solve are calls that the
``Stepper`` binds once to buffers of its own that every step rewrites: one
dgetrs solve of a step's right-hand side and one of the Schur buffer, in
place (``vtsi._lapack``); one ``np.matmul`` per bridge matrix, made
C-contiguous as numpy's ``A @ x`` takes it, from one vector buffer into one
product buffer; and the 7 x 7 solve by dgesv, as ``np.linalg.solve`` calls
it, on copies of the matrix and the right-hand side. So a call costs what
an f2py call costs. The tables' stacked products are 3-row items, below
OpenBLAS's threading size.

A run steps inside one ``_lapack.blas_threads`` block, which leaves
numpy's OpenBLAS pool parked. A bridge with fewer than SERIAL_BRIDGE_DOFS
reduced DOFs steps on one thread: there a second thread adds CPU and no
speed, and the step's kernels give the bits of the pinned count (measured;
tests/test_lapack.py). Set-up keeps the pinned count, since on one thread
the static solve rounds differently from n_red 114 on, the factor from
174, and the assembly at some sizes (354).

A step leaves out each term whose weight is exactly zero, which keeps the
bits (x - (+-0) and 1.0 x + (+-0) are x for nonzero x): the C term of an
undamped bridge, whose C is a read-only zero view
(``beams.assemble_bridge``); the M products of r_t and r_b when alpha_m is 0
(Newmark, and rho_inf = 0.5); the averages at t_f when alpha_f is 0
(Newmark).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._lapack import blas_threads, gesv, getrs, lu_factor
from .beams import panels
from .coupling import Constraint, ConstraintTable, constraint_rates
from .pathgeom import CosineProfile
from .vehicle import L_TR, VehicleParams, VehicleSystem, vehicle_matrices

__all__ = [
    "SchemeParams",
    "scheme_params",
    "CoupledState",
    "CoupledModel",
    "TimeHistory",
    "Stepper",
    "project_constraints",
    "initial_state",
    "run_model",
    "run_rigid_profile",
]


@dataclass(frozen=True)
class SchemeParams:
    """Averaging and Newmark parameters of the one-step scheme. gamma may
    reach 1.5, the Chung-Hulbert value at rho_inf 0 (``scheme_params``)."""

    alpha_m: float
    alpha_f: float
    beta: float
    gamma: float
    dt: float

    def __post_init__(self):
        if self.beta <= 0.0 or not (0.0 < self.gamma <= 1.5):
            raise ValueError("invalid Newmark parameters")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")

    @property
    def is_newmark(self) -> bool:
        return self.alpha_m == 0.0 and self.alpha_f == 0.0


def scheme_params(rho_inf: float | None = None, dt: float = 1e-3,
                  newmark: bool = False) -> SchemeParams:
    """Chung-Hulbert parameters for a spectral radius, or plain Newmark."""
    if newmark or rho_inf is None:
        return SchemeParams(0.0, 0.0, 0.25, 0.5, dt)
    if not (0.0 <= rho_inf <= 1.0):
        raise ValueError("spectral radius must lie in [0, 1]")
    am = (2.0 * rho_inf - 1.0) / (rho_inf + 1.0)
    af = rho_inf / (rho_inf + 1.0)
    gamma = 0.5 - am + af
    beta = 0.25 * (1.0 - am + af) ** 2
    return SchemeParams(am, af, beta, gamma, dt)


# Instants per call of a model's callables in ``Stepper.blocks`` (a chunk of
# whole blocks of steps): large enough to amortise a call's fixed cost,
# small enough that a chunk's tables and temporaries stay small.
TABLE_BLOCK = 512
# Bytes of step operators tabulated at a time (``Stepper.block_steps``):
# they add to a run's peak memory, 0.5 MiB to criterion 6's 67 MB.
STEP_TABLE_BYTES = 1 << 19
# Width of every Schur solve: three steps' three columns, zero past those
# in use. Up to this width OpenBLAS's trsm gives each column the bits of a
# 3-column solve at every bridge size with 1 or 2 threads; wider, from n_red
# 474 on, it takes another path (21 columns still match with 2 threads, not
# with 1).
SCHUR_COLUMNS = 9
# Bridges with fewer reduced DOFs step on one BLAS thread (``run_model``).
# Measured on OpenBLAS 0.3.30 and 0.3.31, against 2 threads: the step's
# kernels keep their bits on one thread below n_red 684, where the
# transposed dgemv starts to round differently (dgetrs of 1 to 9 columns
# matches up to 1,914). For 300 steps on a 2-core machine, one thread
# takes the same wall time at n_red 474 and 594 (0.30 and 0.35 s) with a
# quarter less CPU, and more wall time at 714 (0.49 against 0.40 s) and
# 954 (0.63 against 0.53 s).
SERIAL_BRIDGE_DOFS = 600


@dataclass
class CoupledState:
    """Displacements, velocities, accelerations, and contact forces at t,
    with the constraint evaluated at t (None when unconstrained)."""

    t: float
    ut: np.ndarray
    vt: np.ndarray
    at: np.ndarray
    ub: np.ndarray
    vb: np.ndarray
    ab: np.ndarray
    lam: np.ndarray
    con: Constraint | None = None


@dataclass
class CoupledModel:
    """Everything the stepper needs, as uncached callables of time.

    Both callables take a 1-D array of instants and return a table with
    one entry per instant: ``vehicle_at(t)`` the vehicle matrices
    (``VehicleSystem``), ``reduced_at(t)`` the wheel constraints
    (``coupling.ConstraintTable``). ``Stepper.blocks`` calls each once per
    chunk of blocks of steps, on the chunk's instants, and reads a block's
    entries at once, ``table[idx]`` for an index array, as one entry of
    stacked arrays. ``bridge`` needs M, C, K, P (and Z for coupling).
    ``axle_load`` (3-vector), when set, adds
    L(t_f)^T axle_load to the bridge load. A model is a bridge alone
    (pure structural run), a vehicle on its constraint (rigid-profile run),
    or both with a bridge; any other shape raises ValueError.
    """

    vehicle_at: object = None
    bridge: object = None
    reduced_at: object = None
    axle_load: np.ndarray | None = None

    def __post_init__(self):
        if (self.vehicle_at is None) != (self.reduced_at is None):
            raise ValueError("a model has a vehicle and its wheel constraint "
                             "(vehicle_at and reduced_at), or neither")
        if self.vehicle_at is None and self.bridge is None:
            raise ValueError("a model needs a bridge, a vehicle, or both")

    @property
    def n_t(self) -> int:
        return 4 if self.vehicle_at is not None else 0

    @property
    def n_b(self) -> int:
        return self.bridge.M.shape[0] if self.bridge is not None else 0

    @property
    def n_lam(self) -> int:
        return 3 if self.reduced_at is not None else 0


class StepOperators(NamedTuple):
    """What one step uses that does not depend on the state, from
    ``Stepper.tabulate``; None where the model lacks the block."""

    con1: Constraint | None     # the constraint at t_{n+1}
    veh: tuple | None           # the vehicle's M, C, K and P at t_f
    A: np.ndarray | None        # the reduced (a_t, lam) matrix
    P_b: np.ndarray | None      # the bridge load, with L(t_f)^T axle_load
    C_b: np.ndarray | None      # the constraint rows' bridge columns
    Y: np.ndarray | None        # the Schur columns A_b^-1 L(t_f)^T


@dataclass
class TimeHistory:
    """Uniformly sampled run output plus derived probe and residual series."""

    t: np.ndarray
    ut: np.ndarray
    vt: np.ndarray
    at: np.ndarray
    lam: np.ndarray
    probes: dict
    res_disp: np.ndarray
    res_vel: np.ndarray
    res_acc: np.ndarray
    dt: float

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1


def _step_block(bridge, p: SchemeParams, damped: bool) -> np.ndarray:
    """A_b = (1 - a_m) M + (1 - a_f) (gamma dt C + beta dt^2 K), each
    product and sum grouped as written, in a Fortran-ordered array, so that
    getrf factors it in place. It is formed a panel of columns at a time
    (``beams.panels``), so its temporaries are small; each entry's
    arithmetic is that of the whole arrays. Undamped, the C term is left
    out."""
    M, C, K = bridge.M, bridge.C, bridge.K
    A = np.empty(M.shape, order="F")
    bdt2, gdt = p.beta * p.dt ** 2, p.gamma * p.dt
    for cols in panels(A.shape[1], A.strides[1]):
        B = np.multiply(bdt2, K[:, cols], order="F")
        if damped:
            B += np.multiply(gdt, C[:, cols], order="F")
        B *= 1.0 - p.alpha_f
        Ap = A[:, cols]
        np.multiply(1.0 - p.alpha_m, M[:, cols], out=Ap)
        Ap += B
    return A


class Stepper:
    """One-step solver for a fixed model, scheme, and strategy.

    Each step solves one linear system in (a_t, a_b, lam) at t_{n+1}:

        [A_t  0    L_TR ] [a_t]   [r_t]
        [0    A_b  Lf^T ] [a_b] = [r_b]
        [C_t  C_b  0    ] [lam]   [r_c]

    A_b is the bridge block, factored once here; Lf holds the coupling rows
    at the collocation instant t_f, and the strategy sets the constraint
    rows (C_t, C_b, r_c). The bridge is eliminated, leaving a reduced
    system in (a_t, lam). Strategy C runs plain Newmark only.

    What depends only on the step index (the constraint rows, the Schur
    columns A_b^-1 Lf^T, the reduced matrix) is tabulated a block of steps
    at a time, by ``tabulate``; ``step`` does the work that depends on the
    state.
    """

    def __init__(self, model: CoupledModel, params: SchemeParams,
                 strategy: str = "A"):
        if strategy not in ("A", "B", "C"):
            raise ValueError("strategy must be A, B, or C")
        if strategy == "C" and not params.is_newmark:
            raise ValueError("strategy C runs plain Newmark; got "
                             "generalized-alpha parameters")
        self.model = model
        self.params = params
        self.strategy = strategy
        # Step constants, each rounded as the step's expressions group it:
        # scalar factors first, left to right.
        dt, beta, gamma = params.dt, params.beta, params.gamma
        self._disp_pred = dt * dt * (0.5 - beta)
        self._vel_pred = dt * (1.0 - gamma)
        self._bdt2 = beta * dt * dt
        self._gdt = gamma * dt
        self._C_t = self._bdt2 * L_TR.T
        am, af = params.alpha_m, params.alpha_f
        self._am, self._af = am, af
        self._keep_m, self._keep_f = 1.0 - am, 1.0 - af
        # Instants of the constraint per step: t_{n+1}, and t_f unless
        # alpha_f is 0.
        self._instants = 1 if af == 0.0 else 2
        self._nt, self._nb = model.n_t, model.n_b
        # A step's LAPACK and BLAS calls are bound here, each to buffers
        # of the step's own that it overwrites (see the module docstring).
        self._damped = False
        if model.bridge is not None:
            br = model.bridge
            self._damped = bool(br.C.any())
            lu, piv = lu_factor(_step_block(br, params, self._damped))
            # The bridge solves, in place, by dgetrs as ``lu_solve`` calls
            # it but without its finiteness scan (``run_model`` checks every
            # state): a step's right-hand side, and one Schur solve's
            # columns, zero past those in use.
            self._rhs = np.empty(self._nb)
            self._solve_rhs = getrs(lu, piv, self._rhs)
            self._schur = np.zeros((self._nb, SCHUR_COLUMNS), order="F")
            self._solve_schur = getrs(lu, piv, self._schur)
            # The bridge products, each A @ _vec into _prod.
            self._vec, self._prod = np.empty(self._nb), np.empty(self._nb)

            def product(A):
                return partial(np.matmul, np.ascontiguousarray(A), self._vec,
                               out=self._prod)

            self._M = product(br.M) if am else None
            self._C = product(br.C) if self._damped else None
            self._K = product(br.K)
        if model.n_lam:
            n = self._nt + 3
            self._saddle, self._x = np.empty((n, n), order="F"), np.empty(n)
            self._solve_saddle, self._saddle_info = gesv(self._saddle,
                                                         self._x)

    def _solve(self, A: np.ndarray, r_t: np.ndarray, r_c: np.ndarray,
               t1: float) -> np.ndarray:
        """The solution of the reduced system A x = (r_t, r_c), by LAPACK
        dgesv as ``np.linalg.solve`` calls it, on copies of A and the
        right-hand side in the step's buffers; x is the buffer, which the
        next step overwrites. A singular A raises RuntimeError naming t1."""
        self._saddle[...] = A
        x, nt = self._x, self._nt
        x[:nt], x[nt:] = r_t, r_c
        self._solve_saddle()
        if self._saddle_info.value > 0:
            raise RuntimeError("singular saddle system at t=%.6g" % t1)
        return x

    def blocks(self, t: np.ndarray):
        """The steps starting at the consecutive instants t, a block at a
        time: yields the index in t of the block's first step, the block's
        constraint at t_{n+1} stacked (None without one), and the block's
        ``StepOperators``.

        Each model callable is called once per chunk of whole blocks, on
        the chunk's instants, at most TABLE_BLOCK of them unless one block
        has more: the constraint at the steps' t_{n+1}, and at their t_f
        unless alpha_f is 0 (under Newmark t_f is t_{n+1}), and the vehicle
        at their t_f. The generator keeps no block it has yielded while it
        builds the next, so a caller that lets go of each block first holds
        one block's tables at a time."""
        m, af, instants = self.model, self._af, self._instants
        block = self.block_steps()
        chunk = block * max(1, TABLE_BLOCK // (block * instants))
        for start in range(0, len(t), chunk):
            t0 = t[start:start + chunk]
            k = len(t0)
            t1 = t0 + self.params.dt
            tf = (1.0 - af) * t1 + af * t0
            cons = None
            if m.n_lam:
                cons = m.reduced_at(t1 if instants == 1
                                    else np.concatenate((t1, tf)))
                vehs = m.vehicle_at(tf)
            for first in range(0, k, block):
                i = np.arange(first, min(first + block, k))
                con1 = conf = veh = None
                if cons is not None:
                    con1 = cons[i]
                    conf = con1 if instants == 1 else cons[k + i]
                    veh = vehs[i]
                yield start + first, con1, self.tabulate(con1, conf, veh,
                                                         len(i))
                # Not kept while the next block is built.
                del con1, conf, veh

    def block_steps(self) -> int:
        """Steps per block of ``blocks`` and of ``run_model``'s record: a
        multiple of the three steps of one Schur solve, whose operators and
        bridge states take at most STEP_TABLE_BYTES (or one solve's steps,
        if those take more)."""
        instants = self._instants
        # Per bridge DOF: the three orders' reduced rows of each distinct
        # instant (9), C_b and Y (6), and the new ub, vb and ab (3); then
        # the reduced matrix, and about 2 KB of views.
        per_step = (8 * (self._nb * (9 * instants + 9) + (self._nt + 3) ** 2)
                    + 2048)
        per_solve = SCHUR_COLUMNS // 3
        return per_solve * max(1, STEP_TABLE_BYTES // (per_step * per_solve))

    def _schur_columns(self, Lf: np.ndarray) -> np.ndarray:
        """A_b^-1 L^T for each L of a stack of 3 x n_red rows, stacked as
        (n, n_red, 3) Fortran-ordered columns, as getrs returns them. Each
        solve takes the SCHUR_COLUMNS columns of the Schur buffer, the
        rows of up to three steps copied in and zeros after them."""
        Yt = np.empty(Lf.shape)
        nb, per_solve, cols = Lf.shape[-1], SCHUR_COLUMNS // 3, self._schur
        for j in range(0, len(Lf), per_solve):
            rows = Lf[j:j + per_solve]
            w = 3 * len(rows)
            cols[:, :w] = rows.reshape(-1, nb).T
            cols[:, w:] = 0.0
            self._solve_schur()
            Yt[j:j + per_solve] = cols[:, :w].T.reshape(-1, 3, nb)
        return Yt.transpose(0, 2, 1)

    def tabulate(self, con1: Constraint | None, conf: Constraint | None,
                 veh: VehicleSystem | None, n: int) -> list:
        """The ``StepOperators`` of a block of n steps, from the block's
        constraint at t_{n+1} and at t_f and its vehicle matrices at t_f,
        each stacked along a leading axis (None where the model has no such
        block).

        Each operator is formed by the operations a step would apply to its
        own coefficients, in the same order, and the stacked products call
        the same BLAS kernel on each step's operands, so no operator's bits
        depend on the block (tests/test_batched.py)."""
        m = self.model
        nt = m.n_t
        bdt2, gdt = self._bdt2, self._gdt
        cons = vehs = A = P_b = C_b = Y = [None] * n
        if m.n_b:
            P_b = [m.bridge.P] * n
            if conf is not None and m.axle_load is not None:
                P_b = m.bridge.P + np.swapaxes(conf.L, 1, 2) @ m.axle_load
        if con1 is not None:
            vehs = list(zip(veh.M, veh.C, veh.K, veh.P))
            A_t = (self._keep_m * veh.M
                   + self._keep_f * (gdt * veh.C + bdt2 * veh.K))
            L1, Ld1, Ldd1, r1 = con1
            cons = [Constraint(*c) for c in zip(L1, Ld1, Ldd1, r1)]
            if self.strategy == "B":
                C_t = L_TR.T
                C_b = bdt2 * Ldd1 + gdt * 2.0 * Ld1 + L1
            else:
                C_t = self._C_t
                C_b = bdt2 * L1
            A = np.zeros((n, nt + 3, nt + 3))
            A[:, :nt, :nt] = A_t
            A[:, :nt, nt:] = L_TR
            A[:, nt:, :nt] = C_t
            if m.n_b:
                Y = self._schur_columns(conf.L)
                A[:, nt:, nt:] -= C_b @ Y
        return [StepOperators(*ops)
                for ops in zip(cons, vehs, A, P_b, C_b, Y)]

    def step(self, state: CoupledState, ops: StepOperators | None = None,
             out: tuple | None = None) -> CoupledState:
        """Advance ``state`` by one step, with the step's tabulated
        operators; without them, it takes the first block of a run of one
        step (``blocks``).

        The new state's ut, vt, at, ub, vb, ab and lam are written into the
        seven arrays of ``out`` (``run_model`` passes rows of its history
        and of its block buffers), or into new ones. A block the model
        lacks carries the old state's values."""
        if ops is None:
            ops = next(self.blocks(np.array([state.t])))[2][0]
        if out is None:
            out = [np.empty_like(a) for a in (state.ut, state.vt, state.at,
                                               state.ub, state.vb, state.ab,
                                               state.lam)]
        ut, vt, at, ub, vb, ab, lam = out
        con1, veh, A, P_b, C_b, Y = ops
        dt, am, af = self.params.dt, self._am, self._af
        bdt2, gdt = self._bdt2, self._gdt
        nt, nb = self._nt, self._nb
        t1 = state.t + dt

        # Newmark predictors, and their values at t_f: under Newmark (a_f
        # is 0) the predictors themselves, which have the same bits.
        ut_pred = state.ut + dt * state.vt + self._disp_pred * state.at
        vt_pred = state.vt + self._vel_pred * state.at
        ub_pred = state.ub + dt * state.vb + self._disp_pred * state.ab
        vb_pred = state.vb + self._vel_pred * state.ab
        ut_f, vt_f, ub_f, vb_f = ut_pred, vt_pred, ub_pred, vb_pred
        if af:
            kf = self._keep_f
            ut_f = kf * ut_pred + af * state.ut
            vt_f = kf * vt_pred + af * state.vt
            ub_f = kf * ub_pred + af * state.ub
            if self._damped:
                vb_f = kf * vb_pred + af * state.vb

        # A term with a zero scheme weight is left out: x - (+-0) is x.
        if nt:
            M_t, C_t, K_t, r_t = veh
            if am:
                r_t = r_t - M_t @ (am * state.at)
            r_t = r_t - C_t @ vt_f - K_t @ ut_f
        if nb:
            # r_b is formed in the solve's buffer and solved there; each
            # product is of the vector copied into _vec.
            r_b, v, Av = P_b, self._vec, self._prod
            if am:
                np.multiply(am, state.ab, out=v)
                self._M()
                r_b = r_b - Av
            if self._damped:
                v[...] = vb_f
                self._C()
                r_b = r_b - Av
            v[...] = ub_f
            self._K()
            np.subtract(r_b, Av, out=self._rhs)
            self._solve_rhs()

        if con1 is None:
            if nb:
                ab[...] = self._rhs
            lam[...] = state.lam
        else:
            L1, Ld1, Ldd1, r1 = con1
            if self.strategy == "B":
                r_c = -(Ldd1 @ ub_pred + 2.0 * Ld1 @ vb_pred) - r1[2]
            else:
                r_c = -(L_TR.T @ ut_pred + L1 @ ub_pred) - r1[0]
            # The bridge is eliminated: A holds the reduced system in
            # (a_t, lam), and r_c gets the bridge solve's share.
            if nb:
                y0 = self._rhs
                r_c = r_c - C_b @ y0
            x = self._solve(A, r_t, r_c, t1)
            at[...] = x[:nt]
            lam[...] = x[nt:]
            if nb:
                np.subtract(y0, Y @ x[nt:], out=ab)

        if nt:
            np.add(ut_pred, bdt2 * at, out=ut)
            np.add(vt_pred, gdt * at, out=vt)
        else:
            ut[...], vt[...], at[...] = state.ut, state.vt, state.at
        np.add(ub_pred, bdt2 * ab, out=ub)
        np.add(vb_pred, gdt * ab, out=vb)
        new = CoupledState(t1, ut, vt, at, ub, vb, ab, lam, con1)
        if self.strategy == "C":
            project_constraints(new, "velocity")
            project_constraints(new, "acceleration")
        return new


def project_constraints(state: CoupledState, level: str) -> CoupledState:
    """Overwrite the wheel rows so one level of ``state.con`` holds exactly.

    Levels: ``displacement``, ``velocity``, ``acceleration``. Bridge states
    are untouched; the operation is idempotent. Mutates and returns ``state``.
    """
    if level not in ("displacement", "velocity", "acceleration"):
        raise ValueError("unknown constraint level %r" % level)
    L, Ld, Ldd, r = state.con
    if level == "displacement":
        state.ut[:3] = L @ state.ub + r[0]
    elif level == "velocity":
        state.vt[:3] = Ld @ state.ub + L @ state.vb + r[1]
    else:
        state.at[:3] = Ldd @ state.ub + 2.0 * Ld @ state.vb + L @ state.ab + r[2]
    return state


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a matrix or a stack of matrices and a vector or a stack of
    vectors: one matmul, whose items are the gemv call that ``A @ x`` makes
    for one matrix and vector, so each has its bits."""
    return (A @ x[..., None])[..., 0]


def constraint_residuals(state: CoupledState):
    """Max-abs residual of the displacement/velocity/acceleration levels of
    ``state.con``; zeros when the state is unconstrained.

    The state's arrays and constraint may carry a leading block axis (a
    block of steps, as ``run_model`` records them): each level's residual
    is then an array over the block, with the bits of each state's own."""
    if state.con is None:
        return 0.0, 0.0, 0.0
    L, Ld, Ldd, r = state.con
    c0 = _mv(L_TR.T, state.ut) + _mv(L, state.ub) + r[..., 0, :]
    c1 = (_mv(L_TR.T, state.vt) + _mv(Ld, state.ub) + _mv(L, state.vb)
          + r[..., 1, :])
    c2 = (_mv(L_TR.T, state.at) + _mv(Ldd, state.ub)
          + _mv(2.0 * Ld, state.vb) + _mv(L, state.ab) + r[..., 2, :])
    return tuple(np.abs(np.stack((c0, c1, c2), axis=-2)).max(axis=-1).T)


def initial_state(model: CoupledModel, t0_correction: bool = True,
                  bridge_static_init: bool = True) -> CoupledState:
    """Vehicle at rest at the path start; bridge in static equilibrium
    under self-weight, or at rest undeformed. A constrained wheel starts in
    contact: its displacement is projected onto the constraint at t = 0,
    and the optional t = 0 correction projects its velocity and
    acceleration onto the differentiated constraints.

    A bridge whose static state does not solve K u = P to 1e-6 of P
    raises RuntimeError, whether or not the run starts from that state.
    It names ``bridge.supports``, which may leave the bridge free to move,
    and ``plan.spans``, whose length may leave K too ill-conditioned to
    solve (a straight NURBS span of 1e5 m)."""
    nb = model.n_b
    ub = np.zeros(nb)
    if nb:
        K, P = model.bridge.K, model.bridge.P
        try:
            static = np.linalg.solve(K, P)
            res = np.linalg.norm(K @ static - P)
        except np.linalg.LinAlgError:
            res = np.inf
        if not res <= 1e-6 * np.linalg.norm(P):
            raise RuntimeError(
                "the bridge's static self-weight state does not solve "
                "K u = P: bridge.supports leave it free to move, or "
                "plan.spans make K too ill-conditioned")
        if bridge_static_init:
            ub = static
    con = model.reduced_at(np.zeros(1))[0] if model.n_lam else None
    state = CoupledState(
        t=0.0,
        ut=np.zeros(4), vt=np.zeros(4), at=np.zeros(4),
        ub=ub, vb=np.zeros(nb), ab=np.zeros(nb),
        lam=np.zeros(3),
        con=con,
    )
    if model.n_lam:
        project_constraints(state, "displacement")
        if t0_correction:
            project_constraints(state, "velocity")
            project_constraints(state, "acceleration")
    return state


def run_model(model: CoupledModel, params: SchemeParams, strategy: str,
              n_steps: int, probes: dict | None = None,
              t0_correction: bool = True, bridge_static_init: bool = True,
              displacement_repair_every: int = 0) -> TimeHistory:
    """Integrate ``n_steps`` uniform steps and record the standard probes.

    The steps come a block at a time from ``Stepper.blocks``, which
    evaluates the time-varying coefficients a chunk of whole blocks at a
    time and tabulates each block's operators. The steps are recorded a
    block at a time: each step writes its state into the history and a
    buffer of the block's bridge rows, and the block's probes, residuals
    and finiteness follow in stacked operations, with the bits of one
    state's. Raises RuntimeError, naming the step and t, at the first step
    whose state is not finite."""
    # t_n accumulates dt exactly as the steps do: step i (1-based) starts
    # at t[i - 1].
    t = np.cumsum(np.concatenate([[0.0], np.full(n_steps, params.dt)]))
    state = initial_state(model, t0_correction, bridge_static_init)
    probe_rows = {}
    if model.bridge is not None and probes:
        for name, s in probes.items():
            probe_rows[name] = model.bridge.probe_rows(s)
    stepper = Stepper(model, params, strategy)

    N = n_steps + 1
    out = TimeHistory(
        t=t, ut=np.zeros((N, 4)), vt=np.zeros((N, 4)),
        at=np.zeros((N, 4)), lam=np.zeros((N, 3)),
        probes={name: np.zeros((N, 4)) for name in probe_rows},
        res_disp=np.zeros(N), res_vel=np.zeros(N), res_acc=np.zeros(N),
        dt=params.dt,
    )
    # The new ub, vb and ab of a block's steps, each step's in one row; the
    # steps write their other arrays straight into the history's rows.
    bridge_rows = np.empty((stepper.block_steps(), 3, model.n_b))

    def record(rows, st):
        """Probes and residuals of a state, or of a block of states, at
        ``rows`` of the history, in stacked products."""
        for name, P in probe_rows.items():
            out.probes[name][rows, 0:2] = _mv(P, st.ub)
            out.probes[name][rows, 2:4] = _mv(P, st.ab)
        out.res_disp[rows], out.res_vel[rows], out.res_acc[rows] = \
            constraint_residuals(st)

    def check(first, stop):
        """RuntimeError, naming the step and t, at the first of the block's
        steps first..stop - 1 whose state is not finite."""
        rows, k = slice(first, stop), stop - first
        finite = np.isfinite(np.concatenate(
            (out.ut[rows], out.vt[rows], out.at[rows], out.lam[rows],
             bridge_rows[:k].reshape(k, 3 * model.n_b)), axis=1))
        bad = np.flatnonzero(~finite.all(axis=1))
        if len(bad):
            i = first + int(bad[0])
            raise RuntimeError("state is not finite after step %d (t=%.6g)"
                               % (i, t[i]))

    out.ut[0], out.vt[0], out.at[0], out.lam[0] = (state.ut, state.vt,
                                                   state.at, state.lam)
    record(0, state)
    # A small bridge steps on one BLAS thread (see the module docstring).
    with blas_threads(1 if model.n_b < SERIAL_BRIDGE_DOFS else None):
        for first, con1, ops in stepper.blocks(t[:-1]):
            # Steps first..stop - 1, 1-based, and their rows of the history.
            first, stop = first + 1, first + 1 + len(ops)
            rows, new = slice(first, stop), bridge_rows[:len(ops)]
            dests = zip(out.ut[rows], out.vt[rows], out.at[rows], new[:, 0],
                        new[:, 1], new[:, 2], out.lam[rows])
            i = first
            try:
                for i, op, dest in zip(range(first, stop), ops, dests):
                    state = stepper.step(state, op, dest)
                    if displacement_repair_every and \
                            i % displacement_repair_every == 0:
                        project_constraints(state, "displacement")
            except RuntimeError:
                # A state that is not finite before the failing step is named
                # first, as a check after every step would have named it.
                check(first, i)
                raise
            check(first, stop)
            record(rows, CoupledState(t[rows], out.ut[rows], out.vt[rows],
                                      out.at[rows], new[:, 0], new[:, 1],
                                      new[:, 2], out.lam[rows], con1))
            # Let go of the block, and copy the rows of it that the last state
            # views, so that it is freed before the next block is built.
            del con1, ops, op
            if state.con is not None:
                state.con = Constraint(*map(np.array, state.con))
    return out


def run_rigid_profile(params: VehicleParams, profile: CosineProfile,
                      scheme: SchemeParams, horizon: float,
                      t0_correction: bool = True) -> TimeHistory:
    """Vehicle running over a rigid vertical profile on a straight path.

    The wheel rows are constrained to the profile at displacement level each
    step; the t = 0 projection toggle reproduces the entry-discontinuity
    contrast.
    """
    v = params.v
    if profile.length < v * horizon - 1e-9:
        raise ValueError("profile shorter than the requested horizon")
    veh = vehicle_matrices(params, _straight_frame(v), rotation_ref=np.eye(3))

    def vehicles(t):
        return VehicleSystem(*(np.broadcast_to(a, t.shape + a.shape) for a in (
            veh.M, veh.C, veh.K, veh.P)))

    def gaps(t):
        r = np.zeros((len(t), 3, 3))
        for r_i, t_i in zip(r, t):
            s = v * t_i
            r_i[:, 1] = (profile.height(s), profile.z_dot(s, v),
                         profile.z_ddot(s, v))
        return ConstraintTable(r)

    model = CoupledModel(vehicle_at=vehicles, reduced_at=gaps)
    n_steps = int(round(horizon / scheme.dt))
    return run_model(model, scheme, "A", n_steps, t0_correction=t0_correction,
                     bridge_static_init=False)


def _straight_frame(v: float):
    from .pathgeom import FrameKinematics
    return FrameKinematics(
        rotation=np.eye(3), omega=np.zeros(3), omega_dot=np.zeros(3),
        origin_vel=np.array([v, 0.0, 0.0]), origin_acc=np.zeros(3))


def coupled_model(path, bridge, vehicle_params: VehicleParams) -> CoupledModel:
    """Standard model: vehicle frames from the path, coupling to the bridge;
    the gravity load takes the frame at the path start as its reference."""
    v = vehicle_params.v
    from .pathgeom import frame_kinematics

    curve, amap = path.curve, path.amap
    R0 = frame_kinematics(curve, amap, 0.0, v).rotation

    def vehicle_block(t):
        fk = frame_kinematics(curve, amap, np.minimum(v * t, amap.length), v)
        return vehicle_matrices(vehicle_params, fk, rotation_ref=R0)

    def reduced_block(t):
        return constraint_rates(bridge, np.minimum(v * t, bridge.length), v)

    return CoupledModel(vehicle_at=vehicle_block, bridge=bridge,
                        reduced_at=reduced_block)
