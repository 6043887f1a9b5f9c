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
each block's tables. A direct ``Stepper.step`` takes the first block of a
run of one step. The t_{n+1} constraint travels with the new state as
``CoupledState.con``, so projection, displacement repair, and the residual
record read it there.

What a step uses that depends only on its index is tabulated ahead of it,
a block of steps at a time (``Stepper.tabulate``), into stacked tables
that the caller passes (``StepTables``): the coupling rows of each
distinct instant, reduced through Z by stacked matmuls; the constraint
rows C_b; the Schur columns Y = A_b^-1 Lf^T; C_b Y, in one stacked matmul;
the reduced (a_t, lam) matrix; and, with an axle load, the bridge load.
Each step's operators are views of the tables (``Stepper.operators``).
The step itself forms the predictors and the residuals, makes one
one-column bridge solve, and solves a copy of the tabulated matrix. A
direct ``Stepper.step`` tabulates a block of one step, so every step runs
the same code. A block is sized by bytes, since a run's peak memory is
reached while it steps: a run holds at most RING_SLOTS blocks' tables, the
ring of a producer (below), and those take at most STEP_TABLE_BYTES (at
n_red 234, blocks of 27 steps under Newmark and 18 under generalized-alpha;
from 954 on, 3). A run without a producer holds one block's tables, which
every block rewrites. A block holds a multiple of three steps: the Schur
columns of three steps, 9 columns, are one getrs call, on one 9-column
buffer whose columns past those in use are zero. A wider call costs less
per column, though far from in proportion: with 1 thread, 1 column took
15 us at n_red 234 and 314 us at 954, and 9 columns 106 us and 1.35 ms
(medians of 300 calls on a 2-core x86-64 machine). But from n_red 474 on
OpenBLAS's trsm rounds differently above 9 columns with 1 thread (above
21 with 2). Up to 9, each column in use has the bits of a solve of those
columns alone (tests/test_lapack.py), so every operator has the bits of a
block of one step, and a run's output does not depend on its blocks.

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

Such a run gives its idle CPU the tables. When the process may run on a
second CPU, has one Python thread and can fork, and the run has more than
one block, ``run_model`` forks a producer process inside the
``blas_threads(1)`` block, after the step block is factored, with the
pool parked. The producer runs ``Stepper.blocks`` and writes each block's
tables into the next of the RING_SLOTS slots of a shared anonymous
mapping, while the process steps from views of the slot before it; two
pipes pass each filled slot on and hand it back. A thread cannot do this:
OpenBLAS calls that overlap in one process crash or corrupt their results,
at any thread count. A forked process has its own copy of OpenBLAS's
state, calls the same kernels on one thread, and writes each table into
an array of the shape and strides that the process would have made, so
the output keeps its bits. The tables are not pickled: a view that is
pickled comes back C-contiguous, and for its strides ``np.matmul`` calls
another gemv kernel. An exception that the blocks raise in the producer
is raised in the process at the same block, and the producer has exited
and been waited for when ``run_model`` returns or raises; it exits too
when the process dies, at the end of its pipe.

A step leaves out each term whose weight is exactly zero, which keeps the
bits (x - (+-0) and 1.0 x + (+-0) are x for nonzero x): the C term of an
undamped bridge, whose C is a read-only zero view
(``beams.assemble_bridge``); the M products of r_t and r_b when alpha_m is 0
(Newmark, and rho_inf = 0.5); the averages at t_f when alpha_f is 0
(Newmark).
"""
from __future__ import annotations

import itertools
import mmap
import os
import pickle
import signal
import threading
from contextlib import contextmanager
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
# Bytes of the step operators that a run holds at once: RING_SLOTS blocks
# of them (``Stepper.block_steps``), the ring of a producer that tabulates
# ahead of the steps (``run_model``). They add to a run's peak memory. A
# block's lead over the steps absorbs the evaluation of a chunk of
# coefficients: with 1 MiB blocks (27 steps at n_red 234 under Newmark)
# projected_fine_dt stepped in 15 % less time and 8 % less CPU than with
# 0.5 MiB blocks, for 0.65 MB more peak memory (medians of 20 alternating
# runs on a 2-core machine).
STEP_TABLE_BYTES = 1 << 21
RING_SLOTS = 2
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


class StepTables(NamedTuple):
    """The stacked tables of a block of steps, each with a leading axis
    over at least the block's steps (``Stepper.tables``), and None where
    the model lacks them: what ``Stepper.tabulate`` writes, and what
    ``Stepper.operators`` views a step at a time."""

    rows: np.ndarray | None     # L, L_dot, L_ddot at t_{n+1}: (k, 3, 3, n_b)
    r: np.ndarray | None        # the constraint's gap and rates at t_{n+1}
    M: np.ndarray | None        # the vehicle's M, C, K and P at t_f
    C: np.ndarray | None
    K: np.ndarray | None
    P: np.ndarray | None
    A: np.ndarray | None        # the reduced (a_t, lam) matrices
    P_b: np.ndarray | None      # the bridge loads, with an axle load only
    C_b: np.ndarray | None      # the constraint rows' bridge columns
    Yt: np.ndarray | None       # the Schur columns, transposed: (k, 3, n_b)


class StepOperators(NamedTuple):
    """What one step uses that does not depend on the state, a step of
    ``StepTables`` (``Stepper.operators``); None where the model lacks the
    block."""

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

    def blocks(self, t: np.ndarray, slots=None):
        """The steps starting at the consecutive instants t, a block at a
        time: yields the index in t of the block's first step, the block's
        number of steps, and its ``StepTables``, written into the next
        tables of the iterator ``slots``, or into new ones.

        Each model callable is called once per chunk of whole blocks, on
        the chunk's instants, at most TABLE_BLOCK of them unless one block
        has more: the constraint at the steps' t_{n+1}, and at their t_f
        unless alpha_f is 0 (under Newmark t_f is t_{n+1}), and the vehicle
        at their t_f. The generator keeps no tables it has yielded while it
        builds the next, so a caller that lets go of each block first holds
        one block's tables at a time."""
        m, af = self.model, self._af
        block = self.block_steps()
        chunk = block * max(1, TABLE_BLOCK // (block * self._instants))
        for start in range(0, len(t), chunk):
            t0 = t[start:start + chunk]
            k = len(t0)
            t1 = t0 + self.params.dt
            tf = (1.0 - af) * t1 + af * t0
            cons = vehs = None
            if m.n_lam:
                cons = m.reduced_at(t1 if self._instants == 1
                                    else np.concatenate((t1, tf)))
                vehs = m.vehicle_at(tf)
            for first in range(0, k, block):
                i = np.arange(first, min(first + block, k))
                tables = self.tables(block) if slots is None else next(slots)
                if cons is not None:
                    self.tabulate(cons, vehs, i, k, tables)
                yield start + first, len(i), tables
                del tables      # not kept while the next block is built

    def block_steps(self) -> int:
        """Steps per block of ``blocks`` and of ``run_model``'s record: a
        multiple of the three steps of one Schur solve, whose operators and
        bridge states take at most STEP_TABLE_BYTES / RING_SLOTS (or one
        solve's steps, if those take more)."""
        instants = self._instants
        # Per bridge DOF: the three orders' reduced rows of each distinct
        # instant (9), C_b and Y (6), and the new ub, vb and ab (3); then
        # the reduced matrix, and about 2 KB of views.
        per_step = (8 * (self._nb * (9 * instants + 9) + (self._nt + 3) ** 2)
                    + 2048)
        per_solve = SCHUR_COLUMNS // 3
        return per_solve * max(1, STEP_TABLE_BYTES
                               // (RING_SLOTS * per_step * per_solve))

    def _layout(self, k: int) -> tuple:
        """The shape of each of the ``StepTables`` of k steps (None where
        the model lacks the table), its offset in bytes when they are laid
        out one after another, each at a multiple of 64 bytes, and the
        bytes they take."""
        m, nt, nb = self.model, self._nt, self._nb
        shapes = [None] * len(StepTables._fields)
        if m.n_lam:
            shapes = [(k, 3, 3, nb), (k, 3, 3), (k, nt, nt), (k, nt, nt),
                      (k, nt, nt), (k, nt), (k, nt + 3, nt + 3),
                      (k, nb) if nb and m.axle_load is not None else None,
                      (k, 3, nb), (k, 3, nb) if nb else None]
        offsets, size = [], 0
        for shape in shapes:
            offsets.append(size)
            if shape is not None:
                size += -(-8 * int(np.prod(shape)) // 64) * 64
        return shapes, offsets, size

    def tables(self, k: int, buffer=None) -> StepTables:
        """``StepTables`` for a block of up to k steps: new arrays, or
        arrays over a writable ``buffer`` of the bytes that ``_layout``
        counts."""
        shapes, offsets, _ = self._layout(k)
        return StepTables(*(
            None if shape is None
            else np.empty(shape) if buffer is None
            else np.ndarray(shape, buffer=buffer, offset=offset)
            for shape, offset in zip(shapes, offsets)))

    def _schur_columns(self, Lf: np.ndarray, Yt: np.ndarray) -> None:
        """Write A_b^-1 L^T for each L of a stack of 3 x n_red rows into
        the stack Yt, transposed, as (n, 3, n_red) rows. Each solve takes
        the SCHUR_COLUMNS columns of the Schur buffer, the rows of up to
        three steps copied in and zeros after them."""
        nb, per_solve, cols = Lf.shape[-1], SCHUR_COLUMNS // 3, self._schur
        for j in range(0, len(Lf), per_solve):
            rows = Lf[j:j + per_solve]
            w = 3 * len(rows)
            cols[:, :w] = rows.reshape(-1, nb).T
            cols[:, w:] = 0.0
            self._solve_schur()
            Yt[j:j + per_solve] = cols[:, :w].T.reshape(-1, 3, nb)

    def tabulate(self, cons: ConstraintTable, vehs: VehicleSystem,
                 i: np.ndarray, k: int, out: StepTables) -> None:
        """Write into ``out`` the ``StepTables`` of the steps at entries i
        (an index array) of a chunk of k steps: their constraint at t_{n+1}
        is at entries i of ``cons`` and at t_f at entries k + i (i when
        alpha_f is 0), and their vehicle matrices at t_f at entries i of
        ``vehs``.

        Each table is formed by the operations a step would apply to its
        own coefficients, in the same order, and the stacked products call
        the same BLAS kernel on each step's operands, so no table's bits
        depend on the block or on the buffer that holds it
        (tests/test_batched.py)."""
        m, nt = self.model, self._nt
        bdt2, gdt = self._bdt2, self._gdt
        rows, r, M, C, K, P, A, P_b, C_b, Yt = (
            None if a is None else a[:len(i)] for a in out)
        con1 = cons.take(i, rows, r)
        conf = con1 if self._instants == 1 else cons[k + i]
        for table, a in zip((M, C, K, P), (vehs.M, vehs.C, vehs.K, vehs.P)):
            np.take(a, i, axis=0, out=table)
        L1, Ld1, Ldd1, _ = con1
        if self.strategy == "B":
            C_t = L_TR.T
            np.multiply(bdt2, Ldd1, out=C_b)
            C_b += gdt * 2.0 * Ld1
            C_b += L1
        else:
            C_t = self._C_t
            np.multiply(bdt2, L1, out=C_b)
        A[...] = 0.0
        A[:, :nt, :nt] = self._keep_m * M + self._keep_f * (gdt * C + bdt2 * K)
        A[:, :nt, nt:] = L_TR
        A[:, nt:, :nt] = C_t
        if m.n_b:
            self._schur_columns(conf.L, Yt)
            A[:, nt:, nt:] -= C_b @ Yt.transpose(0, 2, 1)
            if P_b is not None:
                np.add(m.bridge.P, np.swapaxes(conf.L, 1, 2) @ m.axle_load,
                       out=P_b)

    def operators(self, tables: StepTables, n: int) -> tuple:
        """The constraint at t_{n+1} of a block of n steps, stacked (None
        without one), and the steps' ``StepOperators``: views of the
        block's ``tables``."""
        m = self.model
        rows, r, M, C, K, P, A, P_b, C_b, Yt = tables
        con1 = None
        cons = vehs = As = P_bs = C_bs = Ys = [None] * n
        if m.n_b:
            P_bs = [m.bridge.P] * n if P_b is None else P_b[:n]
        if rows is not None:
            con1 = Constraint(*np.moveaxis(rows[:n], -3, 0), r[:n])
            cons = [Constraint(*c) for c in zip(*con1)]
            vehs = list(zip(M[:n], C[:n], K[:n], P[:n]))
            As, C_bs = A[:n], C_b[:n]
            if Yt is not None:
                Ys = Yt[:n].transpose(0, 2, 1)
        return con1, [StepOperators(*ops)
                      for ops in zip(cons, vehs, As, P_bs, C_bs, Ys)]

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
            _, n, tables = next(self.blocks(np.array([state.t])))
            ops = self.operators(tables, n)[1][0]
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


def _may_fork() -> bool:
    """Whether this process can fork safely, with no other Python thread
    that might hold a lock, and may run on a second CPU."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) >= 2)


def _picklable(exc: Exception) -> Exception:
    """``exc``, or where it does not survive pickling, a RuntimeError
    that names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError("%s: %s" % (type(exc).__name__, exc))


def _produce(stepper: Stepper, t: np.ndarray, slots: list, free: int,
             ready: int) -> None:
    """The forked producer: writes the blocks of ``stepper.blocks(t)``
    into the ``slots`` in turn, and announces each block's first step and
    number of steps on the pipe ``ready``, then None, or the exception that
    the blocks raised. Before it writes a slot again it reads a byte from
    the pipe ``free``. It exits and never returns: at the end, or when
    either pipe is closed, as when the steps end early."""
    def ring():
        for j in itertools.count():
            if j >= len(slots) and not os.read(free, 1):
                os._exit(0)
            yield slots[j % len(slots)]

    try:
        with os.fdopen(ready, "wb") as out:
            try:
                for first, n, _ in stepper.blocks(t, ring()):
                    pickle.dump((first, n), out)
                    out.flush()
                end = None
            except Exception as exc:
                end = _picklable(exc)
            pickle.dump(end, out)
    finally:
        os._exit(0)


@contextmanager
def _step_blocks(stepper: Stepper, t: np.ndarray, ahead: bool):
    """The blocks of ``stepper.blocks(t)``: yields an iterator of each
    block's first step, its constraint at t_{n+1} stacked, and its steps'
    ``StepOperators`` (``Stepper.operators``). The caller lets go of a
    block before it asks for the next.

    In-process, each block's tables are new arrays. With ``ahead``, unless
    the fork fails, a forked producer process (``_produce``) writes them
    into the RING_SLOTS slots of a shared anonymous mapping in turn, and
    announces each block on a pipe; the operators of each slot are viewed
    once, and the iterator hands a slot back when the caller asks for the
    next block. An exception that the blocks raise in the producer is
    raised here, at the same block. When the ``with`` block ends, the
    producer has exited and been waited for."""
    k = stepper.block_steps()
    pid = None
    if ahead:
        size = stepper._layout(k)[2]
        ring = memoryview(mmap.mmap(-1, max(1, RING_SLOTS * size)))
        slots = [stepper.tables(k, ring[j * size:(j + 1) * size])
                 for j in range(RING_SLOTS)]
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:     # no process to spare: tabulate in-process
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
    if pid is None:
        def made():
            for first, n, tables in stepper.blocks(t):
                yield (first, *stepper.operators(tables, n))
                del tables      # not kept while the next block is built
        yield made()
        return
    if not pid:
        os.close(ready_r)
        os.close(free_w)
        _produce(stepper, t, slots, free_r, ready_w)
    os.close(ready_w)
    os.close(free_r)
    ready = os.fdopen(ready_r, "rb")
    ended = False
    views = [stepper.operators(slot, k) for slot in slots]

    def received():
        nonlocal ended
        for j in itertools.count():
            try:
                block = pickle.load(ready)
            except EOFError:
                raise RuntimeError("the step tables' producer process ended "
                                   "early") from None
            if block is None:
                ended = True
                return
            if isinstance(block, Exception):
                raise block
            first, n = block
            slot = j % RING_SLOTS
            yield (first, *(views[slot] if n == k
                            else stepper.operators(slots[slot], n)))
            try:
                os.write(free_w, b"\0")
            except BrokenPipeError:
                pass    # the producer has ended; ``ready`` says how

    try:
        yield received()
    finally:
        ready.close()
        os.close(free_w)
        if not ended:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_model(model: CoupledModel, params: SchemeParams, strategy: str,
              n_steps: int, probes: dict | None = None,
              t0_correction: bool = True, bridge_static_init: bool = True,
              displacement_repair_every: int = 0) -> TimeHistory:
    """Integrate ``n_steps`` uniform steps and record the standard probes.

    The steps come a block at a time from ``Stepper.blocks``, which
    evaluates the time-varying coefficients a chunk of whole blocks at a
    time and tabulates each block's operators: ahead of the steps, in a
    forked producer process, when the steps run on one BLAS thread, the run
    has more than one block, and a second CPU may run the producer (see the
    module docstring). The steps are recorded a block at a time: each step
    writes its state into the history and a buffer of the block's bridge
    rows, and the block's probes, residuals and finiteness follow in
    stacked operations, with the bits of one state's. Raises RuntimeError, naming the step and t, at the first step
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
    # A small bridge steps on one BLAS thread, and the other CPU tabulates
    # ahead of it (see the module docstring).
    serial = model.n_b < SERIAL_BRIDGE_DOFS
    ahead = serial and n_steps > len(bridge_rows) and _may_fork()
    with blas_threads(1 if serial else None), \
            _step_blocks(stepper, t[:-1], ahead) as blocks:
        for first, con1, ops in blocks:
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
            # views, so that it is freed before the next block is built, or
            # its slot written again.
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
