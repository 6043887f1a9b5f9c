"""Wheel-bridge kinematic coupling.

The wheel's transverse displacement, vertical displacement, and roll are tied
to the bridge fields ``COUPLED_FIELDS`` = (u_n, u_b, th_t) at the wheel's
current arclength. The coupling rows are shape-function values; their first
and second time derivatives follow from the chain rule at constant speed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beams import F_TT, F_UB, F_UN, BridgeSystem, FieldRows

__all__ = ["Constraint", "ConstraintTable", "constraint_rates"]

COUPLED_FIELDS = (F_UN, F_UB, F_TT)


class Constraint(NamedTuple):
    """Wheel constraint L_TR^T u_t + L u_b + r = 0 at one instant, or at
    each of a stack of instants (a leading axis on every field).

    ``L``, ``L_dot``, ``L_ddot`` are 3 x n_red coupling rows and their time
    rates; ``r`` stacks the prescribed gap and its two rates (3 x 3, one row
    per order). On a bridge ``r`` is zero; on a rigid profile L has no
    columns.
    """

    L: np.ndarray
    L_dot: np.ndarray
    L_ddot: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class ConstraintTable:
    """Wheel constraints at one position ``s`` or at each of an array of
    them: the prescribed gap ``r`` of each, (m, 3, 3), and on a bridge the
    coupling rows and their time rates, orders 0, 1, 2 of ``rows``, over
    the full DOFs, stored compactly. With no rows (a rigid profile) the
    constraint has no bridge columns.

    ``table[i]`` is the ``Constraint`` at entry i, its rows reduced through
    Z, or those of an index array i stacked; ``L``, ``L_dot`` and ``L_ddot``
    are the full dense rows.
    """

    r: np.ndarray
    rows: FieldRows | None = None
    Z: np.ndarray | None = None
    s: float | np.ndarray | None = None

    def __getitem__(self, i) -> Constraint:
        r = self.r[i]
        if self.rows is None:
            L = np.zeros(r.shape[:-1] + (0,))
            return Constraint(L, L, L, r)
        return Constraint(*np.moveaxis(self.rows.reduced(i, self.Z), -3, 0), r)

    def _full(self, order: int) -> np.ndarray:
        full = self.rows.dense()[:, order]
        return full if np.ndim(self.s) else full[0]

    @property
    def L(self) -> np.ndarray:
        return self._full(0)

    @property
    def L_dot(self) -> np.ndarray:
        return self._full(1)

    @property
    def L_ddot(self) -> np.ndarray:
        return self._full(2)


def constraint_rates(bridge: BridgeSystem, s, v: float) -> ConstraintTable:
    """Coupling rows with first and second time derivatives at speed ``v``,
    at one arclength ``s`` or at each of an array of them; the gap is zero."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    off = ~((0.0 <= s_arr) & (s_arr <= bridge.length + 1e-9))
    if np.any(off):
        raise ValueError("wheel at s=%g is off the bridge" % s_arr[off][0])
    rows = bridge.shape.rows(s_arr, COUPLED_FIELDS, 2)
    rows.vals[:, 1] *= v
    rows.vals[:, 2] *= v * v
    return ConstraintTable(np.broadcast_to(0.0, s_arr.shape + (3, 3)), rows,
                           bridge.Z, s)
