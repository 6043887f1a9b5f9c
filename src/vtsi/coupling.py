"""Wheel-bridge kinematic coupling.

The wheel's transverse displacement, vertical displacement, and roll are tied
to the bridge fields ``COUPLED_FIELDS`` = (u_n, u_b, th_t) at the wheel's
current arclength. The coupling rows are shape-function values; their first
and second time derivatives follow from the chain rule at constant speed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import F_TT, F_UB, F_UN, BridgeSystem, FieldRows

__all__ = ["ConstraintSnapshot", "constraint_rates"]

COUPLED_FIELDS = (F_UN, F_UB, F_TT)


@dataclass(frozen=True)
class ConstraintSnapshot:
    """Coupling rows and their time rates at one wheel position, or at each
    of an array of positions ``s``.

    Orders 0, 1, 2 of ``rows`` are L, L_dot and L_ddot over the full bridge
    DOFs, stored compactly; ``reduced`` maps one position's rows through the
    boundary-condition reduction.
    """

    s: float | np.ndarray
    rows: FieldRows

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

    def reduced(self, Z: np.ndarray, i=0):
        """L Z, L_dot Z and L_ddot Z at position ``i``, or stacked at each
        position of an index array ``i``."""
        return tuple(np.moveaxis(self.rows.reduced(i, Z), -3, 0))


def constraint_rates(bridge: BridgeSystem, s, v: float) -> ConstraintSnapshot:
    """Coupling rows with first and second time derivatives at speed ``v``,
    at one arclength ``s`` or at each of an array of them."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    off = ~((0.0 <= s_arr) & (s_arr <= bridge.length + 1e-9))
    if np.any(off):
        raise ValueError("wheel at s=%g is off the bridge" % s_arr[off][0])
    rows = bridge.shape.rows(s_arr, COUPLED_FIELDS, 2)
    rows.vals[:, 1] *= v
    rows.vals[:, 2] *= v * v
    return ConstraintSnapshot(s, rows)

