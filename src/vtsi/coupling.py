"""Wheel-bridge kinematic coupling.

The wheel's transverse displacement, vertical displacement, and roll are tied
to the bridge fields ``COUPLED_FIELDS`` = (u_n, u_b, th_t) at the wheel's
current arclength. The coupling rows are shape-function values; their first
and second time derivatives follow from the chain rule at constant speed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import F_TT, F_UB, F_UN, BridgeSystem
from .vehicle import L_TR, VehicleSystem

__all__ = ["ConstraintSnapshot", "constraint_rates", "residual"]

COUPLED_FIELDS = (F_UN, F_UB, F_TT)


@dataclass(frozen=True)
class ConstraintSnapshot:
    """Coupling rows and their time rates at one wheel position.

    Rows are over the full bridge DOFs; ``reduced`` maps them through the
    boundary-condition reduction.
    """

    s: float
    L: np.ndarray
    L_dot: np.ndarray
    L_ddot: np.ndarray

    def reduced(self, Z: np.ndarray):
        return self.L @ Z, self.L_dot @ Z, self.L_ddot @ Z


def constraint_rates(bridge: BridgeSystem, s: float, v: float) -> ConstraintSnapshot:
    """Coupling rows with first and second time derivatives at speed ``v``."""
    if not (0.0 <= s <= bridge.length + 1e-9):
        raise ValueError("wheel at s=%g is off the bridge" % s)
    L, L1, L2 = bridge.shape.rows(s, COUPLED_FIELDS, 2)
    return ConstraintSnapshot(s, L, v * L1, v * v * L2)


def residual(vehicle: VehicleSystem, bridge: BridgeSystem, Lb: np.ndarray,
             ut, vt, at, ub, vb, ab, lam):
    """Block residuals of the coupled equations (train, bridge, constraint)
    with reduced coupling rows ``Lb``."""
    r_t = (vehicle.M @ at + vehicle.C @ vt + vehicle.K @ ut + L_TR @ lam
           - vehicle.P)
    r_b = (bridge.M @ ab + bridge.C @ vb + bridge.K @ ub + Lb.T @ lam
           - bridge.P)
    r_c = L_TR.T @ ut + Lb @ ub
    return r_t, r_b, r_c
