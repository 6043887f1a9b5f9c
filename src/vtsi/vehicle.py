"""Simplified 4-DOF corotational vehicle.

Generalized coordinates: transverse and vertical wheel displacements, vehicle
roll, and vertical car displacement, all measured in the moving Frenet frame.
The time-varying matrices are built from the selection matrices and the
angular-velocity hat map, which reproduces the explicit entry formulas of the
closed-form vehicle matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pathgeom import FrameKinematics

__all__ = [
    "VehicleParams",
    "VehicleSystem",
    "T_WHEEL",
    "L_TR",
    "hat",
    "vehicle_matrices",
    "vehicle_energy",
    "wheel_position",
    "car_position",
]

# Local position of the wheel is (0, u1, u2); the car adds the roll lever and
# rides at l0 above the wheel: (0, u1 - l0 u3, u4 + l0).
T_WHEEL = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])

L_TR = np.array([
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.0, 0.0, 0.0],
])


def t_car(l0: float) -> np.ndarray:
    return np.array([
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, -l0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix: hat(w) x = w cross x, for one
    vector w or (stacked) for each of an array of them."""
    w = np.asarray(w, dtype=float)
    H = np.zeros(w.shape + (3,))
    H[..., 0, 1], H[..., 0, 2] = -w[..., 2], w[..., 1]
    H[..., 1, 0], H[..., 1, 2] = w[..., 2], -w[..., 0]
    H[..., 2, 0], H[..., 2, 1] = -w[..., 1], w[..., 0]
    return H


@dataclass(frozen=True)
class VehicleParams:
    """Wheel/car masses and inertias, suspension stiffness, speed."""

    m_w: float = 7120.0
    m_c: float = 41750.0
    I_w: float = 1.14e3
    I_c: float = 23.2e3
    k_s: float = 865.6e3
    l_0: float = 1.37
    g: float = 9.81
    v: float = 100.0

    def __post_init__(self):
        for name in ("m_w", "m_c", "I_w", "I_c", "k_s", "l_0", "g"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive" % name)
        if self.v < 0.0:
            raise ValueError("speed must be nonnegative")


@dataclass(frozen=True)
class VehicleSystem:
    """Snapshot of the vehicle matrices at one frame configuration, or a
    stack of them with a leading axis over configurations."""

    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    P: np.ndarray

    def __getitem__(self, i) -> "VehicleSystem":
        return VehicleSystem(self.M[i], self.C[i], self.K[i], self.P[i])


def mass_matrix(params: VehicleParams) -> np.ndarray:
    Tw, Tc = T_WHEEL, t_car(params.l_0)
    M = params.m_w * Tw.T @ Tw + params.m_c * Tc.T @ Tc
    M[2, 2] += params.I_w + params.I_c
    return M


def vehicle_matrices(params: VehicleParams, fk: FrameKinematics,
                     rotation_ref: np.ndarray | None = None) -> VehicleSystem:
    """Time-varying vehicle matrices at one frame snapshot, or stacked (by
    stacked matrix products) at each of a stack of them.

    ``rotation_ref`` is the frame rotation at t = 0, entering the gravity term
    of the load vector; omitted, the gravity term vanishes (planar paths).
    """
    Tw, Tc = T_WHEEL, t_car(params.l_0)
    mw, mc = params.m_w, params.m_c
    W = hat(fk.omega)
    Wd = hat(fk.omega_dot)
    W2 = W @ W
    stack = W.shape[:-2]

    M = np.broadcast_to(mass_matrix(params), stack + (4, 4))
    C = 2.0 * mw * Tw.T @ W @ Tw + 2.0 * mc * Tc.T @ W @ Tc
    K = mw * Tw.T @ (Wd + W2) @ Tw + mc * Tc.T @ (Wd + W2) @ Tc
    ks = params.k_s
    K[..., 1, 1] += ks
    K[..., 3, 3] += ks
    K[..., 1, 3] -= ks
    K[..., 3, 1] -= ks

    lever = np.array([0.0, 0.0, params.l_0])
    RT = np.swapaxes(fk.rotation, -1, -2)
    acc_local = RT @ fk.origin_acc[..., None]
    P = -(mw * Tw.T + mc * Tc.T) @ acc_local
    P -= mc * Tc.T @ (Wd @ lever)[..., None]
    P -= mc * Tc.T @ (W2 @ lever)[..., None]
    if rotation_ref is not None:
        dR = RT - rotation_ref.T
        P -= ((mw * params.g * Tw.T + mc * params.g * Tc.T)
              @ (dR @ np.array([0.0, 0.0, 1.0]))[..., None])
    return VehicleSystem(M, C, K, P[..., 0])


def wheel_position(params: VehicleParams, fk: FrameKinematics,
                   u: np.ndarray) -> np.ndarray:
    """Wheel position relative to the frame origin, R^F T^w u."""
    return fk.rotation @ (T_WHEEL @ np.asarray(u, dtype=float))


def car_position(params: VehicleParams, fk: FrameKinematics,
                 u: np.ndarray) -> np.ndarray:
    """Car position relative to the frame origin, R^F (T^c u + (0, 0, l0))."""
    lever = np.array([0.0, 0.0, params.l_0])
    return fk.rotation @ (t_car(params.l_0) @ np.asarray(u, dtype=float) + lever)


def _velocities(params: VehicleParams, fk: FrameKinematics, u, udot):
    Tw, Tc = T_WHEEL, t_car(params.l_0)
    W = hat(fk.omega)
    lever = np.array([0.0, 0.0, params.l_0])
    R = fk.rotation
    xw_dot = fk.origin_vel + R @ (W @ (Tw @ u)) + R @ (Tw @ udot)
    xc_dot = (fk.origin_vel + R @ (W @ (Tc @ u)) + R @ (Tc @ udot)
              + R @ (W @ lever))
    return xw_dot, xc_dot


def vehicle_energy(params: VehicleParams, fk: FrameKinematics, u, udot):
    """Kinetic and potential energy (T, V) of the vehicle.

    Heights in the gravity terms are measured from the positions at u = 0
    in the current frame.
    """
    u = np.asarray(u, dtype=float)
    udot = np.asarray(udot, dtype=float)
    xw_dot, xc_dot = _velocities(params, fk, u, udot)
    T = (0.5 * params.m_w * xw_dot @ xw_dot
         + 0.5 * params.m_c * xc_dot @ xc_dot
         + 0.5 * (params.I_w + params.I_c) * udot[2] ** 2)

    zero = np.zeros(4)
    zw = wheel_position(params, fk, u)[2] - wheel_position(params, fk, zero)[2]
    zc = car_position(params, fk, u)[2] - car_position(params, fk, zero)[2]
    V = (0.5 * params.k_s * (u[3] - u[1]) ** 2
         + params.m_w * params.g * zw + params.m_c * params.g * zc)
    return T, V
