"""Diagnostic metrics: oscillation index, centripetal check, run report."""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .integrators import TimeHistory
from .scenario import Scenario

__all__ = ["oscillation_index", "centripetal_check", "CentripetalCheck",
           "DiagnosticReport", "build_report",
           "DECK_ACC_LIMIT", "CAR_ACC_LIMIT"]

# Informational comfort/serviceability flags (vertical accelerations, m/s^2).
DECK_ACC_LIMIT = 3.5
CAR_ACC_LIMIT = 1.0


def oscillation_index(signal, dt: float) -> float:
    """Normalized high-frequency content of a uniformly sampled signal.

    RMS of the second central difference over dt^2 times the signal RMS.
    A smooth signal scores near the square of its dominant angular frequency;
    a sample-to-sample alternating signal scores the maximal 4 / dt^2.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or len(x) < 8:
        raise ValueError("need a 1-D signal with at least 8 samples")
    if dt <= 0.0:
        raise ValueError("sample spacing must be positive")
    d2 = x[2:] - 2.0 * x[1:-1] + x[:-2]
    num = np.sqrt(np.mean(d2 ** 2))
    den = dt * dt * np.sqrt(np.mean(x ** 2)) + np.finfo(float).tiny
    return float(num / den)


@dataclass(frozen=True)
class CentripetalCheck:
    """Mean transverse contact force on the circular span vs m v^2 / R."""

    mean_force: float
    reference: float
    rel_error: float


def centripetal_check(history: TimeHistory, scenario: Scenario) -> CentripetalCheck:
    """Compare mean transverse contact force on the arc span to (m_w+m_c) v^2/R."""
    first = scenario.first_arc
    if first is None:
        raise ValueError("scenario path contains no circular span")
    start, arc = first
    veh = scenario.vehicle
    R = float(arc.radius_start)
    reference = (veh.m_w + veh.m_c) * veh.v ** 2 / R
    if veh.v > 0.0:
        s = veh.v * history.t
        mask = (s >= start) & (s <= start + arc.length)
    else:
        mask = np.ones_like(history.t, dtype=bool)
    if not np.any(mask):
        raise ValueError("run never reaches the circular span")
    mean_force = float(np.mean(history.lam[mask, 0]))
    denom = abs(reference) if reference else 1.0
    rel_error = abs(mean_force - reference) / denom
    return CentripetalCheck(mean_force, reference, rel_error)


@dataclass(frozen=True)
class DiagnosticReport:
    """Per-run health summary written to report.json."""

    oscillation_indices: dict
    max_residual_disp: float
    max_residual_vel: float
    max_residual_acc: float
    drift_max: float
    drift_final: float
    centripetal: dict | None
    deck_acc_max: float
    car_acc_max: float
    deck_acc_exceeds_limit: bool
    car_acc_exceeds_limit: bool

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(history: TimeHistory, scenario: Scenario) -> DiagnosticReport:
    dt = history.dt
    indices = {
        "wheel_vertical_acc": oscillation_index(history.at[:, 1], dt),
        "car_vertical_acc": oscillation_index(history.at[:, 3], dt),
        "lam_y": oscillation_index(history.lam[:, 0], dt),
        "lam_z": oscillation_index(history.lam[:, 1], dt),
    }
    deck_acc_max = 0.0
    for name, series in history.probes.items():
        indices["%s_vertical_acc" % name] = oscillation_index(series[:, 3], dt)
        deck_acc_max = max(deck_acc_max, float(np.max(np.abs(series[:, 3]))))
    car_acc_max = float(np.max(np.abs(history.at[:, 3])))

    try:
        cent = asdict(centripetal_check(history, scenario))
    except ValueError:
        cent = None

    report = DiagnosticReport(
        oscillation_indices=indices,
        max_residual_disp=float(np.max(np.abs(history.res_disp))),
        max_residual_vel=float(np.max(np.abs(history.res_vel))),
        max_residual_acc=float(np.max(np.abs(history.res_acc))),
        drift_max=float(np.max(np.abs(history.res_disp))),
        drift_final=float(history.res_disp[-1]),
        centripetal=cent,
        deck_acc_max=deck_acc_max,
        car_acc_max=car_acc_max,
        deck_acc_exceeds_limit=deck_acc_max > DECK_ACC_LIMIT,
        car_acc_exceeds_limit=car_acc_max > CAR_ACC_LIMIT,
    )
    for value in (report.max_residual_disp, report.max_residual_vel,
                  report.max_residual_acc, report.deck_acc_max,
                  report.car_acc_max):
        if not np.isfinite(value):
            raise ValueError("non-finite diagnostic value in report")
    return report
