"""Scenario-level simulation driver: build path, bridge, and model, then run."""
from __future__ import annotations

import numpy as np

from .beams import BridgeSystem, assemble_bridge
from .integrators import (CoupledModel, SchemeParams, TimeHistory,
                          coupled_model, run_model, scheme_params)
from .pathgeom import PlanPath, build_plan_path
from .scenario import Scenario

__all__ = ["build_scenario_path", "build_scenario_bridge",
           "build_scenario_model", "scenario_scheme", "run_simulation"]


def build_scenario_path(scenario: Scenario) -> PlanPath:
    # Cubic geometry regardless of the bridge's solution degree: transition
    # joints are curvature kinks, and forcing higher continuity through them
    # makes the fit ring, which feeds noise into the frame kinematics.
    return build_plan_path(scenario.plan, ctrl_per_span=scenario.ctrl_per_span,
                           p=3)


def build_scenario_bridge(scenario: Scenario, path: PlanPath) -> BridgeSystem:
    cfg = scenario.bridge
    return assemble_bridge(path, cfg.section, kind=cfg.kind, degree=cfg.degree,
                           elems_per_span=cfg.elements_per_span,
                           supports=list(cfg.supports) if cfg.supports else None,
                           rayleigh=cfg.rayleigh)


def build_scenario_model(scenario: Scenario, path: PlanPath | None = None,
                         bridge: BridgeSystem | None = None) -> CoupledModel:
    if path is None:
        path = build_scenario_path(scenario)
    if bridge is None:
        bridge = build_scenario_bridge(scenario, path)
    model = coupled_model(path, bridge, scenario.vehicle)
    if scenario.add_static_axle_load:
        veh = scenario.vehicle
        model.axle_load = np.array([0.0, -(veh.m_w + veh.m_c) * veh.g, 0.0])
    return model


def scenario_scheme(scenario: Scenario) -> SchemeParams:
    run = scenario.run
    return scheme_params(run.rho_inf, run.dt, newmark=run.newmark)


def run_simulation(scenario: Scenario, model: CoupledModel | None = None) -> TimeHistory:
    """Integrate the configured scenario and record its probes every step."""
    if model is None:
        model = build_scenario_model(scenario)
    run = scenario.run
    params = scenario_scheme(scenario)
    probes = {p.name: p.s for p in scenario.probes}
    return run_model(
        model, params, run.strategy, run.n_steps, probes=probes,
        t0_correction=run.t0_correction,
        bridge_static_init=run.bridge_static_init,
        displacement_repair_every=run.displacement_repair_every)
