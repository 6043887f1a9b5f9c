"""Scenario configuration: JSON loading, validation, and built-in defaults.

A scenario file is a JSON object with (all optional) sections ``plan``,
``bridge``, ``vehicle``, ``run``, ``probes``, and ``flags``. All keys are
lower_snake_case; unknown keys are rejected with an error naming the key.
An empty object ``{}`` yields the full default setup: five 30 m spans
(straight, transition, circular arc at R = 6000 m, transition, straight),
NURBS degree 3 bridge, 4-DOF vehicle at 100 m/s, Strategy A with
rho_inf = 0.9, dt = 1e-3 s.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf

from .beams import BeamSection
from .pathgeom import PlanSpec, Span
from .vehicle import VehicleParams

__all__ = ["Scenario", "RunConfig", "BridgeConfig", "Probe",
           "ScenarioError", "load_scenario", "parse_scenario",
           "default_plan_spec"]


class ScenarioError(ValueError):
    """Invalid scenario file: bad key, bad value, or broken invariant."""


def default_plan_spec() -> PlanSpec:
    """Two straight, two transition, and one circular 30 m span, R = 6000 m."""
    R = 6000.0
    return PlanSpec(spans=(
        Span("straight", 30.0),
        Span("transition", 30.0, radius_start=None, radius_end=R),
        Span("arc", 30.0, radius_start=R, radius_end=R),
        Span("transition", 30.0, radius_start=R, radius_end=None),
        Span("straight", 30.0),
    ))


@dataclass(frozen=True)
class BridgeConfig:
    kind: str = "nurbs"
    degree: int = 3
    elements_per_span: int = 8
    section: BeamSection = field(default_factory=BeamSection)
    supports: tuple | None = None
    rayleigh: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in ("nurbs", "fem"):
            raise ScenarioError("bridge kind must be 'nurbs' or 'fem'")
        if self.degree < 1 or self.elements_per_span < 1:
            raise ScenarioError("degree and elements_per_span must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    strategy: str = "A"
    rho_inf: float | None = 0.9
    newmark: bool = False
    dt: float = 1e-3
    horizon: float = 1.5
    t0_correction: bool = True
    displacement_repair_every: int = 0
    bridge_static_init: bool = True

    def __post_init__(self):
        if self.strategy not in ("A", "B", "C"):
            raise ScenarioError("run strategy must be 'A', 'B', or 'C'")
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ScenarioError("dt and horizon must be positive")
        if self.rho_inf is not None and not (0.0 <= self.rho_inf <= 1.0):
            raise ScenarioError("rho_inf must lie in [0, 1]")
        if self.displacement_repair_every < 0:
            raise ScenarioError("displacement_repair_every must be >= 0")


@dataclass(frozen=True)
class Probe:
    name: str
    s: float


@dataclass(frozen=True)
class Scenario:
    plan: PlanSpec = field(default_factory=default_plan_spec)
    ctrl_per_span: int = 10
    bridge: BridgeConfig = field(default_factory=BridgeConfig)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    run: RunConfig = field(default_factory=RunConfig)
    probes: tuple = ()
    add_static_axle_load: bool = False

    def __post_init__(self):
        if not self.probes:
            object.__setattr__(self, "probes", (_default_probe(self.plan),))
        L = self.plan.total_length
        if self.vehicle.v > 0 and self.run.horizon > L / self.vehicle.v + 1e-12:
            raise ScenarioError(
                "horizon %g s exceeds path length / speed = %g s"
                % (self.run.horizon, L / self.vehicle.v))
        for p in self.probes:
            if not (0.0 <= p.s <= L):
                raise ScenarioError("probe %r at s=%g is off the path"
                                    % (p.name, p.s))

    @property
    def arc_window(self) -> tuple[float, float] | None:
        """Arclength interval of the first circular span, if any."""
        s = 0.0
        for sp in self.plan.spans:
            if sp.kind == "arc":
                return s, s + sp.length
            s += sp.length
        return None


def _default_probe(plan: PlanSpec) -> Probe:
    """Midspan of the first circular span; path midpoint when none exists."""
    s = 0.0
    for sp in plan.spans:
        if sp.kind == "arc":
            return Probe("midspan", s + 0.5 * sp.length)
        s += sp.length
    return Probe("midspan", 0.5 * plan.total_length)


def _check_keys(obj: dict, allowed, where: str):
    for key in obj:
        if key not in allowed:
            raise ScenarioError("unknown key %r in %s" % (key, where))


def _radius(value, where):
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise ScenarioError("radius in %s must be a number or null" % where)
    return float(value)


def _parse_span(obj: dict, i: int) -> Span:
    where = "plan.spans[%d]" % i
    _check_keys(obj, ("kind", "length", "radius_start", "radius_end"), where)
    try:
        return Span(
            kind=obj.get("kind", "straight"),
            length=float(obj.get("length", 30.0)),
            radius_start=_radius(obj.get("radius_start"), where),
            radius_end=_radius(obj.get("radius_end"), where),
        )
    except ValueError as exc:
        raise ScenarioError("%s: %s" % (where, exc)) from None


def _parse_plan(obj: dict):
    _check_keys(obj, ("spans", "ctrl_per_span"), "plan")
    ctrl = int(obj.get("ctrl_per_span", 10))
    if "spans" in obj:
        try:
            plan = PlanSpec(spans=tuple(
                _parse_span(sp, i) for i, sp in enumerate(obj["spans"])))
        except ValueError as exc:
            raise ScenarioError("plan: %s" % exc) from None
    else:
        plan = default_plan_spec()
    return plan, ctrl


_SECTION_KEYS = {"e": "E", "g": "G", "a": "A", "a_n": "A_n", "a_b": "A_b",
                 "i_t": "I_t", "i_n": "I_n", "i_b": "I_b",
                 "rho_lin": "rho_lin"}


def _parse_bridge(obj: dict) -> BridgeConfig:
    _check_keys(obj, ("kind", "degree", "elements_per_span", "section",
                      "supports", "rayleigh"), "bridge")
    sect_obj = obj.get("section", {})
    _check_keys(sect_obj, _SECTION_KEYS, "bridge.section")
    try:
        section = BeamSection(**{_SECTION_KEYS[k]: float(v)
                                 for k, v in sect_obj.items()})
    except ValueError as exc:
        raise ScenarioError("bridge.section: %s" % exc) from None
    supports = obj.get("supports")
    if supports is not None:
        supports = tuple((float(s), tuple(int(f) for f in fields))
                         for s, fields in supports)
        for i, (_, fields) in enumerate(supports):
            if not all(0 <= f <= 5 for f in fields):
                raise ScenarioError(
                    "bridge.supports[%d]: field indices must lie in 0..5 "
                    "(u_t, u_n, u_b, th_t, th_n, th_b), got %s"
                    % (i, list(fields)))
    rayleigh = tuple(float(x) for x in obj.get("rayleigh", (0.0, 0.0)))
    if len(rayleigh) != 2:
        raise ScenarioError("bridge.rayleigh needs exactly two coefficients")
    return BridgeConfig(
        kind=str(obj.get("kind", "nurbs")).lower(),
        degree=int(obj.get("degree", 3)),
        elements_per_span=int(obj.get("elements_per_span", 8)),
        section=section, supports=supports, rayleigh=rayleigh)


_VEHICLE_KEYS = {"m_w": "m_w", "m_c": "m_c", "i_w": "I_w", "i_c": "I_c",
                 "k_s": "k_s", "l_0": "l_0", "g": "g", "v": "v"}


def _parse_vehicle(obj: dict) -> VehicleParams:
    _check_keys(obj, _VEHICLE_KEYS, "vehicle")
    try:
        return VehicleParams(**{_VEHICLE_KEYS[k]: float(v)
                                for k, v in obj.items()})
    except ValueError as exc:
        raise ScenarioError("vehicle: %s" % exc) from None


def _parse_run(obj: dict) -> RunConfig:
    _check_keys(obj, ("strategy", "rho_inf", "newmark", "dt", "horizon",
                      "t0_correction", "displacement_repair_every",
                      "bridge_static_init"), "run")
    kw = {}
    if "strategy" in obj:
        kw["strategy"] = str(obj["strategy"]).upper()
    if "rho_inf" in obj:
        kw["rho_inf"] = None if obj["rho_inf"] is None else float(obj["rho_inf"])
    for key in ("newmark", "t0_correction", "bridge_static_init"):
        if key in obj:
            kw[key] = bool(obj[key])
    for key in ("dt", "horizon"):
        if key in obj:
            kw[key] = float(obj[key])
    if "displacement_repair_every" in obj:
        kw["displacement_repair_every"] = int(obj["displacement_repair_every"])
    if kw.get("strategy") in ("B", "C") and "newmark" not in kw and "rho_inf" not in kw:
        kw["newmark"] = True
    return RunConfig(**kw)


def _parse_probes(items) -> tuple:
    probes = []
    for i, obj in enumerate(items):
        _check_keys(obj, ("name", "s"), "probes[%d]" % i)
        if "s" not in obj:
            raise ScenarioError("probes[%d] needs an arclength 's'" % i)
        probes.append(Probe(str(obj.get("name", "probe%d" % i)),
                            float(obj["s"])))
    return tuple(probes)


def parse_scenario(data: dict) -> Scenario:
    """Build a fully-populated scenario from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _check_keys(data, ("plan", "bridge", "vehicle", "run", "probes", "flags"),
                "scenario")
    plan, ctrl = _parse_plan(data.get("plan", {}))
    flags = data.get("flags", {})
    _check_keys(flags, ("add_static_axle_load",), "flags")
    return Scenario(
        plan=plan,
        ctrl_per_span=ctrl,
        bridge=_parse_bridge(data.get("bridge", {})),
        vehicle=_parse_vehicle(data.get("vehicle", {})),
        run=_parse_run(data.get("run", {})),
        probes=_parse_probes(data.get("probes", ())),
        add_static_axle_load=bool(flags.get("add_static_axle_load", False)),
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ScenarioError("cannot parse %s: %s" % (path, exc)) from None
    return parse_scenario(data)
