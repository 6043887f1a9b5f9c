"""Scenario configuration: JSON loading, validation, and built-in defaults.

A scenario file is a JSON object with (all optional) sections ``plan``,
``bridge``, ``vehicle``, ``run``, ``probes``, and ``flags``. One schema,
``_SCENARIO``, gives every lower_snake_case key a reader of its JSON type;
an unknown key or a bad value raises ``ScenarioError`` naming its dotted
path. An empty object ``{}`` yields the dataclass defaults below: five 30 m
spans, NURBS degree 3 bridge, vehicle at 100 m/s, Strategy A, dt = 1e-3 s.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields

from .beams import N_FIELDS, BeamSection
from .pathgeom import PlanSpec, Span
from .vehicle import VehicleParams

__all__ = ["Scenario", "RunConfig", "BridgeConfig", "Probe",
           "ScenarioError", "load_scenario", "parse_scenario",
           "default_plan_spec"]


# Largest step count of a run: its time history is allocated in full before
# the first step. Its coefficients are evaluated a chunk of steps at a time,
# so no coefficient table grows with the step count.
MAX_STEPS = 1_000_000
# Smallest step count of a run: the report's oscillation indices need eight
# samples, the initial state and seven steps.
MIN_STEPS = 7
# Largest bridge, in DOFs before supports: N_FIELDS (n_spans
# elements_per_span + degree) for NURBS, N_FIELDS (n_spans elements_per_span
# + 1) for FEM. The bridge is dense (n_red is close to n_full). At its peak
# a run holds three n_full^2 float64 arrays: in assembly the dense basis Z,
# a full matrix and Z^T times it; then reduced M and K with Z, or with the
# static solve's copy of K, or with the step block. A damped bridge adds a
# fourth while it steps, its dense C. At n_full 1,938 the run peaks at
# 144 MB undamped, of which about 45 MB is the interpreter and libraries.
# The limit allows seven arrays, which leaves three (two damped) for
# LAPACK's work space and headroom: a 2 GB budget, a quarter of an 8 GB
# machine, allows 7 * 8 B * n_full^2 <= 2e9, so n_full <= 5,976.
MAX_BRIDGE_DOFS = 5_976
# Largest plan fit, in knot spans N = n_spans ctrl_per_span: its collocation
# matrix is (20 N + 1) x (N + 3) float64, and a 1 GB budget for it allows
# 160 B * N^2 <= 1e9, so N <= 2,500.
MAX_FIT_SPANS = 2_500
# Longest plan span, in m. The plan fit and the bridge elements take
# lengths to the third power (``pathgeom.ipow``), which overflows a float64
# from about 1e102 m and ends a run in a traceback. 1e6 m, far longer than
# any bridge span, keeps those cubes below 1e18 m^3.
MAX_SPAN_LENGTH = 1e6


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
            raise ScenarioError("bridge.kind must be 'nurbs' or 'fem'")
        if self.degree < 1 or self.elements_per_span < 1:
            raise ScenarioError(
                "bridge.degree and bridge.elements_per_span must be >= 1")
        # An empty list would mean a bridge with no supports, which is
        # singular; null or no key gives the default supports.
        if self.supports is not None and not self.supports:
            raise ScenarioError("bridge.supports is empty: list at least one "
                                "support, or leave the key out for the "
                                "default supports")
        for i, (_, fixed) in enumerate(self.supports or ()):
            if not fixed:
                raise ScenarioError("bridge.supports[%d] fixes no field: "
                                    "list at least one of 0..5" % i)
        # Negative damping feeds energy into the bridge.
        if min(self.rayleigh) < 0.0:
            raise ScenarioError("bridge.rayleigh coefficients must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Time integration of a run.

    ``rho_inf`` and ``newmark`` left at ``"auto"`` follow the strategy:
    B and C run plain Newmark (``rho_inf`` None, ``newmark`` True) unless
    either is given; otherwise ``rho_inf`` is 0.9 and ``newmark`` False.
    """

    strategy: str = "A"
    rho_inf: float | None | str = "auto"
    newmark: bool | str = "auto"
    dt: float = 1e-3
    horizon: float = 1.5
    t0_correction: bool = True
    displacement_repair_every: int = 0
    bridge_static_init: bool = True

    def __post_init__(self):
        if self.strategy not in ("A", "B", "C"):
            raise ScenarioError("run.strategy must be 'A', 'B', or 'C'")
        plain = (self.strategy != "A" and self.rho_inf == "auto"
                 and self.newmark == "auto")
        if self.rho_inf == "auto":
            object.__setattr__(self, "rho_inf", None if plain else 0.9)
        if self.newmark == "auto":
            object.__setattr__(self, "newmark", plain)
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ScenarioError("run.dt and run.horizon must be positive")
        if not self.horizon / self.dt <= MAX_STEPS:
            raise ScenarioError(
                "run.horizon / run.dt is %g steps, above the limit of %d"
                % (self.horizon / self.dt, MAX_STEPS))
        if self.n_steps < MIN_STEPS:
            raise ScenarioError(
                "run.horizon / run.dt is %d steps, below the minimum of %d"
                % (self.n_steps, MIN_STEPS))
        if self.rho_inf is not None and not (0.0 <= self.rho_inf <= 1.0):
            raise ScenarioError("run.rho_inf must lie in [0, 1]")
        if self.strategy == "C" and self.rho_inf is not None \
                and not self.newmark:
            raise ScenarioError("run.rho_inf must be null with strategy C, "
                                "which runs plain Newmark")
        if self.displacement_repair_every < 0:
            raise ScenarioError("run.displacement_repair_every must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


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
        # The default probe: midspan of the first circular span, or the
        # path's midpoint when there is none.
        if not self.probes:
            arc = self.first_arc
            s = (arc[0] + 0.5 * arc[1].length if arc
                 else 0.5 * self.plan.total_length)
            object.__setattr__(self, "probes", (Probe("midspan", s),))
        if self.ctrl_per_span < 1:
            raise ScenarioError("plan.ctrl_per_span must be >= 1")
        for i, sp in enumerate(self.plan.spans):
            if sp.length > MAX_SPAN_LENGTH:
                raise ScenarioError(
                    "plan.spans[%d] is %.8g m long, above the limit of %g m"
                    % (i, sp.length, MAX_SPAN_LENGTH))
        n_spans = len(self.plan.spans)
        if n_spans * self.ctrl_per_span > MAX_FIT_SPANS:
            raise ScenarioError(
                "plan.ctrl_per_span %d on %d spans is above the limit of %d "
                "knot spans in all" % (self.ctrl_per_span, n_spans,
                                       MAX_FIT_SPANS))
        br = self.bridge
        n_full = N_FIELDS * (n_spans * br.elements_per_span
                             + (br.degree if br.kind == "nurbs" else 1))
        if n_full > MAX_BRIDGE_DOFS:
            raise ScenarioError(
                "bridge.elements_per_span %d (bridge.degree %d) on %d spans "
                "gives %d bridge DOFs, above the limit of %d"
                % (br.elements_per_span, br.degree, n_spans, n_full,
                   MAX_BRIDGE_DOFS))
        L = self.plan.total_length
        if self.vehicle.v > 0 and self.run.horizon > L / self.vehicle.v + 1e-12:
            raise ScenarioError(
                "run.horizon %g s exceeds path length / speed = %g s"
                % (self.run.horizon, L / self.vehicle.v))
        names = {}
        for i, p in enumerate(self.probes):
            if not (0.0 <= p.s <= L):
                raise ScenarioError("probes[%d] %r at s=%g is off the path"
                                    % (i, p.name, p.s))
            if p.name in names:
                raise ScenarioError("probes[%d].name %r is the name of "
                                    "probes[%d]" % (i, p.name, names[p.name]))
            names[p.name] = i
        for i, (s, _) in enumerate(self.bridge.supports or ()):
            if not (0.0 <= s <= L):
                raise ScenarioError("bridge.supports[%d] at s=%g is off the "
                                    "path [0, %g]" % (i, s, L))

    @property
    def first_arc(self) -> tuple[float, Span] | None:
        """The start arclength and the span of the first circular span, if
        any; the start is the sum of the lengths before it, in order."""
        s = 0.0
        for sp in self.plan.spans:
            if sp.kind == "arc":
                return s, sp
            s += sp.length
        return None


def _wrong(path: str, expected: str, value) -> ScenarioError:
    return ScenarioError("%s must be %s, got %.60r" % (path, expected, value))


def _build(make, path: str, *args, **kwargs):
    """``make(*args, **kwargs)``, naming ``path`` in a ValueError it raises."""
    try:
        return make(*args, **kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError("%s: %s" % (path, exc)) from None


def _scalar(expected: str, accept, convert=None):
    """Reader of one JSON scalar. Every reader maps (value, dotted path) to
    the parsed value or raises a ScenarioError naming the path."""
    def read(value, path):
        if not accept(value):
            raise _wrong(path, expected, value)
        return convert(value) if convert else value
    return read


_number = _scalar("a finite number", lambda v: type(v) in (int, float)
                  and abs(v) <= sys.float_info.max, float)
_integer = _scalar("an integer", lambda v: type(v) is int
                   or type(v) is float and v.is_integer(), int)
_boolean = _scalar("true or false", lambda v: isinstance(v, bool))
_field_index = _scalar("a field 0..5 (u_t, u_n, u_b, th_t, th_n, th_b)",
                       lambda v: type(v) is not bool and v in range(6), int)


def _text(fold=None):
    return _scalar("a string", lambda v: isinstance(v, str), fold)


def _nullable(read):
    return lambda value, path: None if value is None else read(value, path)


def _list(*items, make=tuple):
    """A list built by ``make``: with one reader, of any length; with more,
    of fixed length, one reader per position."""
    def read(value, path):
        n = len(items)
        if not isinstance(value, (list, tuple)) or n > 1 and len(value) != n:
            raise _wrong(path, "a list of %d" % n if n > 1 else "a list",
                         value)
        each = items * len(value) if n == 1 else items
        return _build(make, path, [item(v, "%s[%d]" % (path, i)) for i, (
            item, v) in enumerate(zip(each, value))])
    return read


def _object(make=None, **keys):
    """An object of the given keys, each a reader or (reader, default), where
    a default is a constant, ``...`` (required) or a function of (fields read,
    path). The values build dataclass ``make``, whose fields are the keys
    lower-cased; a dict read (a section without ``make``) merges into them."""
    keys = {k: r if type(r) is tuple else (r, None) for k, r in keys.items()}
    names = {f.name.lower(): f.name for f in fields(make)} if make else {}

    def read(value, path):
        where = path or "scenario"
        if not isinstance(value, dict):
            raise _wrong(where, "an object", value)
        for key in value:
            if key not in keys:
                raise ScenarioError("unknown key %r in %s" % (key, where))
        kw = {}
        for key, (read_key, default) in keys.items():
            if key in value:
                val = read_key(value[key], (path + "." + key).lstrip("."))
            elif default is ...:
                raise ScenarioError("%s needs key %r" % (where, key))
            elif default is None:
                continue
            else:
                val = default(kw, where) if callable(default) else default
            if isinstance(val, dict):
                kw.update(val)
            else:
                kw[names.get(key, key)] = val
        return _build(make, where, **kw) if make else kw
    return read


def _probe_name(kw, path) -> str:  # probes[i] is named probe<i>
    return "probe" + path[path.rindex("[") + 1:-1]


_SCENARIO = _object(
    Scenario,
    plan=_object(
        spans=_list(_object(
            Span, kind=(_text(), "straight"), length=(_number, 30.0),
            radius_start=_nullable(_number), radius_end=_nullable(_number)),
            make=lambda spans: {"plan": PlanSpec(spans)}),
        ctrl_per_span=_integer),
    bridge=_object(
        BridgeConfig, kind=_text(str.lower), degree=_integer,
        elements_per_span=_integer,
        section=_object(BeamSection, e=_number, g=_number, a=_number,
                        a_n=_number, a_b=_number, i_t=_number, i_n=_number,
                        i_b=_number, rho_lin=_number),
        supports=_nullable(_list(_list(_number, _list(_field_index)))),
        rayleigh=_list(_number, _number)),
    vehicle=_object(VehicleParams, m_w=_number, m_c=_number, i_w=_number,
                    i_c=_number, k_s=_number, l_0=_number, g=_number,
                    v=_number),
    run=_object(
        RunConfig, strategy=_text(str.upper), rho_inf=_nullable(_number),
        newmark=_boolean, dt=_number, horizon=_number,
        t0_correction=_boolean, displacement_repair_every=_integer,
        bridge_static_init=_boolean),
    probes=_list(_object(Probe, name=(_text(), _probe_name),
                         s=(_number, ...))),
    flags=_object(add_static_axle_load=_boolean),
)


def parse_scenario(data: dict) -> Scenario:
    """Build a fully-populated scenario from a parsed JSON object."""
    return _SCENARIO(data, "")


def read_scenario_file(path):
    """The JSON value in a scenario file; ScenarioError unless UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ScenarioError("cannot parse %s: %s" % (path, exc)) from None


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    return parse_scenario(read_scenario_file(path))
