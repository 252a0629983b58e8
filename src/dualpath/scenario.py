"""Scenario configuration: YAML schema, defaults, validation, echo.

The YAML schema is normative for this package.  All network impedances, loads
and powers are in system per-unit; inverter coupling and virtual impedances
are in the inverter's own rating base; angles in config files are degrees.

One table per element type (``_SCENARIO`` and the tables it names) lists
each YAML key with the constructor argument it fills, its parser and its
echo.  Parsing, the field paths of problems and :func:`resolved_dict` all
read these tables.  An absent key leaves its argument to the constructor's
default; null is read as None where the field admits None, and is a problem
elsewhere.

A scenario that fails validation raises :class:`ValidationError` carrying
every offending field path, so a config can be fixed in one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from .detect import DetectorConfig
from .droop import DroopParams, VirtualImpedance
from .events import (
    BreakerSet,
    LoadStep,
    ModeCommand,
    PlugIn,
    PulseLoad,
    SetpointEvent,
    SourceFreq,
    SourceUnbalance,
    TimedEvent,
)
from .frames import TWO_PI, PerUnitBase
from .guard import GuardLimits
from .network import (
    Breaker,
    ConstantImpedanceLoad,
    ConstantPowerLoad,
    GridSource,
    Line,
)
from .pll import PllParams
from .supervisor import Mode, TransitionThresholds


class ParseError(ValueError):
    """The scenario file could not be read or is not a mapping."""


class ValidationError(ValueError):
    """One or more config fields violate the schema invariants."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(slots=True)
class BlackStartConfig:
    ramp_rate: float = 0.5  # pu/s

    def __post_init__(self) -> None:
        if not (type(self.ramp_rate) in (int, float) and 0 < self.ramp_rate < math.inf):
            raise ValueError(f"black_start.ramp_rate {self.ramp_rate!r} is not a positive number")


@dataclass(slots=True)
class OutputConfig:
    decimate: int = 1
    noise_std: float = 0.0  # optional measurement noise (detector inputs)


@dataclass(slots=True)
class InverterConfig:
    id: str
    bus: str
    rating: float = 5000.0
    mode: Mode = Mode.GFL
    z_c: complex = 0.005 + 0.05j      # inverter base
    pcc_breaker: str | None = None
    auto: bool = True
    plugged: bool = True
    droop: DroopParams = field(default_factory=DroopParams)
    vz: VirtualImpedance = field(default_factory=VirtualImpedance)
    pll: PllParams = field(default_factory=PllParams)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    guard: GuardLimits = field(default_factory=GuardLimits)
    thresholds: TransitionThresholds = field(default_factory=TransitionThresholds)
    black_start: BlackStartConfig | None = None

    def __post_init__(self) -> None:
        if self.rating <= 0:
            raise ValueError("rating must be positive")
        if self.z_c == 0:
            raise ValueError("coupling impedance must be nonzero")


@dataclass(slots=True)
class ScenarioConfig:
    name: str = "scenario"
    base: PerUnitBase = field(default_factory=PerUnitBase)
    dt: float = 1e-4
    t_end: float = 1.0
    seed: int = 0
    buses: list[str] = field(default_factory=list)
    lines: list[Line] = field(default_factory=list)
    breakers: list[Breaker] = field(default_factory=list)
    grid_sources: list[GridSource] = field(default_factory=list)
    loads: list = field(default_factory=list)
    inverters: list[InverterConfig] = field(default_factory=list)
    events: list[TimedEvent] = field(default_factory=list)
    output: OutputConfig = field(default_factory=OutputConfig)


# -- value parsers: each raises TypeError or ValueError on a value it rejects


def _float(value) -> float:
    """A finite number (``float(True)`` would read a flag as 1.0, and YAML
    reads ``.nan`` and ``.inf`` as numbers)."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not a finite number")
    return x


def _positive(value) -> float:
    """A number > 0: a duration a control step counts."""
    x = _float(value)
    if x <= 0.0:
        raise ValueError(f"{x} is not a number > 0")
    return x


def _non_negative(value) -> float:
    """A number >= 0: a hold time, a sync threshold or a noise level."""
    x = _float(value)
    if x < 0.0:
        raise ValueError(f"{x} is not a number >= 0")
    return x


def _flag(value) -> bool:
    """A YAML boolean (``bool("false")`` would read a quoted false as True)."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _integer(value) -> int:
    """An integral number (``int(2.7)`` would truncate it to 2)."""
    if isinstance(value, bool) or not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _text(value) -> str:
    """A name or id; YAML may read one as a number, never as null or a flag."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a name")
    return str(value)


def _mode_from_str(s: str) -> Mode:
    try:
        return Mode[str(s).upper()]
    except KeyError:
        raise ValueError(f"unknown mode {s!r} (expected gfl or gfm)")


def _mode_name(s: str) -> str:
    return _mode_from_str(s).name.lower()


# -- the schema tables


class _Key(NamedTuple):
    """A YAML key: the ``make`` argument it fills (None: none), its parser
    (a value parser, table, list or variant; None: per the field's
    annotation), its echo, element -> YAML value (None: the attribute
    ``arg``; False: not echoed), and whether null reads as None."""

    arg: str | None
    parse: Callable | None = None
    echo: Callable | bool | None = None
    optional: bool = False


def _report(parse, exc: Exception, path: str, problems: list[str]) -> None:
    """Add to ``problems``, under ``path``, why ``parse`` rejected a value.
    A nested table reports paths relative to itself, and ``: ...`` for what
    its ``make`` rejects, which a block leaves to the element holding it."""
    if not isinstance(exc, ValidationError):
        problems.append(f"{path}: {exc}")
        return
    bubble = getattr(parse, "block", False)
    problems += [
        p if bubble and p[0] == ":" else path + ("" if p[0] in ":[" else ".") + p
        for p in exc.problems
    ]


def _mapping(raw) -> dict:
    if not isinstance(raw, dict):
        raise TypeError(f"expected a mapping, not {raw!r}")
    return raw


class _Table(NamedTuple):
    """An element type: its keys in echo order and ``make``, which builds
    the element from their arguments; a variant's echo picks it by ``cls``."""

    make: Callable
    keys: dict[str, _Key]
    required: tuple = ()
    block: bool = False
    cls: type | None = None

    def __call__(self, raw):
        _mapping(raw)
        args, problems = {}, [f"{key}: required" for key in self.required if key not in raw]
        for key, value in raw.items():
            k = self.keys.get(key)
            if k is None:
                problems.append(f"{key}: unknown key")
            elif k.arg in args:  # an alias of a key already given
                problems.append(f"{key}: sets {k.arg} a second time")
            elif k.arg:
                try:
                    args[k.arg] = None if value is None and k.optional else k.parse(value)
                except (TypeError, ValueError) as exc:
                    _report(k.parse, exc, key, problems)
        if not problems:
            try:
                return self.make(**args)
            except (TypeError, ValueError) as exc:
                problems.append(f": {exc}")
        raise ValidationError(problems)


_PARSERS = {"float": _float, "int": _integer, "bool": _flag, "str": _text}


def _table(cls, *skip: str, block=False, **keys) -> _Table:
    """The table of the dataclass ``cls``: a key per field but ``skip``,
    parsed per its annotation, required without a default and optional
    where the field admits None.  An entry of ``keys`` (a key, or the
    parser of the field of its name) takes the place of the field it
    fills, or follows them."""
    keys = {key: k if isinstance(k, _Key) else _Key(key, k) for key, k in keys.items()}
    placed = {k.arg: key for key, k in keys.items() if k.echo is not False}
    table, required = {}, []
    for f in fields(cls):
        if f.name not in skip:
            key = placed.get(f.name, f.name)
            k = keys.get(key) or _Key(f.name)
            parse = k.parse or _PARSERS[f.type.removesuffix(" | None")]
            table[key] = k._replace(parse=parse, optional=f.type.endswith(" | None"))
            if f.default is MISSING and f.default_factory is MISSING:
                required.append(key)
    table.update((key, k) for key, k in keys.items() if key not in table)
    return _Table(cls, table, tuple(required), block, cls)


class _List(NamedTuple):
    """A list of elements read by ``item``."""

    item: Callable

    def __call__(self, raw):
        if not isinstance(raw, list):
            raise TypeError(f"expected a list, not {raw!r}")
        items, problems = [], []
        for i, item in enumerate(raw):
            try:
                items.append(self.item(item))
            except (TypeError, ValueError) as exc:
                _report(self.item, exc, f"[{i}]", problems)
        if problems:
            raise ValidationError(problems)
        return items


class _Variant(NamedTuple):
    """An element whose key ``tag`` (``default`` when absent) names its
    table; the echo picks the table whose ``cls`` is that of ``of(element)``."""

    tag: str
    what: str
    tables: dict[str, _Table]
    default: str | None = None
    of: Callable = lambda element: element

    def __call__(self, raw):
        kind = _mapping(raw).get(self.tag, self.default)
        table = self.tables.get(kind) if isinstance(kind, str) else None
        if table is None:
            raise ValidationError([f"{self.tag}: unknown {self.what} {kind!r}"])
        return table(raw)


def _echo(parse, value):
    """The YAML form of ``value``, read by ``parse``; an absent optional
    block is left out."""
    if isinstance(parse, _Variant):
        cls = type(parse.of(value))
        parse = next(t for t in parse.tables.values() if t.cls is cls)
    if isinstance(parse, _List):
        return [_echo(parse.item, item) for item in value]
    if not isinstance(parse, _Table):
        return value
    out = {}
    for key, k in parse.keys.items():
        if k.echo is not False:
            v = (k.echo or attrgetter(k.arg))(value)
            if not (v is None and isinstance(k.parse, _Table)):
                out[key] = _echo(k.parse, v)
    return out


def _radians(degrees) -> float:
    return math.radians(_float(degrees))


def _non_negative_radians(degrees) -> float:
    return math.radians(_non_negative(degrees))


def _degrees(arg: str, parse=_radians) -> _Key:
    """A key in degrees, read by ``parse``, for the angle argument ``arg`` in
    radians."""
    return _Key(arg, parse, lambda e: math.degrees(getattr(e, arg)))


def _grid_source(v=1.0, angle_deg=0.0, r_s=0.0, x_s=0.0, **kw) -> GridSource:
    """A source without ``f`` gets ``base.f_nom`` once the base is read."""
    return GridSource(
        e=cmath.rect(v, math.radians(angle_deg)), z_s=complex(r_s, x_s) or 0.001 + 0.01j, **kw
    )


def _inverter(droop=None, **kw) -> InverterConfig:
    """The setpoints join the droop block's arguments, and the mode is read
    here, so a bad one is reported under the inverter."""
    setpoints = {key: kw.pop(key) for key in _SETPOINTS if key in kw}
    if "mode" in kw:
        kw["mode"] = _mode_from_str(kw["mode"])
    return InverterConfig(droop=DroopParams(**(droop or {}), **setpoints), **kw)


def _event(etype: str, cls, keys: dict) -> _Table:
    """Time and type, then the keys of the fields of ``cls``, echoed from
    the event a ``TimedEvent`` holds."""
    own = _table(cls, **keys)
    return _Table(
        lambda t, **kw: TimedEvent(t, cls(**kw)),
        {"t": _Key("t", _float), "type": _Key(None, echo=lambda te: etype), **{
            key: k._replace(echo=lambda te, get=k.echo or attrgetter(k.arg): get(te.event))
            for key, k in own.keys.items()
        }},
        ("t", *own.required), cls=cls,
    )


# frequencies a document may leave out: their offsets from base.f_nom, Hz
_F_OFFSETS = {"f_grid": 0.0, "f_min": -0.7, "f_max": 0.5, "f_pred_min": -0.5, "f_pred_max": 0.5}


def _at_f_nom(element, f_nom: float, where: str, problems: list[str]):
    """``element`` with each frequency of ``_F_OFFSETS`` it leaves None at
    its offset from ``f_nom``.  A window edge (a nonzero offset) that is not
    strictly on its offset's side of ``f_nom`` is a problem under ``where``,
    and leaves the element as it is."""
    fill, held = {}, True
    for key, d in _F_OFFSETS.items():
        if hasattr(element, key):
            f = getattr(element, key)
            if f is None:
                f = fill[key] = f_nom + d
            if d and not (f - f_nom) * d > 0:
                held = False
                side = "above" if d > 0 else "below"
                problems.append(f"{where}.{key}: {f} Hz is not {side} base.f_nom ({f_nom} Hz)")
    return replace(element, **fill) if fill and held else element


_SETPOINTS = ("p_set", "q_set", "v_nom")  # inverter keys held by its droop block
_ID = {"id": _Key("id", _text), "bus": _Key("bus", _text)}
_ENDS = {"from": _Key("from_bus"), "to": _Key("to_bus")}

# YAML event type -> (event class, kind of element its target must name,
# the keys that differ from the event's fields)
_EVENTS = {
    "load_step": (LoadStep, "load", {}),
    "breaker_set": (BreakerSet, "breaker", {}),
    "source_freq": (SourceFreq, "grid_source", {}),
    "source_unbalance": (SourceUnbalance, "grid_source", {"angle_deg": _degrees("angle")}),
    "setpoint": (SetpointEvent, "inverter", {"source": _Key("source_id"), "mode": _mode_name}),
    "mode_command": (ModeCommand, "inverter", {"mode": _mode_name}),
    "plug_in": (PlugIn, "inverter", {}),
    "pulse_load": (PulseLoad, "load", {"duration": _positive}),
}

_INVERTER = _Table(_inverter, {
    **_ID,
    "rating": _Key("rating", _float),
    "mode": _Key("mode", _text, lambda inv: inv.mode.name.lower()),
    **{key: _Key(key, _float, attrgetter(f"droop.{key}")) for key in _SETPOINTS},
    "coupling": _Key("z_c", _Table(
        complex, {"r": _Key("real", _float), "x": _Key("imag", _float)}, block=True
    )),
    "pcc_breaker": _Key("pcc_breaker", _text, optional=True),
    "auto": _Key("auto", _flag),
    "plugged": _Key("plugged", _flag),
    "droop": _Key("droop", _table(
        DroopParams, *_SETPOINTS, f_c=_Key("omega_c", lambda f: TWO_PI * _float(f), False)
    )._replace(make=dict)),
    "virtual_impedance": _Key("vz", _table(VirtualImpedance, "i_filt", block=True)),
    "pll": _Key("pll", _table(
        PllParams, block=True, uv_time=_non_negative, lock_time=_non_negative
    )),
    "detector": _Key("detector", _table(
        DetectorConfig, block=True, rocof_window=_positive, persist=_positive,
        recon_hold=_positive, recon_dtheta_deg=_degrees("recon_dtheta"),
    )),
    "guard": _Key("guard", _table(GuardLimits, block=True)),
    "thresholds": _Key("thresholds", _table(
        TransitionThresholds, block=True, eps_v=_non_negative, eps_f=_non_negative,
        hold=_non_negative, eps_theta_deg=_degrees("eps_theta", _non_negative_radians),
    )),
    # BlackStartConfig checks the type of its rate itself
    "black_start": _Key("black_start", _table(
        BlackStartConfig, block=True, ramp_rate=lambda rate: rate
    ), optional=True),
}, required=("id", "bus"))

_SCENARIO = _table(
    ScenarioConfig,
    t_end=_positive,
    base=_table(PerUnitBase),
    buses=_List(_text),
    lines=_List(_table(Line, **_ENDS)),
    breakers=_List(_table(Breaker, **_ENDS)),
    grid_sources=_List(_Table(_grid_source, {
        **_ID,
        "v": _Key("v", _float, lambda s: abs(s.e)),
        "angle_deg": _Key(
            "angle_deg", _float, lambda s: math.degrees(cmath.phase(s.e)) if s.e != 0 else 0.0
        ),
        "r_s": _Key("r_s", _float, attrgetter("z_s.real")),
        "x_s": _Key("x_s", _float, attrgetter("z_s.imag")),
        "f": _Key("f_grid", _float),
        "rating": _Key("rating", _float),
    }, required=("id", "bus"))),
    loads=_List(_Variant("kind", "kind", {
        "impedance": _Table(
            lambda id, bus, **z: ConstantImpedanceLoad(id, bus, complex(**z)),
            {**_ID, "kind": _Key(None, echo=lambda load: "impedance"),
             "r": _Key("real", _float, attrgetter("z.real")),
             "x": _Key("imag", _float, attrgetter("z.imag"))},
            ("id", "bus"), cls=ConstantImpedanceLoad,
        ),
        "power": _Table(
            ConstantPowerLoad,
            {**_ID, "kind": _Key(None, echo=lambda load: "power"),
             "p": _Key("p", _float), "q": _Key("q", _float)},
            ("id", "bus"), cls=ConstantPowerLoad,
        ),
    }, default="power")),
    inverters=_List(_INVERTER),
    events=_List(_Variant("type", "event type", {
        etype: _event(etype, cls, keys) for etype, (cls, _, keys) in _EVENTS.items()
    }, of=attrgetter("event"))),
    output=_table(OutputConfig, noise_std=_non_negative),
)


def parse_config(doc: dict, name: str = "scenario") -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed YAML mapping.  The
    checks across elements run once every value reads."""
    if not isinstance(doc, dict):
        raise ParseError("scenario file must contain a mapping")
    cfg = _SCENARIO({"name": name, **doc})
    dt = cfg.dt
    problems: list[str] = []
    if not (0.0 < dt <= 1e-3):
        problems.append(f"dt: {dt} outside (0, 1e-3]")

    if not cfg.buses:
        problems.append("buses: at least one bus required")
    if len(set(cfg.buses)) != len(cfg.buses):
        problems.append("buses: duplicate bus ids")
    for key in ("lines", "breakers", "grid_sources", "loads", "inverters"):
        for i, item in enumerate(getattr(cfg, key)):
            ends = (
                {"from": item.from_bus, "to": item.to_bus}
                if isinstance(item, (Line, Breaker)) else {"bus": item.bus}
            )
            problems += [
                f"{key}[{i}].{end}: unknown bus {b!r}"
                for end, b in ends.items() if b not in cfg.buses
            ]

    line_pairs = {frozenset((ln.from_bus, ln.to_bus)) for ln in cfg.lines}
    for i, br in enumerate(cfg.breakers):
        if frozenset((br.from_bus, br.to_bus)) not in line_pairs:
            problems.append(
                f"breakers[{i}] ({br.id}): no line between "
                f"{br.from_bus!r} and {br.to_bus!r} to interrupt"
            )

    f_nom = cfg.base.f_nom
    cfg.grid_sources = [
        _at_f_nom(src, f_nom, f"grid_sources[{i}]", problems)
        for i, src in enumerate(cfg.grid_sources)
    ]

    # id namespace must be unique so event targets are unambiguous
    all_ids: dict[str, str] = {}
    for kind, items in (
        ("breaker", cfg.breakers), ("grid_source", cfg.grid_sources),
        ("load", cfg.loads), ("inverter", cfg.inverters),
    ):
        for item in items:
            if item.id in all_ids:
                problems.append(
                    f"duplicate id {item.id!r} ({all_ids[item.id]} vs {kind})"
                )
            all_ids[item.id] = kind

    # identical restoration gain across all GFM-capable inverters
    k_rs = {inv.id: inv.droop.k_r for inv in cfg.inverters}
    if len(set(k_rs.values())) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in k_rs.items())
        problems.append(f"inverters: k_r must be identical across units ({detail})")

    for i, inv in enumerate(cfg.inverters):
        inv.detector = _at_f_nom(inv.detector, f_nom, f"inverters[{i}].detector", problems)
        inv.guard = _at_f_nom(inv.guard, f_nom, f"inverters[{i}].guard", problems)
        if inv.pcc_breaker is not None and all_ids.get(inv.pcc_breaker) != "breaker":
            problems.append(
                f"inverters[{i}].pcc_breaker: unknown breaker {inv.pcc_breaker!r}"
            )
        # discrete stability bounds for the chosen dt
        if inv.droop.omega_c * dt > 0.5:
            problems.append(
                f"inverters[{i}].droop: omega_c*dt = "
                f"{inv.droop.omega_c * dt:.3f} > 0.5 (unstable power filter)"
            )
        if inv.pll.kp * dt > 0.5:
            problems.append(f"inverters[{i}].pll: kp*dt > 0.5 (unstable loop)")
        if inv.droop.k_r * dt > 0.1:
            problems.append(f"inverters[{i}].droop: k_r*dt > 0.1")

    target_kind = {cls: kind for cls, kind, _ in _EVENTS.values()}
    for i, te in enumerate(cfg.events):
        target, want = te.event.target, target_kind[type(te.event)]
        if not (0.0 <= te.t <= cfg.t_end):
            problems.append(f"events[{i}].t: {te.t} outside [0, t_end]")
        elif target not in all_ids:
            problems.append(f"events[{i}].target: unknown element {target!r}")
        elif all_ids[target] != want:
            problems.append(
                f"events[{i}].target: {target!r} is a {all_ids[target]}, expected a {want}"
            )
    cfg.events.sort(key=lambda te: te.t)

    problems += run_setting_problems(cfg)
    if problems:
        raise ValidationError(problems)
    return cfg


def run_setting_problems(cfg: ScenarioConfig) -> list[str]:
    """Problems with the settings a CLI run may override, ``seed`` and
    ``output.decimate``, also checked after an override."""
    problems = ["seed: must be >= 0"] if cfg.seed < 0 else []
    if cfg.output.decimate < 1:
        problems.append("output.decimate: must be >= 1")
    return problems


# libyaml's loader builds the same documents as the pure-Python one, faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if doc is None:
        raise ParseError(f"{path}: empty scenario file")
    return parse_config(doc, name=path.stem)


def resolved_dict(cfg: ScenarioConfig) -> dict:
    """Fully-resolved config (all defaults filled) for the output-dir echo."""
    return _echo(_SCENARIO, cfg)
