"""Scenario configuration: YAML schema, defaults, validation, echo.

The YAML schema is normative for this package.  All network impedances, loads
and powers are in system per-unit; inverter coupling and virtual impedances
are in the inverter's own rating base; angles in config files are degrees.

A scenario that fails validation raises :class:`ValidationError` carrying
every offending field path, so a config can be fixed in one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

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


@dataclass(slots=True)
class ScenarioConfig:
    name: str
    base: PerUnitBase
    dt: float
    t_end: float
    buses: list[str]
    lines: list[Line]
    breakers: list[Breaker]
    grid_sources: list[GridSource]
    loads: list
    inverters: list[InverterConfig]
    events: list[TimedEvent]
    output: OutputConfig
    seed: int = 0


def _radians(deg) -> float:
    return math.radians(float(deg))


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


def _checked(parse, raw: dict, key: str, default, where: str, problems: list[str]):
    """``parse(raw.get(key, default))``; a value that does not parse is
    reported under its field path ``where`` and read as ``default``."""
    try:
        return parse(raw.get(key, default))
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return default


def _mode_from_str(s: str) -> Mode:
    try:
        return Mode[str(s).upper()]
    except KeyError:
        raise ValueError(f"unknown mode {s!r} (expected gfl or gfm)")


def _mode_name(s: str) -> str:
    return _mode_from_str(s).name.lower()


# YAML event type -> (event class, kind of element its target must name,
# YAML key -> parser).  Parsing, the target check and the echo all read this
# table.  An absent or null key leaves its field at the event's default; a
# field without a default is required.
_EVENTS = {
    "load_step": (LoadStep, "load", {"dp": float, "dq": float}),
    "breaker_set": (BreakerSet, "breaker", {"closed": _flag}),
    "source_freq": (SourceFreq, "grid_source", {"f": float}),
    "source_unbalance": (
        SourceUnbalance, "grid_source", {"mag": float, "angle_deg": _radians}
    ),
    "setpoint": (
        SetpointEvent, "inverter",
        {"source": str, "p_set": float, "q_set": float, "v_nom": float, "mode": _mode_name},
    ),
    "mode_command": (ModeCommand, "inverter", {"mode": _mode_name}),
    "plug_in": (PlugIn, "inverter", {}),
    "pulse_load": (PulseLoad, "load", {"dp": float, "dq": float, "duration": float}),
}
_EVENT_TYPE = {cls: etype for etype, (cls, _, _) in _EVENTS.items()}
# YAML keys whose event field has another name
_FIELD_OF_KEY = {"source": "source_id", "angle_deg": "angle"}


def _parse_event(raw: dict, idx: int, problems: list[str]) -> TimedEvent | None:
    where = f"events[{idx}]"
    etype = raw.get("type")
    t = raw.get("t")
    target = raw.get("target")
    if etype not in _EVENTS:
        problems.append(f"{where}.type: unknown event type {etype!r}")
        return None
    if not isinstance(t, (int, float)):
        problems.append(f"{where}.t: missing or non-numeric time")
        return None
    if not target:
        problems.append(f"{where}.target: missing target id")
        return None
    cls, _, keys = _EVENTS[etype]
    fields = {
        _FIELD_OF_KEY.get(key, key): _checked(parse, raw, key, None, f"{where}.{key}", problems)
        for key, parse in keys.items()
        if raw.get(key) is not None
    }
    if None in fields.values():  # a key that did not parse
        return None
    try:
        ev = cls(target, **fields)
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return None
    return TimedEvent(float(t), ev)


def _complex_rx(raw: dict, r_key: str = "r", x_key: str = "x") -> complex:
    return complex(float(raw.get(r_key, 0.0)), float(raw.get(x_key, 0.0)))


def _parse_inverter(raw: dict, idx: int, problems: list[str]) -> InverterConfig | None:
    where = f"inverters[{idx}]"
    inv_id = raw.get("id")
    bus = raw.get("bus")
    if not inv_id or not bus:
        problems.append(f"{where}: id and bus are required")
        return None
    try:
        droop_raw = dict(raw.get("droop", {}))
        f_c = droop_raw.pop("f_c", None)
        if f_c is not None:
            droop_raw["omega_c"] = TWO_PI * float(f_c)
        droop = DroopParams(
            p_set=float(raw.get("p_set", 0.0)),
            q_set=float(raw.get("q_set", 0.0)),
            v_nom=float(raw.get("v_nom", 1.0)),
            **droop_raw,
        )
        vz = VirtualImpedance(**raw.get("virtual_impedance", {}))
        pll = PllParams(**raw.get("pll", {}))
        det_raw = dict(raw.get("detector", {}))
        if "recon_dtheta_deg" in det_raw:
            det_raw["recon_dtheta"] = math.radians(det_raw.pop("recon_dtheta_deg"))
        detector = DetectorConfig(**det_raw)
        guard = GuardLimits(**raw.get("guard", {}))
        th_raw = dict(raw.get("thresholds", {}))
        if "eps_theta_deg" in th_raw:
            th_raw["eps_theta"] = math.radians(th_raw.pop("eps_theta_deg"))
        thresholds = TransitionThresholds(**th_raw)
        bs = raw.get("black_start")
        black_start = None if bs is None else BlackStartConfig(**(bs or {}))
        cfg = InverterConfig(
            id=str(inv_id),
            bus=str(bus),
            rating=float(raw.get("rating", 5000.0)),
            mode=_mode_from_str(raw.get("mode", "gfl")),
            z_c=_complex_rx(raw.get("coupling", {"r": 0.005, "x": 0.05})),
            pcc_breaker=raw.get("pcc_breaker"),
            auto=_checked(_flag, raw, "auto", True, f"{where}.auto", problems),
            plugged=_checked(_flag, raw, "plugged", True, f"{where}.plugged", problems),
            droop=droop,
            vz=vz,
            pll=pll,
            detector=detector,
            guard=guard,
            thresholds=thresholds,
            black_start=black_start,
        )
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return None
    if cfg.rating <= 0:
        problems.append(f"{where}.rating: must be positive")
        return None
    if cfg.z_c == 0:
        problems.append(f"{where}.coupling: must be nonzero")
        return None
    return cfg


def parse_config(doc: dict, name: str = "scenario") -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed YAML mapping."""
    if not isinstance(doc, dict):
        raise ParseError("scenario file must contain a mapping")
    problems: list[str] = []

    base_raw = doc.get("base", {})
    try:
        base = PerUnitBase(
            s_base=float(base_raw.get("s_base", 5000.0)),
            v_base=float(base_raw.get("v_base", 208.0)),
            f_nom=float(base_raw.get("f_nom", 60.0)),
        )
    except (TypeError, ValueError) as exc:
        problems.append(f"base: {exc}")
        base = PerUnitBase()

    dt = _checked(float, doc, "dt", 1e-4, "dt", problems)
    t_end = _checked(float, doc, "t_end", 1.0, "t_end", problems)
    if not (0.0 < dt <= 1e-3):
        problems.append(f"dt: {dt} outside (0, 1e-3]")
    if t_end <= 0:
        problems.append("t_end: must be positive")
    seed = _checked(_integer, doc, "seed", 0, "seed", problems)

    buses = [str(b) for b in doc.get("buses", [])]
    if not buses:
        problems.append("buses: at least one bus required")
    if len(set(buses)) != len(buses):
        problems.append("buses: duplicate bus ids")
    known_buses = set(buses)

    def check_bus(b, where):
        if b not in known_buses:
            problems.append(f"{where}: unknown bus {b!r}")

    lines = []
    for i, raw in enumerate(doc.get("lines", [])):
        try:
            ln = Line(
                str(raw["from"]), str(raw["to"]), float(raw.get("r", 0.0)),
                float(raw.get("x", 0.0)),
            )
            check_bus(ln.from_bus, f"lines[{i}].from")
            check_bus(ln.to_bus, f"lines[{i}].to")
            lines.append(ln)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"lines[{i}]: {exc}")

    breakers = []
    line_pairs = {frozenset((ln.from_bus, ln.to_bus)) for ln in lines}
    for i, raw in enumerate(doc.get("breakers", [])):
        try:
            br = Breaker(
                str(raw["id"]), str(raw["from"]), str(raw["to"]),
                _checked(_flag, raw, "closed", True, f"breakers[{i}].closed", problems),
            )
            check_bus(br.from_bus, f"breakers[{i}].from")
            check_bus(br.to_bus, f"breakers[{i}].to")
            if frozenset((br.from_bus, br.to_bus)) not in line_pairs:
                problems.append(
                    f"breakers[{i}] ({br.id}): no line between "
                    f"{br.from_bus!r} and {br.to_bus!r} to interrupt"
                )
            breakers.append(br)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"breakers[{i}]: {exc}")

    sources = []
    for i, raw in enumerate(doc.get("grid_sources", [])):
        try:
            mag = float(raw.get("v", 1.0))
            ang = math.radians(float(raw.get("angle_deg", 0.0)))
            src = GridSource(
                id=str(raw["id"]),
                bus=str(raw["bus"]),
                e=cmath.rect(mag, ang),
                z_s=_complex_rx(raw, "r_s", "x_s") or 0.001 + 0.01j,
                f_grid=float(raw.get("f", base.f_nom)),
                rating=float(raw.get("rating", 30000.0)),
            )
            check_bus(src.bus, f"grid_sources[{i}].bus")
            sources.append(src)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"grid_sources[{i}]: {exc}")

    loads = []
    for i, raw in enumerate(doc.get("loads", [])):
        try:
            kind = raw.get("kind", "power")
            if kind == "impedance":
                ld = ConstantImpedanceLoad(
                    str(raw["id"]), str(raw["bus"]), _complex_rx(raw)
                )
            elif kind == "power":
                ld = ConstantPowerLoad(
                    str(raw["id"]), str(raw["bus"]),
                    float(raw.get("p", 0.0)), float(raw.get("q", 0.0)),
                )
            else:
                problems.append(f"loads[{i}].kind: unknown kind {kind!r}")
                continue
            check_bus(ld.bus, f"loads[{i}].bus")
            loads.append(ld)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"loads[{i}]: {exc}")

    inverters = []
    for i, raw in enumerate(doc.get("inverters", [])):
        cfg = _parse_inverter(raw, i, problems)
        if cfg is not None:
            check_bus(cfg.bus, f"inverters[{i}].bus")
            inverters.append(cfg)

    # id namespace must be unique so event targets are unambiguous
    all_ids: dict[str, str] = {}
    for kind, items in (
        ("breaker", breakers), ("grid_source", sources),
        ("load", loads), ("inverter", inverters),
    ):
        for item in items:
            if item.id in all_ids:
                problems.append(
                    f"duplicate id {item.id!r} ({all_ids[item.id]} vs {kind})"
                )
            all_ids[item.id] = kind

    breaker_ids = {br.id for br in breakers}
    for i, inv in enumerate(inverters):
        if inv.pcc_breaker is not None and inv.pcc_breaker not in breaker_ids:
            problems.append(
                f"inverters[{i}].pcc_breaker: unknown breaker {inv.pcc_breaker!r}"
            )

    # identical restoration gain across all GFM-capable inverters
    k_rs = {inv.id: inv.droop.k_r for inv in inverters}
    if len(set(k_rs.values())) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in k_rs.items())
        problems.append(f"inverters: k_r must be identical across units ({detail})")

    # discrete stability bounds for the chosen dt
    for i, inv in enumerate(inverters):
        if inv.droop.omega_c * dt > 0.5:
            problems.append(
                f"inverters[{i}].droop: omega_c*dt = "
                f"{inv.droop.omega_c * dt:.3f} > 0.5 (unstable power filter)"
            )
        if inv.pll.kp * dt > 0.5:
            problems.append(f"inverters[{i}].pll: kp*dt > 0.5 (unstable loop)")
        if inv.droop.k_r * dt > 0.1:
            problems.append(f"inverters[{i}].droop: k_r*dt > 0.1")

    events = []
    for i, raw in enumerate(doc.get("events", [])):
        tev = _parse_event(raw, i, problems)
        if tev is None:
            continue
        if not (0.0 <= tev.t <= t_end):
            problems.append(f"events[{i}].t: {tev.t} outside [0, t_end]")
            continue
        target = tev.event.target
        kind = all_ids.get(target)
        if kind is None:
            problems.append(f"events[{i}].target: unknown element {target!r}")
            continue
        want = _EVENTS[_EVENT_TYPE[type(tev.event)]][1]
        if kind != want:
            problems.append(
                f"events[{i}].target: {target!r} is a {kind}, expected a {want}"
            )
            continue
        events.append(tev)
    events.sort(key=lambda te: te.t)

    out_raw = doc.get("output", {})
    output = OutputConfig(
        decimate=_checked(_integer, out_raw, "decimate", 1, "output.decimate", problems),
        noise_std=_checked(float, out_raw, "noise_std", 0.0, "output.noise_std", problems),
    )
    problems += output_problems(output)

    if problems:
        raise ValidationError(problems)

    return ScenarioConfig(
        name=str(doc.get("name", name)),
        base=base,
        dt=dt,
        t_end=t_end,
        buses=buses,
        lines=lines,
        breakers=breakers,
        grid_sources=sources,
        loads=loads,
        inverters=inverters,
        events=events,
        output=output,
        seed=seed,
    )


def output_problems(output: OutputConfig) -> list[str]:
    """Problems with the output settings, also checked after a CLI override."""
    return ["output.decimate: must be >= 1"] if output.decimate < 1 else []


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if doc is None:
        raise ParseError(f"{path}: empty scenario file")
    return parse_config(doc, name=path.stem)


def resolved_dict(cfg: ScenarioConfig) -> dict:
    """Fully-resolved config (all defaults filled) for the output-dir echo."""

    def in_degrees(params, angle: str) -> dict:
        # the fields of params with the angle field, in rad, as <angle>_deg
        d = asdict(params)
        d[f"{angle}_deg"] = math.degrees(d.pop(angle))
        return d

    def inv_dict(inv: InverterConfig) -> dict:
        d = {
            "id": inv.id,
            "bus": inv.bus,
            "rating": inv.rating,
            "mode": inv.mode.name.lower(),
            "p_set": inv.droop.p_set,
            "q_set": inv.droop.q_set,
            "v_nom": inv.droop.v_nom,
            "coupling": {"r": inv.z_c.real, "x": inv.z_c.imag},
            "pcc_breaker": inv.pcc_breaker,
            "auto": inv.auto,
            "plugged": inv.plugged,
            "droop": {  # the setpoints are echoed above
                k: v for k, v in asdict(inv.droop).items()
                if k not in ("p_set", "q_set", "v_nom")
            },
            "virtual_impedance": {
                k: v for k, v in asdict(inv.vz).items() if k != "i_filt"
            },
            "pll": asdict(inv.pll),
            "detector": in_degrees(inv.detector, "recon_dtheta"),
            "guard": asdict(inv.guard),
            "thresholds": in_degrees(inv.thresholds, "eps_theta"),
        }
        if inv.black_start is not None:
            d["black_start"] = {"ramp_rate": inv.black_start.ramp_rate}
        return d

    def event_dict(te: TimedEvent) -> dict:
        ev = te.event
        etype = _EVENT_TYPE[type(ev)]
        d = {"t": te.t, "type": etype, "target": ev.target}
        for key, parse in _EVENTS[etype][2].items():
            value = getattr(ev, _FIELD_OF_KEY.get(key, key))
            d[key] = math.degrees(value) if parse is _radians else value
        return d

    return {
        "name": cfg.name,
        "base": asdict(cfg.base),
        "dt": cfg.dt,
        "t_end": cfg.t_end,
        "seed": cfg.seed,
        "buses": list(cfg.buses),
        "lines": [
            {"from": ln.from_bus, "to": ln.to_bus, "r": ln.r, "x": ln.x}
            for ln in cfg.lines
        ],
        "breakers": [
            {"id": br.id, "from": br.from_bus, "to": br.to_bus, "closed": br.closed}
            for br in cfg.breakers
        ],
        "grid_sources": [
            {
                "id": s.id, "bus": s.bus, "v": abs(s.e),
                "angle_deg": math.degrees(cmath.phase(s.e)) if s.e != 0 else 0.0,
                "r_s": s.z_s.real, "x_s": s.z_s.imag,
                "f": s.f_grid, "rating": s.rating,
            }
            for s in cfg.grid_sources
        ],
        "loads": [
            (
                {"id": l.id, "bus": l.bus, "kind": "impedance",
                 "r": l.z.real, "x": l.z.imag}
                if isinstance(l, ConstantImpedanceLoad)
                else {"id": l.id, "bus": l.bus, "kind": "power", "p": l.p, "q": l.q}
            )
            for l in cfg.loads
        ],
        "inverters": [inv_dict(inv) for inv in cfg.inverters],
        "events": [event_dict(te) for te in cfg.events],
        "output": {"decimate": cfg.output.decimate, "noise_std": cfg.output.noise_std},
    }
