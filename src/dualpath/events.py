"""Scripted event types applied to a running scenario, and the records of
the run's event log.

Every event type, network-level (load/breaker/source) or inverter-level
(setpoints, mode commands, plug-in), is applied by the one dispatch in
``runner.Simulation._apply_event``.

The event log holds typed records, rendered to ``events.csv`` text only when
the outputs are written: each applied network event, mode command and
plug-in as a ``TimedEvent`` at its control-step time, each setpoint as its
``guard.GuardAuditRecord``, each mode verdict as a
``supervisor.TransitionRecord``, and the runner's own observations as the
records below.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class LoadStep:
    target: str
    dp: float = 0.0
    dq: float = 0.0


@dataclass(frozen=True, slots=True)
class BreakerSet:
    target: str
    closed: bool


@dataclass(frozen=True, slots=True)
class SourceFreq:
    target: str
    f: float


@dataclass(frozen=True, slots=True)
class SourceUnbalance:
    """Negative-sequence EMF injected onto a grid source."""

    target: str
    mag: float = 0.0
    angle: float = 0.0


@dataclass(frozen=True, slots=True)
class SetpointEvent:
    """External dispatch command; always passes through the setpoint guard."""

    target: str
    source_id: str = "operator"
    p_set: float | None = None
    q_set: float | None = None
    v_nom: float | None = None
    mode: str | None = None


@dataclass(frozen=True, slots=True)
class ModeCommand:
    """Trusted operator mode request (still gated by the sync supervisor)."""

    target: str
    mode: str


@dataclass(frozen=True, slots=True)
class PlugIn:
    target: str


@dataclass(frozen=True, slots=True)
class PulseLoad:
    """Load step that reverts after ``duration`` seconds."""

    target: str
    dp: float = 0.0
    dq: float = 0.0
    duration: float = 0.5


Event = (
    LoadStep
    | BreakerSet
    | SourceFreq
    | SourceUnbalance
    | SetpointEvent
    | ModeCommand
    | PlugIn
    | PulseLoad
)


@dataclass(frozen=True, slots=True, order=True)
class TimedEvent:
    t: float
    event: Event = field(compare=False)


@dataclass(frozen=True, slots=True)
class DetectorChange:
    t: float
    inverter: str
    tripped: bool  # False: cleared


@dataclass(frozen=True, slots=True)
class ReconnectionReady:
    t: float
    inverter: str
    breaker: str


@dataclass(frozen=True, slots=True)
class AutoReclose:
    """An inverter closed its watched breaker on reconnection readiness."""

    t: float
    inverter: str
    breaker: str


@dataclass(frozen=True, slots=True)
class InjectionChange:
    """A following unit suspended (undervoltage) or resumed its injection."""

    t: float
    inverter: str
    suspended: bool


@dataclass(frozen=True, slots=True)
class IslandDeenergized:
    """First sight of a loaded island with no source (comma-joined buses)."""

    t: float
    buses: str
