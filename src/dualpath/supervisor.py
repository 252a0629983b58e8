"""Per-inverter mode manager for the dual control paths.

Exactly one path drives the inverter at a time; the other is kept perfectly
synchronized in the background so a mode change never produces a reference
discontinuity:

* while grid-following, the grid-forming state is a copy of the measured bus
  angle/magnitude/powers (``shadow_follow``; the restoration offsets are
  back-solved so the droop law would reproduce the measured operating point).
  The copy is a pure function of the PLL, the terminal power and the
  setpoints, so the runner builds it only when something reads it (a
  setpoint's guard, a plug-in, a transition, the end of a run);
* while grid-forming, the PLL keeps running -- on the utility side of the
  watched breaker when one is configured, else on the inverter's own bus --
  so the following path stays locked and ready.

Transitions are accepted only when the two paths' references have agreed
within thresholds for a hold time.  Switching to the forming path is always
possible once held (the shadow copy makes the mismatch identically zero,
including on a dead bus, which is how a collapsed island gets re-energized);
switching to the following path additionally requires a live, locked PLL.

The measured angle, magnitude and frequency are read from the following
path's ``PllState`` itself, as the paper's supervisor reads the PLL phase
angle: there is no separate copy of them that could disagree with the PLL.

Mode requests are arbitrated here too, with no external controller: one
request at most is pending, and ``arbitrate`` judges it once per control
step through ``request_transition``.

* A scripted request (a ``ModeCommand`` or a guarded setpoint's ``mode``)
  gets one verdict and is dropped.  A parked unit denies it when it is
  issued, with reason ``unplugged``.
* An autonomous request retries every step and is recorded only when
  accepted: a following unit whose islanding detector tripped asks for the
  forming path; a forming unit whose watched breaker was reclosed asks for
  the following path while that breaker is closed with a grid source in its
  island.  A move of the watched breaker restarts the hold timer and arms or
  disarms this grid-restored request (``breaker_moved``).
* A request for the mode the unit already has is dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .droop import U_CLAMP, DroopParams, DroopState, uv_handoff
from .frames import TWO_PI, steps, wrap_angle
from .pll import PllState


class Mode(Enum):
    GFL = 0
    GFM = 1


@dataclass(frozen=True, slots=True)
class TransitionThresholds:
    eps_v: float = 0.03                   # pu
    eps_f: float = 0.1                    # Hz
    hold: float = 0.2                     # s
    eps_theta: float = math.radians(5.0)  # rad


@dataclass(slots=True)
class SyncStatus:
    d_theta: float = 0.0   # rad, wrapped difference between path angles
    d_v: float = 0.0       # pu
    d_f: float = 0.0       # Hz
    holds_since: int | None = None  # step the margins began to hold
    stale: bool = False    # followed voltage dead or PLL unlocked


@dataclass(frozen=True, slots=True)
class ModeRequest:
    """A mode request: its target, its origin for the log (``command``,
    ``setpoint:<source id>``, ``auto:islanding`` or ``auto:grid-restored``)
    and whether it is scripted (judged once) or autonomous (retried)."""

    target: Mode
    source: str
    scripted: bool


# the members as globals: each ``Mode.GFM`` lookup runs ``EnumType.__getattr__``
GFL, GFM = Mode.GFL, Mode.GFM
_ISLANDING = ModeRequest(GFM, "auto:islanding", False)
_GRID_RESTORED = ModeRequest(GFL, "auto:grid-restored", False)


@dataclass(frozen=True, slots=True)
class TransitionRecord:
    """The verdict on one mode request and the sync margins it was judged on:
    the ``SyncStatus`` values and the hold elapsed (whole steps, in s), next
    to the thresholds.  A parked unit computes no margins, so they are None
    on its ``unplugged`` denials."""

    t: float
    inverter: str
    from_mode: str
    to_mode: str
    accepted: bool
    reason: str
    source: str
    thresholds: TransitionThresholds
    d_theta: float | None = None
    d_v: float | None = None
    d_f: float | None = None
    stale: bool | None = None
    hold_elapsed: float | None = None


def shadow_follow(
    gfl: PllState, s: complex, omega_base: float, gfm: DroopState,
    params: DroopParams,
) -> None:
    """Overwrite the forming path with the operating point measured by the
    following path: the PLL's angle, magnitude and frequency (``omega_est``
    over ``omega_base``, rad/s) and the terminal power ``s`` (inverter pu).

    The restoration offsets are back-solved so the droop law evaluated at the
    copied state reproduces the measured frequency and voltage exactly; with
    a restoration integrator disabled its offset is pinned at zero instead
    (a nonzero offset would never wash out and would distort droop sharing
    permanently).
    """
    omega_pu = gfl.omega_est / omega_base
    gfm.theta_gfm = gfl.theta_est
    gfm.v_gfm = gfl.v_pos
    gfm.p_f = s.real
    gfm.q_f = s.imag
    gfm.omega = omega_pu
    if params.k_r > 0:
        u = omega_pu - 1.0 + params.m_p * (s.real - params.p_set)
        gfm.u = U_CLAMP if u > U_CLAMP else (-U_CLAMP if u < -U_CLAMP else u)
    else:
        gfm.u = 0.0
    gfm.u_v = uv_handoff(params, gfl.v_pos, s.imag)
    gfm.ramp_active = False


class Supervisor:
    """Mode state machine for one inverter, stepped every ``dt``: the sync
    gate and the arbitration of its mode requests.  ``unit`` names the
    inverter in its records and ``auto`` enables the autonomous requests."""

    def __init__(self, mode: Mode, thresholds: TransitionThresholds, f_nom: float,
                 dt: float, unit: str = "", auto: bool = False):
        self.mode = mode
        self.thresholds = thresholds
        self.dt, self.n_hold = dt, steps(thresholds.hold, dt)
        self.f_nom = f_nom
        self.omega_base = TWO_PI * f_nom
        self.status = SyncStatus()
        self.unit = unit
        self.auto = auto
        self.pending: ModeRequest | None = None
        self.armed = False  # a reclose armed the grid-restored request

    def shadow_sync_step(
        self, gfl: PllState, v_own: float, followed_energized: bool,
        gfm: DroopState, k: int,
    ) -> SyncStatus:
        """Update the sync margins and the hold timer at step ``k``.

        ``gfl`` is the following path's PLL, read directly; ``v_own`` is the
        own-terminal voltage magnitude and ``followed_energized`` whether the
        bus the PLL follows is live.  While forming, the margins compare the
        PLL's angle, magnitude and frequency with the forming references
        ``gfm``.  While following they are zero: the forming path is the
        ``shadow_follow`` copy of the measured state, which the caller
        builds whenever something reads it.
        """
        st = self.status
        if self.mode is GFL:
            st.d_theta = 0.0
            st.d_v = 0.0
            st.d_f = 0.0
            st.stale = False
        else:
            st.d_theta = wrap_angle(gfl.theta_est - gfm.theta_gfm)
            st.d_v = abs(gfl.v_pos - v_own)
            st.d_f = abs(gfl.omega_est / TWO_PI - gfm.omega * self.f_nom)
            st.stale = (not followed_energized) or (not gfl.lock)

        if self.mode is GFL or self._margin_fault() is None:
            if st.holds_since is None:
                st.holds_since = k
        else:
            st.holds_since = None
        return st

    def _margin_fault(self) -> str | None:
        """The first sync margin outside its threshold (a NaN one is), in
        the order stale, angle, voltage, frequency; None if all hold."""
        st, th = self.status, self.thresholds
        if st.stale:
            return "stale"
        if not abs(st.d_theta) <= th.eps_theta:
            return "angle"
        if not st.d_v <= th.eps_v:
            return "voltage"
        if not st.d_f <= th.eps_f:
            return "frequency"
        return None

    def request_transition(self, target: Mode, k: int) -> tuple[bool, str]:
        """Gate a mode change at step ``k`` on the synchronization status.

        Returns (accepted, reason); denial is a normal outcome, not an error.
        """
        if target is self.mode:
            raise ValueError("transition target equals current mode")
        fault = self._margin_fault()
        if fault is not None:
            return False, fault
        st = self.status
        if st.holds_since is None or k - st.holds_since < self.n_hold:
            return False, "hold"
        self.mode = target
        self.status.holds_since = None
        return True, "none"

    def breaker_moved(self, closed: bool) -> None:
        """The watched breaker moved: the margins qualify again from now on,
        and a reclose arms the grid-restored request of a forming unit while
        an opening disarms it."""
        self.status.holds_since = None
        self.armed = closed and self.mode is GFM

    def request(self, t: float, target: Mode, source: str,
                plugged: bool) -> TransitionRecord | None:
        """Take a scripted mode request; it replaces any pending request and
        is judged at the next ``arbitrate``.  A parked unit denies it now."""
        if plugged:
            self.pending = ModeRequest(target, source, True)
            return None
        if target is self.mode:
            return None
        return TransitionRecord(
            t, self.unit, self.mode.name.lower(), target.name.lower(), False,
            "unplugged", source, self.thresholds,
        )

    def arbitrate(self, k: int, tripped: bool,
                  grid_live: bool) -> TransitionRecord | None:
        """Raise any autonomous request and judge the pending one at step
        ``k``; returns the verdict to record, or None.  ``tripped`` is the
        islanding detector's state and ``grid_live`` whether the watched
        breaker is closed with a grid source in the unit's island."""
        req = self.pending
        if req is None and self.auto:
            if self.mode is GFL:
                if tripped:
                    req = self.pending = _ISLANDING
            elif self.armed and grid_live:
                req = self.pending = _GRID_RESTORED
        if req is None:
            return None
        if req.target is self.mode:
            self.pending = None
            return None
        st = self.status
        held = None if st.holds_since is None else (k - st.holds_since) * self.dt
        ok, reason = self.request_transition(req.target, k)
        if not (ok or req.scripted):
            return None  # an autonomous request retries next step
        self.pending = None
        if ok and req.target is GFL:
            self.armed = False
        return TransitionRecord(
            k * self.dt, self.unit, "gfm" if req.target is GFL else "gfl",
            req.target.name.lower(), ok, reason, req.source, self.thresholds,
            st.d_theta, st.d_v, st.d_f, st.stale, held,
        )
