"""Fixed-step scenario simulation.  A ``Simulation`` holds the whole state of
a run: ``step()`` runs one control step and ``run()`` steps to the end, so a
run can be stepped, copied or pickled between steps and then finished.

Per control step: apply due events (setpoints pass the guard) -> solve the
phasor network -> synthesize waveforms and take local measurements -> step the
following and forming paths -> supervisor shadow-sync and mode arbitration ->
detectors and autonomous actions -> record.  Only a plugged forming unit
steps its forming path; any other unit's forming state is the shadow_follow
copy of its following path, built only when something reads it
(``_Inverter.forming``; a parked former's detector reads it every step).
Island frequencies are computed only while a watched breaker is open.

Everything is deterministic: identical config and seed give byte-identical
output files.  The optional seed only feeds measurement-noise injection on
the detector inputs (off by default).

Angle bookkeeping: phasors live in a frame rotating at the nominal frequency;
controller angles are absolute (include the nominal ramp), so frame angles
are ``theta - omega_nom * t``.  Forming inverters enter the solve as EMFs
behind their coupling impedance; following inverters as current injections
computed from the previous step's references (the idealized inner current
loop acts within one control step).
"""

from __future__ import annotations

import cmath
import copy
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import metrics
from .detect import IslandingDetector, ReconnectionMonitor
from .droop import (
    U_CLAMP,
    V_MAX,
    DroopState,
    black_start_ramp,
    droop_step,
    power_filter_step,
    restoration_step,
    uv_handoff,
    virtual_impedance_step,
    voltage_restoration_step,
)
from .events import (
    AutoReclose,
    BreakerSet,
    DetectorChange,
    InjectionChange,
    IslandDeenergized,
    LoadStep,
    ModeCommand,
    PlugIn,
    PulseLoad,
    ReconnectionReady,
    SetpointEvent,
    SourceFreq,
    SourceUnbalance,
    TimedEvent,
)
from .frames import TWO_PI, PerUnitBase, steps, wrap_angle
from .guard import GuardAuditRecord, validate_setpoint
from .metrics import StepFold
from .network import Network, NonConvergenceError, StateBlock
from .pll import (
    PllState,
    UnderVoltageError,
    current_refs_from_pq,
    gfl_injection,
    init_locked,
    pll_gains,
    pll_step,
)
from .scenario import BlackStartConfig, InverterConfig, ScenarioConfig, resolved_dict
from .supervisor import GFL, GFM, Mode, Supervisor, TransitionRecord, shadow_follow


class _Inverter:
    """Runtime state of one inverter inside a simulation."""

    __slots__ = (
        "cfg", "id", "bus", "rating_pu", "z_c_sys", "params", "pll", "droop",
        "vz", "sup", "det", "recon", "plugged", "inj", "emf", "i_sys", "s_inv",
        "uv_suspended", "bus_idx", "breaker", "from_idx", "to_idx", "ramp_rate",
        "pll_gains", "shadow_due",
    )

    def __init__(self, cfg: InverterConfig, base: PerUnitBase, dt: float, net: Network):
        self.cfg = cfg
        self.id = cfg.id
        self.bus = cfg.bus
        # bus positions in the solved voltage vectors ('from' is the utility
        # side of the watched breaker by config convention)
        self.bus_idx = net.bus_index[cfg.bus]
        self.breaker = br = net.breakers.get(cfg.pcc_breaker)
        self.from_idx = net.bus_index[br.from_bus] if br else self.bus_idx
        self.to_idx = net.bus_index[br.to_bus] if br else self.bus_idx
        self.rating_pu = cfg.rating / base.s_base
        self.z_c_sys = cfg.z_c / self.rating_pu
        self.params = replace(cfg.droop)  # runtime setpoints mutate this copy
        self.pll = PllState(omega_est=base.omega_base, omega_locked=base.omega_base)
        self.pll_gains = pll_gains(cfg.pll, base.omega_base, dt)
        self.droop = DroopState(v_gfm=cfg.droop.v_nom)
        self.vz = replace(cfg.vz, i_filt=0.0)
        self.ramp_rate = (cfg.black_start or BlackStartConfig()).ramp_rate
        self.sup = Supervisor(cfg.mode, cfg.thresholds, base.f_nom, dt, cfg.id, cfg.auto)
        self.det = IslandingDetector(cfg.detector, dt)
        self.recon = ReconnectionMonitor(cfg.detector, dt) if cfg.pcc_breaker else None
        self.plugged = cfg.plugged
        self.inj = 0j          # commanded GFL current, system pu, network frame
        self.emf = 0j          # post-virtual-impedance EMF, network frame
        self.i_sys = 0j        # solved terminal current, system pu
        self.s_inv = 0j        # terminal power, inverter pu
        self.uv_suspended = False
        # a step has passed since the forming state was last rebuilt from
        # the following path (see ``forming``)
        self.shadow_due = False

    def follow_idx(self) -> int:
        """Bus position the following path tracks: the utility side of the
        watched breaker while forming, else the own bus."""
        return self.from_idx if self.sup.mode is GFM else self.bus_idx

    def forming(self) -> DroopState:
        """The forming state as every reader must see it: for a following or
        parked unit, the ``shadow_follow`` copy of its PLL, terminal power
        and setpoints, rebuilt here if a step has passed since the last
        read (none of the three changes between a step and a read, and a
        setpoint reads this before it changes the setpoints)."""
        if self.shadow_due:
            self.shadow_due = False
            shadow_follow(self.pll, self.s_inv, self.sup.omega_base, self.droop,
                          self.params)
        return self.droop

    def start_ramp(self) -> None:
        """Soft-start the forming voltage reference toward ``v_nom``."""
        self.droop.ramp_active = True
        self.droop.ramp_target = self.params.v_nom

    def start_ramp_if_low(self) -> None:
        """Soft-start from below half of ``v_nom`` (a dead or collapsed bus)."""
        if self.droop.v_gfm < 0.5 * self.params.v_nom:
            self.start_ramp()

    def z_v_sys(self) -> complex:
        return complex(self.vz.r_v, self.vz.x_v) / self.rating_pu


@dataclass(slots=True)
class SimResult:
    """A run's record (``_Record`` says what is kept per control step and
    what per output row), its ``StepFold``, the largest power-balance
    residual of its steps and its outcome."""

    cfg: ScenarioConfig
    t: np.ndarray
    bus_mag: np.ndarray
    bus_ang: np.ndarray
    inv_ids: list[str]
    f: np.ndarray
    p: np.ndarray
    q: np.ndarray
    mode: np.ndarray
    lock: np.ndarray
    island: np.ndarray
    recon: np.ndarray
    max_residual: float
    fold: StepFold
    events_log: list  # typed records in log order (see dualpath.events)
    # solved bus voltages by step, at each accepted transition and the next
    transition_v: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    aborted: bool = False
    abort_reason: str = ""
    abort_step: int = -1
    wall_time_s: float = 0.0


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.f_nom = cfg.base.f_nom
        self.w0 = cfg.base.omega_base
        self.dt = cfg.dt
        # events mutate breakers, sources and loads (lines are only read);
        # run on copies of those so the same config object can be run again
        # byte-identically
        self.net = Network(
            cfg.buses,
            cfg.lines,
            copy.deepcopy(cfg.breakers),
            copy.deepcopy(cfg.grid_sources),
            copy.deepcopy(cfg.loads),
        )
        self.invs = [_Inverter(ic, cfg.base, cfg.dt, self.net) for ic in cfg.inverters]
        # the (step, event) pairs not yet applied, the next due last
        self.events = self._expand_events(cfg.events, cfg.dt)[::-1]
        self.events_log: list = []
        # built only when used: importing numpy.random costs memory
        self.rng = np.random.default_rng(cfg.seed) if cfg.output.noise_std > 0.0 else None
        self._dead_seen: set = set()
        self._by_id = {inv.id: inv for inv in self.invs}
        self.init_rounds = 0
        self.init_mismatch: float | None = None
        # a failed initial solve is reported by run() as an abort before the
        # first step; it keeps no topology, so step() raises it again
        self.init_error: NonConvergenceError | None = None
        self._topology = None
        try:
            self._initialize()
        except NonConvergenceError as exc:
            self.init_error = exc
        # the run's progress: the next step, the record, solve tallies
        self.k, self.record = 0, _Record(steps(cfg.t_end, self.dt) + 1, len(cfg.buses),
                                         len(self.invs), cfg.output.decimate, self.f_nom)
        self.cp_iters_sum = self.cp_iters_max = 0
        self._no_neg = [0j] * len(cfg.buses)

    @staticmethod
    def _expand_events(events: list[TimedEvent], dt: float) -> list[tuple[int, TimedEvent]]:
        out: list[TimedEvent] = []
        for te in events:
            ev = te.event
            if isinstance(ev, PulseLoad):
                out += [TimedEvent(te.t, LoadStep(ev.target, ev.dp, ev.dq)),
                        TimedEvent(te.t + ev.duration, LoadStep(ev.target, -ev.dp, -ev.dq))]
            else:
                out.append(te)
        out.sort(key=lambda te: te.t)
        return [(steps(te.t, dt), te) for te in out]  # the first step at or after t

    # -- initialization ------------------------------------------------------

    def _initialize(self) -> None:
        """Find a self-consistent operating point so an event-free scenario
        stays numerically flat from the first step.

        Sets ``init_rounds`` (rounds run, at most 80) and ``init_mismatch``
        (the largest change or error measured in the last round, pu; it
        stays None when a solve fails)."""
        for inv in self.invs:
            if inv.cfg.black_start is not None and inv.sup.mode is GFM:
                inv.droop.v_gfm = 0.0
                inv.start_ramp()

        # the topology does not change while initializing, so the forming
        # units whose angles are steered, grouped by island, and whether a
        # grid source fixes each island's frequency are looked up once
        self._resolve_topology()
        steered = [
            (bool(grid), [m for m in gfm if not m.droop.ramp_active])
            for grid, gfm in self._island_sources
        ]
        v = None
        for round_idx in range(80):
            self.init_rounds = round_idx + 1
            # largest last-round change of p_f/q_f, of the forming EMF
            # magnitude, and angle-steering power error
            pq_change = v_change = steer_err = 0.0
            for inv in self._formers:
                inv.emf = self._v_ref(inv, 0.0) - inv.z_v_sys() * inv.i_sys
            if v is not None:
                # the step's rule, without its event log
                for inv in self._followers:
                    self._follower_current(inv, v[inv.bus_idx])
            v = self._solve()[0].v_list
            for inv in self._formers + self._followers:
                vb = v[inv.bus_idx]
                s = self._terminal(inv, vb)
                d = inv.droop
                e_p, e_q = abs(s.real - d.p_f), abs(s.imag - d.q_f)
                if e_p > pq_change or e_q > pq_change:
                    pq_change = e_p if e_p > e_q else e_q
                d.p_f, d.q_f = s.real, s.imag
                if inv.sup.mode is GFM and not d.ramp_active and inv.params.k_v > 0:
                    # nudge the EMF toward holding the bus at v_nom
                    dv = inv.params.v_nom - abs(vb)
                    if abs(dv) > v_change:
                        v_change = abs(dv)
                    d.v_gfm = min(max(d.v_gfm + 0.5 * dv, 0.0), V_MAX)

            # steer forming EMF angles toward the droop-consistent power
            # split of each island, with equal restoration offsets, so the
            # scenario starts at the true equilibrium operating point
            for grid_tied, members in steered:
                if not members:
                    continue
                if grid_tied:
                    delta = 0.0
                else:
                    total = p_sets = inv_sum = 0.0
                    for m in members:  # not sum(): compensated from Python 3.12
                        total += m.droop.p_f
                        p_sets += m.params.p_set
                        inv_sum += 1.0 / m.params.m_p
                    delta = (total - p_sets) / inv_sum
                u = min(max(delta, -U_CLAMP), U_CLAMP)
                for m in members:
                    dp = m.params
                    err = dp.p_set + delta / dp.m_p - m.droop.p_f
                    if abs(err) > steer_err:
                        steer_err = abs(err)
                    gain = 0.5 * abs(m.z_c_sys.imag * m.rating_pu) or 0.02
                    m.droop.theta_gfm += gain * err
                    m.droop.u = u if dp.k_r > 0 else 0.0
            if (round_idx >= 2 and pq_change <= 1e-12 and v_change <= 1e-13
                    and steer_err <= 1e-11):
                break
        self.init_mismatch = max(pq_change, v_change, steer_err)

        freqs = self._island_frequencies()
        for inv in self.invs:
            d = inv.droop
            dp = inv.params
            if inv.sup.mode is GFM and not d.ramp_active:
                d.u_v = uv_handoff(dp, d.v_gfm, d.q_f)
                d.omega = 1.0 - dp.m_p * (d.p_f - dp.p_set) + d.u
            # PLL starts locked on whatever voltage it follows (at nominal on a dead bus)
            follow = inv.follow_idx()
            vb = v[follow]
            omega = TWO_PI * freqs[self._bus_island[follow]] if self._live[follow] else self.w0
            if abs(vb) >= inv.cfg.pll.uv_threshold:  # the step's collapse level
                init_locked(inv.pll, vb, omega, self.w0, self.dt, inv.cfg.pll)

    # -- per-step helpers ------------------------------------------------------

    def _resolve_topology(self) -> None:
        """Decide which plugged units form and which follow, hand the
        formers' couplings to the network in that order, and rebuild what
        else changes only with the topology or a mode: each bus's island and
        live flag, each island's grid sources and formers, and whether a
        watched breaker is open, for the network topology kept in
        ``_topology``.  The step calls this when the network's topology is
        another object (a breaker move, an impedance-load step) or when
        ``_topology`` is None (after a plug-in or mode switch)."""
        self._formers = [i for i in self.invs if i.plugged and i.sup.mode is GFM]
        self._followers = [i for i in self.invs if i.plugged and i.sup.mode is GFL]
        self.net.set_formers([(inv.bus, inv.z_c_sys) for inv in self._formers])
        topo = self._topology = self.net.topology()
        self._bus_island, self._live = topo["island_at"], topo["live"]
        # each island's (grid sources, formers)
        self._island_sources = [([], []) for _ in topo["islands"]]
        for src in self.net.grid_sources.values():
            self._island_sources[self._bus_island[self.net.bus_index[src.bus]]][0].append(src)
        for inv in self._formers:
            self._island_sources[self._bus_island[inv.bus_idx]][1].append(inv)
        self._recon_open = any(inv.recon is not None and not inv.breaker.closed
                               for inv in self.invs)

    def _solve(self):
        """Solve the network with the plugged formers' EMFs and the
        followers' nonzero commanded currents, and store each former's
        solved current on it; returns the state and the solve report.  Plain
        loops: a comprehension is a function call per step."""
        emfs = []
        for inv in self._formers:
            emfs.append(inv.emf)
        injections = []
        for inv in self._followers:
            if inv.inj != 0j:
                injections.append((inv.bus_idx, inv.inj))
        state, report = self.net.solve(emfs, injections)
        for inv, i in zip(self._formers, state.former_currents):
            inv.i_sys = i
        return state, report

    def _terminal(self, inv: _Inverter, v_bus: complex) -> complex:
        """Set the terminal current (system pu) of a follower (its command,
        zero on a dead bus) or parked unit (zero), a former's being set by
        ``_solve``; returns the terminal power (inverter pu)."""
        if not inv.plugged:
            inv.i_sys = 0j
        elif inv.sup.mode is GFL:
            inv.i_sys = inv.inj if self._live[inv.bus_idx] else 0j
        s = inv.s_inv = v_bus * inv.i_sys.conjugate() / inv.rating_pu
        return s

    def _v_ref(self, inv: _Inverter, t: float) -> complex:
        """The forming voltage reference in the network frame at time ``t``."""
        d = inv.droop
        return d.v_gfm * cmath.exp(1j * (d.theta_gfm - self.w0 * t))

    def _island_frequencies(self) -> list[float]:
        """Per-island frequency: rating-weighted grid sources when present,
        else delivered-power-weighted forming-inverter internal frequencies."""
        freqs = []
        for grid, gfm in self._island_sources:
            wsum = acc = 0.0  # loops, not sum(): compensated from Python 3.12
            if grid:
                for src in grid:
                    wsum += src.rating
                    acc += src.rating * src.f_grid
                freqs.append(acc / wsum)
            elif gfm:
                for inv in gfm:
                    w = abs(inv.s_inv) * inv.rating_pu + 1e-6
                    wsum += w
                    acc += w * inv.droop.omega * self.f_nom
                freqs.append(acc / wsum)
            else:
                freqs.append(self.f_nom)
        return freqs

    def _follower_current(self, inv: _Inverter, v_bus: complex) -> bool:
        """Set a follower's commanded current for the next solve from its
        setpoints, the d axis on its bus voltage ``v_bus`` (the inner current
        loop is ideal, so the delivered power reproduces the setpoint whatever
        the PLL angle); returns True if an undervoltage suspends it."""
        v_mag = abs(v_bus)
        try:
            i_d, i_q = current_refs_from_pq(inv.params.p_set, inv.params.q_set, v_mag, 0.0)
        except UnderVoltageError:
            inv.inj = 0j
            return True
        inv.inj = gfl_injection(i_d, i_q, v_bus / v_mag) * inv.rating_pu
        return False

    def _move_breaker(self, breaker: str, closed: bool) -> None:
        """Move a breaker, by event or by auto-reclose, and tell every unit
        that watches it: its supervisor and its reconnection monitor qualify
        their margins again from now on."""
        self.net.set_breaker(breaker, closed)
        for inv in self.invs:
            if inv.cfg.pcc_breaker == breaker:
                inv.sup.breaker_moved(closed)
                inv.recon.reset()

    def _request(self, t: float, inv: _Inverter, mode: str, source: str) -> None:
        rec = inv.sup.request(t, Mode[mode.upper()], source, inv.plugged)
        if rec is not None:
            self.events_log.append(rec)

    def _apply_setpoint(self, t: float, ev: SetpointEvent, inv: _Inverter) -> None:
        d = inv.forming()
        audit = validate_setpoint(
            t, ev, inv.params, d, d.p_f, d.q_f, inv.cfg.guard, self.f_nom,
        )
        self.events_log.append(audit)
        if not audit.accepted:
            return
        for name in ("p_set", "q_set", "v_nom"):
            if getattr(ev, name) is not None:
                setattr(inv.params, name, getattr(ev, name))
        if ev.mode is not None:
            self._request(t, inv, ev.mode, f"setpoint:{ev.source_id}")

    def _apply_event(self, t: float, te: TimedEvent) -> None:
        """Apply one scripted event and log it at the step time ``t`` (a
        setpoint as its guard audit, a repeated plug-in not at all)."""
        ev = te.event
        match ev:
            case BreakerSet():
                self._move_breaker(ev.target, ev.closed)
            case LoadStep():
                self.net.step_load(ev.target, ev.dp, ev.dq)
            case SourceFreq():
                self.net.set_source_freq(ev.target, ev.f)
            case SourceUnbalance():
                self.net.set_source_unbalance(ev.target, ev.mag, ev.angle)
            case SetpointEvent():
                self._apply_setpoint(t, ev, self._by_id[ev.target])
                return
            case ModeCommand():
                self.events_log.append(TimedEvent(t, ev))
                self._request(t, self._by_id[ev.target], ev.mode, "command")
                return
            case PlugIn():
                inv = self._by_id[ev.target]
                if inv.plugged:
                    return
                inv.plugged = True
                if inv.sup.mode is GFM:
                    # connect at the measured bus state: zero initial current
                    inv.forming()
                    inv.emf = self._v_ref(inv, t)
                    inv.start_ramp_if_low()
                self._topology = None
        self.events_log.append(TimedEvent(t, ev))

    def _switch_mode(self, inv: _Inverter, target: Mode, t: float,
                     v_bus: complex) -> None:
        """Handover bookkeeping once the supervisor accepted the transition;
        the next step re-decides who forms."""
        self._topology = None
        if target is GFM:
            # choose the internal EMF that keeps the present current flowing;
            # theta must land so that after this step's frame advance the EMF
            # phasor sits on v_ref rotated one step at the measured frequency
            i = inv.i_sys
            v_ref = v_bus + (inv.z_c_sys + inv.z_v_sys()) * i
            d = inv.forming()
            if abs(v_ref) > 1e-9:
                frame_next = (
                    inv.pll.theta_est - self.w0 * t - inv.pll.omega_est * self.dt
                )
                d.theta_gfm = inv.pll.theta_est + wrap_angle(
                    cmath.phase(v_ref) - frame_next
                )
                d.v_gfm = min(abs(v_ref), V_MAX)
            inv.start_ramp_if_low()
            inv.inj = 0j
        else:
            # export continuity: the following path takes over the present P,Q
            inv.params.p_set = inv.s_inv.real
            inv.params.q_set = inv.s_inv.imag
            inv.emf = 0j

    # -- main loop -------------------------------------------------------------

    def step(self) -> None:
        """Run control step ``self.k`` and advance ``self.k``; a failed solve
        raises ``NonConvergenceError`` and leaves ``self.k`` at that step."""
        k = self.k
        t = k * self.dt
        # 1. due events
        events = self.events
        while events and events[-1][0] <= k:
            self._apply_event(t, events.pop()[1])

        if self._topology is None or self._topology is not self.net.topology():
            self._resolve_topology()

        # 2. network solve with the references computed last step
        state, report = self._solve()
        iters = report.cp_iterations
        if iters:
            self.cp_iters_sum += iters
            if iters > self.cp_iters_max:
                self.cp_iters_max = iters
        freqs = self._island_frequencies() if self._recon_open else None
        for isl in self._topology["de_energized_with_load"]:
            key = ",".join(isl)
            if key not in self._dead_seen:
                self._dead_seen.add(key)
                self.events_log.append(IslandDeenergized(t, key))

        # 3. record (the power balance and the solve's mismatch are checked
        # per block)
        record = self.record
        record.t_view[k] = t
        held = record.held
        held.append(state)
        record.mismatch.append(report.mismatch)

        # 4..7 controllers, supervisor, detectors per inverter
        v = state.v_list
        v_neg = state.v_neg.tolist() if state.v_neg is not None else self._no_neg
        # synthesis rotation of the phase phasors at this instant
        rot = cmath.exp(1j * (self.w0 * t))
        row = (k - record.k0) * len(self.invs)
        ready = []
        for i, inv in enumerate(self.invs):
            if self._step_inverter(inv, row + i, k, t, rot, v, v_neg, self._live, freqs):
                ready.append(inv)
        # an auto-reclose lands once every unit has stepped, by the first
        # ready unit, so every watcher hears it from the next step
        for inv in ready:
            if not inv.breaker.closed:
                self._move_breaker(inv.breaker.id, True)
                self.events_log.append(AutoReclose(t, inv.id, inv.breaker.id))
        if len(held.v) == RECORD_BLOCK:
            record.flush(self.net)

        # rotate off-nominal source EMF phasors toward the next step
        self.net.advance_sources(self.dt, self.f_nom)
        self.k = k + 1

    def run(self) -> SimResult:
        """Step from ``self.k`` to the end, or to a failed solve (an abort),
        and return the result."""
        t_start = time.perf_counter()
        abort_reason = ""
        try:
            if self.init_error is not None:
                raise self.init_error
            step = self.step
            for _ in range(self.k, len(self.record.t)):
                step()
        except NonConvergenceError as exc:
            where = "initialization" if self.init_error is not None else f"step {self.k}"
            abort_reason = f"NonConvergence at {where} (t={self.k * self.dt:.6f}): {exc}"
        self.record.flush(self.net)
        for inv in self.invs:
            inv.forming()  # leave every unit's forming state up to date
        wall = time.perf_counter() - t_start

        result = SimResult(
            cfg=self.cfg,
            inv_ids=[inv.id for inv in self.invs],
            **self.record.arrays(self.k),  # the steps completed
            events_log=self.events_log,
            solver={
                "cp_iterations_mean": self.cp_iters_sum / self.k if self.k else 0.0,
                "cp_iterations_max": self.cp_iters_max,
                "residual_max": self.record.mismatch_max,
                "init_rounds": self.init_rounds,
                "init_mismatch": self.init_mismatch,
            },
            aborted=bool(abort_reason),
            abort_reason=abort_reason,
            abort_step=self.k if abort_reason else -1,
            wall_time_s=wall,
        )
        # looked up at call time, where a layer trace may have wrapped it
        result.metrics = metrics.compute_metrics(result)
        result.metrics["wall_time_s"] = wall
        return result

    def _step_inverter(
        self, inv, j, k, t, rot, v, v_neg, live, freqs,
    ) -> bool:
        """Step ``k`` (time ``t``) of one inverter; returns True when its
        synch-check would reclose the watched breaker (``step`` closes it).
        ``v``/``v_neg`` are the solved bus voltages and ``live`` the live
        flags, by bus position, ``rot`` the synthesis rotation at ``t``,
        ``freqs`` the island frequencies (None while no watched breaker is
        open) and ``j`` the inverter's element in the flat record views."""
        dt = self.dt
        mode = inv.sup.mode
        bus_island = self._bus_island
        br = inv.breaker
        v_bus = v[inv.bus_idx]
        v_bus_mag = abs(v_bus)
        s = self._terminal(inv, v_bus)

        # following path: PLL on the followed bus waveform (each phase is the
        # real part of its phase phasor rotated by the synthesis angle)
        follow = inv.follow_idx()
        pll = inv.pll
        pll_step(v[follow], v_neg[follow], rot, dt, pll, inv.cfg.pll, inv.pll_gains)

        # forming path; a following or parked unit's is its shadow copy,
        # rebuilt when read (_Inverter.forming)
        d = inv.droop
        dp = inv.params
        if inv.plugged and mode is GFM:
            power_filter_step(s.real, s.imag, dt, d, dp.omega_c)
            if d.ramp_active:
                black_start_ramp(d, dt, inv.ramp_rate)
                if not d.ramp_active:
                    # hand the ramp output to the droop voltage law without a step
                    d.u_v = uv_handoff(dp, d.v_gfm, d.q_f)
            elif dp.k_v > 0:
                voltage_restoration_step(dp, d, v_bus_mag, dt)
            droop_step(dp, d, dt, self.w0)
            restoration_step(dp, d, dt)
        else:
            inv.shadow_due = True

        # supervisor: sync margins, then the verdict on any mode request
        if inv.plugged:
            sup = inv.sup
            sup.shadow_sync_step(pll, v_bus_mag, live[follow], d, k)
            grid_live = br is not None and br.closed and bool(
                self._island_sources[bus_island[inv.bus_idx]][0]
            )
            rec = sup.arbitrate(k, inv.det.tripped, grid_live)
            if rec is not None:
                self.events_log.append(rec)
                if rec.accepted:
                    mode = sup.mode
                    self._switch_mode(inv, mode, t, v_bus)
                    self.record.keep.update((k, k + 1))  # for the jump metric

        # detectors (a parked former reads its shadow copy)
        f_local = (
            inv.forming().omega * self.f_nom if mode is GFM
            else pll.omega_est / TWO_PI
        )
        v_meas_det = v_bus_mag
        f_meas_det = f_local
        if self.rng is not None:
            f_meas_det += self.rng.normal(0.0, self.cfg.output.noise_std)
            v_meas_det += self.rng.normal(0.0, self.cfg.output.noise_std)
        was_tripped = inv.det.tripped
        inv.det.push(t, f_meas_det, v_meas_det)
        if inv.det.tripped != was_tripped:
            self.events_log.append(DetectorChange(t, inv.id, inv.det.tripped))

        # synch-check while the watched breaker is open (a move resets it)
        recon_ready = False
        if inv.recon is not None and not br.closed:
            to, fr = inv.to_idx, inv.from_idx
            was_ready = inv.recon.ready
            recon_ready = inv.recon.update(k, v[to], freqs[bus_island[to]], live[to],
                                           v[fr], freqs[bus_island[fr]], live[fr])
            if recon_ready and not was_ready:
                self.events_log.append(ReconnectionReady(t, inv.id, br.id))

        # references for the next step's solve
        if inv.plugged and mode is GFL:
            suspended = self._follower_current(inv, v_bus)
            if suspended != inv.uv_suspended:
                inv.uv_suspended = suspended
                self.events_log.append(InjectionChange(t, inv.id, suspended))
        elif inv.plugged and mode is GFM:
            inv.emf = virtual_impedance_step(
                self._v_ref(inv, t + dt), inv.i_sys / inv.rating_pu, inv.vz, dt
            )

        f_rec, p_rec, q_rec, mode_rec, lock_rec, isl_rec, recon_rec = self.record.views
        f_rec[j] = f_local
        p_rec[j] = s.real
        q_rec[j] = s.imag
        mode_rec[j] = 1 if mode is GFM else 0
        lock_rec[j] = 1 if pll.lock else 0
        isl_rec[j] = 1 if inv.det.tripped else 0
        recon_rec[j] = 1 if recon_ready else 0
        return recon_ready and inv.cfg.auto


# the inverter columns of timeseries.csv in its order, with their record
# dtypes; the step writes them in this order through ``_Record.views``
INV_COLUMNS = (("f", float), ("p", float), ("q", float), ("mode", np.int8),
               ("lock", np.int8), ("island", np.int8), ("recon", np.int8))

# control steps flushed into the record at a time: one np.absolute and one
# np.arctan2 call fill the block's bus-voltage rows, one power-balance check
# its residuals and one StepFold.add its metric values (a call per row costs
# more in call overhead than the arithmetic; 64-step blocks lost most of the
# check's gain), and the held states stay small
RECORD_BLOCK = 256


class _Record:
    """A run's record: per control step only ``t`` (8 B a step); per output
    row (the steps 0, dec, 2 * dec, ...) the bus voltages and every inverter
    column, which timeseries.csv reads (16 B a bus and 28 B an inverter a
    row); the solved bus voltages at the steps in ``keep``; ``fold``, the
    metrics' fold of each step's ``f``, ``p`` and ``mode``; and two running
    maxima, NaN once a step's is NaN: ``max_residual``, of each step's
    power-balance residual, and ``mismatch_max``, of the |entries| of each
    step's solve mismatch.  It holds the open block of the steps
    from ``k0`` on: ``held``, their solved states as the power-balance check
    reads them, ``mismatch``, their solves' KCL mismatch vectors, and
    ``blocks``, their inverter columns, which the step writes through
    ``views``, flat memoryviews (element (k - k0) * ni + i is step k,
    inverter i; about half the cost of numpy item assignment), as it writes
    ``t`` through ``t_view``.  ``flush`` closes the block.  A copied or
    unpickled record rebuilds the views, which neither copy nor pickle."""

    def __init__(self, rows: int, nb: int, ni: int, dec: int, f_nom: float):
        self.dec = dec
        n_out = len(range(0, rows, dec))
        self.t = np.empty(rows)
        self.bus_mag, self.bus_ang = np.empty((n_out, nb)), np.empty((n_out, nb))
        self.cols = {c: np.empty((n_out, ni), dtype) for c, dtype in INV_COLUMNS}
        self.blocks = {c: np.empty((RECORD_BLOCK, ni), dtype) for c, dtype in INV_COLUMNS}
        self.held, self.k0 = StateBlock(), 0
        self.mismatch: list[np.ndarray] = []
        self.max_residual = self.mismatch_max = 0.0
        self.keep: set[int] = set()
        self.kept: dict[int, list[complex]] = {}
        self.fold = StepFold(f_nom)
        self._make_views()

    def _make_views(self) -> None:
        self.t_view = self.t.data
        self.views = [b.reshape(-1).data for b in self.blocks.values()]

    def __getstate__(self) -> dict:
        return {a: v for a, v in self.__dict__.items() if a not in ("t_view", "views")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._make_views()

    def flush(self, net: Network) -> None:
        """Check the power balance of the held steps on ``net``, fold them,
        their residuals and their solve mismatches, move their output rows
        into the record and open the next block; nothing when no step is
        held."""
        held = self.held
        if not held.groups:
            return
        # max() propagates a NaN, from the block or from the running
        # maximum; the mismatches go before the power-balance check allocates
        self.mismatch_max = float(np.abs(np.concatenate(self.mismatch)).max(
            initial=self.mismatch_max))
        self.mismatch = []
        v = held.voltages()
        k0, n, dec = self.k0, len(v), self.dec
        self.max_residual = float(net.power_balance_residual(held).max(
            initial=self.max_residual))
        b = self.blocks
        self.fold.add(self.t[k0:k0 + n], b["f"][:n], b["p"][:n], b["mode"][:n])
        out = slice(-(-k0 // dec), -(-(k0 + n) // dec))
        sel = slice(-k0 % dec, n, dec)  # the block's output rows
        for c, a in self.cols.items():
            a[out] = b[c][sel]
        np.absolute(v[sel], out=self.bus_mag[out])
        np.arctan2(v[sel].imag, v[sel].real, out=self.bus_ang[out])
        self.kept.update((k, v[k - k0].tolist()) for k in self.keep if k0 <= k < k0 + n)
        self.held, self.k0 = StateBlock(), k0 + n

    def arrays(self, rows: int) -> dict:
        """The ``SimResult`` fields of the first ``rows`` steps."""
        n_out = len(range(0, rows, self.dec))
        return {
            "t": self.t[:rows], "max_residual": self.max_residual,
            "bus_mag": self.bus_mag[:n_out], "bus_ang": self.bus_ang[:n_out],
            **{c: a[:n_out] for c, a in self.cols.items()},
            "transition_v": self.kept, "fold": self.fold,
        }


def _event_detail(ev) -> str:
    # every field but the target is a number, a flag or a mode name
    return " ".join(f"{n}={getattr(ev, n)}" for n in ev.__dataclass_fields__ if n != "target")


def _log_row(rec) -> tuple[str, str, str]:
    """The ``type``, ``target`` and ``detail`` of an event-log record."""
    match rec:
        case TimedEvent(event=ev):
            return type(ev).__name__, ev.target, _event_detail(ev)
        case GuardAuditRecord():
            return "setpoint", rec.inverter, (
                f"source={rec.source_id} accepted={rec.accepted} "
                f"reason={rec.reason} f_pred={rec.predicted_f:.3f}"
            )
        case TransitionRecord(accepted=True):
            return "transition", rec.inverter, (
                f"{rec.from_mode}->{rec.to_mode} source={rec.source}"
            )
        case TransitionRecord():
            return "transition_denied", rec.inverter, (
                f"target={rec.to_mode} reason={rec.reason}"
            )
        case DetectorChange():
            return ("islanding_detector", rec.inverter,
                    "tripped" if rec.tripped else "cleared")
        case ReconnectionReady():
            return "reconnection_ready", rec.inverter, f"breaker={rec.breaker}"
        case AutoReclose():
            return "breaker_close", rec.breaker, f"auto by {rec.inverter}"
        case InjectionChange():
            return ("gfl_injection", rec.inverter,
                    "suspended: undervoltage" if rec.suspended else "resumed")
        case IslandDeenergized():
            return "island_deenergized", rec.buses, "no source in island"
    raise TypeError(f"not an event-log record: {rec!r}")


# -- output files ---------------------------------------------------------

# timeseries.csv rows formatted per chunk: enough to amortize the
# per-column work, few enough that the chunk's strings, whose allocator
# arenas outlive the write, do not raise a later run's peak memory (256-row
# chunks raised a repeated testbed process's peak RSS by 0.4 MB; 128 rows
# keep it below formatting the whole file at once)
CSV_CHUNK_ROWS = 128
# libyaml's dumper writes the same bytes as the pure-Python one, faster
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def write_outputs(result: SimResult, out_dir: str | Path) -> None:
    """Write timeseries.csv, events.csv, metrics.json and the resolved config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.cfg

    # t is kept per control step, every other column per output row (_Record)
    header = ["t"]
    columns = [result.t[::cfg.output.decimate]]
    for b, bus in enumerate(cfg.buses):
        header += [f"v_mag_{bus}", f"v_ang_{bus}"]
        columns += [result.bus_mag[:, b], result.bus_ang[:, b]]
    for i, inv_id in enumerate(result.inv_ids):
        for c, _ in INV_COLUMNS:
            header.append(f"{c}_{inv_id}")
            columns.append(getattr(result, c)[:, i])
    # one string per row: "%.9g" % x is format(x, ".9g") for every float
    # (nan, inf and -0.0 too), and "%d" % k is str(k) for the int8 flags
    row = ",".join("%.9g" if col.dtype.kind == "f" else "%d" for col in columns).__mod__
    with (out / "timeseries.csv").open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = [col[start:start + CSV_CHUNK_ROWS].tolist() for col in columns]
            fh.write("\n".join(map(row, zip(*chunk))) + "\n")

    rows = [(rec.t, *_log_row(rec)) for rec in result.events_log]
    if result.aborted:  # after the last record, at the failed step
        rows.append((result.abort_step * cfg.dt, "abort", "simulation",
                     result.abort_reason))
    ev_lines = ["t,type,target,detail"]
    for t, kind, target, detail in rows:
        if any(c in target for c in ',"\r\n'):  # an island's buses, say
            target = '"%s"' % target.replace('"', '""')
        detail_csv = detail.replace('"', "'")
        ev_lines.append(f'{t:.9g},{kind},{target},"{detail_csv}"')
    (out / "events.csv").write_text("\n".join(ev_lines) + "\n")

    (out / "metrics.json").write_text(
        json.dumps(result.metrics, indent=2, sort_keys=True) + "\n"
    )
    (out / "config.resolved.yaml").write_text(
        yaml.dump(resolved_dict(cfg), Dumper=_YAML_DUMPER, sort_keys=False)
    )


def run(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> SimResult:
    """Build, run and optionally persist one scenario."""
    sim = Simulation(cfg)
    result = sim.run()
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result
