"""Run metrics, computed from ``t`` and the residuals of every control step
and from the ``StepFold`` of each step's ``f``, ``p`` and ``mode``, never
from the columns kept per output row.

Every metric is either computed or explicitly null (not applicable for the
scenario).  Definitions:

* frequency nadir: minimum over time of the lowest inverter frequency,
  with its time;
* settling time: time from the last scripted event until every inverter
  frequency stays within +/-0.01 Hz of nominal through the end of the run
  (0 for an always-settled run, null if it never settles);
* ``transitions``: every accepted or denied mode request with its source,
  its reason and the sync margins it was judged on next to their
  thresholds (null where the unit computed none);
* per-transition discontinuity: one-step bus-voltage phase jump (degrees)
  and magnitude jump (pu) at the inverter's bus, from the step of each
  accepted mode transition to the next, whose solved voltages the run keeps
  (``transition_v``); phase is not evaluated across a de-energized handover;
* islanding detection latency: first detector trip minus the nearest
  preceding breaker-opening event;
* reconnection readiness time: first readiness instant and its latency from
  the nearest preceding breaker or source event;
* power sharing error: worst-pair |(P_i/P_j) - (m_pj/m_pi)| over the final
  second, across inverters ending the run in forming mode;
* guard audit summary and the power-balance worst residual;
* ``solver``: constant-power evaluations per control step (mean and max;
  1 with one CP bus, solved in closed form, Newton iterations with two or
  more, 0 without CP loads) and the worst pre-refinement nodal residual of
  the network solve over every control step, folded per record block (NaN
  if any step's is).
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from .events import BreakerSet, DetectorChange, ReconnectionReady, SourceFreq, TimedEvent
from .frames import wrap_angle
from .guard import GuardAuditRecord
from .supervisor import TransitionRecord

SETTLE_BAND_HZ = 0.01
SHARE_WINDOW_S = 1.0
# metrics that are null when no step ran or there is no inverter
_PER_STEP_KEYS = (
    "frequency_nadir_hz", "frequency_nadir_t", "settling_time_s",
    "max_phase_jump_deg", "max_mag_jump_pu", "islanding_detection_latency_s",
    "reconnection_ready_t", "reconnection_latency_s", "power_sharing_error",
)


class StepFold:
    """What the metrics read of each step's ``f``, ``p`` and ``mode``,
    folded a block of steps at a time (``add``), so that a run keeps no
    per-inverter array that grows with its steps: the frequency nadir and
    its first step (a NaN wins, as with ``np.argmin``), the last step
    outside the settling band, the blocks of ``p`` that cover the final
    ``SHARE_WINDOW_S`` and the last step's modes.  A block goes through the
    NumPy calls whole-run arrays would, in the run's order, so every metric
    keeps its bits."""

    __slots__ = ("f_nom", "n", "nadir", "k_nadir", "k_out", "window_k0", "p_blocks", "modes")

    def __init__(self, f_nom: float):
        self.f_nom, self.nadir = f_nom, math.nan
        self.n = self.window_k0 = 0  # steps folded; the first step of p_blocks
        self.k_nadir = self.k_out = None  # k_out: the last step out of the band
        self.p_blocks: list = []  # (last time, p rows) of each kept block
        self.modes: list[int] = []

    def add(self, t: np.ndarray, f: np.ndarray, p: np.ndarray, mode: np.ndarray) -> None:
        """Fold the next steps: their times ``t`` and their (step, unit)
        rows of ``f``, ``p`` and ``mode``, which may be reused afterwards."""
        k0, self.n = self.n, self.n + len(f)
        if not f.size:  # no unit
            return
        f_min = f.min(axis=1)
        k = int(np.argmin(f_min))
        # not >=: the block's minimum wins if it is NaN or lower
        if self.k_nadir is None or (self.nadir == self.nadir and not f_min[k] >= self.nadir):
            self.nadir, self.k_nadir = float(f_min[k]), k0 + k
        # worst |f - f_nom| per step from the row extremes, in place: it is the
        # same float as np.abs(f - f_nom).max(axis=1), NaN included, since
        # f - f_nom rounds monotonically in f and f_nom - f is its negation
        dev = f.max(axis=1)
        np.subtract(dev, self.f_nom, out=dev)
        np.subtract(self.f_nom, f_min, out=f_min)
        np.maximum(dev, f_min, out=dev)
        out_of_band = np.flatnonzero(dev > SETTLE_BAND_HZ)
        if out_of_band.size:
            self.k_out = k0 + int(out_of_band[-1])
        # drop the blocks that end before the window of a run ending now,
        # which lie before the final window too (t - SHARE_WINDOW_S, 1 s, is
        # exact for t >= 1 s, so the run is then longer than the window)
        self.p_blocks.append((t[-1], p.copy()))
        while self.p_blocks[0][0] < t[-1] - SHARE_WINDOW_S:
            self.window_k0 += len(self.p_blocks.pop(0)[1])
        self.modes = mode[-1].tolist()

    def window(self, t: np.ndarray) -> np.ndarray:
        """The ``p`` rows of the final ``SHARE_WINDOW_S`` of the run whose
        per-step times are ``t`` (all rows in a shorter run), contiguous."""
        w = _share_window(t)
        return np.concatenate([b for _, b in self.p_blocks])[w.start - self.window_k0:]


def compute_metrics(result) -> dict:
    cfg = result.cfg
    t = result.t
    out: dict = {
        "scenario": cfg.name,
        "t_end": float(t[-1]) if t.size else 0.0,
        "aborted": result.aborted,
    }
    if result.aborted:
        out["abort_reason"] = result.abort_reason
    out["guard_audit"] = _guard_summary(result)
    out["power_balance_max_residual"] = result.max_residual
    out["solver"] = result.solver

    if t.size == 0 or not result.inv_ids:
        out.update(dict.fromkeys(_PER_STEP_KEYS), transitions=[])
        return out

    fold = result.fold
    out["frequency_nadir_hz"] = fold.nadir
    out["frequency_nadir_t"] = float(t[fold.k_nadir])

    # settling relative to the last scripted event
    event_times = [te.t for te in cfg.events if te.t <= t[-1]]
    t_ref = max(event_times) if event_times else 0.0
    if fold.k_out is None:
        out["settling_time_s"] = 0.0
    elif fold.k_out == len(t) - 1:
        out["settling_time_s"] = None  # never settles within the run
    else:
        out["settling_time_s"] = max(0.0, float(t[fold.k_out + 1] - t_ref))

    trs = []
    for rec in _records(result, TransitionRecord):
        tr = asdict(rec)
        tr.update(tr.pop("thresholds"))  # flat: eps_theta, eps_v, eps_f, hold
        tr["from"], tr["to"] = tr.pop("from_mode"), tr.pop("to_mode")
        tr["phase_jump_deg"], tr["mag_jump_pu"] = _jumps(result, rec)
        trs.append(tr)
    out["transitions"] = trs
    jumps = [r for r in trs if r["mag_jump_pu"] is not None]  # accepted only
    out["max_phase_jump_deg"] = max((r["phase_jump_deg"] for r in jumps), default=None)
    out["max_mag_jump_pu"] = max((r["mag_jump_pu"] for r in jumps), default=None)

    out["islanding_detection_latency_s"] = _detection_latency(result)
    ready_t, ready_lat = _reconnection(result)
    out["reconnection_ready_t"] = ready_t
    out["reconnection_latency_s"] = ready_lat
    out["power_sharing_error"] = _sharing_error(result)
    return out


def _records(result, cls) -> list:
    return [rec for rec in result.events_log if isinstance(rec, cls)]


def _jumps(result, rec) -> tuple[float | None, float | None]:
    """The one-step phase (deg) and magnitude (pu) jump of the voltage at the
    inverter's bus from an accepted transition's step to the next; None for
    a denial or a transition in the last recorded step."""
    k = int(np.searchsorted(result.t, rec.t))
    if not rec.accepted or k + 1 >= result.t.size:
        return None, None
    cfg = result.cfg
    b = cfg.buses.index(cfg.inverters[result.inv_ids.index(rec.inverter)].bus)
    # the magnitudes and angles as the record takes them
    v = np.array([result.transition_v[k], result.transition_v[k + 1]], dtype=complex)
    (m0, m1), (a0, a1) = np.absolute(v)[:, b], np.arctan2(v.imag, v.real)[:, b]
    if min(m0, m1) < 0.05:
        return 0.0, float(abs(m1 - m0))
    d_ang = wrap_angle(a1 - a0)
    return float(abs(math.degrees(d_ang))), float(abs(m1 - m0))


def _breaker_open_times(result) -> list[float]:
    return [
        te.t for te in _records(result, TimedEvent)
        if isinstance(te.event, BreakerSet) and not te.event.closed
    ]


def _detection_latency(result) -> float | None:
    opens = _breaker_open_times(result)
    trips = [rec.t for rec in _records(result, DetectorChange) if rec.tripped]
    if not trips:
        return None
    t_trip = min(trips)
    prior = [t for t in opens if t <= t_trip]
    if not prior:
        return t_trip
    return t_trip - max(prior)


def _reconnection(result) -> tuple[float | None, float | None]:
    readies = [rec.t for rec in _records(result, ReconnectionReady)]
    if not readies:
        return None, None
    t_ready = min(readies)
    causes = [
        te.t for te in _records(result, TimedEvent)
        if isinstance(te.event, (BreakerSet, SourceFreq)) and te.t <= t_ready
    ]
    latency = t_ready - max(causes) if causes else t_ready
    return t_ready, latency


def _sharing_error(result) -> float | None:
    """Worst pairwise droop-sharing ratio deviation over the final window."""
    cfg = result.cfg
    gfm_idx = [i for i, m in enumerate(result.fold.modes) if m == 1]
    if len(gfm_idx) < 2:
        return None
    p_avg = result.fold.window(result.t).mean(axis=0)
    worst = 0.0
    for a in range(len(gfm_idx)):
        for b in range(a + 1, len(gfm_idx)):
            i, j = gfm_idx[a], gfm_idx[b]
            if abs(p_avg[j]) < 1e-6:
                continue
            m_i = cfg.inverters[i].droop.m_p
            m_j = cfg.inverters[j].droop.m_p
            worst = max(worst, abs(p_avg[i] / p_avg[j] - m_j / m_i))
    return worst


def _share_window(t) -> slice:
    """The rows of the final ``SHARE_WINDOW_S`` of the increasing times ``t``
    (all of them in a shorter run), as a slice."""
    if t[-1] - t[0] < SHARE_WINDOW_S:
        return slice(0, len(t))
    return slice(int(np.searchsorted(t, t[-1] - SHARE_WINDOW_S)), len(t))


def _guard_summary(result) -> dict:
    audit = _records(result, GuardAuditRecord)
    by_reason: dict[str, int] = {}
    for rec in audit:
        if not rec.accepted:
            by_reason[rec.reason] = by_reason.get(rec.reason, 0) + 1
    return {
        "submitted": len(audit),
        "accepted": sum(1 for r in audit if r.accepted),
        "rejected": sum(1 for r in audit if not r.accepted),
        "rejected_by_reason": by_reason,
        "log": [asdict(r) for r in audit],
    }
