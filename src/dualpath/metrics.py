"""Run metrics computed from the full-rate recorded arrays.

Every metric is either computed or explicitly null (not applicable for the
scenario).  Definitions:

* frequency nadir: minimum over time of the lowest inverter frequency,
  with its time;
* settling time: time from the last scripted event until every inverter
  frequency stays within +/-0.01 Hz of nominal through the end of the run
  (0 for an always-settled run, null if it never settles);
* per-transition discontinuity: one-step bus-voltage phase jump (degrees)
  and magnitude jump (pu) at each accepted mode transition (phase is not
  evaluated across a de-energized handover);
* islanding detection latency: first detector trip minus the nearest
  preceding breaker-opening event;
* reconnection readiness time: first readiness instant and its latency from
  the nearest preceding breaker or source event;
* power sharing error: worst-pair |(P_i/P_j) - (m_pj/m_pi)| over the final
  second, across inverters ending the run in forming mode;
* guard audit summary and the power-balance worst residual;
* ``solver``: constant-power Newton iterations per control step (mean and
  max; 1 when the warm start already solves it, 0 without CP loads) and the
  worst pre-refinement nodal residual of the network solve.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

SETTLE_BAND_HZ = 0.01
SHARE_WINDOW_S = 1.0
# metrics that are null when no step ran or there is no inverter
_PER_STEP_KEYS = (
    "frequency_nadir_hz", "frequency_nadir_t", "settling_time_s",
    "max_phase_jump_deg", "max_mag_jump_pu", "islanding_detection_latency_s",
    "reconnection_ready_t", "reconnection_latency_s", "power_sharing_error",
)


def compute_metrics(result) -> dict:
    cfg = result.cfg
    f_nom = cfg.base.f_nom
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

    f_min_per_step = result.f.min(axis=1)
    k_nadir = int(np.argmin(f_min_per_step))
    out["frequency_nadir_hz"] = float(f_min_per_step[k_nadir])
    out["frequency_nadir_t"] = float(t[k_nadir])

    # settling relative to the last scripted event
    event_times = [te.t for te in cfg.events if te.t <= t[-1]]
    t_ref = max(event_times) if event_times else 0.0
    dev = np.abs(result.f - f_nom).max(axis=1)
    out_of_band = np.nonzero(dev > SETTLE_BAND_HZ)[0]
    if out_of_band.size == 0:
        out["settling_time_s"] = 0.0
    else:
        k_last = int(out_of_band[-1])
        if k_last == len(t) - 1:
            out["settling_time_s"] = None  # never settles within the run
        else:
            out["settling_time_s"] = max(0.0, float(t[k_last + 1] - t_ref))

    trs = []
    for rec in result.transitions:
        trs.append(
            {
                "t": rec.t,
                "inverter": rec.inverter,
                "from": rec.from_mode,
                "to": rec.to_mode,
                "accepted": rec.accepted,
                "reason": rec.reason,
                "phase_jump_deg": rec.phase_jump_deg,
                "mag_jump_pu": rec.mag_jump_pu,
            }
        )
    out["transitions"] = trs
    jumps_ph = [
        r["phase_jump_deg"] for r in trs if r["accepted"] and r["phase_jump_deg"] is not None
    ]
    jumps_mag = [
        r["mag_jump_pu"] for r in trs if r["accepted"] and r["mag_jump_pu"] is not None
    ]
    out["max_phase_jump_deg"] = max(jumps_ph) if jumps_ph else None
    out["max_mag_jump_pu"] = max(jumps_mag) if jumps_mag else None

    out["islanding_detection_latency_s"] = _detection_latency(result)
    ready_t, ready_lat = _reconnection(result)
    out["reconnection_ready_t"] = ready_t
    out["reconnection_latency_s"] = ready_lat
    out["power_sharing_error"] = _sharing_error(result)
    return out


def _breaker_open_times(result) -> list[float]:
    times = []
    for t, kind, target, detail in result.events_log:
        if kind == "BreakerSet" and "closed=False" in detail:
            times.append(t)
    return times


def _detection_latency(result) -> float | None:
    opens = _breaker_open_times(result)
    trips = [
        t for t, kind, _, detail in result.events_log
        if kind == "islanding_detector" and detail == "tripped"
    ]
    if not trips:
        return None
    t_trip = min(trips)
    prior = [t for t in opens if t <= t_trip]
    if not prior:
        return t_trip
    return t_trip - max(prior)


def _reconnection(result) -> tuple[float | None, float | None]:
    readies = [
        t for t, kind, _, _ in result.events_log if kind == "reconnection_ready"
    ]
    if not readies:
        return None, None
    t_ready = min(readies)
    causes = [
        t for t, kind, _, _ in result.events_log
        if kind in ("BreakerSet", "SourceFreq") and t <= t_ready
    ]
    latency = t_ready - max(causes) if causes else t_ready
    return t_ready, latency


def _sharing_error(result) -> float | None:
    """Worst pairwise droop-sharing ratio deviation over the final window."""
    cfg = result.cfg
    t = result.t
    if t[-1] - t[0] < SHARE_WINDOW_S:
        window = slice(0, len(t))
    else:
        window = t >= (t[-1] - SHARE_WINDOW_S)
    gfm_idx = [
        i for i in range(len(result.inv_ids)) if result.mode[-1, i] == 1
    ]
    if len(gfm_idx) < 2:
        return None
    p_avg = result.p[window].mean(axis=0)
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


def _guard_summary(result) -> dict:
    audit = result.guard_audit
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
