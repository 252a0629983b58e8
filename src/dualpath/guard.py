"""Device-level setpoint guard.

External dispatch commands are screened before they touch the plant: a range
check against the rating, a rate check against the present setpoints, and an
analytical reference model -- the droop steady-state algebra -- predicting the
post-command island frequency and voltage.  The model keeps the unit's present
load, so beside peers, restoration off, it overstates the frequency shift by
m_i * sum_j 1/m_j over the island's formers j.  A command whose prediction lands
outside the safe window is dropped (not clamped: executing part of a malicious
command still executes it).  The guard returns the command's audit record,
which the run appends to its event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .droop import DroopParams, DroopState
from .events import SetpointEvent


@dataclass(frozen=True, slots=True)
class GuardLimits:
    s_max: float = 1.0            # pu apparent-power rating
    v_nom_min: float = 0.9
    v_nom_max: float = 1.1
    rate_p: float | None = 0.2    # pu per update; None disables the check
    rate_v: float | None = 0.05
    f_pred_min: float | None = None  # Hz; None: set from base.f_nom by parsing
    f_pred_max: float | None = None
    v_pred_min: float = 0.9       # pu
    v_pred_max: float = 1.1

    def __post_init__(self) -> None:
        if not (self.v_nom_min <= self.v_nom_max and self.v_pred_min < self.v_pred_max):
            raise ValueError("guard windows must be non-empty")


@dataclass(frozen=True, slots=True)
class GuardAuditRecord:
    """The guard's verdict on one setpoint as the event log keeps it: when,
    for which inverter and which dispatch source."""

    t: float
    inverter: str
    source_id: str
    accepted: bool
    reason: str                   # none | range | rate | predicted-frequency | predicted-voltage
    predicted_f: float
    predicted_v: float


def validate_setpoint(
    t: float,
    ev: SetpointEvent,
    params: DroopParams,
    state: DroopState,
    p_load_est: float,
    q_load_est: float,
    limits: GuardLimits,
    f_nom: float,
) -> GuardAuditRecord:
    """Screen the setpoint ``ev`` against the plant's droop reference model
    and return its audit record at the step time ``t``.

    Omitted setpoint fields inherit the present values; the checks run in
    order range -> rate -> predicted frequency -> predicted voltage.
    """
    p_new = params.p_set if ev.p_set is None else ev.p_set
    q_new = params.q_set if ev.q_set is None else ev.q_set
    v_new = params.v_nom if ev.v_nom is None else ev.v_nom

    f_pred = f_nom * (1.0 - params.m_p * (p_load_est - p_new) + state.u)
    v_pred = v_new - params.n_q * (q_load_est - q_new) + state.u_v

    def verdict(accepted: bool, reason: str) -> GuardAuditRecord:
        return GuardAuditRecord(t, ev.target, ev.source_id, accepted, reason,
                                f_pred, v_pred)

    if not all(map(math.isfinite, (p_new, q_new, v_new))):
        return verdict(False, "range")
    if math.hypot(p_new, q_new) > limits.s_max:
        return verdict(False, "range")
    if not (limits.v_nom_min <= v_new <= limits.v_nom_max):
        return verdict(False, "range")

    if limits.rate_p is not None and abs(p_new - params.p_set) > limits.rate_p:
        return verdict(False, "rate")
    if limits.rate_v is not None and abs(v_new - params.v_nom) > limits.rate_v:
        return verdict(False, "rate")

    if not (limits.f_pred_min <= f_pred <= limits.f_pred_max):
        return verdict(False, "predicted-frequency")
    if not (limits.v_pred_min <= v_pred <= limits.v_pred_max):
        return verdict(False, "predicted-voltage")
    return verdict(True, "none")
