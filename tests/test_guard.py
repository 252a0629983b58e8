import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from dualpath.droop import DroopParams, DroopState
from dualpath.events import SetpointEvent
from dualpath.guard import GuardAuditRecord, GuardLimits, validate_setpoint
from dualpath.runner import run
from dualpath.scenario import parse_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

F_NOM = 60.0
F_PRED = {"f_pred_min": 59.5, "f_pred_max": 60.5}  # the window at 60 Hz
LIMITS = GuardLimits(**F_PRED)


def sp(**fields):
    """A dispatch command to the guarded inverter."""
    return SetpointEvent("inv", **fields)


def plant(m_p=0.01, u=0.0, p_set=0.0, v_nom=1.0):
    return DroopParams(m_p=m_p, p_set=p_set, v_nom=v_nom), DroopState(u=u)


def test_nominal_setpoint_accepted():
    params, state = plant()
    v = validate_setpoint(0.0, sp(p_set=0.1), params, state, 0.1, 0.0, LIMITS, F_NOM)
    assert v.accepted and v.reason == "none"
    assert v.predicted_f == pytest.approx(60.0)


def test_range_rejection_on_rating():
    params, state = plant()
    v = validate_setpoint(0.0, sp(p_set=3.0), params, state, 0.5, 0.0, LIMITS, F_NOM)
    assert not v.accepted and v.reason == "range"


def test_range_rejection_on_vnom():
    params, state = plant()
    v = validate_setpoint(0.0, sp(v_nom=1.3), params, state, 0.0, 0.0, LIMITS, F_NOM)
    assert not v.accepted and v.reason == "range"


def test_rate_rejection():
    params, state = plant(p_set=0.0)
    v = validate_setpoint(0.0, sp(p_set=0.5), params, state, 0.5, 0.0, LIMITS, F_NOM)
    assert not v.accepted and v.reason == "rate"
    # disabled rate check lets it through to the reference model
    nolimits = GuardLimits(**F_PRED, rate_p=None, rate_v=None)
    v = validate_setpoint(0.0, sp(p_set=0.5), params, state, 0.5, 0.0, nolimits, F_NOM)
    assert v.accepted


def test_predicted_frequency_rejection_matches_droop_oracle():
    # island load 0.9 pu, m_p = 0.01, new p_set = -0.2, u = 0:
    # f_pred = 60*(1 - 0.011) = 59.34 Hz < 59.5 -> rejected
    params, state = plant(m_p=0.01, u=0.0)
    limits = GuardLimits(**F_PRED, rate_p=None)
    v = validate_setpoint(0.0, sp(p_set=-0.2), params, state, 0.9, 0.0, limits, F_NOM)
    assert v.predicted_f == pytest.approx(60.0 * (1 - 0.011), abs=1e-9)
    assert v.predicted_f == pytest.approx(59.34, abs=1e-9)
    assert not v.accepted and v.reason == "predicted-frequency"


def test_predicted_voltage_rejection():
    params, state = plant()
    limits = GuardLimits(**F_PRED, rate_v=None)
    v = validate_setpoint(0.0, sp(q_set=-1.0), params, state, 0.0, 1.1, limits, F_NOM)
    # q deficit of 2.1 pu through n_q = 0.05 drops v_pred below 0.9
    assert v.predicted_v == pytest.approx(1.0 - 0.05 * 2.1)
    assert v.predicted_v < 0.9
    assert not v.accepted and v.reason == "predicted-voltage"


def test_partial_setpoint_inherits_current_values():
    params, state = plant(p_set=0.4)
    v = validate_setpoint(0.0, sp(v_nom=1.02), params, state, 0.4, 0.0, LIMITS, F_NOM)
    assert v.accepted
    assert v.predicted_f == pytest.approx(60.0)


def test_nonfinite_rejected():
    params, state = plant()
    v = validate_setpoint(0.0, sp(p_set=math.nan), params, state, 0.0, 0.0, LIMITS, F_NOM)
    assert not v.accepted and v.reason == "range"


def independent_droop_oracle(p_set, load, m_p, u, f_nom=60.0):
    """Reference-model arithmetic written independently of the guard."""
    return f_nom + f_nom * u - f_nom * m_p * load + f_nom * m_p * p_set


def test_soundness_and_completeness_grid():
    # exhaustive (p_set x load) grid at 0.01 pu resolution
    params, state = plant(m_p=0.01, u=0.0)
    limits = GuardLimits(**F_PRED, rate_p=None, rate_v=None)
    p_grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.01), 10)
    load_grid = np.round(np.arange(0.0, 1.2 + 1e-9, 0.01), 10)
    for load in load_grid:
        for p in p_grid:
            v = validate_setpoint(
                0.0, sp(p_set=float(p)), params, state, float(load), 0.0, limits, F_NOM,
            )
            f_ref = independent_droop_oracle(float(p), float(load), 0.01, 0.0)
            unsafe = f_ref < limits.f_pred_min or f_ref > limits.f_pred_max
            if unsafe:
                assert not v.accepted, (p, load, f_ref)
            elif (
                f_ref >= limits.f_pred_min + 0.05
                and f_ref <= limits.f_pred_max - 0.05
            ):
                # comfortably safe commands must never be rejected
                assert v.accepted, (p, load, f_ref)


def guarded_step(alone: bool, x_v: float | None = None):
    """``sharing_droop`` (formers inv1 and inv2 with m_p 0.01 and 0.02 on a
    1.5 pu constant-power load, frequency restoration off) with voltage
    restoration off too and a +0.2 pu ``p_set`` command to inv1 at 0.5 s;
    ``alone`` drops inv2 and half the load, ``x_v`` sets inv1's virtual
    reactance.  Returns the guard's audit of the command and inv1's recorded
    frequency before it and at the end, 1 s after it."""
    d = yaml.safe_load((SCENARIOS / "sharing_droop.yaml").read_text())
    d["t_end"] = 1.5
    for inv in d["inverters"]:
        inv["droop"]["k_v"] = 0.0
    if alone:
        d["inverters"] = d["inverters"][:1]
        d["loads"][0]["p"] = 0.75
    if x_v is not None:
        d["inverters"][0]["virtual_impedance"] = {"x_v": x_v}
    d["events"] = [{"t": 0.5, "type": "setpoint", "target": "inv1",
                    "source": "scada", "p_set": 0.2}]
    res = run(parse_config(d))
    (audit,) = [r for r in res.events_log if isinstance(r, GuardAuditRecord)]
    before = np.searchsorted(res.t[::d["output"]["decimate"]], 0.5) - 1
    return audit, res.f[before, 0], res.f[-1, 0]


@pytest.mark.parametrize("x_v, bound_hz", [(0.0, 1e-9), (None, 1e-7)])
def test_reference_model_is_the_plant_for_a_unit_alone(x_v, bound_hz):
    # alone on a constant-power load the unit's power does not move with its
    # setpoint, so the droop algebra is the plant's steady state: without
    # virtual impedance it agrees to the bit (0.0 Hz observed).  The default
    # x_v = 0.05 pu drop is built from the current one step old, so the EMF,
    # and with it the unit's line loss, moves with the frequency offset
    # (2.5e-8 Hz observed)
    audit, f_before, f_end = guarded_step(alone=True, x_v=x_v)
    assert audit.accepted
    assert audit.predicted_f - f_before == pytest.approx(60.0 * 0.01 * 0.2, abs=1e-9)
    assert abs(audit.predicted_f - f_end) <= bound_hz


def test_reference_model_overstates_the_shift_beside_a_peer():
    # the model keeps the unit's present load, so the whole +0.2 pu shows as
    # a shift of f_nom * m_1 * 0.2; the peer takes its droop share of the
    # change, and the plant moves by f_nom * 0.2 / (1/m_1 + 1/m_2): the guard
    # overstates the shift by m_1 * (1/m_1 + 1/m_2) = 1.5 (1.5012 observed:
    # the lines' losses grow with the shift)
    audit, f_before, f_end = guarded_step(alone=False)
    m_1, m_2 = 0.01, 0.02
    shift_ratio = (audit.predicted_f - f_before) / (f_end - f_before)
    assert shift_ratio == pytest.approx(m_1 * (1 / m_1 + 1 / m_2), rel=2e-3)
    # so a command toward the window is over-credited: accepted on a
    # prediction inside [59.5, 60.5] while the plant settles below it
    assert audit.accepted and audit.predicted_f >= 59.5 > f_end
