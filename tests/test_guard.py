import math

import numpy as np
import pytest

from dualpath.droop import DroopParams, DroopState
from dualpath.events import SetpointEvent
from dualpath.guard import GuardLimits, validate_setpoint

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
