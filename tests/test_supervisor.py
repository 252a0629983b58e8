import math

import pytest

from dualpath.droop import DroopParams, DroopState
from dualpath.frames import wrap_angle
from dualpath.pll import PllState
from dualpath.supervisor import Mode, Supervisor, TransitionThresholds

W0 = 2 * math.pi * 60.0
S = complex(0.4, 0.1)  # terminal power, inverter pu


def make_sup(mode=Mode.GFL):
    return Supervisor(mode, TransitionThresholds(), f_nom=60.0)


def test_shadow_copies_measurement_exactly():
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, omega_est=W0, v_pos=1.0)
    gfm = DroopState(theta_gfm=99.0, v_gfm=0.0)
    params = DroopParams()
    st = sup.shadow_sync_step(gfl, S, 1.0, True, gfm, params, t=0.0)
    assert gfm.theta_gfm == 0.3
    assert gfm.v_gfm == 1.0
    assert wrap_angle(gfm.theta_gfm - 0.3) == 0.0
    assert gfm.p_f == 0.4 and gfm.q_f == 0.1
    assert st.d_theta == 0.0 and st.d_v == 0.0 and st.d_f == 0.0


def test_shadow_backsolves_restoration_offsets():
    # droop law evaluated at the copied state reproduces the measurement
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, v_pos=0.97, omega_est=0.998 * W0)
    gfm = DroopState()
    params = DroopParams(m_p=0.02, n_q=0.05, p_set=0.1, q_set=0.0)
    sup.shadow_sync_step(gfl, complex(0.6, 0.3), 1.0, True, gfm, params, t=0.0)
    omega_droop = 1.0 - params.m_p * (gfm.p_f - params.p_set) + gfm.u
    v_droop = params.v_nom - params.n_q * (gfm.q_f - params.q_set) + gfm.u_v
    assert omega_droop == pytest.approx(0.998, abs=1e-12)
    assert v_droop == pytest.approx(0.97, abs=1e-12)


def test_gfm_mode_dead_grid_marks_stale():
    sup = make_sup(Mode.GFM)
    gfl = PllState(theta_est=0.3, v_pos=1.0, omega_est=W0, lock=False)
    gfm = DroopState()
    st = sup.shadow_sync_step(gfl, S, 1.0, False, gfm, DroopParams(), t=1.0)
    assert st.stale
    assert st.holds_since is None


def test_gfm_mode_margins_read_from_the_pll():
    sup = make_sup(Mode.GFM)
    gfl = PllState(theta_est=0.1, v_pos=1.02, omega_est=1.001 * W0, lock=True)
    gfm = DroopState(theta_gfm=0.05, omega=1.0)
    st = sup.shadow_sync_step(gfl, S, 1.0, True, gfm, DroopParams(), t=1.0)
    assert st.d_theta == pytest.approx(0.05, abs=1e-12)
    assert st.d_v == pytest.approx(0.02, abs=1e-12)
    assert st.d_f == pytest.approx(0.06, abs=1e-9)
    assert not st.stale and st.holds_since == 1.0
    assert gfm.theta_gfm == 0.05  # the forming path is not overwritten


def test_transition_accept_when_synced():
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, omega_est=W0, v_pos=1.0, lock=True)
    gfm = DroopState()
    for k in range(3):
        sup.shadow_sync_step(gfl, S, 1.0, True, gfm, DroopParams(), t=k * 0.3)
    ok, reason = sup.request_transition(Mode.GFM, t=0.9)
    assert ok and reason == "none"
    assert sup.mode is Mode.GFM


def test_transition_denied_on_angle():
    sup = make_sup(Mode.GFM)
    sup.status.d_theta = math.radians(25.0)
    sup.status.holds_since = 0.0
    ok, reason = sup.request_transition(Mode.GFL, t=10.0)
    assert not ok and reason == "angle"
    assert sup.mode is Mode.GFM


def test_transition_denied_reasons_in_order():
    sup = make_sup(Mode.GFM)
    sup.status.stale = True
    ok, reason = sup.request_transition(Mode.GFL, t=0.0)
    assert not ok and reason == "stale"
    sup.status.stale = False
    sup.status.d_v = 0.1
    ok, reason = sup.request_transition(Mode.GFL, t=0.0)
    assert not ok and reason == "voltage"
    sup.status.d_v = 0.0
    sup.status.d_f = 0.5
    ok, reason = sup.request_transition(Mode.GFL, t=0.0)
    assert not ok and reason == "frequency"
    sup.status.d_f = 0.0
    sup.status.holds_since = None
    ok, reason = sup.request_transition(Mode.GFL, t=0.0)
    assert not ok and reason == "hold"


def test_transition_requires_hold_time():
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, omega_est=W0, v_pos=1.0)
    gfm = DroopState()
    sup.shadow_sync_step(gfl, S, 1.0, True, gfm, DroopParams(), t=0.0)
    ok, reason = sup.request_transition(Mode.GFM, t=0.1)
    assert not ok and reason == "hold"
    sup.shadow_sync_step(gfl, S, 1.0, True, gfm, DroopParams(), t=0.25)
    ok, _ = sup.request_transition(Mode.GFM, t=0.25)
    assert ok


def test_transition_same_mode_rejected():
    sup = make_sup(Mode.GFL)
    with pytest.raises(ValueError):
        sup.request_transition(Mode.GFL, t=0.0)


def test_active_reference_continuous_across_synced_toggle():
    # with the shadow in perfect sync, toggling the mode cannot move the pair
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.7, omega_est=W0, v_pos=1.01, lock=True)
    gfm = DroopState()
    for k in range(3):
        sup.shadow_sync_step(gfl, S, 1.0, True, gfm, DroopParams(), t=0.3 * k)
    # the (theta, v) reference of the following path before the toggle and
    # of the forming path after it
    before = (gfl.theta_est, gfl.v_pos)
    ok, _ = sup.request_transition(Mode.GFM, t=0.9)
    assert ok
    after = (gfm.theta_gfm, gfm.v_gfm)
    assert after[0] == pytest.approx(before[0], abs=1e-9)
    assert after[1] == pytest.approx(before[1], abs=1e-9)
