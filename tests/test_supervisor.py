import math

import pytest

from dualpath.droop import DroopParams, DroopState
from dualpath.frames import wrap_angle
from dualpath.pll import PllState
from dualpath.supervisor import Mode, Supervisor, TransitionThresholds, shadow_follow

W0 = 2 * math.pi * 60.0
S = complex(0.4, 0.1)  # terminal power, inverter pu
DT = 1e-3  # the supervisor's control step: the default 0.2 s hold is 200 steps


def make_sup(mode=Mode.GFL, auto=False):
    return Supervisor(mode, TransitionThresholds(), f_nom=60.0, dt=DT, unit="inv1", auto=auto)


def sync(sup, k):
    """One shadow-sync step, at step ``k``, with both paths in agreement on a
    live bus."""
    gfl = PllState(theta_est=0.05, omega_est=W0, v_pos=1.0, lock=True, omega_locked=W0)
    gfm = DroopState(theta_gfm=0.05, omega=1.0)
    return sup.shadow_sync_step(gfl, 1.0, True, gfm, k=k)


def test_shadow_copies_measurement_exactly():
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, omega_est=W0, v_pos=1.0, omega_locked=W0)
    gfm = DroopState(theta_gfm=99.0, v_gfm=0.0)
    params = DroopParams()
    shadow_follow(gfl, S, W0, gfm, params)
    st = sup.shadow_sync_step(gfl, 1.0, True, gfm, k=0)
    assert gfm.theta_gfm == 0.3
    assert gfm.v_gfm == 1.0
    assert wrap_angle(gfm.theta_gfm - 0.3) == 0.0
    assert gfm.p_f == 0.4 and gfm.q_f == 0.1
    assert st.d_theta == 0.0 and st.d_v == 0.0 and st.d_f == 0.0


def test_shadow_backsolves_restoration_offsets():
    # droop law evaluated at the copied state reproduces the measurement
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, v_pos=0.97, omega_est=0.998 * W0, omega_locked=W0)
    gfm = DroopState()
    params = DroopParams(m_p=0.02, n_q=0.05, p_set=0.1, q_set=0.0)
    shadow_follow(gfl, complex(0.6, 0.3), W0, gfm, params)
    omega_droop = 1.0 - params.m_p * (gfm.p_f - params.p_set) + gfm.u
    v_droop = params.v_nom - params.n_q * (gfm.q_f - params.q_set) + gfm.u_v
    assert omega_droop == pytest.approx(0.998, abs=1e-12)
    assert v_droop == pytest.approx(0.97, abs=1e-12)


def test_gfm_mode_dead_grid_marks_stale():
    sup = make_sup(Mode.GFM)
    gfl = PllState(theta_est=0.3, v_pos=1.0, omega_est=W0, lock=False, omega_locked=W0)
    gfm = DroopState()
    st = sup.shadow_sync_step(gfl, 1.0, False, gfm, k=1000)
    assert st.stale
    assert st.holds_since is None


def test_gfm_mode_margins_read_from_the_pll():
    sup = make_sup(Mode.GFM)
    gfl = PllState(theta_est=0.1, v_pos=1.02, omega_est=1.001 * W0, lock=True, omega_locked=W0)
    gfm = DroopState(theta_gfm=0.05, omega=1.0)
    st = sup.shadow_sync_step(gfl, 1.0, True, gfm, k=1000)
    assert st.d_theta == pytest.approx(0.05, abs=1e-12)
    assert st.d_v == pytest.approx(0.02, abs=1e-12)
    assert st.d_f == pytest.approx(0.06, abs=1e-9)
    assert not st.stale and st.holds_since == 1000
    assert gfm.theta_gfm == 0.05  # the forming path is not overwritten


def test_transition_accept_when_synced():
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, omega_est=W0, v_pos=1.0, lock=True, omega_locked=W0)
    gfm = DroopState()
    for k in range(3):
        sup.shadow_sync_step(gfl, 1.0, True, gfm, k=k * 300)
    ok, reason = sup.request_transition(Mode.GFM, k=900)
    assert ok and reason == "none"
    assert sup.mode is Mode.GFM


def test_transition_denied_on_angle():
    sup = make_sup(Mode.GFM)
    sup.status.d_theta = math.radians(25.0)
    sup.status.holds_since = 0
    ok, reason = sup.request_transition(Mode.GFL, k=10000)
    assert not ok and reason == "angle"
    assert sup.mode is Mode.GFM


def test_transition_denied_reasons_in_order():
    sup = make_sup(Mode.GFM)
    sup.status.stale = True
    ok, reason = sup.request_transition(Mode.GFL, k=0)
    assert not ok and reason == "stale"
    sup.status.stale = False
    sup.status.d_v = 0.1
    ok, reason = sup.request_transition(Mode.GFL, k=0)
    assert not ok and reason == "voltage"
    sup.status.d_v = 0.0
    sup.status.d_f = 0.5
    ok, reason = sup.request_transition(Mode.GFL, k=0)
    assert not ok and reason == "frequency"
    sup.status.d_f = 0.0
    sup.status.holds_since = None
    ok, reason = sup.request_transition(Mode.GFL, k=0)
    assert not ok and reason == "hold"


def test_transition_requires_hold_time():
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.3, omega_est=W0, v_pos=1.0, omega_locked=W0)
    gfm = DroopState()
    sup.shadow_sync_step(gfl, 1.0, True, gfm, k=0)
    ok, reason = sup.request_transition(Mode.GFM, k=100)
    assert not ok and reason == "hold"
    sup.shadow_sync_step(gfl, 1.0, True, gfm, k=250)
    ok, _ = sup.request_transition(Mode.GFM, k=250)
    assert ok


def test_transition_same_mode_rejected():
    sup = make_sup(Mode.GFL)
    with pytest.raises(ValueError):
        sup.request_transition(Mode.GFL, k=0)


def test_active_reference_continuous_across_synced_toggle():
    # with the shadow in perfect sync, toggling the mode cannot move the pair
    sup = make_sup(Mode.GFL)
    gfl = PllState(theta_est=0.7, omega_est=W0, v_pos=1.01, lock=True, omega_locked=W0)
    gfm = DroopState()
    for k in range(3):
        shadow_follow(gfl, S, W0, gfm, DroopParams())
        sup.shadow_sync_step(gfl, 1.0, True, gfm, k=300 * k)
    # the (theta, v) reference of the following path before the toggle and
    # of the forming path after it
    before = (gfl.theta_est, gfl.v_pos)
    ok, _ = sup.request_transition(Mode.GFM, k=900)
    assert ok
    after = (gfm.theta_gfm, gfm.v_gfm)
    assert after[0] == pytest.approx(before[0], abs=1e-9)
    assert after[1] == pytest.approx(before[1], abs=1e-9)


def test_scripted_denial_recorded_once_then_dropped():
    sup = make_sup(Mode.GFL)
    sync(sup, 0)
    assert sup.request(0.0, Mode.GFM, "command", plugged=True) is None
    sync(sup, 100)
    rec = sup.arbitrate(100, tripped=False, grid_live=False)
    assert (rec.accepted, rec.reason, rec.source) == (False, "hold", "command")
    assert (rec.from_mode, rec.to_mode, rec.inverter) == ("gfl", "gfm", "inv1")
    assert rec.t == 100 * DT and rec.hold_elapsed == 100 * DT
    assert rec.thresholds == sup.thresholds
    # the hold is met later, but the denied request is gone
    for k in range(2, 6):
        sync(sup, 100 * k)
        assert sup.arbitrate(100 * k, tripped=False, grid_live=False) is None
    assert sup.pending is None and sup.mode is Mode.GFL


def test_autonomous_request_retries_silently_until_accepted():
    sup = make_sup(Mode.GFL, auto=True)
    gated = []

    def counted(target, k, _gate=sup.request_transition):
        gated.append(k)
        return _gate(target, k)

    sup.request_transition = counted
    records = []
    for k in range(4):
        sync(sup, 100 * k)
        # the detector clears after the first step: the request persists
        records.append(sup.arbitrate(100 * k, tripped=k == 0, grid_live=False))
    assert records[:2] == [None, None]
    rec = records[2]
    assert (rec.accepted, rec.reason, rec.source) == (True, "none", "auto:islanding")
    assert records[3] is None
    assert gated == [0, 100, 200]
    assert sup.mode is Mode.GFM


def test_breaker_move_resets_hold_and_arms_grid_restored():
    sup = make_sup(Mode.GFM, auto=True)
    assert sync(sup, 0).holds_since == 0
    # not armed: a live grid alone raises no request
    assert sup.arbitrate(0, tripped=False, grid_live=True) is None
    assert sup.pending is None
    sup.breaker_moved(closed=True)
    assert sup.status.holds_since is None and sup.armed
    sync(sup, 1000)
    assert sup.arbitrate(1000, tripped=False, grid_live=False) is None
    assert sup.pending is None  # armed, but the grid is not back yet
    assert sup.arbitrate(1000, tripped=False, grid_live=True) is None  # hold
    sync(sup, 1250)
    rec = sup.arbitrate(1250, tripped=False, grid_live=True)
    assert (rec.accepted, rec.to_mode, rec.source) == (True, "gfl", "auto:grid-restored")
    assert not sup.armed  # handed back: disarmed


def test_breaker_opening_disarms_grid_restored():
    sup = make_sup(Mode.GFM, auto=True)
    sup.breaker_moved(closed=True)
    sync(sup, 0)
    sup.breaker_moved(closed=False)
    assert sup.status.holds_since is None and not sup.armed
    sync(sup, 1000)
    assert sup.arbitrate(1000, tripped=False, grid_live=True) is None
    assert sup.pending is None and sup.mode is Mode.GFM


def test_request_for_present_mode_makes_no_record():
    sup = make_sup(Mode.GFL)
    sync(sup, 0)
    assert sup.request(0.0, Mode.GFL, "command", plugged=True) is None
    assert sup.arbitrate(0, tripped=False, grid_live=False) is None
    assert sup.pending is None
    assert sup.request(0.0, Mode.GFL, "command", plugged=False) is None


def test_unplugged_unit_denies_scripted_request_when_issued():
    sup = make_sup(Mode.GFL)
    rec = sup.request(0.1, Mode.GFM, "setpoint:scada", plugged=False)
    assert (rec.accepted, rec.reason, rec.source) == (False, "unplugged", "setpoint:scada")
    assert (rec.d_theta, rec.d_v, rec.d_f, rec.stale, rec.hold_elapsed) == (None,) * 5
    assert sup.pending is None
