import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualpath.frames import wrap_angle
from dualpath.pll import (
    PllParams,
    PllState,
    UnderVoltageError,
    current_refs_from_pq,
    gfl_injection,
    init_locked,
    pll_step,
)

DT = 1e-4
PARAMS = PllParams()


def three_phase(theta, m=1.0, m_neg=0.0, theta_neg=0.0):
    """Balanced positive-sequence set plus optional negative sequence."""
    a = m * math.cos(theta) + m_neg * math.cos(theta_neg)
    b = m * math.cos(theta - 2 * math.pi / 3) + m_neg * math.cos(theta_neg + 2 * math.pi / 3)
    c = m * math.cos(theta + 2 * math.pi / 3) + m_neg * math.cos(theta_neg - 2 * math.pi / 3)
    return a, b, c


def run_pll(f_hz, t_end, state=None, phi0=0.5, m=1.0, m_neg=0.0, f_start=0.0):
    """Drive the PLL with a generated phase ramp; return state and histories."""
    state = state or PllState()
    n = int(round(t_end / DT))
    theta_true = phi0 + 2 * math.pi * f_start
    err, freq = np.empty(n), np.empty(n)
    for k in range(n):
        t = k * DT
        a, b, c = three_phase(theta_true, m=m, m_neg=m_neg, theta_neg=-theta_true)
        pll_step(a, b, c, DT, state, PARAMS)
        theta_true += 2 * math.pi * f_hz * DT
        err[k] = wrap_angle(state.theta_est - theta_true)
        freq[k] = state.omega_est / (2 * math.pi)
    return state, err, freq


def test_pll_locks_on_balanced_input():
    state, err, _ = run_pll(60.0, 1.0)
    settled = err[int(0.5 / DT):]
    assert np.max(np.abs(settled)) < math.radians(0.1)
    assert state.lock


def test_pll_tracks_off_nominal_frequency():
    _, err, freq = run_pll(61.5, 1.0)
    assert abs(freq[-1] - 61.5) < 0.01
    assert np.max(np.abs(err[int(0.6 / DT):])) < math.radians(0.2)


def test_pll_zero_input_freezes():
    state, _, _ = run_pll(60.0, 0.5)
    n = int(0.2 / DT)
    thetas, omegas = [], []
    for k in range(n):
        pll_step(0.0, 0.0, 0.0, DT, state, PARAMS)
        thetas.append(state.theta_est)
        omegas.append(state.omega_est)
    assert not state.lock
    # frozen at (nearly) the pre-collapse frequency and rotating steadily
    assert abs(state.omega_est - 2 * math.pi * 60.0) < 2 * math.pi * 0.2
    half = n // 2
    assert len(set(omegas[half:])) == 1
    steps = np.diff(thetas[half:])
    assert np.allclose(steps, state.omega_est * DT, atol=1e-12)


def test_pll_negative_sequence_rejection():
    # 0.1 pu negative sequence: angle error < 0.5 deg, freq ripple < 0.05 Hz
    _, err, freq = run_pll(60.0, 1.2, m_neg=0.1)
    tail = slice(int(0.8 / DT), None)
    assert np.max(np.abs(err[tail])) < math.radians(0.5)
    assert np.max(np.abs(freq[tail] - 60.0)) < 0.05


def test_pll_frequency_step_relock():
    state, _, _ = run_pll(60.0, 0.5)
    # continue the ramp at 60.5 Hz without a phase jump
    theta_true = state.theta_est
    n = int(0.25 / DT)
    fe = np.empty(n)
    for k in range(n):
        a, b, c = three_phase(theta_true)
        pll_step(a, b, c, DT, state, PARAMS)
        theta_true += 2 * math.pi * 60.5 * DT
        fe[k] = state.omega_est / (2 * math.pi) - 60.5
    assert abs(fe[int(0.2 / DT) - 1]) < 0.05


def test_init_locked_is_equilibrium():
    # initialized on the loop fixed point, frequency and tracking error stay
    # flat from the very first step (tiny constant bias is fine)
    state = PllState()
    v = cmath.rect(1.0, 0.3)
    w0 = 2 * math.pi * 60.0
    init_locked(state, v, w0, w0, DT)
    bias0 = None
    theta_true = 0.3
    for k in range(2000):
        a, b, c = three_phase(theta_true)
        pll_step(a, b, c, DT, state, PARAMS)
        theta_true += w0 * DT
        bias = wrap_angle(state.theta_est - theta_true)
        if bias0 is None:
            bias0 = bias
        assert abs(bias) < math.radians(0.1)
        assert abs(bias - bias0) < 1e-9
        assert abs(state.omega_est - w0) < 1e-7


def test_current_refs_unit_voltage():
    assert current_refs_from_pq(0.5, 0.0, 1.0, 0.0) == pytest.approx((0.5, 0.0))
    assert current_refs_from_pq(0.0, 0.5, 1.0, 0.0) == pytest.approx((0.0, -0.5))


def test_current_refs_matches_linear_solve_oracle():
    vd, vq, p, q = 0.9, 0.1, 0.7, -0.2
    i_d, i_q = current_refs_from_pq(p, q, vd, vq)
    ref = np.linalg.solve([[vd, vq], [vq, -vd]], [p, q])
    assert i_d == pytest.approx(ref[0], abs=1e-12)
    assert i_q == pytest.approx(ref[1], abs=1e-12)


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(0.06, 1.3),
    st.floats(-math.pi, math.pi),
)
def test_current_refs_reconstruct_and_clamp(p, q, vm, vang):
    vd, vq = vm * math.cos(vang), vm * math.sin(vang)
    i_d, i_q = current_refs_from_pq(p, q, vd, vq)
    mag = math.hypot(i_d, i_q)
    assert mag <= 1.2 + 1e-12
    if mag < 1.2 - 1e-9:
        assert vd * i_d + vq * i_q == pytest.approx(p, abs=1e-12)
        assert vq * i_d - vd * i_q == pytest.approx(q, abs=1e-12)


def test_current_refs_undervoltage():
    with pytest.raises(UnderVoltageError):
        current_refs_from_pq(0.5, 0.0, 0.01, 0.0)


def test_gfl_injection_rotation():
    assert gfl_injection(1.0, 0.0, 0.0) == pytest.approx(1.0 + 0j)
    assert gfl_injection(0.0, 0.0, 1.23) == 0j


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-10, 10))
def test_gfl_injection_matches_inverse_rotation_oracle(i_d, i_q, theta):
    z = gfl_injection(i_d, i_q, theta)
    assert abs(z) == pytest.approx(math.hypot(i_d, i_q), abs=1e-12)
    back = z * cmath.exp(-1j * theta)
    assert back.real == pytest.approx(i_d, abs=1e-12)
    assert back.imag == pytest.approx(i_q, abs=1e-12)
