import cmath
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sampled_pll import phase_samples, sampled_pll_step

from dualpath.frames import TWO_PI, wrap_angle
from dualpath.pll import (
    I_MAX,
    PllParams,
    PllState,
    UnderVoltageError,
    current_refs_from_pq,
    gfl_injection,
    init_locked,
    pll_gains,
    pll_step,
)

DT = 1e-4
PARAMS = PllParams()
W_NOM = TWO_PI * 60.0
GAINS = pll_gains(PARAMS, W_NOM, DT)
EPS = sys.float_info.epsilon


def step_on(theta, m=1.0, m_neg=0.0, theta_neg=0.0, state=None, dt=DT):
    """One PLL step on a positive-sequence set of peak ``m`` at angle
    ``theta`` plus an optional negative sequence of peak ``m_neg`` at
    ``theta_neg``: phase a is ``m cos(theta) + m_neg cos(theta_neg)``."""
    pll_step(cmath.rect(m, theta), cmath.rect(m_neg, theta_neg), 1.0, dt, state,
             PARAMS, GAINS if dt == DT else pll_gains(PARAMS, W_NOM, dt))


def run_pll(f_hz, t_end, state=None, phi0=0.5, m=1.0, m_neg=0.0, f_start=0.0):
    """Drive the PLL with a generated phase ramp; return state and histories."""
    state = state or PllState(omega_est=W_NOM, omega_locked=W_NOM)
    n = int(round(t_end / DT))
    theta_true = phi0 + 2 * math.pi * f_start
    err, freq = np.empty(n), np.empty(n)
    for k in range(n):
        t = k * DT
        step_on(theta_true, m=m, m_neg=m_neg, theta_neg=-theta_true, state=state)
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
        pll_step(0j, 0j, 1.0, DT, state, PARAMS, GAINS)
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
        step_on(theta_true, state=state)
        theta_true += 2 * math.pi * 60.5 * DT
        fe[k] = state.omega_est / (2 * math.pi) - 60.5
    assert abs(fe[int(0.2 / DT) - 1]) < 0.05


def test_init_locked_is_equilibrium():
    # initialized on the loop fixed point, frequency and tracking error stay
    # flat from the very first step (tiny constant bias is fine)
    state = PllState(omega_est=W_NOM, omega_locked=W_NOM)
    v = cmath.rect(1.0, 0.3)
    w0 = 2 * math.pi * 60.0
    init_locked(state, v, w0, w0, DT, PARAMS.sogi_k)
    bias0 = None
    theta_true = 0.3
    for k in range(2000):
        step_on(theta_true, state=state)
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
    assert gfl_injection(1.0, 0.0, cmath.exp(0j)) == pytest.approx(1.0 + 0j)
    assert gfl_injection(0.0, 0.0, cmath.exp(1.23j)) == 0j


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-10, 10))
def test_gfl_injection_matches_inverse_rotation_oracle(i_d, i_q, theta):
    z = gfl_injection(i_d, i_q, cmath.exp(1j * theta))
    assert abs(z) == pytest.approx(math.hypot(i_d, i_q), abs=1e-12)
    back = z * cmath.exp(-1j * theta)
    assert back.real == pytest.approx(i_d, abs=1e-12)
    assert back.imag == pytest.approx(i_q, abs=1e-12)


def pll_frame_injection(p, q, v, theta):
    """The following unit's current by the PLL-frame round trip: the bus
    voltage ``v`` measured in a dq frame at angle ``theta``, the references
    rotated back out of it."""
    v_dq = v * cmath.exp(-1j * theta)
    i_d, i_q = current_refs_from_pq(p, q, v_dq.real, v_dq.imag)
    return complex(i_d, i_q) * cmath.exp(1j * theta)


@settings(max_examples=500)
@given(
    st.just(0.0) | st.floats(1e-9, 2.0),  # setpoints, not subnormals
    st.floats(-math.pi, math.pi),
    st.floats(0.06, 1.3),
    st.floats(-math.pi, math.pi),
    st.floats(-50.0, 50.0),
)
def test_bus_voltage_frame_matches_the_pll_frame_round_trip(s_mag, s_ang, v_mag, v_ang, theta):
    # the two rotations of the round trip cancel whatever the PLL angle, so
    # the d axis can sit on the bus voltage itself; |S| / |V| reaches 33 pu,
    # so the I_MAX clamp engages
    s = cmath.rect(s_mag, s_ang)
    v = cmath.rect(v_mag, v_ang)
    i_d, i_q = current_refs_from_pq(s.real, s.imag, abs(v), 0.0)
    i = gfl_injection(i_d, i_q, v / abs(v))
    oracle = pll_frame_injection(s.real, s.imag, v, theta)
    assert abs(i - oracle) <= 8 * EPS * abs(oracle)
    if abs(i) < I_MAX * (1 - 1e-9):  # unclamped: the current delivers S
        assert abs(v * i.conjugate() - s) <= 8 * EPS * s_mag


# --- pll_step against the sampled-input path it replaced -------------------


DTS = (1e-4, 2e-4, 5e-4, 1e-3)  # the step sizes the property draws


def _floats(lo, hi, *edges):
    """Floats in [lo, hi], with the given edge values drawn often."""
    drawn = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(edges), drawn) if edges else drawn


def _counts(seconds):
    """Step counts up to 2000, drawing often the counts one short of, at and
    one past ``seconds`` at each step size the property draws."""
    edges = [n + d for dt in DTS for n in [round(seconds / dt)] for d in (-1, 0, 1)]
    return st.one_of(st.sampled_from(edges), st.integers(0, 2000))


# SOGI states either of normal size or small enough that the measured
# magnitude falls under the undervoltage threshold
_sogi = st.one_of(_floats(-1.6, 1.6, 0.0, 1.6), _floats(-0.03, 0.03))

pll_states = st.builds(
    PllState,
    theta_est=_floats(-1e3, 1e3),
    # the 0.1 * omega_nom floor of the SOGI centre frequency
    omega_est=_floats(0.0, 1.3 * W_NOM, 0.1 * W_NOM, 0.05 * W_NOM, W_NOM),
    pi_integrator=_floats(-0.25 * W_NOM, 0.25 * W_NOM, 0.2 * W_NOM, -0.2 * W_NOM),
    x1a=_sogi, x2a=_sogi, x1b=_sogi, x2b=_sogi,
    lock=st.booleans(),
    v_pos=_floats(0.0, 1.5),
    # the lock edges: the q error threshold and the lock and collapse timers
    q_filt=_floats(0.0, 0.1, PARAMS.lock_q_threshold),
    uv_timer=_counts(PARAMS.uv_time),
    lock_timer=_counts(PARAMS.lock_time),
    omega_locked=_floats(0.8 * W_NOM, 1.2 * W_NOM, W_NOM),
)

# one step's input: positive- and negative-sequence magnitude and angle, and
# the synthesis angle
step_inputs = st.tuples(
    _floats(0.0, 1.5, 0.0, 1.0), _floats(-4.0, 4.0),
    _floats(0.0, 0.3, 0.0, 0.1), _floats(-4.0, 4.0),
    _floats(-1e4, 1e4),
)


def _bits(state):
    """Every PllState field, floats by their exact bit pattern."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(state)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    pll_states,
    st.sampled_from([60.0, 50.0]),
    st.sampled_from(DTS),
    st.lists(step_inputs, min_size=1, max_size=8),
)
# a negative-sequence part on a locked loop
@example(PllState(omega_est=W_NOM, x1a=1.0, x2b=-1.0, lock=True, lock_timer=2000,
                  omega_locked=W_NOM), 60.0, 1e-4, [(1.0, 0.2, 0.1, -0.3, 7.0)] * 4)
# undervoltage freeze: the collapse timer crosses uv_time (1000 steps)
@example(PllState(omega_est=1.01 * W_NOM, lock=True, uv_timer=998,
                  omega_locked=1.01 * W_NOM), 60.0, 1e-4, [(0.0, 0.0, 0.0, 0.0, 1.0)] * 3)
# the 0.1 * omega_nom floor
@example(PllState(omega_est=0.05 * W_NOM, omega_locked=W_NOM, x1a=0.5, x2a=0.2), 50.0, 2e-4,
         [(1.0, 0.0, 0.0, 0.0, 3.0)] * 3)
# lock edges: q error at its threshold, the lock timer one step short of
# lock_time (1000 steps), the measured magnitude at capture_v, the PI limit
@example(PllState(omega_est=W_NOM, omega_locked=W_NOM, pi_integrator=0.2 * W_NOM, x1a=1.6,
                  q_filt=PARAMS.lock_q_threshold, lock_timer=999),
         60.0, 1e-4, [(0.8, 0.0, 0.0, 0.0, 0.0)] * 3)
def test_pll_step_is_bit_exact_with_the_sampled_path(state, f_nom, dt, inputs):
    params, omega_nom = PllParams(), TWO_PI * f_nom
    gains = pll_gains(params, omega_nom, dt)
    oracle = dataclasses.replace(state)
    for m, phi, m_neg, phi_neg, theta in inputs:
        v_pos, v_neg = cmath.rect(m, phi), cmath.rect(m_neg, phi_neg)
        rot = cmath.exp(1j * theta)
        pll_step(v_pos, v_neg, rot, dt, state, params, gains)
        sampled_pll_step(*phase_samples(v_pos, v_neg, rot), dt, oracle, params, omega_nom)
        assert _bits(state) == _bits(oracle)
