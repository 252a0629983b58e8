"""The PLL's sampled-input path as it was before ``pll_step`` took phasors:
phase samples -> Clarke transform -> DSOGI + SRF-PLL update.

Kept as the oracle that ``pll_step`` must match bit for bit
(``tests/test_pll.py``), and as the synthesis the frame tests check against
matrix oracles (``tests/test_frames.py``).  Its lock and collapse timers count
control steps, as ``pll_step``'s do.
"""

from __future__ import annotations

import math

from dualpath.frames import A_OP, A_OP2, SQRT3, steps
from dualpath.pll import PllParams, PllState


def clarke(a: float, b: float, c: float) -> tuple[float, float]:
    """Amplitude-invariant Clarke transform (abc -> alpha/beta)."""
    alpha = (2.0 / 3.0) * (a - 0.5 * b - 0.5 * c)
    beta = (b - c) / SQRT3
    return alpha, beta


def phase_samples(
    v_pos: complex, v_neg: complex, rot: complex
) -> tuple[float, float, float]:
    """Instantaneous values of the three phases of a zero-sequence-free set.

    The phase phasors are rebuilt from the positive- and negative-sequence
    phasors; each phase is ``Re(phasor * rot)``, with ``rot = exp(j*theta)``
    the rotation at the sample instant.
    """
    return (
        ((v_pos + v_neg) * rot).real,
        ((A_OP2 * v_pos + A_OP * v_neg) * rot).real,
        ((A_OP * v_pos + A_OP2 * v_neg) * rot).real,
    )


def sampled_pll_step(
    va: float, vb: float, vc: float, dt: float, state: PllState, params: PllParams,
    omega_nom: float,
) -> PllState:
    """Advance the DSOGI + SRF-PLL by one control step on the phase samples
    ``va, vb, vc``, at the nominal frequency ``omega_nom`` (rad/s).

    The SOGI resonators are discretized trapezoidally (a forward-Euler
    resonator at a 10 kHz step carries enough phase error to break the
    0.1-degree tracking contract); the slow loop states use forward Euler.
    The half-sample lag of the sampled input chain is compensated inside the
    phase detector so ``theta_est`` tracks the true instantaneous angle.
    """
    alpha, beta = clarke(va, vb, vc)

    # phase detector from the pre-update states (everything at sample time),
    # with half-sample delay compensation
    va_p = 0.5 * (state.x1a - state.x2b)
    vb_p = 0.5 * (state.x2a + state.x1b)
    state.v_pos = math.hypot(va_p, vb_p)

    theta_cmp = state.theta_est - 0.5 * state.omega_est * dt
    e_q = -va_p * math.sin(theta_cmp) + vb_p * math.cos(theta_cmp)

    # trapezoidal update of both SOGI pairs at the adapted center frequency
    w = state.omega_est
    if w < 0.1 * omega_nom:
        w = 0.1 * omega_nom
    k = params.sogi_k
    h = 0.5 * dt
    hw = h * w
    hwk = hw * k
    det = 1.0 + hwk + hw * hw
    du = dt * w * k
    r1 = (1.0 - hwk) * state.x1a - hw * state.x2a + du * alpha
    r2 = hw * state.x1a + state.x2a
    state.x1a = (r1 - hw * r2) / det
    state.x2a = (hw * r1 + (1.0 + hwk) * r2) / det
    r1 = (1.0 - hwk) * state.x1b - hw * state.x2b + du * beta
    r2 = hw * state.x1b + state.x2b
    state.x1b = (r1 - hw * r2) / det
    state.x2b = (hw * r1 + (1.0 + hwk) * r2) / det

    if state.v_pos < params.uv_threshold:
        # input collapse: freeze the loop at the last locked frequency and
        # keep rotating the angle reference; declare lock lost after uv_time
        state.uv_timer += 1
        state.lock_timer = 0
        if state.uv_timer > steps(params.uv_time, dt):
            state.lock = False
        state.omega_est = state.omega_locked
        state.pi_integrator = state.omega_locked - omega_nom
        state.theta_est += state.omega_est * dt
        return state
    state.uv_timer = 0

    state.pi_integrator += params.ki * e_q * dt
    limit = 0.2 * omega_nom
    if state.pi_integrator > limit:
        state.pi_integrator = limit
    elif state.pi_integrator < -limit:
        state.pi_integrator = -limit
    state.omega_est = omega_nom + state.pi_integrator + params.kp * e_q
    state.theta_est += state.omega_est * dt

    state.q_filt += dt * params.q_filter_cutoff * (abs(e_q) - state.q_filt)
    if state.q_filt < params.lock_q_threshold:
        state.lock_timer += 1
    else:
        state.lock_timer = 0
        state.lock = False
    if state.lock_timer >= steps(params.lock_time, dt):
        state.lock = True
    # remember the frequency only while tracking a healthy voltage, so a
    # collapse freezes at the pre-event value rather than mid-decay garbage
    if (
        state.lock
        and state.q_filt < params.lock_q_threshold
        and state.v_pos >= params.capture_v
    ):
        state.omega_locked = omega_nom + state.pi_integrator
    return state
