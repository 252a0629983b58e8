"""Grid-following control path.

A dual second-order-generalized-integrator (SOGI) positive-sequence extractor
feeds a synchronous-frame PLL, whose angle and frequency the detector, the
supervisor and the forming handover read.  P/Q tracking inverts the per-unit
power relations into dq current references, clamped to the converter rating,
with the d axis on the bus voltage (grid-voltage-oriented current control).

The estimated angle is kept unwrapped; the loop integrates at the estimated
frequency when the input collapses (under-voltage freeze) so that the angle
reference stays usable for ride-through and shadow synchronization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .frames import A_OP, A_OP2, SQRT3, TWO_PI, steps


I_MAX = 1.2  # pu of the inverter rating, current reference limit


class UnderVoltageError(ValueError):
    """Voltage too low to convert a PQ setpoint into current references."""


@dataclass(frozen=True, slots=True)
class PllParams:
    """SRF-PLL gains from (zeta, natural frequency); SOGI gain k."""

    zeta: float = 0.7071067811865476
    f_n: float = 20.0          # loop natural frequency, Hz
    sogi_k: float = math.sqrt(2.0)
    uv_threshold: float = 0.05  # pu, input collapse level
    uv_time: float = 0.1        # s of collapse before freezing
    capture_v: float = 0.8      # pu, minimum voltage to refresh omega_locked
    lock_q_threshold: float = 0.02  # pu filtered q error for lock
    lock_time: float = 0.1      # s the q error must stay small
    q_filter_cutoff: float = TWO_PI * 10.0

    @property
    def kp(self) -> float:
        return 2.0 * self.zeta * TWO_PI * self.f_n

    @property
    def ki(self) -> float:
        return (TWO_PI * self.f_n) ** 2


@dataclass(slots=True)
class PllState:
    omega_est: float             # rad/s
    omega_locked: float          # rad/s, last frequency seen while locked
    theta_est: float = 0.0       # rad, unwrapped
    pi_integrator: float = 0.0   # rad/s above nominal
    # SOGI states: direct and quadrature signals for the alpha and beta axes
    x1a: float = 0.0
    x2a: float = 0.0
    x1b: float = 0.0
    x2b: float = 0.0
    lock: bool = False
    v_pos: float = 0.0           # measured positive-sequence magnitude, pu
    q_filt: float = 0.0
    uv_timer: int = 0            # control steps of input collapse
    lock_timer: int = 0          # control steps of small q error


def init_locked(
    state: PllState,
    v_pos: complex,
    omega: float,
    omega_nom: float,
    dt: float,
    params: PllParams,
) -> None:
    """Initialize the PLL at exact lock on a positive-sequence phasor.

    Seeds the *discrete* steady state of the trapezoidal SOGI pair so that an
    equilibrium operating point stays numerically flat from the first step.
    Locked unless ``|v_pos|`` is below ``params.uv_threshold``, the level
    below which ``pll_step`` treats the input as collapsed.
    """
    state.theta_est = cmath.phase(v_pos)
    state.omega_est = omega
    state.pi_integrator = omega - omega_nom
    # discrete steady state: X = dt * (z(I-hA) - (I+hA))^-1 B U per axis
    h = 0.5 * dt
    z = cmath.exp(1j * omega * dt)
    a11, a12, a21 = -omega * params.sogi_k, -omega, omega
    m11 = z * (1 - h * a11) - (1 + h * a11)
    m12 = -h * a12 * (z + 1)
    m21 = -h * a21 * (z + 1)
    m22 = z - 1.0
    det = m11 * m22 - m12 * m21
    b1 = dt * omega * params.sogi_k
    for u, x1_attr, x2_attr in ((v_pos, "x1a", "x2a"), (-1j * v_pos, "x1b", "x2b")):
        rhs1 = b1 * u
        x1 = m22 * rhs1 / det
        x2 = -m21 * rhs1 / det
        setattr(state, x1_attr, x1.real)
        setattr(state, x2_attr, x2.real)
    # place theta on the loop's discrete fixed point (zero phase-detector
    # error), which sits a fraction of a millidegree off the ideal angle
    va_p = 0.5 * (state.x1a - state.x2b)
    vb_p = 0.5 * (state.x2a + state.x1b)
    if abs(v_pos) > 0.0:
        state.theta_est = math.atan2(vb_p, va_p) + 0.5 * omega * dt
    state.v_pos = abs(v_pos)
    state.omega_locked = omega
    state.lock = abs(v_pos) >= params.uv_threshold
    state.q_filt = 0.0
    state.uv_timer = 0
    state.lock_timer = steps(0.2, dt) if state.lock else 0


def pll_gains(params: PllParams, omega_nom: float, dt: float) -> tuple:
    """``(omega_nom, kp, ki, n_lock, n_uv)``: the lock and collapse times in steps."""
    return (omega_nom, params.kp, params.ki, steps(params.lock_time, dt),
            steps(params.uv_time, dt))


def pll_step(
    v_pos: complex, v_neg: complex, rot: complex, dt: float, state: PllState,
    params: PllParams, gains: tuple,
) -> None:
    """Advance the DSOGI + SRF-PLL by one control step on the bus voltage
    given as its positive- and negative-sequence phasors ``v_pos, v_neg``
    and the synthesis rotation ``rot = exp(j*theta)`` at the sample instant.
    ``gains`` is ``pll_gains(params, omega_nom, dt)``, resolved once per unit.

    The input is the amplitude-invariant Clarke transform of the three phase
    samples, each phase being ``Re(phasor * rot)`` of the zero-sequence-free
    set (``V_a = V+ + V-``, ``V_b = a^2 V+ + a V-``, ``V_c = a V+ + a^2 V-``).
    The SOGI resonators are discretized trapezoidally (a forward-Euler
    resonator at a 10 kHz step carries enough phase error to break the
    0.1-degree tracking contract); the slow loop states use forward Euler.
    The half-sample lag of the sampled input chain is compensated inside the
    phase detector so ``theta_est`` tracks the true instantaneous angle.
    """
    a = ((v_pos + v_neg) * rot).real
    b = ((A_OP2 * v_pos + A_OP * v_neg) * rot).real
    c = ((A_OP * v_pos + A_OP2 * v_neg) * rot).real
    alpha = (2.0 / 3.0) * (a - 0.5 * b - 0.5 * c)
    beta = (b - c) / SQRT3
    omega_nom, kp, ki, n_lock, n_uv = gains
    x1a, x2a, x1b, x2b = state.x1a, state.x2a, state.x1b, state.x2b

    # phase detector from the pre-update states (everything at sample time),
    # with half-sample delay compensation
    va_p = 0.5 * (x1a - x2b)
    vb_p = 0.5 * (x2a + x1b)
    v_mag = state.v_pos = math.hypot(va_p, vb_p)

    w = state.omega_est
    theta_cmp = state.theta_est - 0.5 * w * dt
    e_q = -va_p * math.sin(theta_cmp) + vb_p * math.cos(theta_cmp)

    # trapezoidal update of both SOGI pairs at the adapted center frequency
    if w < 0.1 * omega_nom:
        w = 0.1 * omega_nom
    k = params.sogi_k
    h = 0.5 * dt
    hw = h * w
    hwk = hw * k
    det = 1.0 + hwk + hw * hw
    du = dt * w * k
    r1 = (1.0 - hwk) * x1a - hw * x2a + du * alpha
    r2 = hw * x1a + x2a
    state.x1a = (r1 - hw * r2) / det
    state.x2a = (hw * r1 + (1.0 + hwk) * r2) / det
    r1 = (1.0 - hwk) * x1b - hw * x2b + du * beta
    r2 = hw * x1b + x2b
    state.x1b = (r1 - hw * r2) / det
    state.x2b = (hw * r1 + (1.0 + hwk) * r2) / det

    if v_mag < params.uv_threshold:
        # input collapse: freeze the loop at the last locked frequency and
        # keep rotating the angle reference; declare lock lost after uv_time
        state.uv_timer += 1
        state.lock_timer = 0
        if state.uv_timer > n_uv:
            state.lock = False
        w = state.omega_est = state.omega_locked
        state.pi_integrator = w - omega_nom
        state.theta_est += w * dt
        return
    state.uv_timer = 0

    pi = state.pi_integrator + ki * e_q * dt
    limit = 0.2 * omega_nom
    if pi > limit:
        pi = limit
    elif pi < -limit:
        pi = -limit
    state.pi_integrator = pi
    w = state.omega_est = omega_nom + pi + kp * e_q
    state.theta_est += w * dt

    q_filt = state.q_filt = (
        state.q_filt + dt * params.q_filter_cutoff * (abs(e_q) - state.q_filt)
    )
    lock_q = params.lock_q_threshold
    if q_filt < lock_q:
        state.lock_timer += 1
    else:
        state.lock_timer = 0
        state.lock = False
    if state.lock_timer >= n_lock:
        state.lock = True
    # remember the frequency only while tracking a healthy voltage, so a
    # collapse freezes at the pre-event value rather than mid-decay garbage
    if state.lock and q_filt < lock_q and v_mag >= params.capture_v:
        state.omega_locked = omega_nom + pi


def current_refs_from_pq(
    p_set: float, q_set: float, v_d: float, v_q: float
) -> tuple[float, float]:
    """Invert p = vd*id + vq*iq, q = vq*id - vd*iq for the current references
    at the dq voltage ``(v_d, v_q)``.

    The result is clamped to ``I_MAX`` magnitude preserving the P:Q ratio.
    Raises UnderVoltageError below 0.05 pu voltage (injection suspended).
    """
    det = v_d * v_d + v_q * v_q
    if det < 0.05 * 0.05:
        raise UnderVoltageError(f"voltage magnitude {math.sqrt(det):.4f} pu too low")
    i_d = (p_set * v_d + q_set * v_q) / det
    i_q = (p_set * v_q - q_set * v_d) / det
    mag = math.hypot(i_d, i_q)
    if mag > I_MAX:
        scale = I_MAX / mag
        i_d *= scale
        i_q *= scale
    return i_d, i_q


def gfl_injection(i_d: float, i_q: float, frame: complex) -> complex:
    """The dq current references as a network-frame phasor, the d axis along
    the unit phasor ``frame`` (``V / |V|`` to orient it on the voltage ``V``)."""
    return complex(i_d, i_q) * frame
