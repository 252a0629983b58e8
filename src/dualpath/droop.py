"""Grid-forming control path.

Produces the internally generated voltage reference pair (theta, v) through:

* first-order low-pass filtering of the measured powers,
* P-f / Q-V droop with per-unit gains on the inverter's own rating,
* a communication-free frequency-restoration integrator ``u`` acting on the
  inverter's own per-unit frequency error (identical gain across all units in
  a scenario keeps the offsets equal, which preserves droop sharing),
* a matching local voltage-restoration integrator ``u_v``,
* virtual output impedance with optional overcurrent-driven adaptation,
* a soft-start voltage ramp for black-start energization.

Frequencies are in per-unit of the nominal angular frequency; ``theta_gfm``
is the unwrapped absolute angle, advanced by ``omega * omega_base * dt``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frames import TWO_PI

U_CLAMP = 0.05       # pu frequency, restoration anti-windup bound
UV_CLAMP = 0.05      # pu voltage, voltage-restoration bound
V_MAX = 1.2
ADAPT_FILTER_CUTOFF = TWO_PI * 10.0  # rad/s, |i| filter for adaptation
I_ADAPT_THRESHOLD = 1.0              # pu current where x_v starts growing


@dataclass(slots=True)
class DroopParams:
    m_p: float = 0.01        # pu frequency per pu active power
    n_q: float = 0.05        # pu voltage per pu reactive power
    omega_c: float = TWO_PI * 10.0  # power filter cutoff, rad/s
    k_r: float = 0.5         # frequency restoration gain, 1/s
    k_v: float = 0.1         # voltage restoration gain, 1/s
    p_set: float = 0.0
    q_set: float = 0.0
    v_nom: float = 1.0

    def __post_init__(self) -> None:
        if self.m_p <= 0:
            raise ValueError("m_p must be positive")
        if self.n_q < 0 or self.omega_c <= 0 or self.k_r < 0 or self.k_v < 0:
            raise ValueError("droop gains out of range")


@dataclass(slots=True)
class DroopState:
    p_f: float = 0.0         # filtered active power, pu
    q_f: float = 0.0
    u: float = 0.0           # frequency restoration offset, pu
    u_v: float = 0.0         # voltage restoration offset, pu
    theta_gfm: float = 0.0   # rad, unwrapped
    v_gfm: float = 1.0       # pu
    omega: float = 1.0       # pu
    ramp_active: bool = False
    ramp_target: float = 1.0


@dataclass(slots=True)
class VirtualImpedance:
    r_v: float = 0.0
    x_v: float = 0.05
    x_v_min: float = 0.0
    x_v_max: float = 0.3
    k_adapt: float = 0.0     # adaptation disabled unless configured
    i_filt: float = 0.0      # filtered |i| used by the adaptation

    def __post_init__(self) -> None:
        if self.r_v < 0:
            raise ValueError("r_v must be >= 0")
        if not (self.x_v_min <= self.x_v <= self.x_v_max):
            raise ValueError("x_v outside its adaptation bounds")


def power_filter_step(
    p_raw: float, q_raw: float, dt: float, state: DroopState, omega_c: float
) -> None:
    """First-order low-pass of the measured powers."""
    a = dt * omega_c
    state.p_f += a * (p_raw - state.p_f)
    state.q_f += a * (q_raw - state.q_f)


def droop_step(params: DroopParams, state: DroopState, dt: float, omega_base: float) -> None:
    """P-f / Q-V droop algebra and angle integration."""
    state.omega = 1.0 - params.m_p * (state.p_f - params.p_set) + state.u
    # during a black-start ramp the voltage comes from the ramp, not the droop
    if not state.ramp_active:
        v = params.v_nom - params.n_q * (state.q_f - params.q_set) + state.u_v
        state.v_gfm = min(max(v, 0.0), V_MAX)
    state.theta_gfm += state.omega * omega_base * dt


def uv_handoff(params: DroopParams, v: float, q: float) -> float:
    """Voltage-restoration offset at which the Q-V droop law gives ``v`` at
    reactive power ``q``, clamped to ``UV_CLAMP``; 0 when voltage restoration
    is off (``k_v == 0``), since no integrator would ever wash an offset out.

    Setting ``u_v`` to it hands the forming path an operating point without
    a voltage step: at start-up, at the end of a black-start ramp and while
    the path shadows the following one.
    """
    if params.k_v == 0.0:
        return 0.0
    uv = v - (params.v_nom - params.n_q * (q - params.q_set))
    return UV_CLAMP if uv > UV_CLAMP else (-UV_CLAMP if uv < -UV_CLAMP else uv)


def restoration_step(params: DroopParams, state: DroopState, dt: float) -> None:
    """Integrate the local frequency error into the restoration offset.

    The integrator halts at the anti-windup clamp.
    """
    u = state.u + dt * params.k_r * (1.0 - state.omega)
    if u > U_CLAMP:
        u = U_CLAMP
    elif u < -U_CLAMP:
        u = -U_CLAMP
    state.u = u


def voltage_restoration_step(
    params: DroopParams, state: DroopState, v_meas: float, dt: float
) -> None:
    """Slow local integral driving the measured bus voltage toward v_nom."""
    uv = state.u_v + dt * params.k_v * (params.v_nom - v_meas)
    if uv > UV_CLAMP:
        uv = UV_CLAMP
    elif uv < -UV_CLAMP:
        uv = -UV_CLAMP
    state.u_v = uv


def virtual_impedance_step(
    v_ref: complex, i_meas: complex, vz: VirtualImpedance, dt: float
) -> complex:
    """Voltage reference after the virtual impedance drop; adapts x_v in place.

    ``v_out = v_ref - (r_v + j x_v) * i_meas``; when adaptation is enabled the
    reactance grows with sustained current above 1 pu (and relaxes below it),
    clamped to the configured bounds.
    """
    v_out = v_ref - complex(vz.r_v, vz.x_v) * i_meas
    if vz.k_adapt > 0.0:
        vz.i_filt += dt * ADAPT_FILTER_CUTOFF * (abs(i_meas) - vz.i_filt)
        x = vz.x_v + dt * vz.k_adapt * (vz.i_filt - I_ADAPT_THRESHOLD)
        if x > vz.x_v_max:
            x = vz.x_v_max
        elif x < vz.x_v_min:
            x = vz.x_v_min
        vz.x_v = x
    return v_out


def black_start_ramp(state: DroopState, dt: float, ramp_rate: float) -> None:
    """Soft-start: ramp the voltage reference toward ``state.ramp_target``,
    then hand control back to the droop voltage law."""
    target = state.ramp_target
    if state.v_gfm >= target:
        state.ramp_active = False
        return
    v = state.v_gfm + ramp_rate * dt
    if v >= target:
        v = target
        state.ramp_active = False
    state.v_gfm = v
