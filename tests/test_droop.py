import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpath.droop import (
    U_CLAMP,
    DroopParams,
    DroopState,
    VirtualImpedance,
    black_start_ramp,
    droop_step,
    power_filter_step,
    restoration_step,
    uv_handoff,
    virtual_impedance_step,
    voltage_restoration_step,
)
from dualpath.runner import Simulation
from dualpath.scenario import parse_config

W_BASE = 2 * math.pi * 60.0
DT = 1e-4


def test_params_validation():
    with pytest.raises(ValueError):
        DroopParams(m_p=0.0)
    with pytest.raises(ValueError):
        DroopParams(omega_c=-1.0)
    with pytest.raises(ValueError):
        VirtualImpedance(x_v=0.5, x_v_max=0.3)


def test_power_filter_fixed_point():
    s = DroopState(p_f=0.5, q_f=0.2)
    power_filter_step(0.5, 0.2, DT, s, 2 * math.pi * 10)
    assert s.p_f == 0.5 and s.q_f == 0.2


def test_power_filter_step_response_matches_ode_oracle():
    # step 0 -> 1 through a first-order lag: p_f(t) = 1 - exp(-wc*t)
    wc = 2 * math.pi * 10.0
    s = DroopState(p_f=0.0)
    n = int(0.1 / DT)
    for _ in range(n):
        power_filter_step(1.0, 0.0, DT, s, wc)
    expected = 1.0 - math.exp(-wc * 0.1)
    assert expected == pytest.approx(0.99813, abs=1e-5)
    assert s.p_f == pytest.approx(expected, rel=0.02)


def test_power_filter_zero_dt_limit():
    s = DroopState(p_f=0.3)
    power_filter_step(1.0, 0.0, 1e-12, s, 2 * math.pi * 10)
    assert s.p_f == pytest.approx(0.3, abs=1e-9)


def test_droop_zero_error_gives_nominal():
    p = DroopParams(p_set=0.5)
    s = DroopState(p_f=0.5)
    droop_step(p, s, DT, W_BASE)
    assert s.omega == 1.0


def test_droop_algebra_frequency():
    p = DroopParams(m_p=0.01, p_set=0.0)
    s = DroopState(p_f=1.0, theta_gfm=0.0)
    droop_step(p, s, DT, W_BASE)
    assert s.omega == pytest.approx(0.99)
    assert s.omega * 60.0 == pytest.approx(59.4)
    assert s.theta_gfm == pytest.approx(0.99 * W_BASE * DT)


def test_droop_two_inverter_steady_state_oracle():
    # common frequency: 1 - m1*p1 = 1 - m2*p2, p1 + p2 = 1.5
    m1, m2, total = 0.01, 0.02, 1.5
    a = np.array([[m1, -m2], [1.0, 1.0]])
    p1, p2 = np.linalg.solve(a, [0.0, total])
    assert (p1, p2) == pytest.approx((1.0, 0.5))
    f = 60.0 * (1 - m1 * p1)
    assert f == pytest.approx(59.4)


def test_restoration_zero_error_no_change():
    p = DroopParams()
    s = DroopState(omega=1.0, u=0.01)
    restoration_step(p, s, DT)
    assert s.u == 0.01


def test_restoration_closed_loop_converges_to_droop_offset():
    # single inverter, fixed load p = 0.5: u -> m_p * p, omega -> 1
    params = DroopParams(m_p=0.01, k_r=0.5)
    s = DroopState()
    dt = 1e-3
    for _ in range(int(20.0 / dt)):
        power_filter_step(0.5, 0.0, dt, s, params.omega_c)
        droop_step(params, s, dt, W_BASE)
        restoration_step(params, s, dt)
    assert s.u == pytest.approx(0.005, abs=1e-5)
    assert s.omega == pytest.approx(1.0, abs=1e-5)


def test_restoration_anti_windup_clamp():
    params = DroopParams(k_r=5.0)
    s = DroopState(omega=0.8)
    for _ in range(10000):
        restoration_step(params, s, 1e-3)
        assert abs(s.u) <= U_CLAMP
    assert s.u == U_CLAMP


@given(st.floats(-0.2, 0.2), st.floats(0.9, 1.1))
@settings(max_examples=50)
def test_restoration_u_always_bounded(u0, omega):
    params = DroopParams(k_r=2.0)
    s = DroopState(u=max(min(u0, U_CLAMP), -U_CLAMP), omega=omega)
    for _ in range(200):
        restoration_step(params, s, 1e-2)
        assert abs(s.u) <= U_CLAMP + 1e-15


def test_voltage_restoration():
    params = DroopParams(k_v=0.1)
    s = DroopState()
    voltage_restoration_step(params, s, 0.95, 0.1)
    assert s.u_v == pytest.approx(0.1 * 0.1 * 0.05)


def test_uv_handoff_is_zero_without_voltage_restoration():
    assert uv_handoff(DroopParams(k_v=0.0), 0.97, 0.3) == 0.0
    # with restoration on, the offset reproduces v through the droop law
    params = DroopParams(k_v=0.1, n_q=0.05)
    uv = uv_handoff(params, 0.97, 0.3)
    assert params.v_nom - params.n_q * (0.3 - params.q_set) + uv == pytest.approx(0.97)


def test_virtual_impedance_no_current():
    vz = VirtualImpedance(r_v=0.05, x_v=0.1)
    v = virtual_impedance_step(1.0 + 0j, 0j, vz, DT)
    assert v == 1.0 + 0j
    assert vz.x_v == 0.1


def test_virtual_impedance_real_drop():
    vz = VirtualImpedance(r_v=0.05, x_v=0.0, x_v_min=0.0)
    v = virtual_impedance_step(1.0 + 0j, 1.0 + 0j, vz, DT)
    assert v == pytest.approx(0.95 + 0j)


def test_virtual_impedance_adaptation_rises_to_clamp():
    # sustained 1.2 pu current with adaptation on: x_v integrates up to x_v_max
    vz = VirtualImpedance(x_v=0.05, x_v_max=0.3, k_adapt=1.0)
    k_adapt, dt = 1.0, 1e-3
    x_ref = vz.x_v
    i_f = 0.0
    for _ in range(int(3.0 / dt)):
        virtual_impedance_step(1.0 + 0j, 1.2 + 0j, vz, dt)
        # independent scalar integration oracle
        i_f += dt * (2 * math.pi * 10.0) * (1.2 - i_f)
        x_ref = min(0.3, x_ref + dt * k_adapt * (i_f - 1.0))
    assert vz.x_v == pytest.approx(x_ref, abs=1e-12)
    assert vz.x_v == 0.3


@given(
    st.floats(0.0, 1.2),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.5),
    st.floats(-math.pi, math.pi),
)
def test_virtual_impedance_triangle_bound(vm, va, im, ia):
    vz = VirtualImpedance(r_v=0.02, x_v=0.1)
    v_ref = vm * complex(math.cos(va), math.sin(va))
    i = im * complex(math.cos(ia), math.sin(ia))
    v_out = virtual_impedance_step(v_ref, i, vz, DT)
    z = complex(vz.r_v, 0.1)
    assert abs(v_out) <= abs(v_ref) + abs(z) * abs(i) + 1e-12


def test_black_start_ramp_linear():
    s = DroopState(v_gfm=0.0, ramp_active=True, ramp_target=1.0)
    black_start_ramp(s, 1e-4, 0.5)
    assert s.v_gfm == pytest.approx(5e-5)
    assert s.ramp_active


def test_black_start_ramp_at_target_noop():
    s = DroopState(v_gfm=1.0, ramp_active=True, ramp_target=1.0)
    black_start_ramp(s, 1e-4, 0.5)
    assert s.v_gfm == 1.0
    assert not s.ramp_active


def test_black_start_ramp_completion_time():
    s = DroopState(v_gfm=0.0, ramp_active=True, ramp_target=1.0)
    dt, rate = 1e-4, 0.5
    t, n = 0.0, 0
    while True:
        black_start_ramp(s, dt, rate)
        n += 1
        if not s.ramp_active:
            break
    assert s.v_gfm == 1.0
    assert n * dt == pytest.approx(2.0, abs=2 * dt)


def test_black_start_ramp_monotone():
    s = DroopState(v_gfm=0.0, ramp_active=True, ramp_target=1.0)
    prev = 0.0
    for _ in range(1000):
        black_start_ramp(s, 1e-3, 0.7)
        assert s.v_gfm >= prev
        prev = s.v_gfm


# -- the forming path's exact discrete map in a run ---------------------------
#
# One former alone on a constant-power load's bus delivers the load to the
# CP tolerance (about 1e-15), so its power filter, droop and restoration
# (Pogaku, Prodanovic & Green, IEEE Trans. Power Electronics 2007) form an
# affine map in (p_f, u), clipped only by the anti-windup clamp:
#     p_f' = p_f + dt * omega_c * (P - p_f)
#     omega = 1 - m_p * (p_f' - p_set) + u
#     u' = clip(u + dt * k_r * (1 - omega), +-U_CLAMP)
LOAD_STEP_K = 5000  # the first step at the load step's 0.5 s


def _former_on_cp_load(m_p: float, k_r: float, dp: float) -> Simulation:
    return Simulation(parse_config({
        "name": "former_on_cp_load", "dt": 1e-4, "t_end": 1.5, "buses": ["b1"],
        "loads": [{"id": "ld", "bus": "b1", "kind": "power", "p": 0.4, "q": 0.05}],
        "inverters": [{"id": "inv1", "bus": "b1", "mode": "gfm", "p_set": 0.3,
                       "droop": {"m_p": m_p, "k_r": k_r}}],
        "events": [{"t": 0.5, "type": "load_step", "target": "ld", "dp": dp, "dq": 0.0}],
        "output": {"decimate": 1},
    }))


def _forming_map(sim: Simulation, dp: float) -> tuple[np.ndarray, np.ndarray]:
    """Each step's omega and unclipped next u under the map, from the unit's
    state after start-up, in closed form.  On a segment at constant load P
    the linear part A = [[1 - a, 0], [b m_p (1 - a), 1 - b]] (a = dt omega_c,
    b = dt k_r) is lower triangular, so A^k acts on the deviations from the
    fixed point (P, m_p (P - p_set)) as
        e_k = (1 - a)^k e_0
        w_k = (1 - b)^k w_0 + b m_p (1 - a) e_0 ((1 - a)^k - (1 - b)^k) / (b - a)."""
    inv = sim.invs[0]
    dpar, n = inv.params, len(sim.record.t)
    a, b = sim.dt * dpar.omega_c, sim.dt * dpar.k_r
    l1, l2 = 1.0 - a, 1.0 - b
    p_f, u = inv.droop.p_f, inv.droop.u
    omegas, us = [], []
    for steps, load in ((LOAD_STEP_K, 0.4), (n - LOAD_STEP_K, 0.4 + dp)):
        p = load / inv.rating_pu
        k = np.arange(steps + 1.0)
        e0, w0 = p_f - p, u - dpar.m_p * (p - dpar.p_set)
        p_fk = p + l1 ** k * e0
        u_k = (dpar.m_p * (p - dpar.p_set) + l2 ** k * w0
               + b * dpar.m_p * l1 * e0 * (l1 ** k - l2 ** k) / (l1 - l2))
        omegas.append(1.0 - dpar.m_p * (p_fk[1:] - dpar.p_set) + u_k[:-1])
        us.append(u_k[1:])
        p_f, u = p_fk[-1], u_k[-1]
    return np.concatenate(omegas), np.concatenate(us)


def test_forming_path_follows_its_exact_discrete_map():
    # +0.1 pu: u settles at m_p (P - p_set) = 0.002, far inside the clamp
    sim = _former_on_cp_load(m_p=0.01, k_r=0.5, dp=0.1)
    omega, u = _forming_map(sim, 0.1)
    res = sim.run()
    assert not res.aborted and u.max() < U_CLAMP
    load = np.where(np.arange(len(res.t)) < LOAD_STEP_K, 0.4, 0.5)
    assert np.abs(res.p[:, 0] - load / sim.invs[0].rating_pu).max() < 1e-13
    assert np.abs(res.f[:, 0] - omega * sim.f_nom).max() <= 1e-12


def test_forming_path_reaches_the_clamp_at_the_maps_step():
    # +1.6 pu with m_p 0.05: u heads for m_p (P - p_set) = 0.085 and stops
    # at U_CLAMP; the map in closed form holds until the clip first acts
    sim = _former_on_cp_load(m_p=0.05, k_r=2.0, dp=1.6)
    omega, u = _forming_map(sim, 1.6)
    k_clamp = int(np.argmax(u >= U_CLAMP))
    assert LOAD_STEP_K < k_clamp
    run_u = []
    while sim.k < len(sim.record.t):
        sim.step()
        run_u.append(sim.invs[0].droop.u)
    assert run_u.index(U_CLAMP) == k_clamp
    res = sim.run()
    assert np.abs(res.f[:k_clamp + 1, 0] - omega[:k_clamp + 1] * sim.f_nom).max() <= 1e-12
