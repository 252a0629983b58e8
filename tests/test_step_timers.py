"""Every timer counts whole control steps: a threshold of N*dt is met at step
N exactly.  The grid holds pairs where adding up dt, or subtracting two step
times, lands a step late: 1,600 steps of 1e-4 s sum to 0.15999999999999870,
below 0.16 s."""

import cmath

import pytest

from dualpath.detect import DetectorConfig, ReconnectionMonitor
from dualpath.droop import DroopState
from dualpath.events import LoadStep, PulseLoad, TimedEvent
from dualpath.frames import TWO_PI, steps
from dualpath.pll import PllParams, PllState, init_locked, pll_gains, pll_step
from dualpath.runner import Simulation
from dualpath.scenario import parse_config
from dualpath.supervisor import Mode, Supervisor, TransitionThresholds

W0 = TWO_PI * 60.0
GRID = [(dt, s) for dt in (1e-4, 5e-4, 1e-3) for s in (0.1, 0.16, 0.2, 0.5)]
on_grid = pytest.mark.parametrize("dt, seconds", GRID, ids=[f"{dt}-{s}" for dt, s in GRID])


# a hold that begins mid-run: the float difference of the two step times
# misses six of the grid's pairs by a step
K0 = 12345


def _n(dt, seconds):
    """N: the whole steps of ``dt`` in ``seconds``, a whole number of them."""
    return round(seconds / dt)


@on_grid
def test_steps_counts_whole_steps(dt, seconds):
    n = _n(dt, seconds)
    assert steps(seconds, dt) == n
    assert steps(n * dt, dt) == n  # the time of step N maps back to N
    assert steps(seconds + 0.5 * dt, dt) == n + 1  # the first step at or after


@pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
def test_steps_raises_on_a_non_finite_duration(seconds):
    with pytest.raises((ValueError, OverflowError)):
        steps(seconds, 1e-4)


@on_grid
def test_supervisor_hold_is_met_at_step_n(dt, seconds):
    n, k0 = _n(dt, seconds), K0
    sup = Supervisor(Mode.GFL, TransitionThresholds(hold=seconds), 60.0, dt, "inv", auto=True)
    gfl = PllState(theta_est=0.05, omega_est=W0, v_pos=1.0, lock=True, omega_locked=W0)
    gfm = DroopState(theta_gfm=0.05, omega=1.0)
    for k in range(k0, k0 + n + 1):
        sup.shadow_sync_step(gfl, 1.0, True, gfm, k)
        # the islanding request retries silently until the hold is met
        rec = sup.arbitrate(k, tripped=True, grid_live=False)
        assert (rec is not None) == (k == k0 + n), k
    assert rec.accepted and sup.mode is Mode.GFM
    assert rec.t == (k0 + n) * dt and rec.hold_elapsed == n * dt


@on_grid
def test_reconnection_hold_is_met_at_step_n(dt, seconds):
    n, k0 = _n(dt, seconds), K0
    mon = ReconnectionMonitor(DetectorConfig(f_min=59.3, f_max=60.5, recon_hold=seconds), dt)
    ready = [mon.update(k, 1 + 0j, 60.0, True, 1 + 0j, 60.0, True)
             for k in range(k0, k0 + n + 2)]
    assert ready == [False] * n + [True, True]


@on_grid
def test_pll_locks_at_step_n(dt, seconds):
    n = _n(dt, seconds)
    params = PllParams(lock_time=seconds)
    gains = pll_gains(params, W0, dt)
    state = PllState(omega_est=W0, omega_locked=W0)
    init_locked(state, 1 + 0j, W0, W0, dt, params)
    state.lock, state.lock_timer = False, 0
    for k in range(n):
        pll_step(1 + 0j, 0j, cmath.exp(1j * W0 * k * dt), dt, state, params, gains)
        assert state.q_filt < params.lock_q_threshold
        assert (state.lock_timer, state.lock) == (k + 1, k + 1 == n)


@on_grid
def test_pll_undervoltage_freeze_drops_lock_past_step_n(dt, seconds):
    # no voltage: every step is a collapse step; the freeze keeps ">"
    n = _n(dt, seconds)
    params = PllParams(uv_time=seconds)
    gains = pll_gains(params, W0, dt)
    state = PllState(omega_est=W0, omega_locked=W0, lock=True)
    for k in range(n + 1):
        pll_step(0j, 0j, 1.0, dt, state, params, gains)
        assert (state.uv_timer, state.lock) == (k + 1, k + 1 <= n)


@on_grid
def test_events_and_pulse_reverts_are_scheduled_at_their_step(dt, seconds):
    n, m = _n(dt, seconds), _n(dt, 0.3)
    schedule = Simulation._expand_events([
        TimedEvent(seconds, LoadStep("ld", 0.1)),
        TimedEvent(0.0, PulseLoad("ld", 0.2, duration=seconds)),
        TimedEvent(0.3, PulseLoad("ld", 0.4, duration=seconds)),  # reverts at 0.3 + seconds
    ], dt)
    assert [k for k, _ in schedule] == sorted(k for k, _ in schedule)
    assert sorted((k, te.event.dp) for k, te in schedule) == sorted([
        (n, 0.1), (0, 0.2), (n, -0.2), (m, 0.4), (m + n, -0.4),
    ])


def test_a_run_applies_each_event_at_its_step():
    dt, seconds = 1e-4, 0.16
    cfg = parse_config({
        "dt": dt, "t_end": 0.5, "buses": ["g", "b"],
        "lines": [{"from": "g", "to": "b", "r": 0.01, "x": 0.05}],
        "grid_sources": [{"id": "src", "bus": "g", "r_s": 0.001, "x_s": 0.01}],
        "loads": [{"id": "ld", "bus": "b", "p": 0.1}],
        "events": [
            {"t": seconds, "type": "load_step", "target": "ld", "dp": 0.05},
            {"t": 0.3, "type": "pulse_load", "target": "ld", "dp": 0.1, "duration": seconds},
        ],
    })
    res = Simulation(cfg).run()
    applied = [(rec.t, rec.event.dp) for rec in res.events_log if isinstance(rec, TimedEvent)]
    assert applied == [(1600 * dt, 0.05), (3000 * dt, 0.1), (4600 * dt, -0.1)]
