"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The scenario library in scenarios/ is executed once per session
(the canonical testbed twice, for the byte-identity check), on two worker
processes while the rest of the suite runs (``LIBRARY`` and the runs are in
``conftest.py``).
"""

import cmath
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualpath.events import AutoReclose, BreakerSet, DetectorChange, SourceFreq, TimedEvent
from dualpath.frames import TWO_PI, wrap_angle
from dualpath.metrics import SETTLE_BAND_HZ
from dualpath.pll import PllParams, PllState, pll_gains, pll_step
from dualpath.runner import write_outputs
from dualpath.supervisor import TransitionRecord

# sha256 of each library scenario's timeseries.csv, events.csv and
# config.resolved.yaml, from ``python scripts/run_library.py --sha256``
LIBRARY_SHA256 = Path(__file__).resolve().parent / "data" / "library_sha256.json"

GRID_CONNECTED = [
    "flat_equilibrium",
    "grid_pq_tracking",
    "load_steps_grid",
    "unbalanced_grid",
]


def _ok(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="session")
def canonical(library_runs, tmp_path_factory):
    """The two canonical testbed runs, each written to its own directory."""
    r1, r2 = (f.result() for name, f in library_runs[1] if name == "canonical_testbed")
    d1, d2 = tmp_path_factory.mktemp("canon1"), tmp_path_factory.mktemp("canon2")
    write_outputs(r1, d1)
    write_outputs(r2, d2)
    return r1, r2, d1, d2


@pytest.fixture(scope="session")
def library(library_runs, canonical):
    results = {
        name: f.result() for name, f in library_runs[1] if name != "canonical_testbed"
    }
    results["canonical_testbed"] = canonical[0]
    return results


def test_criterion_01_network_solver(library):
    # analytic two-bus divider to 1e-9
    from dualpath.network import ConstantImpedanceLoad, GridSource, Network

    net = Network(
        buses=["b"], lines=[],
        grid_sources=[GridSource("g", "b", 1.0 + 0j, 0.1j)],
        loads=[ConstantImpedanceLoad("z", "b", 1.0 + 0j)],
    )
    state, rep = net.solve()
    v_b = state.v_list[net.bus_index["b"]]  # the state holds voltages by bus position
    assert abs(v_b - 1.0 / (1.0 + 0.1j)) < 1e-9
    # complex power balance residual every step of every shipped scenario
    worst = {name: res.max_residual for name, res in library.items()}
    assert all(r <= 1e-8 for r in worst.values()), worst
    _ok(1, f"divider exact; worst balance residual {max(worst.values()):.2e}")


def test_cp_newton_steps_per_solve(library):
    # constant-power scenarios: every library one has a single CP bus,
    # solved in closed form, one evaluation per solve; a run without CP
    # loads evaluates never
    from dualpath.network import ConstantPowerLoad

    cp = {
        name: res.metrics["solver"]
        for name, res in library.items()
        if any(isinstance(ld, ConstantPowerLoad) for ld in res.cfg.loads)
    }
    assert cp
    for name, res in library.items():
        buses = {ld.bus for ld in res.cfg.loads if isinstance(ld, ConstantPowerLoad)}
        assert len(buses) <= 1, name
    assert all(s["cp_iterations_mean"] == s["cp_iterations_max"] == 1
               for s in cp.values()), cp
    for name, res in library.items():
        assert res.metrics["solver"]["residual_max"] <= 1e-8
        if name not in cp:
            assert res.metrics["solver"]["cp_iterations_max"] == 0, name


@pytest.fixture(scope="session")
def library_out(library, tmp_path_factory):
    """A directory holding each library scenario's output files, by name."""
    out = tmp_path_factory.mktemp("library")
    for name, res in library.items():
        write_outputs(res, out / name)
    return out


def test_library_outputs_match_pinned_sha256(library, library_out):
    pinned = json.loads(LIBRARY_SHA256.read_text())
    assert sorted(pinned) == sorted(library)
    differ = []
    for name in sorted(library):
        for fname, digest in sorted(pinned[name].items()):
            data = (library_out / name / fname).read_bytes()
            if hashlib.sha256(data).hexdigest() != digest:
                differ.append(f"{name}/{fname}")
    assert not differ, (
        f"differ from {LIBRARY_SHA256.name}: {', '.join(differ)}.  If the change "
        "is meant, re-pin with `python scripts/run_library.py --sha256 > "
        "tests/data/library_sha256.json` and quote in CHANGES.md the list that "
        "`python scripts/run_library.py --out NEW --compare PARENT_OUT` prints "
        "against the parent's `--out PARENT_OUT`"
    )


def test_library_events_csv_rows_have_four_fields(library, library_out):
    # an island's comma-joined buses are one quoted target field
    for name in sorted(library):
        with (library_out / name / "events.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "type", "target", "detail"], name
        assert all(len(row) == 4 for row in rows), name
        if name == "islanding_collapse":
            dead = [row for row in rows if row[1] == "island_deenergized"]
            assert [row[2] for row in dead] == ["pcc,b1"]


def test_initialization_rounds_reported(library):
    # the operating-point search runs at least 3 and at most 80 rounds; a
    # run that stops at the cap reports how far its last round moved
    for name, res in library.items():
        solver = res.metrics["solver"]
        assert 3 <= solver["init_rounds"] <= 80, name
        assert 0.0 <= solver["init_mismatch"] < 1e-5, name
    flat = library["flat_equilibrium"].metrics["solver"]
    assert flat["init_rounds"] < 80
    assert flat["init_mismatch"] <= 1e-11


def final_second_p(res):
    """The mean P of each unit over the steps of the final second, from the
    window the run's fold kept: exactly the rows of t >= t[-1] - 1.0."""
    window = res.fold.window(res.t)
    assert len(window) == np.count_nonzero(res.t >= res.t[-1] - 1.0)
    return window.mean(axis=0)


def test_criterion_02_droop_sharing(library):
    res = library["sharing_droop"]
    p = final_second_p(res)
    ratio = p[0] / p[1]
    # the last output row is the last control step
    assert (res.t.size - 1) % res.cfg.output.decimate == 0
    f_final = res.f[-1]
    assert ratio == pytest.approx(2.0, rel=0.01)
    assert np.all(np.abs(f_final - 59.4) <= 0.01)
    _ok(2, f"P1/P2 = {ratio:.4f}, f = {f_final[0]:.4f} Hz")


def test_criterion_03_frequency_restoration(library):
    res = library["sharing_restoration"]
    step_t = 4.0
    k10 = np.searchsorted(res.t, step_t + 10.0) - 1
    # every |f - 60| from k10 on is within 0.01 Hz: the fold's last step out
    # of that band comes before k10, and no f is NaN (a NaN would be the nadir)
    fold = res.fold
    assert res.cfg.base.f_nom == 60.0 and SETTLE_BAND_HZ == 0.01
    assert fold.k_out is not None and fold.k_out < k10 and not math.isnan(fold.nadir)
    p = final_second_p(res)
    ratio = p[0] / p[1]
    assert ratio == pytest.approx(2.0, rel=0.02)
    # sharing preservation: at restored frequency the offsets u_i = m_p_i*P_i
    # must agree across units (identical gains, identical initial offsets)
    m1 = res.cfg.inverters[0].droop.m_p
    m2 = res.cfg.inverters[1].droop.m_p
    du = abs(m1 * p[0] - m2 * p[1])
    assert du <= 1e-4
    _ok(
        3,
        f"|f-60| <= 0.01 Hz from t = {res.t[fold.k_out + 1]:.3f} s, within 10 s "
        f"of the step; ratio {ratio:.3f}, "
        f"|u1-u2| = {du:.1e}",
    )


def test_criterion_04_seamless_transitions(library):
    checked = 0
    for name, res in library.items():
        for tr in res.metrics["transitions"]:
            if not tr["accepted"]:
                continue
            checked += 1
            assert tr["phase_jump_deg"] is not None, (name, tr)
            assert tr["phase_jump_deg"] < 1.0, (name, tr)
            assert tr["mag_jump_pu"] < 0.02, (name, tr)
    assert checked >= 4  # the library exercises both directions
    _ok(4, f"{checked} accepted transitions, all < 1 deg and < 0.02 pu")


def test_criterion_05_islanding_detection(library):
    for name in ("islanding_restoration", "islanding_collapse"):
        lat = library[name].metrics["islanding_detection_latency_s"]
        assert lat is not None and lat <= 2.0, (name, lat)
    for name in GRID_CONNECTED:
        res = library[name]
        assert res.island.max() == 0, f"false trip in {name}"
        # the flags are kept per output row; the log has every step's trips
        trips = [r for r in res.events_log if isinstance(r, DetectorChange) and r.tripped]
        assert not trips, f"false trip in {name}"
    _ok(5, "detected <= 2 s on both islanding scenarios; zero false trips")


def test_islanding_restoration_sharing_error_is_bounded(library):
    # the unit that joins the loaded island keeps the restoration offset
    # mismatch it joined with (README, design notes); this pins its size
    err = library["islanding_restoration"].metrics["power_sharing_error"]
    assert err <= 1.5, err


def test_criterion_06_reconnection(library):
    res = library["reconnection"]
    cfg = res.cfg
    ready_t = res.metrics["reconnection_ready_t"]
    assert ready_t is not None
    # analytic beat-angle oracle from the run's own initial condition
    i_pcc = cfg.buses.index("pcc")
    i_grid = cfg.buses.index("grid")
    dtheta0 = wrap_angle(res.bus_ang[0, i_pcc] - res.bus_ang[0, i_grid])
    df = 60.0 - cfg.grid_sources[0].f_grid  # island restored to nominal
    cfg_inv = cfg.inverters[0]
    window = cfg_inv.detector.recon_dtheta
    hold = cfg_inv.detector.recon_hold
    beat = 1.0 / abs(df)
    t_cross = None
    for t in np.arange(0.0, res.t[-1], 1e-3):
        if abs(wrap_angle(dtheta0 + 2 * math.pi * df * t)) <= window:
            t_cross = t
            break
    assert t_cross is not None
    assert -0.5 <= ready_t - (t_cross + hold) <= beat
    # the subsequent forming->following handover is seamless (criterion 4)
    handover = [
        tr for tr in res.metrics["transitions"]
        if tr["accepted"] and tr["to"] == "gfl"
    ]
    assert handover
    assert handover[0]["phase_jump_deg"] < 1.0
    assert handover[0]["mag_jump_pu"] < 0.02
    _ok(
        6,
        f"ready {ready_t:.2f} s vs oracle {t_cross + hold:.2f} s "
        f"(beat {beat:.0f} s); handover jump "
        f"{handover[0]['phase_jump_deg']:.3f} deg",
    )


def test_reconnection_latency_counts_from_its_cause(library):
    # readiness needs the sync window held for recon_hold, so the latency
    # from the last breaker or source event (from t = 0 if none) is at
    # least that hold; the testbed's islands are in sync when the breaker
    # opens, so it is ready one hold later
    for name, res in library.items():
        m = res.metrics
        ready, lat = m["reconnection_ready_t"], m["reconnection_latency_s"]
        assert (ready is None) == (lat is None) == (name not in ("reconnection",
                                                                 "canonical_testbed"))
        if ready is None:
            continue
        causes = [te.t for te in res.cfg.events if te.t <= ready
                  and isinstance(te.event, (BreakerSet, SourceFreq))]
        assert lat == ready - max(causes, default=0.0)
        hold = min(inv.detector.recon_hold for inv in res.cfg.inverters if inv.pcc_breaker)
        assert hold - 1e-9 <= lat <= ready, (name, lat)
        if name == "canonical_testbed":
            assert lat == pytest.approx(hold, abs=1e-9)


@pytest.mark.parametrize("name, restart, after", [
    # the breaker opening restarts the hold at its own step
    ("islanding_restoration", lambda rec: isinstance(rec, TimedEvent), 0),
    # the auto-reclose restarts it after the step's sync, so from the next step
    ("reconnection", lambda rec: isinstance(rec, AutoReclose), 1),
])
def test_held_transition_comes_whole_hold_steps_after_the_hold_began(
    library, name, restart, after
):
    res = library[name]
    dt = res.cfg.dt
    began = round(next(filter(restart, res.events_log)).t / dt) + after
    (tr,) = [rec for rec in res.events_log if isinstance(rec, TransitionRecord)]
    hold = tr.thresholds.hold
    assert round(tr.t / dt) == began + round(hold / dt)
    assert tr.hold_elapsed == hold == 0.2
    assert res.metrics["transitions"][0]["hold_elapsed"] == 0.2


def _pll_harness(f_hz, t_end, state=None, phi0=0.5, m_neg=0.0, dt=1e-4):
    params, w_nom = PllParams(), TWO_PI * 60.0
    state = state or PllState(omega_est=w_nom, omega_locked=w_nom)
    theta_true = phi0
    n = int(round(t_end / dt))
    err = np.empty(n)
    freq = np.empty(n)
    gains = pll_gains(params, w_nom, dt)
    for k in range(n):
        # unit positive sequence at theta_true, negative sequence of peak
        # m_neg at -theta_true (phase a: cos(theta) + m_neg cos(-theta))
        v_pos = cmath.rect(1.0, theta_true)
        v_neg = cmath.rect(m_neg, -theta_true)
        pll_step(v_pos, v_neg, 1.0, dt, state, params, gains)
        theta_true += 2 * math.pi * f_hz * dt
        err[k] = wrap_angle(state.theta_est - theta_true)
        freq[k] = state.omega_est / (2 * math.pi)
    return state, err, freq


def test_criterion_07_pll_under_asymmetry():
    # 0.1 pu negative sequence: steady positive-sequence angle error < 0.5 deg
    _, err, _ = _pll_harness(60.0, 1.2, m_neg=0.1)
    steady = np.abs(err[int(0.8 / 1e-4):])
    assert steady.max() < math.radians(0.5)
    # 0.5 Hz frequency step: re-lock to < 0.05 Hz within 0.2 s
    state, _, _ = _pll_harness(60.0, 0.5)
    state2, _, freq = _pll_harness(60.5, 0.25, state=state, phi0=state.theta_est)
    k = int(0.2 / 1e-4) - 1
    assert abs(freq[k] - 60.5) < 0.05
    _ok(
        7,
        f"asym angle error {math.degrees(steady.max()):.3f} deg; "
        f"relock error {abs(freq[k] - 60.5):.4f} Hz at 0.2 s",
    )


def test_criterion_08_black_start(library):
    res = library["blackstart"]
    p = final_second_p(res)
    ratio = p[0] / p[1]
    assert ratio == pytest.approx(2.0, rel=0.02)
    for tr in res.metrics["transitions"]:
        if tr["accepted"]:
            assert tr["phase_jump_deg"] < 1.0
            assert tr["mag_jump_pu"] < 0.02
    assert res.fold.modes == [1, 1]  # at the last step
    _ok(8, f"final sharing ratio {ratio:.3f}; transitions seamless")


def test_criterion_09_setpoint_guard_grid():
    from dualpath.droop import DroopParams, DroopState
    from dualpath.events import SetpointEvent
    from dualpath.guard import GuardLimits, validate_setpoint

    m_p, u, f_nom = 0.01, 0.0, 60.0
    params = DroopParams(m_p=m_p, p_set=0.0)
    state = DroopState(u=u)
    limits = GuardLimits(f_pred_min=59.5, f_pred_max=60.5, rate_p=None, rate_v=None)
    unsound = overtight = 0
    total = 0
    for load in np.round(np.arange(0.0, 1.2 + 1e-9, 0.01), 10):
        for p in np.round(np.arange(-1.0, 1.0 + 1e-9, 0.01), 10):
            total += 1
            v = validate_setpoint(
                0.0, SetpointEvent("inv", p_set=float(p)), params, state,
                float(load), 0.0, limits, f_nom,
            )
            # independent oracle, written as plain droop algebra
            f_ref = f_nom * (1.0 + u) - f_nom * m_p * (float(load) - float(p))
            if (f_ref < 59.5 or f_ref > 60.5) and v.accepted:
                unsound += 1
            if 59.55 <= f_ref <= 60.45 and not v.accepted:
                overtight += 1
    assert unsound == 0
    assert overtight == 0
    _ok(9, f"{total} grid points: 0 unsound accepts, 0 over-tight rejects")


def test_criterion_10_determinism_and_performance(canonical):
    r1, r2, d1, d2 = canonical
    assert not r1.aborted and not r2.aborted
    h1 = hashlib.sha256((d1 / "timeseries.csv").read_bytes()).hexdigest()
    h2 = hashlib.sha256((d2 / "timeseries.csv").read_bytes()).hexdigest()
    assert h1 == h2
    assert (d1 / "events.csv").read_bytes() == (d2 / "events.csv").read_bytes()
    assert r1.cfg.dt == 1e-4 and r1.cfg.t_end == 20.0
    assert len(r1.cfg.inverters) == 4
    assert r1.wall_time_s < 60.0
    assert r2.wall_time_s < 60.0
    _ok(
        10,
        f"byte-identical CSV ({h1[:12]}); "
        f"20 s / dt=1e-4 ran in {r1.wall_time_s:.1f} s",
    )
