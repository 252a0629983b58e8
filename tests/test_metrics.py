import csv
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_runner import two_rate_docs

from dualpath.frames import wrap_angle
from dualpath.metrics import (
    SETTLE_BAND_HZ, SHARE_WINDOW_S, StepFold, _share_window, compute_metrics,
)
from dualpath.runner import RECORD_BLOCK, SimResult, run, write_outputs
from dualpath.scenario import parse_config


def flat_doc():
    return {
        "name": "flat", "dt": 1e-4, "t_end": 0.3,
        "buses": ["grid", "b1"],
        "lines": [{"from": "grid", "to": "b1", "r": 0.005, "x": 0.05}],
        "grid_sources": [
            {"id": "utility", "bus": "grid", "v": 1.0, "r_s": 0.001, "x_s": 0.01}
        ],
        "loads": [{"id": "ld", "bus": "b1", "kind": "impedance", "r": 2.0, "x": 0.4}],
        "inverters": [{"id": "inv1", "bus": "b1", "mode": "gfl", "p_set": 0.3}],
        "events": [],
    }


def island_step_doc(m_p=0.01, k_r=0.0, dp=0.5, t_end=4.0):
    return {
        "name": "step", "dt": 5e-4, "t_end": t_end,
        "buses": ["b1", "mid"],
        "lines": [{"from": "b1", "to": "mid", "r": 0.002, "x": 0.02}],
        "loads": [{"id": "ld", "bus": "mid", "kind": "power", "p": 0.0, "q": 0.0}],
        "inverters": [
            {"id": "inv1", "bus": "b1", "mode": "gfm",
             "droop": {"m_p": m_p, "n_q": 0.05, "k_r": k_r}}
        ],
        "events": [{"t": 1.0, "type": "load_step", "target": "ld", "dp": dp}],
    }


def test_flat_run_metrics():
    m = run(parse_config(flat_doc())).metrics
    assert m["frequency_nadir_hz"] == pytest.approx(60.0, abs=1e-9)
    assert m["settling_time_s"] == 0.0
    assert m["transitions"] == []
    assert m["islanding_detection_latency_s"] is None
    assert m["reconnection_ready_t"] is None
    assert m["power_sharing_error"] is None
    assert m["power_balance_max_residual"] < 1e-8


def test_load_step_nadir_matches_droop_algebra():
    # single forming inverter, restoration off, p_set = 0, 0.5 pu step:
    # steady frequency = 60 * (1 - 0.01*0.5) = 59.7 Hz; the first-order power
    # filter gives a monotone approach, so the nadir sits at the steady value
    res = run(parse_config(island_step_doc()))
    m = res.metrics
    assert m["frequency_nadir_hz"] == pytest.approx(59.7, rel=0.01)
    k = np.searchsorted(res.t, 3.9)
    assert res.f[k, 0] == pytest.approx(59.7, abs=0.01)


def test_settling_time_measured_from_last_event():
    res = run(parse_config(island_step_doc(k_r=0.5, t_end=16.0)))
    m = res.metrics
    assert m["settling_time_s"] is not None
    assert 0.0 < m["settling_time_s"] < 12.0
    assert abs(res.f[-1, 0] - 60.0) < 0.01


def test_sharing_error_metric_two_inverters():
    doc = {
        "name": "share", "dt": 5e-4, "t_end": 6.0,
        "buses": ["b1", "b2", "mid"],
        "lines": [
            {"from": "b1", "to": "mid", "r": 0.002, "x": 0.02},
            {"from": "b2", "to": "mid", "r": 0.002, "x": 0.02},
        ],
        "loads": [{"id": "ld", "bus": "mid", "kind": "power", "p": 1.5, "q": 0.2}],
        "inverters": [
            {"id": "inv1", "bus": "b1", "mode": "gfm",
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.0}},
            {"id": "inv2", "bus": "b2", "mode": "gfm",
             "droop": {"m_p": 0.02, "n_q": 0.05, "k_r": 0.0}},
        ],
        "events": [],
    }
    m = run(parse_config(doc)).metrics
    assert m["power_sharing_error"] < 0.02


def test_metrics_match_independent_csv_recompute(tmp_path):
    # reference implementation over the undecimated CSV
    cfg = parse_config(island_step_doc(k_r=0.5, t_end=8.0))
    res = run(cfg, tmp_path)
    with open(tmp_path / "timeseries.csv") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    f = np.array([float(r["f_inv1"]) for r in rows])
    nadir_k = int(np.argmin(f))
    assert f[nadir_k] == pytest.approx(res.metrics["frequency_nadir_hz"], abs=1e-6)
    assert t[nadir_k] == pytest.approx(res.metrics["frequency_nadir_t"], abs=1e-9)
    out = np.nonzero(np.abs(f - 60.0) > 0.01)[0]
    settle_ref = t[out[-1] + 1] - 1.0  # last event at t = 1.0
    assert settle_ref == pytest.approx(res.metrics["settling_time_s"], abs=1e-9)


def full_rate_jumps(full, tr):
    """The jumps of transition ``tr`` as ``compute_metrics`` took them from
    the bus voltages recorded at every step (``full`` is a decimate-1
    run)."""
    k = int(np.searchsorted(full.t, tr["t"]))
    if not tr["accepted"] or k + 1 >= full.t.size:
        return None, None
    cfg = full.cfg
    b = cfg.buses.index(cfg.inverters[full.inv_ids.index(tr["inverter"])].bus)
    m0, m1 = full.bus_mag[k, b], full.bus_mag[k + 1, b]
    if min(m0, m1) < 0.05:
        return 0.0, float(abs(m1 - m0))
    d_ang = wrap_angle(full.bus_ang[k + 1, b] - full.bus_ang[k, b])
    return float(abs(math.degrees(d_ang))), float(abs(m1 - m0))


@pytest.mark.parametrize("name, phase", [
    ("handover", "evaluated"),      # mid-run, between output rows
    ("islanded_end", None),         # at the last step
    ("islanded", 0.0),              # onto a dead bus
])
def test_max_jumps_match_the_full_rate_formula(name, phase):
    d = two_rate_docs()[name]
    d["output"] = {"decimate": 1}
    full = run(parse_config(d))
    for dec in (1, 10):
        d["output"] = {"decimate": dec}
        m = run(parse_config(d)).metrics
        jumps = [full_rate_jumps(full, tr) for tr in m["transitions"]]
        assert [(tr["phase_jump_deg"], tr["mag_jump_pu"]) for tr in m["transitions"]] == jumps
        accepted = [j for j in jumps if j[1] is not None]
        assert m["max_phase_jump_deg"] == max((j[0] for j in accepted), default=None)
        assert m["max_mag_jump_pu"] == max((j[1] for j in accepted), default=None)
        if phase == "evaluated":
            assert 0.0 < m["max_phase_jump_deg"] < 1e-9, m["max_phase_jump_deg"]
        else:
            assert m["max_phase_jump_deg"] == phase
        assert (m["max_mag_jump_pu"] is None) == (phase is None)


def test_guard_summary_counts():
    doc = flat_doc()
    doc["t_end"] = 1.0
    doc["events"] = [
        {"t": 0.2, "type": "setpoint", "target": "inv1", "source": "a", "p_set": 3.0},
        {"t": 0.4, "type": "setpoint", "target": "inv1", "source": "b", "p_set": 0.4},
    ]
    m = run(parse_config(doc)).metrics
    g = m["guard_audit"]
    assert g["submitted"] == 2
    assert g["accepted"] == 1
    assert g["rejected"] == 1
    assert g["rejected_by_reason"] == {"range": 1}
    assert len(g["log"]) == 2


def test_metrics_json_serializable(tmp_path):
    import json

    res = run(parse_config(flat_doc()), tmp_path)
    loaded = json.loads((tmp_path / "metrics.json").read_text())
    assert loaded["scenario"] == "flat"
    assert loaded["aborted"] is False


def formers_doc(n_inv, f_nom=60.0):
    """``n_inv`` forming units on a star around one load bus, with a load
    step at 1 s; it is only parsed, as the configuration of made-up records."""
    return {
        "name": "formers", "dt": 1e-4, "t_end": 20.0, "base": {"f_nom": f_nom},
        "buses": ["mid"] + [f"b{i}" for i in range(n_inv)],
        "lines": [{"from": f"b{i}", "to": "mid", "r": 0.002, "x": 0.02}
                  for i in range(n_inv)],
        "loads": [{"id": "ld", "bus": "mid", "kind": "impedance", "r": 2.0, "x": 0.4}],
        "inverters": [{"id": f"inv{i}", "bus": f"b{i}", "mode": "gfm"}
                      for i in range(n_inv)],
        "events": [{"t": 1.0, "type": "load_step", "target": "ld", "dp": 0.1}],
    }


@functools.cache
def formers_cfg(n_inv, f_nom=60.0):
    return parse_config(formers_doc(n_inv, f_nom))


def fold_of(cfg, t, f, p, mode, block):
    """The ``StepFold`` of the per-step records fed ``block`` steps at a
    time, each block through the same reused buffers, as the run's record
    feeds it."""
    fold = StepFold(cfg.base.f_nom)
    bufs = [np.empty((block, a.shape[1]), a.dtype) for a in (f, p, mode)]
    for k0 in range(0, len(t), block):
        n = len(t[k0:k0 + block])
        for buf, a in zip(bufs, (f, p, mode)):
            buf[:n] = a[k0:k0 + n]
        fold.add(t[k0:k0 + n], *(buf[:n] for buf in bufs))
    return fold


def made_up_result(cfg, t, f, p=None, mode=None, block=RECORD_BLOCK):
    """A ``SimResult`` of ``cfg`` whose fold took the given per-step records
    (zeros where none is given) ``block`` steps at a time, with each output
    row's values in the per-row arrays and zeros in the bus voltages."""
    n, k = f.shape
    p = np.zeros((n, k)) if p is None else p
    mode = np.zeros((n, k), dtype=np.int8) if mode is None else mode
    dec = cfg.output.decimate
    n_out = len(range(0, n, dec))
    flags = np.zeros((n_out, k), dtype=np.int8)
    buses = np.zeros((n_out, len(cfg.buses)))
    return SimResult(
        cfg=cfg, t=t, bus_mag=buses, bus_ang=buses,
        inv_ids=[inv.id for inv in cfg.inverters], f=f[::dec], p=p[::dec],
        q=np.zeros((n_out, k)), mode=mode[::dec], lock=flags, island=flags,
        recon=flags, max_residual=0.0, fold=fold_of(cfg, t, f, p, mode, block),
        events_log=[],
    )


def frequency_metrics_oracle(t, f, f_nom, t_ref):
    """Nadir, its time and the settling time as ``compute_metrics`` took
    them from a full-size |f - f_nom| array and the index of every
    out-of-band step."""
    f_min_per_step = f.min(axis=1)
    k_nadir = int(np.argmin(f_min_per_step))
    dev = np.abs(f - f_nom).max(axis=1)
    out_of_band = np.nonzero(dev > SETTLE_BAND_HZ)[0]
    if out_of_band.size == 0:
        settling = 0.0
    elif int(out_of_band[-1]) == len(t) - 1:
        settling = None
    else:
        settling = max(0.0, float(t[int(out_of_band[-1]) + 1] - t_ref))
    return float(f_min_per_step[k_nadir]), float(t[k_nadir]), settling


def share_window_oracle(t):
    """The boolean mask ``_sharing_error`` selected its rows with."""
    if t[-1] - t[0] < SHARE_WINDOW_S:
        return slice(0, len(t))
    return t >= (t[-1] - SHARE_WINDOW_S)


def sharing_error_oracle(cfg, t, p, mode):
    """The power sharing error as ``compute_metrics`` took it from the
    whole-run ``p`` and ``mode`` arrays."""
    gfm_idx = [i for i in range(p.shape[1]) if mode[-1, i] == 1]
    if len(gfm_idx) < 2:
        return None
    p_avg = p[share_window_oracle(t)].mean(axis=0)
    worst = 0.0
    for a in range(len(gfm_idx)):
        for b in range(a + 1, len(gfm_idx)):
            i, j = gfm_idx[a], gfm_idx[b]
            if abs(p_avg[j]) < 1e-6:
                continue
            m_i = cfg.inverters[i].droop.m_p
            m_j = cfg.inverters[j].droop.m_p
            worst = max(worst, abs(p_avg[i] / p_avg[j] - m_j / m_i))
    return worst


def same_bits(a, b):
    """Equal to the bit (NaN to NaN, -0.0 only to -0.0), or both None."""
    if a is None or b is None:
        return a is b
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@st.composite
def step_records(draw):
    """(f_nom, t, f, p, mode): 1-600 steps of 1-5 units.  ``f`` lies near
    f_nom, on a grid of ties at times, with entries at f_nom, on and just
    past the settling band, +-0.0, NaN and +-inf, an in-band tail from a
    drawn step on (all of the run at times) and at times a last step out of
    band; ``p`` has entries near zero, +-0.0, NaN and +-inf; the units form
    or follow at random."""
    f_nom = draw(st.sampled_from([50.0, 60.0]))
    n, k = draw(st.integers(1, 600)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = SETTLE_BAND_HZ
    f = f_nom + rng.uniform(-3.0, 3.0, size=(n, k)) * band
    if draw(st.booleans(), label="ties"):
        f = f_nom + np.round((f - f_nom) / band * 2.0) * (band / 2.0)
    settled_from = draw(st.integers(0, n))
    f[settled_from:] = f_nom + (f[settled_from:] - f_nom) / 3.0
    special = np.array([
        f_nom, f_nom + band, f_nom - band, np.nextafter(f_nom + band, np.inf),
        np.nextafter(f_nom - band, -np.inf), 0.0, -0.0, np.nan, np.inf, -np.inf,
    ])
    share = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    pick = rng.random((n, k)) < share
    f[pick] = rng.choice(special, size=int(pick.sum()))
    if draw(st.booleans(), label="leaves the band at the last step"):
        f[-1, rng.integers(k)] = f_nom + rng.choice([-2.0, 2.0]) * band
    p = rng.normal(0.3, 0.2, size=(n, k)) * 10.0 ** rng.integers(-8, 1, size=k)
    pick = rng.random((n, k)) < share
    p[pick] = rng.choice([0.0, -0.0, 1e-7, np.nan, np.inf, -np.inf], size=int(pick.sum()))
    mode = (rng.random((n, k)) < draw(st.sampled_from([0.5, 0.9, 1.0]))).astype(np.int8)
    dt = draw(st.sampled_from([1e-3, 5e-3, 0.02]))
    return f_nom, np.arange(n) * dt, f, p, mode


@settings(max_examples=300, deadline=None, derandomize=True)
@given(step_records())
def test_frequency_metrics_match_the_full_size_oracle(record):
    # the fold, fed 1, 255, 256 or 257 steps at a time (RECORD_BLOCK and
    # either side), gives every per-step metric of the whole-run arrays
    f_nom, t, f, p, mode = record
    cfg = formers_cfg(f.shape[1], f_nom)
    t_ref = 1.0 if t[-1] >= 1.0 else 0.0  # the load step at 1 s
    with np.errstate(invalid="ignore"):
        want = (*frequency_metrics_oracle(t, f, f_nom, t_ref),
                sharing_error_oracle(cfg, t, p, mode))
    for block in (1, RECORD_BLOCK - 1, RECORD_BLOCK, RECORD_BLOCK + 1):
        with np.errstate(invalid="ignore"):  # the NaN and inf entries
            m = compute_metrics(made_up_result(cfg, t, f, p, mode, block))
        got = (m["frequency_nadir_hz"], m["frequency_nadir_t"], m["settling_time_s"],
               m["power_sharing_error"])
        assert all(map(same_bits, got, want)), (block, got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 300),
    dt=st.sampled_from([1e-4, 5e-4, 1e-3, 0.01, 0.1, 0.3]),
    t0=st.sampled_from([0.0, 0.5, 7.0]),
    data=st.data(),
)
def test_share_window_slice_selects_the_mask_rows(n, dt, t0, data):
    if data.draw(st.booleans(), label="uneven"):  # repeated and uneven times
        steps = data.draw(st.lists(st.sampled_from([0.0, dt, 3 * dt, 0.25]),
                                   min_size=n - 1, max_size=n - 1))
        t = t0 + np.cumsum([0.0, *steps])
    else:
        t = t0 + np.arange(n) * dt
    p = np.random.default_rng(n).normal(size=(n, 3)) * 10.0 ** np.arange(-3, 3, 2)
    rows = np.arange(n)
    assert np.array_equal(rows[_share_window(t)], rows[share_window_oracle(t)])
    assert np.array_equal(p[_share_window(t)].mean(axis=0),
                          p[share_window_oracle(t)].mean(axis=0))
    # the fold keeps those rows whatever its block size
    cfg = formers_cfg(3)
    for block in (1, 7, RECORD_BLOCK):
        fold = fold_of(cfg, t, p, p, np.ones((n, 3), dtype=np.int8), block)
        assert np.array_equal(fold.window(t), p[share_window_oracle(t)])


# compute_metrics' own allocation beyond its arguments: the concatenated
# blocks that cover the final sharing window of its records (10,001 steps of
# 4 units here, and less than one more block), and a few small arrays
COMPUTE_METRICS_BOUND = (10_001 + RECORD_BLOCK) * 4 * 8 + 32 * 1024


def compute_metrics_peak_bytes(n, k=4):
    """(traced peak of ``compute_metrics``, ``f.nbytes``) on an ``n``-step
    record of ``k`` formers that settles after the load step."""
    cfg = formers_cfg(k)
    t = np.arange(n) * cfg.dt
    decay = 0.05 * np.exp(-np.maximum(t - 1.0, 0.0))[:, None]
    f = 60.0 - decay * np.linspace(1.0, 2.0, k)
    p = 0.25 + decay * np.arange(k)
    result = made_up_result(cfg, t, f, p=p, mode=np.ones((n, k), dtype=np.int8))
    tracemalloc.start()
    try:
        m = compute_metrics(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m["power_sharing_error"] is not None  # the window was read
    return peak, f.nbytes


def test_compute_metrics_peak_memory_is_below_one_frequency_record():
    # in a fresh process, since this one unpickles library runs on a thread;
    # the bound holds at a record ten times the length of another
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parent), *sys.path]))
    for n in (20_000, 200_000):
        code = f"import test_metrics as m; print(*m.compute_metrics_peak_bytes({n}))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        peak, f_bytes = map(int, out.split())
        assert f_bytes == n * 4 * 8
        assert peak < min(f_bytes, COMPUTE_METRICS_BOUND), (n, peak, f_bytes)
