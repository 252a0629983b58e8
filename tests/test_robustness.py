"""Edge-case topologies and event sequences that must not break the runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualpath.detect import IslandingDetector
from dualpath.events import LoadStep, TimedEvent
from dualpath.runner import run, write_outputs
from dualpath.scenario import parse_config


def test_gfl_on_dead_bus_from_start_rides_through():
    # no source anywhere: the island is dead until the unit decides to form
    d = {
        "name": "dead-start", "dt": 2e-4, "t_end": 6.0,
        "buses": ["b1", "mid"],
        "lines": [{"from": "b1", "to": "mid", "r": 0.002, "x": 0.02}],
        "loads": [{"id": "ld", "bus": "mid", "kind": "impedance", "r": 5.0, "x": 1.0}],
        "inverters": [
            {"id": "inv1", "bus": "b1", "mode": "gfl", "p_set": 0.2,
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.5}},
        ],
        "events": [],
    }
    res = run(parse_config(d))
    assert not res.aborted
    # voltage collapse detection promotes the unit to forming and it
    # soft-starts the island
    assert res.mode[-1, 0] == 1
    assert res.bus_mag[-1, 0] > 0.9
    assert abs(res.f[-1, 0] - 60.0) < 0.2


def test_two_formers_on_same_bus():
    d = {
        "name": "same-bus", "dt": 5e-4, "t_end": 3.0,
        "buses": ["b1", "mid"],
        "lines": [{"from": "b1", "to": "mid", "r": 0.002, "x": 0.02}],
        "loads": [{"id": "ld", "bus": "mid", "kind": "power", "p": 0.8, "q": 0.1}],
        "inverters": [
            {"id": "inv1", "bus": "b1", "mode": "gfm",
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.0}},
            {"id": "inv2", "bus": "b1", "mode": "gfm",
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.0}},
        ],
        "events": [],
    }
    res = run(parse_config(d))
    assert not res.aborted
    assert res.p[-1, 0] == pytest.approx(res.p[-1, 1], abs=1e-3)
    assert res.max_residual < 1e-8


def test_former_beside_grid_source_shares_with_grid():
    d = {
        "name": "gfm-grid-bus", "dt": 5e-4, "t_end": 2.0,
        "buses": ["g"],
        "lines": [],
        "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "r_s": 0.001, "x_s": 0.01}],
        "loads": [{"id": "ld", "bus": "g", "kind": "power", "p": 0.5}],
        "inverters": [
            {"id": "inv1", "bus": "g", "mode": "gfm", "p_set": 0.2,
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.0}},
        ],
        "events": [],
    }
    res = run(parse_config(d))
    assert not res.aborted
    assert res.p[-1, 0] == pytest.approx(0.2, abs=0.05)


def test_fully_dead_network_runs_to_completion(tmp_path):
    d = {
        "name": "dead", "dt": 5e-4, "t_end": 0.5,
        "buses": ["a", "b"],
        "lines": [{"from": "a", "to": "b", "r": 0.01, "x": 0.05}],
        "loads": [{"id": "ld", "bus": "b", "kind": "impedance", "r": 2.0, "x": 0.0}],
        "inverters": [],
        "events": [],
    }
    res = run(parse_config(d), tmp_path)
    assert not res.aborted
    assert np.all(res.bus_mag == 0.0)
    assert (tmp_path / "metrics.json").exists()


def mode_setpoint_doc():
    """A following unit that a guarded setpoint moves to the forming path."""
    return {
        "name": "mode-setpoint", "dt": 2e-4, "t_end": 2.0,
        "buses": ["g", "b"],
        "lines": [{"from": "g", "to": "b", "r": 0.005, "x": 0.05}],
        "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "r_s": 0.001, "x_s": 0.01}],
        "loads": [{"id": "ld", "bus": "b", "kind": "impedance", "r": 2.0, "x": 0.4}],
        "inverters": [{"id": "inv1", "bus": "b", "mode": "gfl", "p_set": 0.3}],
        "events": [
            {"t": 0.5, "type": "setpoint", "target": "inv1", "source": "scada",
             "mode": "gfm"},
        ],
    }


def test_mode_only_setpoint_passes_guard_and_transitions():
    res = run(parse_config(mode_setpoint_doc()))
    accepted = [tr for tr in res.metrics["transitions"] if tr["accepted"]]
    assert len(accepted) == 1
    assert accepted[0]["to"] == "gfm"
    assert res.metrics["guard_audit"]["accepted"] == 1
    assert res.mode[-1, 0] == 1


def test_denied_scripted_command_logged_once():
    # command to follow a grid that does not exist: stale PLL, denied
    d = {
        "name": "denied", "dt": 5e-4, "t_end": 2.0,
        "buses": ["b1", "mid"],
        "lines": [{"from": "b1", "to": "mid", "r": 0.002, "x": 0.02}],
        "loads": [{"id": "ld", "bus": "mid", "kind": "impedance", "r": 3.0, "x": 0.5}],
        "inverters": [
            {"id": "inv1", "bus": "b1", "mode": "gfm", "auto": False,
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.5},
             "thresholds": {"eps_v": 0.001, "hold": 5.0}},
        ],
        "events": [
            {"t": 1.0, "type": "mode_command", "target": "inv1", "mode": "gfl"},
        ],
    }
    res = run(parse_config(d))
    denied = [tr for tr in res.metrics["transitions"] if not tr["accepted"]]
    assert len(denied) == 1
    assert denied[0]["reason"] in ("hold", "voltage", "stale")
    assert res.mode[-1, 0] == 1  # unchanged
    # the margins the denial was judged on explain its reason
    tr = denied[0]
    assert (tr["eps_v"], tr["hold"]) == (0.001, 5.0)
    if tr["reason"] == "voltage":
        assert tr["d_v"] > tr["eps_v"]
    elif tr["reason"] == "hold":
        assert tr["hold_elapsed"] is None or tr["hold_elapsed"] < tr["hold"]
    else:
        assert tr["stale"] is True


def test_scripted_request_to_unplugged_unit_denied_when_issued():
    d = {
        "name": "unplugged-command", "dt": 5e-4, "t_end": 1.5,
        "buses": ["g", "b"],
        "lines": [{"from": "g", "to": "b", "r": 0.005, "x": 0.05}],
        "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "r_s": 0.001, "x_s": 0.01}],
        "loads": [{"id": "ld", "bus": "b", "kind": "impedance", "r": 2.0, "x": 0.4}],
        "inverters": [
            {"id": "inv1", "bus": "b", "mode": "gfl", "p_set": 0.3, "plugged": False},
        ],
        "events": [
            {"t": 0.1, "type": "mode_command", "target": "inv1", "mode": "gfm"},
            {"t": 1.0, "type": "plug_in", "target": "inv1"},
        ],
    }
    res = run(parse_config(d))
    # one verdict, when the command is issued; nothing is held for plug-in
    [tr] = res.metrics["transitions"]
    assert (tr["t"], tr["accepted"], tr["reason"]) == (0.1, False, "unplugged")
    assert tr["d_theta"] is None and tr["hold_elapsed"] is None
    assert res.mode[-1, 0] == 0


def test_noise_injection_seeded_and_optional(tmp_path):
    base = {
        "name": "noisy", "dt": 5e-4, "t_end": 0.5, "seed": 7,
        "buses": ["g", "b"],
        "lines": [{"from": "g", "to": "b", "r": 0.005, "x": 0.05}],
        "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "r_s": 0.001, "x_s": 0.01}],
        "loads": [{"id": "ld", "bus": "b", "kind": "impedance", "r": 2.0, "x": 0.4}],
        "inverters": [{"id": "inv1", "bus": "b", "mode": "gfl", "p_set": 0.3}],
        "events": [],
        "output": {"noise_std": 0.001},
    }
    r1 = run(parse_config(base), tmp_path / "a")
    r2 = run(parse_config(base), tmp_path / "b")
    assert (tmp_path / "a/timeseries.csv").read_bytes() == (
        tmp_path / "b/timeseries.csv"
    ).read_bytes()
    other = dict(base, seed=8)
    r3 = run(parse_config(other), tmp_path / "c")
    assert (tmp_path / "a/events.csv").exists()
    # noise only feeds the detectors; the physical signals stay clean
    assert np.abs(r1.p - r1.p[0]).max() < 1e-9
    assert r1.island.max() == 0 and r3.island.max() == 0


def test_noise_draws_come_from_the_seeded_generator(monkeypatch):
    # each step's detector inputs are the clean measurements plus the next
    # two draws of default_rng(seed), frequency first
    doc = {
        "name": "noisy", "dt": 5e-4, "t_end": 0.1, "seed": 7,
        "buses": ["g", "b"],
        "lines": [{"from": "g", "to": "b", "r": 0.005, "x": 0.05}],
        "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "r_s": 0.001, "x_s": 0.01}],
        "loads": [{"id": "ld", "bus": "b", "kind": "impedance", "r": 2.0, "x": 0.4}],
        "inverters": [{"id": "inv1", "bus": "b", "mode": "gfl", "p_set": 0.3}],
        "events": [],
    }
    pushed = []
    push = IslandingDetector.push
    monkeypatch.setattr(
        IslandingDetector, "push",
        lambda det, t, f, v: pushed.append((f, v)) or push(det, t, f, v),
    )
    run(parse_config(doc))
    clean, pushed[:] = pushed[:], []
    assert len(clean) == 201  # one push per step
    run(parse_config(dict(doc, output={"noise_std": 0.001})))
    rng = np.random.default_rng(7)
    assert pushed == [
        (f + rng.normal(0.0, 0.001), v + rng.normal(0.0, 0.001)) for f, v in clean
    ]


def test_noise_free_run_does_not_import_numpy_random():
    # the generator is built only for noisy runs; importing numpy.random
    # costs about 2 MB of peak memory
    code = (
        "import sys\n"
        "from dualpath.runner import run\n"
        "from dualpath.scenario import parse_config\n"
        "run(parse_config({'dt': 1e-4, 't_end': 0.01, 'buses': ['g', 'b'],\n"
        "    'lines': [{'from': 'g', 'to': 'b', 'r': 0.01, 'x': 0.05}],\n"
        "    'grid_sources': [{'id': 'src', 'bus': 'g', 'v': 1.0, 'x_s': 0.01}],\n"
        "    'inverters': [{'id': 'inv', 'bus': 'b', 'mode': 'gfl', 'p_set': 0.2}]}))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=str(root), env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_simultaneous_events_apply_in_script_order():
    d = {
        "name": "simultaneous", "dt": 5e-4, "t_end": 1.0,
        "buses": ["g", "b"],
        "lines": [{"from": "g", "to": "b", "r": 0.005, "x": 0.05}],
        "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "r_s": 0.001, "x_s": 0.01}],
        "loads": [{"id": "ld", "bus": "b", "kind": "power", "p": 0.2}],
        "inverters": [],
        "events": [
            {"t": 0.5, "type": "load_step", "target": "ld", "dp": 0.1},
            {"t": 0.5, "type": "load_step", "target": "ld", "dp": 0.15},
        ],
    }
    res = run(parse_config(d))
    assert not res.aborted
    applied = [
        e for e in res.events_log
        if isinstance(e, TimedEvent) and isinstance(e.event, LoadStep)
    ]
    assert len(applied) == 2
    assert applied[0].t == applied[1].t == 0.5
