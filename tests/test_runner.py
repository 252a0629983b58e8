import cmath
import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import solve_oracle
import yaml
from sampled_pll import phase_samples
from test_robustness import mode_setpoint_doc

import dualpath.cli
import dualpath.runner
from dualpath.cli import main as cli_main
from dualpath.droop import DroopState
from dualpath.events import (
    AutoReclose, BreakerSet, DetectorChange, InjectionChange, IslandDeenergized,
    TimedEvent,
)
from dualpath.guard import GuardAuditRecord
from dualpath.metrics import SETTLE_BAND_HZ
from dualpath.network import Network
from dualpath.pll import current_refs_from_pq, gfl_injection
from dualpath.runner import CSV_CHUNK_ROWS, RECORD_BLOCK, Simulation, run, write_outputs
from dualpath.scenario import parse_config
from dualpath.supervisor import Mode, Supervisor, TransitionRecord, shadow_follow

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
EPS = sys.float_info.epsilon

DIVIDER_DOC = {
    "name": "flat",
    "dt": 1e-4,
    "t_end": 0.3,
    "buses": ["grid", "pcc", "b1"],
    "lines": [
        {"from": "grid", "to": "pcc", "r": 0.005, "x": 0.05},
        {"from": "pcc", "to": "b1", "r": 0.01, "x": 0.05},
    ],
    "breakers": [{"id": "pcc_brk", "from": "grid", "to": "pcc", "closed": True}],
    "grid_sources": [
        {"id": "utility", "bus": "grid", "v": 1.0, "r_s": 0.001, "x_s": 0.01}
    ],
    "loads": [{"id": "ld1", "bus": "b1", "kind": "impedance", "r": 1.5, "x": 0.4}],
    "inverters": [
        {"id": "inv1", "bus": "b1", "mode": "gfl", "p_set": 0.5,
         "pcc_breaker": "pcc_brk"},
    ],
    "events": [],
}


def doc(**overrides):
    d = copy.deepcopy(DIVIDER_DOC)
    d.update(overrides)
    return d


def test_flat_run_stays_at_operating_point():
    res = run(parse_config(doc(t_end=0.5)))
    assert not res.aborted
    for arr in (res.f, res.p, res.q, res.bus_mag, res.bus_ang):
        assert np.abs(arr - arr[0]).max() < 1e-9
    assert res.p[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert res.max_residual < 1e-10


def test_gfm_island_near_equilibrium_start():
    d = {
        "name": "isl", "dt": 2e-4, "t_end": 1.0,
        "buses": ["b1", "mid"],
        "lines": [{"from": "b1", "to": "mid", "r": 0.002, "x": 0.02}],
        "loads": [{"id": "ld", "bus": "mid", "kind": "power", "p": 0.5, "q": 0.1}],
        "inverters": [
            {"id": "inv1", "bus": "b1", "mode": "gfm",
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.5}}
        ],
        "events": [],
    }
    res = run(parse_config(d))
    assert np.abs(res.f - 60.0).max() < 1e-3
    assert np.abs(res.p - res.p[0]).max() < 1e-4


def test_same_config_object_runs_byte_identical(tmp_path):
    cfg = parse_config(doc(t_end=0.2))
    r1 = run(cfg, tmp_path / "a")
    r2 = run(cfg, tmp_path / "b")
    assert (tmp_path / "a/timeseries.csv").read_bytes() == (
        tmp_path / "b/timeseries.csv"
    ).read_bytes()
    assert (tmp_path / "a/events.csv").read_bytes() == (
        tmp_path / "b/events.csv"
    ).read_bytes()


def test_decimation_changes_rows_not_metrics(tmp_path):
    cfg1 = parse_config(doc(t_end=0.2))
    cfg10 = parse_config(doc(t_end=0.2, output={"decimate": 10}))
    run(cfg1, tmp_path / "full")
    run(cfg10, tmp_path / "dec")
    full_rows = (tmp_path / "full/timeseries.csv").read_text().count("\n")
    dec_rows = (tmp_path / "dec/timeseries.csv").read_text().count("\n")
    assert dec_rows < full_rows
    # every metrics.json field but the wall time is the same, to the bit
    m1, m10 = (json.loads((tmp_path / d / "metrics.json").read_text())
               for d in ("full", "dec"))
    del m1["wall_time_s"], m10["wall_time_s"]
    assert m1 == m10


def test_abort_flushes_partial_outputs(tmp_path):
    # a constant-power load far beyond feeder capacity appears mid-run
    d = doc(t_end=2.0)
    d["loads"] = [{"id": "cpl", "bus": "b1", "kind": "power", "p": 0.3}]
    d["events"] = [{"t": 0.5, "type": "load_step", "target": "cpl", "dp": 20.0}]
    res = run(parse_config(d), tmp_path)
    assert res.aborted
    assert "NonConvergence" in res.abort_reason
    assert res.metrics["aborted"] is True
    csv = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert len(csv) > 100  # header plus the rows completed before the abort
    assert (tmp_path / "metrics.json").exists()
    # every written row is complete
    assert all(row.count(",") == csv[0].count(",") for row in csv[1:])


def test_abort_exit_semantics_before_event():
    d = doc(t_end=2.0)
    d["loads"] = [{"id": "cpl", "bus": "b1", "kind": "power", "p": 0.3}]
    d["events"] = [{"t": 0.5, "type": "load_step", "target": "cpl", "dp": 20.0}]
    res = run(parse_config(d))
    assert res.abort_step > 0
    assert res.t.size == res.abort_step


def _blackstart_with_cp_load() -> dict:
    """blackstart cut at 1 s with a constant-power load on the dead bus: the
    initial solve finds the bus voltage collapsed."""
    d = yaml.safe_load((SCENARIOS / "blackstart.yaml").read_text())
    d["t_end"] = 1.0
    d["events"] = []
    d["loads"].append({"id": "cpx", "bus": "mid", "kind": "power", "p": 0.1})
    return d


def test_failed_initial_solve_is_an_abort(tmp_path):
    d = _blackstart_with_cp_load()
    res = run(parse_config(d), tmp_path / "run")
    assert res.aborted
    assert res.t.size == 0 and res.abort_step == 0
    assert res.abort_reason.startswith("NonConvergence at initialization")
    assert "collapsed" in res.abort_reason
    csv = (tmp_path / "run/timeseries.csv").read_text().splitlines()
    assert len(csv) == 1 and csv[0].startswith("t,v_mag_b1,")
    events = (tmp_path / "run/events.csv").read_text().splitlines()
    assert events[-1].startswith("0,abort,simulation,")
    metrics = json.loads((tmp_path / "run/metrics.json").read_text())
    assert metrics["aborted"] is True
    assert metrics["frequency_nadir_hz"] is None
    assert metrics["solver"]["init_rounds"] >= 1

    # the command line reports it as a runtime abort
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(d))
    assert cli_main(["run", str(scen), "--out", str(tmp_path / "cli")]) == 2
    assert (tmp_path / "cli/timeseries.csv").read_text() == "\n".join(csv) + "\n"


def _subnormal_line_doc() -> dict:
    """flat_equilibrium cut at 10 ms with a line of reactance 1e-320 pu:
    valid, but its admittance overflows to infinity."""
    d = yaml.safe_load((SCENARIOS / "flat_equilibrium.yaml").read_text())
    d["t_end"] = 0.01
    d["lines"][0].update(r=0, x=1e-320)
    return d


def test_non_finite_admittance_aborts_at_start_up(tmp_path):
    d = _subnormal_line_doc()
    res = run(parse_config(d))
    assert res.aborted
    assert res.t.size == 0 and res.abort_step == 0
    assert res.abort_reason == (
        "NonConvergence at initialization (t=0.000000): "
        "admittance matrix has a non-finite entry"
    )
    assert res.metrics["solver"]["init_mismatch"] is None
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(d))
    assert cli_main(["run", str(scen), "--out", str(tmp_path / "cli")]) == 2


def test_non_finite_admittance_after_a_refresh_aborts_at_that_step():
    # the subnormal line sits behind the open breaker until 5 ms
    d = _subnormal_line_doc()
    d["breakers"][0]["closed"] = False
    d["events"] = [{"t": 0.005, "type": "breaker_set", "target": "pcc_brk",
                    "closed": True}]
    res = run(parse_config(d))
    assert res.aborted and res.abort_step == 50 and res.t.size == 50
    assert res.abort_reason.startswith("NonConvergence at step 50 ")
    assert res.abort_reason.endswith("admittance matrix has a non-finite entry")
    assert math.isfinite(res.max_residual)


OUTPUT_FILES = ("timeseries.csv", "events.csv", "metrics.json", "config.resolved.yaml")


def test_batch_validates_first_and_runs_past_an_abort(tmp_path):
    scen = tmp_path / "scen"
    scen.mkdir()
    docs = {
        "a_flat": doc(name="a_flat", t_end=0.05),
        "b_abort": {**_blackstart_with_cp_load(), "name": "b_abort"},
        "c_flat": doc(name="c_flat", t_end=0.08),
        "d_bad": doc(name="d_bad", t_end=-1.0),
    }
    for name, d in docs.items():
        (scen / f"{name}.yaml").write_text(yaml.safe_dump(d))
    # one invalid file: exit 1 before anything runs
    assert cli_main(["batch", str(scen), "--out", str(tmp_path / "out0")]) == 1
    assert not (tmp_path / "out0").exists()

    (scen / "d_bad.yaml").unlink()
    written = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        rc = cli_main(["batch", str(scen), "--out", str(out), "--workers", str(workers)])
        assert rc == 2  # the initialization abort of b_abort
        files = {}
        for name in ("a_flat", "b_abort", "c_flat"):
            for f in OUTPUT_FILES:
                data = (out / name / f).read_bytes()
                if f == "metrics.json":
                    metrics = json.loads(data)
                    assert metrics["aborted"] is (name == "b_abort")
                    metrics.pop("wall_time_s")
                    data = json.dumps(metrics, sort_keys=True).encode()
                files[name, f] = data
        written[workers] = files
    # the same bytes from one process and from two (wall time aside)
    assert written[1] == written[2]


def test_batch_workers_capped_by_scenarios_and_cores(monkeypatch, tmp_path):
    # a pool forks every worker it is given up front, so --workers is capped
    # at the scenario count and the core count; a recording stand-in for the
    # pool runs the tasks in this process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(dualpath.cli, "ProcessPoolExecutor", RecordingPool)
    scen = tmp_path / "scen"
    scen.mkdir()
    for name in ("a", "b", "c"):
        (scen / f"{name}.yaml").write_text(yaml.safe_dump(doc(name=name, t_end=0.01)))
    cases = [  # (--workers, os.cpu_count(), pool size or None for serial)
        (8, 16, 3), (8, 2, 2), (2, 16, 2), (8, None, None), (8, 1, None), (1, 16, None),
    ]
    for k, (workers, cores, size) in enumerate(cases):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        del pools[:]
        out = tmp_path / f"out{k}"
        assert cli_main(["batch", str(scen), "--out", str(out), "--workers", str(workers)]) == 0
        assert pools == ([] if size is None else [size])
        assert sorted(p.name for p in out.iterdir()) == ["a", "b", "c"]
    for workers in ("0", "-2"):
        out = tmp_path / f"bad{workers}"
        assert cli_main(["batch", str(scen), "--out", str(out), "--workers", workers]) == 1
        assert pools == [] and not out.exists()

def test_black_start_without_voltage_restoration_ends_on_droop_law():
    # with k_v = 0 no integrator washes a voltage offset out, so the end of
    # the ramp must hand over to the plain Q-V droop law (u_v = 0)
    d = yaml.safe_load((SCENARIOS / "blackstart.yaml").read_text())
    d["t_end"] = 2.5
    d["events"] = []
    d["loads"][0].update(r=2.0, x=0.5)
    d["inverters"][0]["droop"]["k_v"] = 0.0
    sim = Simulation(parse_config(d))
    assert not sim.run().aborted
    inv = sim.invs[0]
    g, dp = inv.droop, inv.params
    assert not g.ramp_active
    assert g.u_v == 0.0
    assert g.v_gfm == pytest.approx(dp.v_nom - dp.n_q * (g.q_f - dp.q_set), abs=1e-12)


def _reference_timeseries(result) -> str:
    """timeseries.csv as the row-by-row formatter wrote it before the
    column-wise chunked writer (the oracle for write_outputs); output row
    ``o`` is step ``k = o * decimate``, and ``t`` is kept per step."""
    cfg = result.cfg
    dec = cfg.output.decimate
    fmt = "{:.9g}".format
    header = ["t"]
    for b in cfg.buses:
        header += [f"v_mag_{b}", f"v_ang_{b}"]
    for inv_id in result.inv_ids:
        header += [
            f"f_{inv_id}", f"p_{inv_id}", f"q_{inv_id}", f"mode_{inv_id}",
            f"lock_{inv_id}", f"island_{inv_id}", f"recon_{inv_id}",
        ]
    lines = [",".join(header)]
    for o, k in enumerate(range(0, result.t.size, dec)):
        row = [fmt(result.t[k])]
        for b in range(len(cfg.buses)):
            row.append(fmt(result.bus_mag[o, b]))
            row.append(fmt(result.bus_ang[o, b]))
        for i in range(len(result.inv_ids)):
            row += [
                fmt(result.f[o, i]), fmt(result.p[o, i]), fmt(result.q[o, i]),
                str(int(result.mode[o, i])), str(int(result.lock[o, i])),
                str(int(result.island[o, i])), str(int(result.recon[o, i])),
            ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _random_result(base, n_rows: int, decimate: int, rng):
    """``base`` with ``n_rows`` steps of random data in every recorded
    column: a row per step in ``t``, a row per output row (every
    ``decimate``-th step) in the others."""
    nb, ni = base.bus_mag.shape[1], base.f.shape[1]

    def floats(*shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        x.flat[::7] = 0.0
        x.flat[3::11] = -0.0
        x.flat[5::13] = np.nan  # and the other values "%.9g" spells specially
        x.flat[6::17] = np.inf
        x.flat[9::19] = -np.inf
        return x

    def flags(n):
        return rng.integers(0, 2, size=(n, ni)).astype(np.int8)

    n_out = len(range(0, n_rows, decimate))
    cfg = copy.deepcopy(base.cfg)
    cfg.output.decimate = decimate
    return dataclasses.replace(
        base, cfg=cfg, t=np.arange(n_rows) * cfg.dt,
        bus_mag=floats(n_out, nb), bus_ang=floats(n_out, nb),
        f=floats(n_out, ni), p=floats(n_out, ni), q=floats(n_out, ni),
        mode=flags(n_out), lock=flags(n_out), island=flags(n_out),
        recon=flags(n_out),
    )


@pytest.mark.parametrize("decimate", [1, 3, 10])
def test_write_outputs_matches_row_formatter(tmp_path, decimate):
    base = run(parse_config(doc(t_end=0.01)))
    rng = np.random.default_rng(decimate)
    n = CSV_CHUNK_ROWS
    for n_out in (0, 1, n - 1, n, n + 1):
        # the fewest and the most control steps that give n_out output rows
        for n_rows in {max(0, (n_out - 1) * decimate + 1), n_out * decimate}:
            res = _random_result(base, n_rows, decimate, rng)
            out = tmp_path / f"{n_out}-{n_rows}"
            write_outputs(res, out)
            text = (out / "timeseries.csv").read_text()
            assert text.count("\n") == n_out + 1
            assert text == _reference_timeseries(res), (n_out, n_rows)
    # the zero-row result of an abort at initialization
    aborted = run(parse_config(_blackstart_with_cp_load()))
    write_outputs(aborted, tmp_path / "aborted")
    text = (tmp_path / "aborted/timeseries.csv").read_text()
    assert text == _reference_timeseries(aborted)


def test_breaker_event_deenergizes_island():
    d = doc(t_end=0.6)
    d["events"] = [
        {"t": 0.3, "type": "breaker_set", "target": "pcc_brk", "closed": False}
    ]
    d["inverters"] = []  # nothing to hold the island up
    res = run(parse_config(d))
    k = np.searchsorted(res.t, 0.31)
    assert res.bus_mag[k, 2] == 0.0
    assert any(isinstance(e, IslandDeenergized) for e in res.events_log)
    # with no inverter the fold holds nothing and the per-step metrics are null
    assert res.fold.k_nadir is None and res.fold.p_blocks == []
    assert res.metrics["frequency_nadir_hz"] is None and res.metrics["settling_time_s"] is None


def test_events_csv_quotes_a_target_with_a_comma_or_a_quote(tmp_path):
    # the dead island's buses, comma-joined, one of them named with a comma
    # and a quote, still parse as the one target field
    bus = 'p,"c"'
    d = doc(t_end=0.02, inverters=[])
    d["buses"][1] = d["lines"][0]["to"] = d["lines"][1]["from"] = bus
    d["breakers"][0]["to"] = bus
    d["events"] = [{"t": 0.01, "type": "breaker_set", "target": "pcc_brk", "closed": False}]
    run(parse_config(d), tmp_path)
    with (tmp_path / "events.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [4, 4, 4]
    assert rows[1][1:3] == ["BreakerSet", "pcc_brk"]
    assert rows[2][1:3] == ["island_deenergized", f"{bus},b1"]


def _two_watcher_reconnection(**overrides) -> dict:
    """``reconnection`` with a second forming unit ``inv2`` on a bus ``b2``
    off ``pcc``, watching the same breaker, cut after both hand back."""
    d = _library_doc("reconnection", 10.7)
    d["buses"].append("b2")
    d["lines"].append({"from": "pcc", "to": "b2", "r": 0.004, "x": 0.02})
    d["inverters"].append({**d["inverters"][0], "id": "inv2", "bus": "b2"})
    d.update(overrides)
    return d


def test_every_watcher_hears_a_breaker_move():
    # inv1's synch-check recloses the breaker at 10.4285 s; a scripted close
    # at 10.42 s comes before it.  Either way both watchers are told, so
    # both hand back to the following path
    scripted = [{"t": 10.42, "type": "breaker_set", "target": "pcc_brk", "closed": True}]
    for d, mover in ((_two_watcher_reconnection(), AutoReclose),
                     (_two_watcher_reconnection(events=scripted), TimedEvent)):
        sim = Simulation(parse_config(d))
        res = sim.run()
        moves = [e for e in res.events_log if isinstance(e, (AutoReclose, TimedEvent))]
        assert [type(e) for e in moves] == [mover]
        handbacks = [e for e in res.events_log if isinstance(e, TransitionRecord)]
        assert sorted(e.inverter for e in handbacks) == ["inv1", "inv2"]
        for e in handbacks:
            assert (e.accepted, e.to_mode, e.source) == (True, "gfl", "auto:grid-restored")
            assert moves[0].t < e.t < 10.7
        assert res.mode[-1].tolist() == [0, 0]
        assert not any(inv.sup.armed for inv in sim.invs)


def test_hand_back_time_does_not_depend_on_the_order_of_the_units():
    # both watchers' synch-checks are ready at the same step; the breaker
    # closes once, by the first of them, after every unit has stepped, so
    # both hear it at the same step whichever unit is listed first
    handbacks = []
    for reverse in (False, True):
        d = _two_watcher_reconnection()
        if reverse:
            d["inverters"].reverse()
        res = Simulation(parse_config(d)).run()
        closes = [e for e in res.events_log if isinstance(e, AutoReclose)]
        assert [e.inverter for e in closes] == [d["inverters"][0]["id"]]
        handbacks.append({e.inverter: e.t for e in res.events_log
                          if isinstance(e, TransitionRecord) and e.accepted})
    assert sorted(handbacks[0]) == ["inv1", "inv2"]
    assert handbacks[0] == handbacks[1]


def test_load_step_event_applies():
    d = doc(t_end=0.6)
    d["loads"] = [{"id": "cp", "bus": "b1", "kind": "power", "p": 0.2}]
    d["events"] = [{"t": 0.3, "type": "load_step", "target": "cp", "dp": 0.2}]
    res = run(parse_config(d))
    k0 = np.searchsorted(res.t, 0.29)
    k1 = np.searchsorted(res.t, 0.5)
    assert res.bus_mag[k1, 2] < res.bus_mag[k0, 2]  # more load, lower voltage


def test_pulse_load_expands_and_reverts():
    d = doc(t_end=1.0)
    d["loads"] = [{"id": "cp", "bus": "b1", "kind": "power", "p": 0.2}]
    d["events"] = [
        {"t": 0.3, "type": "pulse_load", "target": "cp", "dp": 0.3, "duration": 0.2}
    ]
    res = run(parse_config(d))
    v = res.bus_mag[:, 2]
    k_pre = np.searchsorted(res.t, 0.29)
    k_in = np.searchsorted(res.t, 0.4)
    k_post = np.searchsorted(res.t, 0.9)
    assert v[k_in] < v[k_pre]
    assert v[k_post] == pytest.approx(v[k_pre], abs=1e-6)


def test_gfl_injection_suspends_on_undervoltage():
    d = doc(t_end=0.8)
    d["events"] = [
        {"t": 0.3, "type": "breaker_set", "target": "pcc_brk", "closed": False}
    ]
    d["inverters"][0]["auto"] = False  # stay GFL so the suspension persists
    res = run(parse_config(d))
    assert any(
        isinstance(e, InjectionChange) and e.suspended for e in res.events_log
    )
    k = np.searchsorted(res.t, 0.5)
    assert res.p[k, 0] == 0.0
    assert res.lock[k, 0] == 0


def _follower_rule(inv, v_bus: complex) -> complex:
    """A follower's injection (system pu) at the bus voltage ``v_bus``: dq
    references with the d axis on ``v_bus``, as a network phasor."""
    mag = abs(v_bus)
    i_d, i_q = current_refs_from_pq(inv.params.p_set, inv.params.q_set, mag, 0.0)
    return gfl_injection(i_d, i_q, v_bus / mag) * inv.rating_pu


def test_start_up_and_step_give_a_follower_one_injection(monkeypatch):
    solved = []
    solve = Simulation._solve

    def recording(self):
        state, report = solve(self)
        solved.append(state.v_list)
        return state, report

    monkeypatch.setattr(Simulation, "_solve", recording)
    sim = Simulation(parse_config(_library_doc("flat_equilibrium", 0.01)))
    # start-up's last round sets the injections from the round before's solve
    at_start = [(inv, inv.inj, solved[-2][inv.bus_idx]) for inv in sim.invs]
    sim.step()
    at_step = [(inv, inv.inj, solved[-1][inv.bus_idx]) for inv in sim.invs]
    for inv, inj, v_bus in at_start + at_step:
        assert inj == _follower_rule(inv, v_bus)
        s = complex(inv.params.p_set, inv.params.q_set) * inv.rating_pu
        assert abs(inj - (s / v_bus).conjugate()) <= 8 * EPS * abs(inj)
        assert inj != 0j


def test_follower_on_a_bus_below_0_05_pu_injects_nothing():
    d = doc(t_end=0.01)
    d["grid_sources"][0]["v"] = 0.03
    sim = Simulation(parse_config(d))
    inv = sim.invs[0]
    assert inv.inj == 0j
    sim.step()
    assert abs(sim.record.held.voltages()[0][inv.bus_idx]) < 0.05
    assert inv.inj == 0j and inv.uv_suspended


# three forming units in one island with setpoints and droop gains whose
# compensated sums differ from the left-to-right ones, and three grid
# sources in one island likewise
THREE_FORMERS = {
    "name": "three_formers", "dt": 1e-4, "t_end": 0.01,
    "buses": ["b1", "b2", "b3", "mid"],
    "lines": [{"from": b, "to": "mid", "r": 0.002, "x": 0.02} for b in ("b1", "b2", "b3")],
    "loads": [{"id": "ld", "bus": "mid", "kind": "impedance", "r": 1.7, "x": 0.3}],
    "inverters": [
        {"id": f"inv{k}", "bus": f"b{k}", "mode": "gfm", "p_set": p,
         "droop": {"m_p": m, "n_q": 0.05, "k_r": 0.0}}
        for k, p, m in ((1, 0.1, 0.01), (2, 0.2, 0.03), (3, 0.3, 0.07))
    ],
    "events": [],
}
THREE_SOURCES = {
    "name": "three_sources", "dt": 1e-4, "t_end": 0.01,
    "buses": ["g1", "g2", "g3"],
    "lines": [{"from": "g1", "to": "g2", "r": 0.002, "x": 0.02},
              {"from": "g2", "to": "g3", "r": 0.002, "x": 0.02}],
    "grid_sources": [
        {"id": f"src{k}", "bus": f"g{k}", "v": 1.0, "r_s": 0.001, "x_s": 0.01,
         "rating": r, "f": f}
        for k, r, f in ((1, 1000.1, 60.1), (2, 2000.2, 59.7), (3, 3000.3, 60.3))
    ],
    "loads": [{"id": "ld", "bus": "g2", "kind": "impedance", "r": 1.7, "x": 0.3}],
    "events": [],
}


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    # from Python 3.12 on, sum() of floats is compensated; start-up and the
    # island frequencies add left to right, so a compensated sum() moves
    # no bit of the three formers' start or the three sources' frequency
    def start_up():
        sim = Simulation(parse_config(THREE_FORMERS))
        return ([(inv.droop.theta_gfm, inv.droop.omega, inv.droop.p_f)
                 for inv in sim.invs], sim.init_rounds, sim.init_mismatch)

    def frequency():
        return Simulation(parse_config(THREE_SOURCES))._island_frequencies()

    plain = start_up(), frequency()
    monkeypatch.setattr(dualpath.runner, "sum", math.fsum, raising=False)
    assert start_up() == plain[0]
    assert frequency() == plain[1]


def test_fast_synth_matches_frames_reference():
    vpos, vneg = 0.97 * cmath.exp(0.4j), 0.08 * cmath.exp(-1.1j)
    rot = cmath.exp(1.234j)
    # independent oracle: phase phasors through the inverse component matrix
    a = cmath.exp(2j * math.pi / 3)
    inv_m = np.array([[1, 1, 1], [1, a * a, a], [1, a, a * a]])
    ref = ((inv_m @ np.array([0j, vpos, vneg])) * rot).real
    assert phase_samples(vpos, vneg, rot) == pytest.approx(tuple(ref), abs=1e-15)


def test_load_stepped_to_zero_admittance_runs(tmp_path):
    # r = 2 pu draws 0.5 pu at 1 pu; the -0.5 pu step leaves zero admittance
    d = doc(t_end=0.2)
    d["loads"].append({"id": "ldz", "bus": "b1", "kind": "impedance", "r": 2.0, "x": 0})
    d["events"] = [{"t": 0.1, "type": "load_step", "target": "ldz", "dp": -0.5}]
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(d))
    assert cli_main(["validate", str(scen)]) == 0
    assert cli_main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
    metrics = json.loads((tmp_path / "out/metrics.json").read_text())
    assert metrics["aborted"] is False


def test_cli_rejects_decimate_below_one(tmp_path, capsys):
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(doc(t_end=0.01)))
    for option, bad, problem in (
        ("--decimate", "0", "output.decimate: must be >= 1"),
        ("--decimate", "-2", "output.decimate: must be >= 1"),
        ("--seed", "-1", "seed: must be >= 0"),
    ):
        argv = ["run", str(scen), "--out", str(tmp_path / "out"), option, bad]
        assert cli_main(argv) == 1
        assert problem in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the message the YAML field gets
    scen.write_text(yaml.safe_dump(doc(t_end=0.01, output={"decimate": 0})))
    assert cli_main(["validate", str(scen)]) == 1
    assert "output.decimate: must be >= 1" in capsys.readouterr().err


def test_csv_schema(tmp_path):
    cfg = parse_config(doc(t_end=0.1))
    run(cfg, tmp_path)
    header = (tmp_path / "timeseries.csv").read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert header[1:7] == [
        "v_mag_grid", "v_ang_grid", "v_mag_pcc", "v_ang_pcc", "v_mag_b1", "v_ang_b1",
    ]
    assert header[7:] == [
        "f_inv1", "p_inv1", "q_inv1", "mode_inv1",
        "lock_inv1", "island_inv1", "recon_inv1",
    ]
    row = (tmp_path / "timeseries.csv").read_text().splitlines()[5].split(",")
    # nine significant digits
    assert len(row) == len(header)
    assert row[7] == "60"
    assert (tmp_path / "config.resolved.yaml").exists()
    ev_header = (tmp_path / "events.csv").read_text().splitlines()[0]
    assert ev_header == "t,type,target,detail"


def test_setpoint_event_changes_dispatch():
    d = doc(t_end=1.2)
    d["events"] = [
        {"t": 0.4, "type": "setpoint", "target": "inv1", "source": "scada",
         "p_set": 0.65},
    ]
    res = run(parse_config(d))
    k = np.searchsorted(res.t, 1.0)
    assert res.p[k, 0] == pytest.approx(0.65, abs=0.01)
    assert res.metrics["guard_audit"]["accepted"] == 1


def test_50_hz_grid_with_default_inverter_blocks_runs_as_at_60_hz():
    # every frequency default follows base.f_nom: a healthy 50 Hz grid trips
    # no detector, and the setpoints that pass at 60 Hz pass here
    d = yaml.safe_load((SCENARIOS / "grid_pq_tracking.yaml").read_text())
    d["base"] = {"f_nom": 50.0}
    res = run(parse_config(d))
    assert not res.aborted
    log = res.events_log
    assert not [r for r in log if isinstance(r, (DetectorChange, TransitionRecord))]
    audits = [r for r in log if isinstance(r, GuardAuditRecord)]
    assert [a.t for a in audits] == [1.0, 2.5, 4.0]
    assert all(a.accepted for a in audits), audits
    # the 60 Hz run predicts 60.12, 60.0 and 60.09 Hz: the same per-unit values
    assert [a.predicted_f for a in audits] == pytest.approx([50.1, 50.0, 50.075], abs=1e-6)
    assert np.abs(res.f - 50.0).max() < 0.5  # inside the detector's window


def test_runtime_config_not_mutated_by_run():
    cfg = parse_config(doc(t_end=0.3))
    d = cfg.inverters[0].droop
    p_before = d.p_set
    breaker_before = cfg.breakers[0].closed
    d2 = doc(t_end=0.3)
    d2["events"] = [
        {"t": 0.1, "type": "setpoint", "target": "inv1", "source": "s", "p_set": 0.6},
        {"t": 0.2, "type": "breaker_set", "target": "pcc_brk", "closed": False},
    ]
    cfg = parse_config(d2)
    run(cfg)
    assert cfg.inverters[0].droop.p_set == p_before
    assert cfg.breakers[0].closed == breaker_before


def test_gfm_plug_in_connects_without_inrush_and_reshapes():
    # a parked forming unit listens via its following path; at plug-in it
    # connects at the measured bus state and droop re-shares the load
    d = {
        "name": "gfm-plugin", "dt": 2e-4, "t_end": 10.0,
        "buses": ["b1", "b2", "mid"],
        "lines": [
            {"from": "b1", "to": "mid", "r": 0.002, "x": 0.02},
            {"from": "b2", "to": "mid", "r": 0.002, "x": 0.02},
        ],
        "loads": [{"id": "ld", "bus": "mid", "kind": "power", "p": 0.6, "q": 0.1}],
        "inverters": [
            {"id": "inv1", "bus": "b1", "mode": "gfm",
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.0}},
            {"id": "inv2", "bus": "b2", "mode": "gfm", "plugged": False,
             "droop": {"m_p": 0.01, "n_q": 0.05, "k_r": 0.0}},
        ],
        "events": [{"t": 4.0, "type": "plug_in", "target": "inv2"}],
    }
    res = run(parse_config(d))
    k_pre = np.searchsorted(res.t, 3.999)
    k_post = np.searchsorted(res.t, 4.0006)
    assert np.abs(res.bus_mag[k_post] - res.bus_mag[k_pre]).max() < 0.01
    assert res.p[-1, 0] / res.p[-1, 1] == pytest.approx(1.0, rel=0.02)


def test_reactive_setpoint_sign_convention_end_to_end():
    # positive q_set must appear as positive measured reactive injection
    d = doc(t_end=1.0)
    d["inverters"][0]["q_set"] = 0.2
    res = run(parse_config(d))
    assert res.q[-1, 0] == pytest.approx(0.2, abs=1e-6)
    # and the voltage at the bus rises versus the no-q case
    d0 = doc(t_end=1.0)
    res0 = run(parse_config(d0))
    assert res.bus_mag[-1, 2] > res0.bus_mag[-1, 2]


def test_determinism_across_processes(tmp_path):
    import os
    import subprocess
    import sys as _sys

    scen = tmp_path / "scen.yaml"
    import yaml as _yaml

    _yaml.safe_dump(doc(t_end=0.2), scen.open("w"))
    root = Path(__file__).resolve().parents[1]
    # the child imports dualpath from this checkout whatever the caller's path
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    outs = []
    for sub in ("a", "b"):
        r = subprocess.run(
            [_sys.executable, "-m", "dualpath", "run", str(scen),
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True, cwd=str(root), env=env,
        )
        assert r.returncode == 0, r.stderr
        outs.append((tmp_path / sub / "timeseries.csv").read_bytes())
    assert outs[0] == outs[1]


def _library_doc(name: str, t_end: float) -> dict:
    """A library scenario cut at ``t_end``."""
    d = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
    d["t_end"] = t_end
    d["events"] = [ev for ev in d["events"] if ev["t"] <= t_end]
    return d


def _count_calls(monkeypatch, targets: list[tuple[object, str]]) -> dict:
    """Count the calls made through each ``(owner, name)``, by name."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_unread_work_is_skipped(monkeypatch):
    # counted through the names the benchmark's layer trace wraps: the
    # forming path runs only for a plugged forming unit, and the island
    # frequencies only while a reconnection monitor's breaker is open
    calls = _count_calls(monkeypatch, [
        (dualpath.runner, "power_filter_step"), (dualpath.runner, "droop_step"),
        (Simulation, "_island_frequencies"),
    ])
    testbed = _library_doc("canonical_testbed", 0.05)
    testbed["output"] = {"decimate": 1}  # a mode row per step
    res = Simulation(parse_config(testbed)).run()
    steps = len(res.t)
    # inv1 forms and inv2..inv4 follow throughout; pcc_brk stays closed
    assert len(res.mode) == steps and (res.mode == [1, 0, 0, 0]).all()
    assert calls == {
        "power_filter_step": steps, "droop_step": steps,
        "_island_frequencies": 1,  # from _initialize
    }

    # the tie breaker is open from the start until the auto reclose
    calls["_island_frequencies"] = 0
    res = Simulation(parse_config(_library_doc("reconnection", 11.0))).run()
    reclose = [e for e in res.events_log if isinstance(e, AutoReclose)]
    assert len(reclose) == 1
    k_reclose = round(reclose[0].t / res.cfg.dt)
    assert 0 < k_reclose < len(res.t) - 1
    # _initialize, then every step up to and including the reclosing one
    assert calls["_island_frequencies"] == 1 + k_reclose + 1


# a forming unit beside a parked forming unit that plugs in mid-run
PARKED_FORMER_DOC = {
    "name": "parked-former", "dt": 5e-4, "t_end": 0.4,
    "buses": ["b1", "b2"],
    "lines": [{"from": "b1", "to": "b2", "r": 0.01, "x": 0.05}],
    "loads": [{"id": "ld", "bus": "b2", "kind": "impedance", "r": 2.0, "x": 0.4}],
    "inverters": [
        {"id": "inv1", "bus": "b1", "mode": "gfm"},
        {"id": "inv2", "bus": "b2", "mode": "gfm", "plugged": False},
    ],
    "events": [{"t": 0.2, "type": "plug_in", "target": "inv2"}],
}

# runs that reach every reader of a following or parked unit's forming
# state: a setpoint's guard and a GFL->GFM transition (mode_setpoint), a
# plug-in (parked_former), the caller after the run (canonical_testbed,
# pulse_plugin), and a setpoint on a forming unit (setpoint_barrage)
SHADOW_DOCS = {
    "canonical_testbed": lambda: _library_doc("canonical_testbed", 0.3),
    "pulse_plugin": lambda: _library_doc("pulse_plugin", 0.05),
    "setpoint_barrage": lambda: _library_doc("setpoint_barrage", 2.5),
    "mode_setpoint": mode_setpoint_doc,
    "parked_former": lambda: copy.deepcopy(PARKED_FORMER_DOC),
}
# the fields shadow_follow writes (ramp_target is read only while ramping)
SHADOW_FIELDS = [f.name for f in dataclasses.fields(DroopState) if f.name != "ramp_target"]


@pytest.mark.parametrize("name", list(SHADOW_DOCS))
def test_skipped_forming_path_equals_its_shadow_copy(monkeypatch, name):
    # a following or parked unit does not step its forming path; whatever
    # reads that state must see the copy shadow_follow builds from the unit's
    # PLL, terminal power and params: as they are after its sync step while
    # it follows (a transition reads it in that step), and at the end of its
    # step.  From each of those points on, the first access to each field
    # must read or write that copy's value (only after it may the program
    # write its own), and the state the run leaves behind must be that copy.
    pending = {}  # id(forming state) -> {field: copy value} not written since
    last = {}     # inverter id -> the copy after its last step, if not forming
    mismatches, seen = [], []

    def check(state, field, value):
        want = pending.get(id(state), {})
        if field in want:
            seen.append(field)
            copy_value = want.pop(field)
            if value != copy_value:
                mismatches.append((field, value, copy_value))

    class Watched(DroopState):
        __slots__ = ()

        def __getattribute__(self, field):
            value = object.__getattribute__(self, field)
            check(self, field, value)
            return value

        def __setattr__(self, field, value):
            check(self, field, value)
            object.__setattr__(self, field, value)

    sim = Simulation(parse_config(SHADOW_DOCS[name]()))
    for inv in sim.invs:
        inv.droop.__class__ = Watched
    by_sup = {inv.sup: inv for inv in sim.invs}
    step, sync = Simulation._step_inverter, Supervisor.shadow_sync_step

    def expect_shadow(inv):
        shadow = DroopState()
        shadow_follow(inv.pll, inv.s_inv, sim.w0, shadow, inv.params)
        last[inv.id] = {f: getattr(shadow, f) for f in SHADOW_FIELDS}
        pending[id(inv.droop)] = dict(last[inv.id])

    def forms(inv):
        return inv.plugged and inv.sup.mode is Mode.GFM

    def watched_sync(sup, *args, **kwargs):
        status = sync(sup, *args, **kwargs)
        if sup.mode is Mode.GFL:
            expect_shadow(by_sup[sup])
        return status

    def watched_step(self, inv, *args):
        was_forming = forms(inv)
        parked_former = not inv.plugged and inv.sup.mode is Mode.GFM
        if parked_former:
            # its detector reads the copy of this step, built within the step
            pending.pop(id(inv.droop), None)
        step(self, inv, *args)
        if was_forming or forms(inv):
            pending.pop(id(inv.droop), None)
            last.pop(inv.id, None)
        else:
            expect_shadow(inv)
            if parked_former:
                assert {f: getattr(inv.droop, f) for f in SHADOW_FIELDS} == last[inv.id]

    monkeypatch.setattr(Simulation, "_step_inverter", watched_step)
    monkeypatch.setattr(Supervisor, "shadow_sync_step", watched_sync)
    assert not sim.run().aborted
    assert mismatches == []
    assert bool(seen) == (name != "setpoint_barrage")  # its one unit forms
    unshadowed = {"canonical_testbed": ["inv2", "inv3", "inv4"], "pulse_plugin": ["inv2"]}
    assert sorted(last) == unshadowed.get(name, [])
    for inv in sim.invs:
        if inv.id in last:
            assert {f: getattr(inv.droop, f) for f in SHADOW_FIELDS} == last[inv.id]


@pytest.mark.parametrize("name", list(SHADOW_DOCS))
def test_forming_state_built_on_demand_writes_the_eager_bytes(
    monkeypatch, tmp_path, name
):
    # building every unit's shadow copy after each of its steps, as the
    # supervisor did before the copy was built on demand, writes the same files
    cfg = parse_config(SHADOW_DOCS[name]())
    write_outputs(Simulation(cfg).run(), tmp_path / "on_demand")
    step = Simulation._step_inverter

    def eager_step(self, inv, *args):
        step(self, inv, *args)
        inv.forming()

    monkeypatch.setattr(Simulation, "_step_inverter", eager_step)
    write_outputs(Simulation(cfg).run(), tmp_path / "eager")
    for f in ("timeseries.csv", "events.csv"):
        assert (tmp_path / "on_demand" / f).read_bytes() == (
            tmp_path / "eager" / f
        ).read_bytes(), f


def _per_row_record(monkeypatch, sim):
    """Run ``sim`` keeping each step's solved bus voltages; returns the
    result and the magnitudes and angles taken one row at a time."""
    states = []
    solve = sim._solve

    def kept():
        state, report = solve()
        states.append(state.v_pos.copy())
        return state, report

    monkeypatch.setattr(sim, "_solve", kept)
    res = sim.run()
    mag = np.array([np.absolute(v) for v in states]).reshape(-1, len(sim.cfg.buses))
    ang = np.array([np.arctan2(v.imag, v.real) for v in states]).reshape(mag.shape)
    return res, mag, ang


# a grid-fed bus whose source turns off nominal, beside a dead island where
# a forming unit plugs in at 0.2 s onto a constant-power load: the load's bus
# voltage starts at zero, so the solve aborts on a collapse at that step
COLLAPSE_DOC = {
    "name": "plug-in-collapse", "dt": 5e-4, "t_end": 0.4,
    "buses": ["g", "b1", "b2"],
    "lines": [
        {"from": "g", "to": "b1", "r": 0.01, "x": 0.05},
        {"from": "b1", "to": "b2", "r": 0.01, "x": 0.05},
    ],
    "breakers": [{"id": "brk", "from": "g", "to": "b1", "closed": False}],
    "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "x_s": 0.01, "f": 59.7}],
    "loads": [
        {"id": "zl", "bus": "g", "kind": "impedance", "r": 2.0, "x": 0.5},
        {"id": "cp", "bus": "b2", "kind": "power", "p": 0.1},
    ],
    "inverters": [{"id": "inv1", "bus": "b1", "mode": "gfm", "plugged": False}],
    "events": [{"t": 0.2, "type": "plug_in", "target": "inv1"}],
}


def test_block_record_equals_per_row_calls(monkeypatch):
    # 602 rows, not a multiple of RECORD_BLOCK nor of dec > 1; the bus
    # voltages are kept at steps 0, dec, 2 * dec, ... (520: a block with
    # no output row)
    for dec in (1, 3, 10, 520):
        sim = Simulation(parse_config(doc(t_end=0.0601, output={"decimate": dec})))
        res, mag, ang = _per_row_record(monkeypatch, sim)
        assert len(res.t) == 602 and len(res.t) % RECORD_BLOCK
        assert np.array_equal(res.bus_mag, mag[::dec]) and np.array_equal(res.bus_ang, ang[::dec])


def test_block_record_stops_at_a_collapse_abort(monkeypatch):
    for dec in (1, 3, 10):
        cfg = parse_config(copy.deepcopy(COLLAPSE_DOC))
        cfg.output.decimate = dec
        res, mag, ang = _per_row_record(monkeypatch, Simulation(cfg))
        assert res.aborted and "collapsed" in res.abort_reason
        assert res.abort_step == 400 and 400 % RECORD_BLOCK
        assert mag.shape == (400, 3)
        assert res.bus_mag.shape == (len(range(0, 400, dec)), 3)
        assert np.array_equal(res.bus_mag, mag[::dec]) and np.array_equal(res.bus_ang, ang[::dec])
        # the grid bus turns at -0.3 Hz: its angles differ row to row
        assert len(set(res.bus_ang[:, 0].tolist())) == len(res.bus_ang)


# what a run may hold beyond its record arrays and the fold's kept sharing
# window: its other objects (about 120 KB on a 0.2 s testbed slice), one
# block of held solved states (about 110 KB on testbed: the bus-voltage
# rows, the EMFs and the injections; the rows give way to one array when the
# block is checked) and their solves' mismatch vectors (about 60 KB, folded
# and dropped before the check), and the block power-balance check's
# temporaries (about 120 KB); compute_metrics allocates only small arrays on
# testbed, whose one former leaves no sharing window to read
RECORD_SLACK = 352 * 1024


def _array_bytes(obj) -> int:
    """Bytes of the arrays ``obj`` is, or holds in a list or dict."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, dict)):
        return sum(map(_array_bytes, obj.values() if isinstance(obj, dict) else obj))
    return 0


def record_peak_bytes(t_end=0.2):
    """(peak of ``Simulation.run``: its traced peak plus the arrays the
    record was built with, steps, output rows, bytes per step, bytes per
    output row, bytes of the fold's kept sharing window) on
    ``canonical_testbed`` cut at ``t_end``, after a short warm-up run that
    does the one-time imports."""
    Simulation(parse_config(_library_doc("canonical_testbed", 0.01))).run()
    sim = Simulation(parse_config(_library_doc("canonical_testbed", t_end)))
    # allocated when the Simulation is built, filled by run
    record_bytes = sum(map(_array_bytes, vars(sim.record).values()))
    tracemalloc.start()
    try:
        res = sim.run()
        peak = tracemalloc.get_traced_memory()[1] + record_bytes
    finally:
        tracemalloc.stop()
    per_step = res.t.itemsize
    per_row = sum(getattr(res, a)[0].nbytes for a in (
        "bus_mag", "bus_ang", "f", "p", "q", "mode", "lock", "island", "recon"))
    window = sum(b.nbytes for _, b in res.fold.p_blocks)
    return peak, res.t.size, len(res.q), per_step, per_row, window


def test_run_peak_memory_holds_the_csv_only_columns_per_output_row():
    # in a fresh process, since this one unpickles library runs on a thread;
    # recording f, p and mode at every step as well would add 68 B a step
    # (136 KB: about 571 KB against this bound's 463 KB)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parent), *sys.path]))
    code = "import test_runner as m; print(*m.record_peak_bytes())"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    peak, rows, out_rows, per_step, per_row, window = map(int, out.split())
    assert (rows, out_rows, per_step, per_row) == (2001, 101, 8, 224)
    # the whole 0.2 s slice is inside the 1 s window: every step of 4 units
    assert window == rows * 4 * 8
    assert peak < rows * per_step + out_rows * per_row + window + RECORD_SLACK, peak


def two_rate_docs():
    """Runs that the two-rate record must not change: an accepted
    transition at step 467 (its next step, 468, writes a row at
    decimate 3 but not at 10) and a denied one, in 602 steps; a forming
    takeover of a dead island at the last step (3000) and one step
    before the end; a collapse abort at step 400."""
    handover = doc(t_end=0.0601)
    handover["inverters"][0]["thresholds"] = {"hold": 0.01}
    handover["events"] = [
        {"t": 0.0467, "type": "mode_command", "target": "inv1", "mode": "gfm"},
        {"t": 0.0553, "type": "mode_command", "target": "inv1", "mode": "gfl"},
    ]
    islanded = [doc(t_end=t_end) for t_end in (0.3, 0.3001)]
    for d in islanded:
        d["events"] = [
            {"t": 0.1, "type": "breaker_set", "target": "pcc_brk", "closed": False}
        ]
    return {"handover": handover, "islanded_end": islanded[0],
            "islanded": islanded[1], "collapse": copy.deepcopy(COLLAPSE_DOC)}


@pytest.mark.parametrize("name", list(two_rate_docs()))
def test_two_rate_record_matches_the_full_rate_run(tmp_path, name):
    d = two_rate_docs()[name]
    d["output"] = {"decimate": 1}
    full = run(parse_config(d), tmp_path / "1")
    accepted = [tr for tr in full.metrics["transitions"] if tr["accepted"]]
    assert full.aborted == (name == "collapse") and len(accepted) == (name != "collapse")
    full_csv = (tmp_path / "1/timeseries.csv").read_text().splitlines()
    for dec in (3, 10):
        d["output"] = {"decimate": dec}
        res = run(parse_config(d), tmp_path / str(dec))
        assert (res.aborted, res.abort_step) == (full.aborted, full.abort_step)
        assert np.array_equal(res.t, full.t), dec  # per control step
        assert res.max_residual == full.max_residual, dec
        for a in ("bus_mag", "bus_ang", "f", "p", "q", "mode", "lock", "island", "recon"):
            assert np.array_equal(getattr(res, a), getattr(full, a)[::dec]), (dec, a)
        # the fold took the per-step values of the decimate-1 run
        f_min = full.f.min(axis=1)
        out_of_band = np.flatnonzero(np.abs(full.f - 60.0).max(axis=1) > SETTLE_BAND_HZ)
        assert (res.fold.nadir, res.fold.k_nadir) == (f_min.min(), np.argmin(f_min))
        assert res.fold.k_out == (out_of_band[-1] if out_of_band.size else None)
        assert res.fold.modes == full.mode[-1].tolist()
        assert np.array_equal(res.fold.window(res.t), full.p[full.t >= full.t[-1] - 1.0])
        assert res.transition_v == full.transition_v
        assert res.metrics | {"wall_time_s": 0} == full.metrics | {"wall_time_s": 0}
        csv = (tmp_path / str(dec) / "timeseries.csv").read_text().splitlines()
        assert csv == full_csv[:1] + full_csv[1::dec]
        assert (tmp_path / str(dec) / "events.csv").read_text() == (
            tmp_path / "1/events.csv").read_text()


@pytest.mark.parametrize("name", ["handover", "collapse"])
def test_t_holds_one_entry_per_control_step(monkeypatch, name):
    # the benchmark divides a run's time by result.t.size; each completed
    # step ends by advancing the sources, and the collapse aborts in the
    # solve of step 400
    calls = _count_calls(monkeypatch, [(Network, "advance_sources")])
    for dec in (1, 3, 10):
        calls["advance_sources"] = 0
        d = two_rate_docs()[name]
        d["output"] = {"decimate": dec}
        res = run(parse_config(d))
        assert res.t.size == calls["advance_sources"] == (400 if res.aborted else 602)
        assert res.aborted == (name == "collapse")


@pytest.mark.parametrize("name", ["islanded", "collapse"])
def test_run_residuals_match_the_oracle_at_every_step(monkeypatch, name):
    # the run checks the power balance at each block's end and at the
    # abort; the oracle checks each state right after its own solve.  The
    # breaker opens at step 1000, inside a block; the collapse aborts at 400
    sim = Simulation(parse_config(two_rate_docs()[name]))
    oracle, scale, solve = [], [], Network.solve

    def solve_and_check(net, *args):
        state, report = solve(net, *args)
        oracle.append(solve_oracle.power_balance_residual(net, state))
        scale.append(solve_oracle.power_balance_scale(net, state))
        return state, report

    monkeypatch.setattr(Network, "solve", solve_and_check)
    residuals = _every_balance_residual(monkeypatch)
    res = sim.run()
    if name == "collapse":
        assert res.aborted and res.abort_step == 400 and len(oracle) == 400
    else:
        opened = [ev.t for ev in res.events_log
                  if isinstance(getattr(ev, "event", None), BreakerSet)]
        assert opened == [0.1] and 1000 % RECORD_BLOCK and len(oracle) == 3002
    assert len(residuals) == len(oracle)
    assert (np.abs(np.array(residuals) - oracle)
            <= solve_oracle.ROUNDING * np.array(scale)).all()


def _every_step_residual(monkeypatch) -> list[float]:
    """``SolveReport.residual`` of every solve made from now on (so, built
    before this, a ``Simulation``'s start-up solves are left out)."""
    residuals, solve = [], Network.solve

    def solve_and_reduce(net, *args):
        state, report = solve(net, *args)
        residuals.append(report.residual)
        return state, report

    monkeypatch.setattr(Network, "solve", solve_and_reduce)
    return residuals


def _every_balance_residual(monkeypatch) -> list[float]:
    """The power-balance residual of every step checked from now on, in
    step order (the run checks a block of steps at a time)."""
    residuals, check = [], Network.power_balance_residual

    def check_and_keep(net, held):
        out = check(net, held)
        residuals.extend(out.tolist())
        return out

    monkeypatch.setattr(Network, "power_balance_residual", check_and_keep)
    return residuals


def residual_max_docs():
    """The breaker opens at step 1000, inside a block, and the island's
    three energized buses drop to one; a dead island with a constant-power
    load beside a grid-fed bus for 801 steps, and the same aborting at
    step 400; a run of 101 steps, shorter than one block; no energized bus
    (every solve's mismatch is empty)."""
    dead_island = copy.deepcopy(COLLAPSE_DOC)
    dead_island["events"] = []
    dead = doc(t_end=0.03, grid_sources=[], inverters=[])
    return {"islanded": two_rate_docs()["islanded"], "dead_island": dead_island,
            "collapse": copy.deepcopy(COLLAPSE_DOC), "short": doc(t_end=0.01),
            "dead": dead}


@pytest.mark.parametrize("name", list(residual_max_docs()))
def test_solver_residual_max_is_the_largest_step_residual(monkeypatch, name):
    sim = Simulation(parse_config(residual_max_docs()[name]))
    residuals = _every_step_residual(monkeypatch)
    balance = _every_balance_residual(monkeypatch)
    res = sim.run()
    assert res.aborted == (name == "collapse")
    # the failed solve returns no report and holds no state
    assert len(residuals) == len(balance) == len(res.t)
    if name == "short":
        assert len(res.t) == 101 < RECORD_BLOCK
    assert res.solver["residual_max"] == max(residuals)
    assert (max(residuals) > 0.0) == (name != "dead")
    # the power balance is folded per block as well
    assert res.max_residual == max(balance)


def test_a_nan_solve_mismatch_reaches_solver_residual_max():
    # the forming unit's EMF turns NaN inside the first block; the linear
    # solve does not abort on it, and both residuals must report it
    sim = Simulation(parse_config(_library_doc("canonical_testbed", 0.05)))
    for _ in range(10):
        sim.step()
    sim._formers[0].emf = complex(math.nan)
    res = sim.run()
    assert math.isnan(res.metrics["power_balance_max_residual"])
    assert math.isnan(res.solver["residual_max"])
