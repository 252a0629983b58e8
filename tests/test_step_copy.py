"""A run stepped part of the way, then deep-copied or pickled, finishes as
the run that was never stopped: same output files, same abort."""

import copy
import json
import pickle
from pathlib import Path

import pytest
import yaml
from test_runner import COLLAPSE_DOC, _every_step_residual

from dualpath.events import DetectorChange
from dualpath.runner import RECORD_BLOCK, Simulation, write_outputs
from dualpath.scenario import parse_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _slice(name: str, t_end: float, events: list, **overrides) -> dict:
    """Library scenario ``name`` cut at ``t_end``, with its events replaced
    by ``events`` (moved early, so that a short slice reaches them)."""
    d = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
    d.update(t_end=t_end, events=events, **overrides)
    return d


def _noisy_grid() -> dict:
    """unbalanced_grid with measurement noise and a detector that trips on
    one noisy voltage sample, so that each draw shows in events.csv."""
    d = _slice("unbalanced_grid", 0.1, [
        {"t": 0.02, "type": "source_unbalance", "target": "utility", "mag": 0.1},
    ], output={"decimate": 10, "noise_std": 0.05})
    d["inverters"][0]["detector"] = {"persist": 1e-4}
    return d


# (document, the step at which the run is copied)
CASES = {
    # a constant-power load pulsed while a second former plugs in beside it
    "pulse_plugin": (_slice("pulse_plugin", 0.2, [
        {"t": 0.02, "type": "pulse_load", "target": "ld", "dp": 0.3, "duration": 0.05},
        {"t": 0.1, "type": "plug_in", "target": "inv2"},
    ]), 420),
    # the breaker opens, the detector trips and the unit takes over forming
    "islanding_restoration": (_slice("islanding_restoration", 0.4, [
        {"t": 0.05, "type": "breaker_set", "target": "pcc_brk", "closed": False},
    ]), 1100),
    # a forming unit watching both sides of its open breaker
    "reconnection": (_slice("reconnection", 0.2, []), 300),
    # measurement noise: the copy carries the generator's state
    "unbalanced_grid": (_noisy_grid(), 600),
}


def _outputs(result, out_dir: Path) -> dict:
    """The bytes of timeseries.csv and events.csv, and metrics.json less
    ``wall_time_s``."""
    write_outputs(result, out_dir)
    out = {f: (out_dir / f).read_bytes() for f in ("timeseries.csv", "events.csv")}
    out["metrics"] = json.loads((out_dir / "metrics.json").read_text())
    del out["metrics"]["wall_time_s"]
    return out


def _copied_runs(doc: dict, k_copy: int) -> dict:
    """Step a run to ``k_copy``, deep-copy and pickle it there, then finish
    the copies first and the original last (a copy that shared state with
    the original would change what the original writes)."""
    sim = Simulation(parse_config(doc))
    for _ in range(k_copy):
        sim.step()
    assert sim.k == k_copy
    copies = {
        "deepcopy": copy.deepcopy(sim),
        "pickle": pickle.loads(pickle.dumps(sim)),
    }
    return {name: c.run() for name, c in copies.items()} | {"stepped": sim.run()}


@pytest.mark.parametrize("name", list(CASES))
def test_run_copied_part_way_writes_the_uncopied_bytes(tmp_path, name):
    doc, k_copy = CASES[name]
    assert k_copy % RECORD_BLOCK  # inside an open record block
    whole = Simulation(parse_config(doc)).run()
    assert not whole.aborted
    expected = _outputs(whole, tmp_path / "whole")
    for how, res in _copied_runs(doc, k_copy).items():
        assert _outputs(res, tmp_path / how) == expected, how
    # each case reaches what it is named for
    accepted = [tr for tr in whole.metrics["transitions"] if tr["accepted"]]
    assert bool(accepted) == (name == "islanding_restoration")
    if name == "pulse_plugin":
        assert whole.solver["cp_iterations_max"] > 0
        assert b"PlugIn" in expected["events.csv"]
    if name == "unbalanced_grid":
        t_copy = k_copy * whole.cfg.dt
        assert any(isinstance(r, DetectorChange) and r.t > t_copy for r in whole.events_log)


def test_run_copied_before_a_failing_solve_aborts_the_same(tmp_path):
    # the plug-in at step 400 collapses the constant-power bus
    whole = Simulation(parse_config(copy.deepcopy(COLLAPSE_DOC))).run()
    assert whole.aborted and whole.abort_step == 400
    expected = _outputs(whole, tmp_path / "whole")
    for how, res in _copied_runs(copy.deepcopy(COLLAPSE_DOC), 300).items():
        assert (res.aborted, res.abort_step, res.abort_reason) == (
            True, 400, whole.abort_reason), how
        assert _outputs(res, tmp_path / how) == expected, how


def test_run_copied_mid_block_keeps_the_solve_residual_max(monkeypatch):
    # copied just after the step whose solve mismatch is the run's largest,
    # before its block is folded: a copy that lost the block's held
    # mismatches would report a smaller solver.residual_max
    doc, _ = CASES["islanding_restoration"]
    sim = Simulation(parse_config(doc))
    residuals = _every_step_residual(monkeypatch)
    whole = sim.run()
    monkeypatch.undo()
    largest = max(residuals)
    k_copy = residuals.index(largest) + 1
    k0 = k_copy - k_copy % RECORD_BLOCK  # the open block's first step
    assert k_copy % RECORD_BLOCK and max(residuals[:k0] + residuals[k_copy:]) < largest
    assert whole.solver["residual_max"] == largest
    for how, res in _copied_runs(doc, k_copy).items():
        assert res.solver["residual_max"] == largest, how
