"""The benchmark's layer trace, ``bench/layertrace.py``, wraps package
functions by the names the program calls them through; a rename must not
leave one of its layers empty."""

import importlib.util
import math
from pathlib import Path

import yaml
from test_robustness import mode_setpoint_doc

from dualpath.runner import Simulation
from dualpath.scenario import parse_config

ROOT = Path(__file__).resolve().parents[1]

# library scenarios cut short (s), which together reach every wrapped name:
# a black-start ramp, a parked unit beside a constant-power load, an open tie
# breaker, a guarded setpoint and a following unit on a live bus
SHORT_RUNS = {
    "blackstart": 0.05, "pulse_plugin": 0.05, "reconnection": 0.05,
    "setpoint_barrage": 1.0, "flat_equilibrium": 0.01,
}


def load_layertrace():
    path = ROOT / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, [target for ts in module.SPANS.values() for target in ts]


def test_every_span_target_resolves():
    for owner, attr in load_layertrace()[1]:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_library_runs_call_every_span_target(monkeypatch):
    layertrace, targets = load_layertrace()
    calls = dict.fromkeys(targets, 0)
    for owner, attr in targets:
        def counted(*args, _fn=getattr(owner, attr), _key=(owner, attr), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    trace = layertrace.LayerTrace()
    with trace:
        for name, t_end in SHORT_RUNS.items():
            doc = yaml.safe_load((ROOT / "scenarios" / f"{name}.yaml").read_text())
            doc["t_end"] = t_end
            doc["events"] = [ev for ev in doc["events"] if ev["t"] <= t_end]
            assert not Simulation(parse_config(doc)).run().aborted
    assert [f"{o.__name__}.{a}" for (o, a), n in calls.items() if n == 0] == []
    assert all(trace.tally.calls[name] > 0 for name in layertrace.SPANS)
    # the counters read from return values saw the runs too; the solve's
    # residual is the report's, reduced when the trace reads it
    assert trace.tally.counts["cp_iters"] > 0
    assert 0.0 < trace.tally.residual_max < math.inf


def test_arbitration_requests_through_the_counted_method():
    # the trace counts transitions at Supervisor.request_transition, so mode
    # arbitration must reach the gate through that class attribute
    layertrace, _ = load_layertrace()
    trace = layertrace.LayerTrace()
    with trace:
        assert not Simulation(parse_config(mode_setpoint_doc())).run().aborted
    assert trace.tally.counts["transitions.requested"] >= 1
    assert trace.tally.counts["transitions.accepted"] == 1
