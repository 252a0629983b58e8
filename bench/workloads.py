"""Scenario documents for each benchmark workload, generated from a seed.

A workload turns ``(name, seed)`` into a list of scenario mappings, each of
which the benchmark passes to ``dualpath.scenario.parse_config``.  The same
seed always gives the same mappings.

* ``testbed`` and ``cp_island`` are the shipped ``canonical_testbed`` and
  ``pulse_plugin`` files, cut at ``SLICE_T_END`` (events after the cut are
  dropped) so that several complete runs fit in one measurement window.  At
  ``DEFAULT_SEED`` the remaining content is the shipped file unchanged; any
  other seed scales each scripted event magnitude by a factor drawn from
  ``EVENT_SCALE``.
* ``sweep`` is a batch of short islanding runs shaped like
  ``scripts/sweep_detection_mismatch.py``, with the island mismatch and the
  breaker-open time drawn from the seed, constant-impedance loads (so the
  constant-power iteration is bypassed) and full-rate output.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

DEFAULT_SEED = 0
HELD_OUT_SEED = 7

SHIPPED = {
    "testbed": "canonical_testbed.yaml",
    "cp_island": "pulse_plugin.yaml",
}
# testbed keeps the load step (2 s) and the guarded setpoint (4 s);
# cp_island keeps the first pulse (2-2.5 s) and the plug-in (6 s)
SLICE_T_END = {"testbed": 4.5, "cp_island": 6.5}
EVENT_SCALE = (0.8, 1.2)
# event fields scaled by the seed, per event type
SCALED_FIELDS = {
    "load_step": ("dp", "dq"),
    "pulse_load": ("dp", "dq"),
    "setpoint": ("p_set", "q_set"),
}

SWEEP_RUNS = 8
SWEEP_T_END = 2.5
SWEEP_MISMATCH = (0.3, 0.7)
SWEEP_OPEN_T = (0.5, 1.0)

WORKLOADS = ("testbed", "cp_island", "sweep")


def scenario_docs(root: Path, workload: str, seed: int) -> list[dict]:
    """Scenario mappings for one unit of work of ``workload`` at ``seed``."""
    if workload == "sweep":
        rng = random.Random(seed)
        return [
            _islanding_doc(i, rng.uniform(*SWEEP_MISMATCH), rng.uniform(*SWEEP_OPEN_T))
            for i in range(SWEEP_RUNS)
        ]
    if workload not in SHIPPED:
        raise ValueError(f"unknown workload {workload!r}")
    text = (root / "scenarios" / SHIPPED[workload]).read_text()
    return [_sliced(yaml.safe_load(text), SLICE_T_END[workload], seed)]


def _sliced(doc: dict, t_end: float, seed: int) -> dict:
    doc["t_end"] = t_end
    doc["events"] = [ev for ev in doc.get("events", []) if ev["t"] <= t_end]
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        for ev in doc["events"]:
            for key in SCALED_FIELDS.get(ev["type"], ()):
                if ev.get(key) is not None:
                    ev[key] = ev[key] * rng.uniform(*EVENT_SCALE)
    return doc


def _islanding_doc(index: int, mismatch: float, t_open: float) -> dict:
    # the forming unit carries 0.4 pu; the rest of the load is grid import
    # that becomes the island mismatch when the breaker opens
    p, q = 0.4 + mismatch, 0.05
    z = 1.0 / complex(p, -q)  # draws (p, q) at 1 pu voltage
    return {
        "name": f"sweep_{index}",
        "dt": 5e-4,
        "t_end": SWEEP_T_END,
        "buses": ["grid", "pcc", "b1", "b2"],
        "lines": [
            {"from": "grid", "to": "pcc", "r": 0.005, "x": 0.05},
            {"from": "pcc", "to": "b1", "r": 0.004, "x": 0.02},
            {"from": "pcc", "to": "b2", "r": 0.004, "x": 0.02},
        ],
        "breakers": [{"id": "pcc_brk", "from": "grid", "to": "pcc", "closed": True}],
        "grid_sources": [
            {"id": "utility", "bus": "grid", "v": 1.0, "r_s": 0.001, "x_s": 0.01}
        ],
        "loads": [
            {"id": "ld", "bus": "pcc", "kind": "impedance", "r": z.real, "x": z.imag}
        ],
        "inverters": [
            {
                "id": "gfm1", "bus": "b1", "mode": "gfm", "p_set": 0.4,
                "droop": {"m_p": 0.05, "n_q": 0.05, "k_r": 0.2},
            },
            {
                "id": "gfl1", "bus": "b2", "mode": "gfl", "p_set": 0.0,
                "droop": {"m_p": 0.05, "n_q": 0.05, "k_r": 0.2},
            },
        ],
        "events": [
            {"t": t_open, "type": "breaker_set", "target": "pcc_brk", "closed": False}
        ],
        "output": {"decimate": 1},
    }
