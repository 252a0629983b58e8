#!/usr/bin/env python3
"""dualpath benchmark: host time per control step, end to end and by layer.

    python3 bench/run.py --workload testbed --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process as a closed loop:
one scenario run at a time, each started after the previous one has been
written, no threads.  A unit of work is one scenario for ``testbed`` and
``cp_island`` and the whole batch for ``sweep``; units repeat until
``--seconds`` is used up.

Every scenario run is checked: it must not abort, its power-balance residual
must be at most 1e-9, every repeat in this process must write the same
``timeseries.csv`` (sha256), and at the default seed the scalar fields of
its ``metrics.json`` must match ``reference.json`` within 1e-9.  A run that
misses any of these counts as failed.  A ``timeseries.csv`` that differs
from the reference's sha256 is reported as a count, not as a failure.

``--trace 0`` reports the end-to-end metrics from untraced runs, with
their times normalised to a reference host speed (see ``hostspeed.py``);
the raw wall-time medians are printed in the table above the result.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (see ``layertrace.py``), plus the tracing cost.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs are written
under ``.bench_out/`` in the checkout and removed before exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

from dualpath.runner import Simulation, write_outputs  # noqa: E402
from dualpath.scenario import parse_config  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layertrace import LayerTrace, Tally  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, scenario_docs  # noqa: E402

SETUP_PER_UNIT = 10
RESIDUAL_LIMIT = 1e-9
METRIC_TOL = 1e-9

# spans whose self time is reported per control step; together they cover
# all of Simulation.run except compute_metrics (reported per run)
STEP_LAYERS = {
    "network.solve": "network.solve.us",
    "network.residual": "network.residual.us",
    "network.refresh": "network.refresh.us",
    "pll.step": "pll.step.us",
    "pll.gfl_refs": "pll.gfl_refs.us",
    "droop.step": "droop.step.us",
    "supervisor.sync": "supervisor.sync.us",
    "detect.push": "detect.push.us",
    "detect.recon": "detect.recon.us",
    "guard.validate": "guard.validate.us",
    "runner.step_inverter": "runner.step_inverter.self_us",
    "runner.run": "runner.loop.self_us",
    "runner.island_freq": "runner.island_freq.us",
}

END_TO_END_UNITS = {"run_s": "s", "step_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "us" for name in STEP_LAYERS.values()},
    "network.solve.cp_iters_mean": "count",
    "network.solve.cp_iters_max": "count",
    "network.solve.residual_max": "pu",
    "network.refresh.calls": "count",
    "supervisor.transitions.requested": "count",
    "supervisor.transitions.accepted": "count",
    "detect.trips": "count",
    "guard.calls": "count",
    "guard.accepted": "count",
    "runner.initialize.ms": "ms",
    "runner.initialize.solves": "count",
    "runner.write_outputs.us_per_row": "us",
    "runner.write_outputs.mb": "MB",
    "scenario.load.ms": "ms",
    "metrics.compute.ms": "ms",
    "trace.overhead_us_per_step": "us",
    "trace.layer_sum_ratio": "ratio",
}


@dataclass
class Outcome:
    """What one scenario run produced, for the output check."""

    name: str
    sha256: str
    scalars: dict


@dataclass
class Unit:
    """Times (summed over the unit's scenarios) and outcomes of one unit."""

    load_s: float = 0.0      # scenario documents and parse_config
    init_s: float = 0.0      # Simulation(cfg)
    run_s: float = 0.0       # Simulation.run
    write_s: float = 0.0     # write_outputs
    rows: int = 0            # control steps simulated
    rows_written: int = 0
    out_bytes: int = 0
    outcomes: list[Outcome] = field(default_factory=list)
    setup_tally: Tally | None = None  # traced units only
    run_tally: Tally | None = None
    start: float = 0.0       # perf_counter at start and end of the unit
    end: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.load_s + self.init_s + self.run_s + self.write_s

    @property
    def step_us(self) -> float:
        return self.run_s / self.rows * 1e6


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        print("--write-reference needs the default seed", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, out_dir, args.seed == DEFAULT_SEED)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference", action="store_true",
        help="record this workload's default-seed outputs in reference.json",
    )
    return ap.parse_args(argv)


def _measure(args, out_dir: Path, default_seed: bool) -> int:
    traced = bool(args.trace)
    if traced:
        return _measure_window(args, out_dir, default_seed, None)
    with HostSpeed() as speed:
        return _measure_window(args, out_dir, default_seed, speed)


def _measure_window(args, out_dir: Path, default_seed: bool, speed: HostSpeed | None) -> int:
    workload, seed = args.workload, args.seed
    traced = speed is None
    clock = time.perf_counter if traced else speed.clock

    _time_setup(workload, seed, clock)  # warm-up: lazy set-up on first use
    setups: list[tuple[float, float, float]] = []  # (seconds, start, end)
    kinds = (False, True) if traced else (False,)
    units: dict[bool, list[Unit]] = {kind: [] for kind in kinds}
    last: dict[bool, float] = {}
    attempted = failed_units = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        i += 1
        if not traced:
            # the host's speed drifts over seconds to minutes, so set-up is
            # sampled between units, across the whole window
            for _ in range(SETUP_PER_UNIT):
                p0 = time.perf_counter()
                seconds = _time_setup(workload, seed, clock)
                setups.append((seconds, p0, time.perf_counter()))
        # start another unit if at least half of it fits: on average the
        # units then cover the whole window
        if kind in last and time.perf_counter() + 0.5 * last[kind] > deadline:
            break
        t0 = time.perf_counter()
        try:
            if kind:
                with LayerTrace() as trace:
                    unit = _run_unit(workload, seed, out_dir, trace)
            else:
                unit = _run_unit(workload, seed, out_dir, clock=clock)
        except Exception:
            traceback.print_exc()
            failed_units += 1
            attempted += 1
            if failed_units >= 3:
                break
            continue
        last[kind] = time.perf_counter() - t0
        units[kind].append(unit)
        attempted += len(unit.outcomes)
    elapsed = time.perf_counter() - start

    all_units = [u for kind in kinds for u in units[kind]]
    reference = _load_reference().get(workload) if default_seed else None
    if args.write_reference and units[False]:
        _write_reference(workload, units[False][0])
        reference = _load_reference()[workload]
    failed, sha_matches = _check(all_units, reference, default_seed)
    failed += failed_units

    n = {kind: len(units[kind]) for kind in kinds}
    print(
        f"workload {workload}  seed {seed}  trace {args.trace}: "
        f"{sum(n.values())} units in {elapsed:.1f} s "
        f"({n[False]} untraced" + (f", {n[True]} traced)" if traced else ")")
    )
    if not all(units.values()):
        print("no unit completed; no result", file=sys.stderr)
        return 1
    if traced:
        metrics = _per_layer(units[False], units[True])
    else:
        metrics = _end_to_end(units[False], setups, speed)
    for name, value in metrics.items():
        print(f"  {name:34s} {value['value']:14.6g} {value['unit']}")
    if not traced:
        for name, value in _raw_end_to_end(units[False], setups).items():
            print(f"  {name + ' (raw wall time)':34s} {value:14.6g} {END_TO_END_UNITS[name]}")
        work = [s for _, s in speed.samples]
        print(f"  {'reference work (median)':34s} {statistics.median(work) * 1e3:14.6g} ms"
              f" ({len(work)} samples)")
        per_unit = [speed.normalise(u.step_us, u.start, u.end) for u in units[False]]
        print(f"  {'step_us per unit':34s} " + " ".join(f"{v:.4g}" for v in per_unit)
              + f" ({len(setups)} set-up samples)")
    print(f"  {'fail_ratio':34s} {failed / max(attempted, 1):14.6g} ({failed} of {attempted} runs)")
    if default_seed:
        compared = sum(len(u.outcomes) for u in all_units)
        print(f"  {'sha256 equal to reference':34s} {sha_matches:14d} of {compared} runs")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -- one unit of work --------------------------------------------------------


def _time_setup(workload: str, seed: int, clock) -> float:
    """Config load plus Simulation(cfg) for every scenario of one unit."""
    t0 = clock()
    for doc in scenario_docs(ROOT, workload, seed):
        Simulation(parse_config(doc))
    return clock() - t0


def _run_unit(
    workload: str, seed: int, out_dir: Path,
    trace: LayerTrace | None = None, clock=time.perf_counter,
) -> Unit:
    unit = Unit(start=time.perf_counter())
    if trace is not None:
        unit.setup_tally, unit.run_tally = Tally(), Tally()
    t0 = clock()
    docs = scenario_docs(ROOT, workload, seed)
    unit.load_s = clock() - t0
    for doc in docs:
        t0 = clock()
        cfg = parse_config(doc)
        t1 = clock()
        if trace is not None:
            trace.tally = unit.setup_tally
        sim = Simulation(cfg)
        if trace is not None:
            trace.tally = unit.run_tally
        t2 = clock()
        result = sim.run()
        t3 = clock()
        scenario_dir = out_dir / cfg.name
        write_outputs(result, scenario_dir)
        t4 = clock()
        unit.load_s += t1 - t0
        unit.init_s += t2 - t1
        unit.run_s += t3 - t2
        unit.write_s += t4 - t3
        rows = result.t.size
        unit.rows += rows
        unit.rows_written += len(range(0, rows, cfg.output.decimate))
        csv = (scenario_dir / "timeseries.csv").read_bytes()
        unit.out_bytes += sum(p.stat().st_size for p in scenario_dir.iterdir())
        unit.outcomes.append(Outcome(
            name=cfg.name,
            sha256=hashlib.sha256(csv).hexdigest(),
            scalars=_scalars(result.metrics),
        ))
    unit.end = time.perf_counter()
    return unit


def _scalars(metrics: dict) -> dict:
    """Scalar fields of metrics.json, less the host-dependent wall time."""
    return {
        k: v for k, v in metrics.items()
        if k != "wall_time_s" and not isinstance(v, (dict, list))
    }


# -- output check --------------------------------------------------------------


def _check(units: list[Unit], reference: list | None, default_seed: bool) -> tuple[int, int]:
    """(failed runs, runs whose timeseries.csv matches the reference sha256)."""
    failed = sha_matches = 0
    first_sha: dict[int, str] = {}
    for unit in units:
        for idx, out in enumerate(unit.outcomes):
            problems = []
            if out.scalars["aborted"]:
                problems.append("aborted")
            residual = out.scalars["power_balance_max_residual"]
            if not residual <= RESIDUAL_LIMIT:
                problems.append(f"power-balance residual {residual:.3e}")
            if first_sha.setdefault(idx, out.sha256) != out.sha256:
                problems.append("timeseries.csv differs from the first repeat")
            if default_seed:
                ref = reference[idx] if reference and idx < len(reference) else None
                if ref is None:
                    problems.append("no reference recorded")
                else:
                    problems += _compare(out.scalars, ref["metrics"])
                    sha_matches += out.sha256 == ref["sha256"]
            if problems:
                failed += 1
                print(f"check failed: {out.name}: {'; '.join(problems)}", file=sys.stderr)
    return failed, sha_matches


def _compare(got: dict, ref: dict) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(ref)):
        a, b = got.get(key), ref.get(key)
        same = (
            abs(a - b) <= METRIC_TOL
            if _is_number(a) and _is_number(b)
            else a == b
        )
        if not same:
            problems.append(f"metrics.{key} = {a!r}, reference {b!r}")
    return problems


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def _write_reference(workload: str, unit: Unit) -> None:
    ref = _load_reference()
    ref[workload] = [
        {"name": o.name, "sha256": o.sha256, "metrics": o.scalars}
        for o in unit.outcomes
    ]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# -- metrics -------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(units: list[Unit], setups: list[tuple], speed: HostSpeed) -> dict:
    """Medians of the unit and set-up times, each normalised by the host
    speed sampled around it."""
    values = {
        "run_s": statistics.median(
            speed.normalise(u.wall_s, u.start, u.end) for u in units),
        "step_us": statistics.median(
            speed.normalise(u.step_us, u.start, u.end) for u in units),
        "setup_s": statistics.median(
            speed.normalise(*setup) for setup in setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def _raw_end_to_end(units: list[Unit], setups: list[tuple]) -> dict[str, float]:
    return {
        "run_s": statistics.median(u.wall_s for u in units),
        "step_us": statistics.median(u.step_us for u in units),
        "setup_s": statistics.median(seconds for seconds, _, _ in setups),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layers(unit: Unit) -> dict[str, float]:
    run, setup = unit.run_tally, unit.setup_tally
    n = len(unit.outcomes)
    solves = run.calls["network.solve"]
    m = {name: run.self_ns[span] / unit.rows / 1e3 for span, name in STEP_LAYERS.items()}
    step_us = run.total_ns["runner.run"] / unit.rows / 1e3
    m.update({
        "network.solve.cp_iters_mean": run.counts["cp_iters"] / solves if solves else 0.0,
        "network.solve.cp_iters_max": run.cp_iters_max,
        "network.solve.residual_max": run.residual_max,
        "network.refresh.calls": run.calls["network.refresh"] / n,
        "supervisor.transitions.requested": run.counts["transitions.requested"] / n,
        "supervisor.transitions.accepted": run.counts["transitions.accepted"] / n,
        "detect.trips": run.counts["detect.trips"] / n,
        "guard.calls": run.calls["guard.validate"] / n,
        "guard.accepted": run.counts["guard.accepted"] / n,
        "runner.initialize.ms": setup.total_ns["runner.initialize"] / n / 1e6,
        "runner.initialize.solves": setup.calls["network.solve"] / n,
        "runner.write_outputs.us_per_row": unit.write_s / unit.rows_written * 1e6,
        "runner.write_outputs.mb": unit.out_bytes / n / 1e6,
        "scenario.load.ms": unit.load_s / n * 1e3,
        "metrics.compute.ms": run.total_ns["metrics.compute"] / n / 1e6,
        "trace.layer_sum_ratio": sum(m[name] for name in STEP_LAYERS.values()) / step_us,
        "_step_us": step_us,
    })
    return m


def _per_layer(untraced: list[Unit], traced: list[Unit]) -> dict:
    per_unit = [_layers(u) for u in traced]
    med = {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
    med["trace.overhead_us_per_step"] = (
        med.pop("_step_us") - statistics.median(u.step_us for u in untraced)
    )
    return {k: _metric(med[k], unit) for k, unit in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
