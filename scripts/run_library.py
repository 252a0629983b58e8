#!/usr/bin/env python3
"""Run the whole scenario library and print a one-line metric summary each.

Usage: python scripts/run_library.py [--out OUT_DIR] [--sha256] [--compare DIR]

With ``--sha256`` the summary is replaced by one JSON object that maps each
scenario to the sha256 of its ``timeseries.csv``, ``events.csv`` and
``config.resolved.yaml`` (the format of ``tests/data/library_sha256.json``).

With ``--compare DIR`` (an earlier ``--out`` directory, say of another
checkout) the run then lists each ``timeseries.csv``, ``events.csv`` and
``config.resolved.yaml`` whose bytes differ from the same file under ``DIR``,
and each ``metrics.json`` field that differs, ``wall_time_s`` aside, with its
max |delta| over list entries (inf for a non-numeric change).  A differing
``timeseries.csv`` is followed by its largest |delta| and the column it is
in, or by a note that the headers or the row counts differ; a differing
``events.csv`` or ``config.resolved.yaml`` by its changed lines as a
unified diff without context.  A last line counts the differing files and
``metrics.json`` fields, and the run exits 1 when either count is not 0,
so its exit status alone tells whether the outputs are bit-identical.
"""

import argparse
import difflib
import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualpath.runner import run
from dualpath.scenario import load_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
COMPARED_FILES = ("timeseries.csv", "events.csv", "config.resolved.yaml")
DIFFED_FILES = ("events.csv", "config.resolved.yaml")  # shown line by line


def fmt(x, spec=".3f"):
    return "-" if x is None else format(x, spec)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument(
        "--sha256", action="store_true",
        help="print the sha256 of each scenario's compared output files",
    )
    ap.add_argument(
        "--compare", metavar="DIR",
        help="list the outputs and metrics that differ from those under DIR",
    )
    args = ap.parse_args()
    out_root = Path(args.out)
    names, hashes = [], {}
    if not args.sha256:
        header = (
            f"{'scenario':24s} {'nadir Hz':>9s} {'settle s':>9s} {'det s':>7s} "
            f"{'recon s':>8s} {'share':>9s} {'jump deg':>9s} {'resid':>8s} {'wall s':>7s}"
        )
        print(header)
        print("-" * len(header))
    for path in sorted(SCENARIOS.glob("*.yaml")):
        cfg = load_config(path)
        out = out_root / cfg.name
        res = run(cfg, out)
        names.append(cfg.name)
        if args.sha256:
            hashes[cfg.name] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in COMPARED_FILES
            }
            continue
        m = res.metrics
        jumps = [
            t["phase_jump_deg"]
            for t in m["transitions"]
            if t["accepted"] and t["phase_jump_deg"] is not None
        ]
        print(
            f"{cfg.name:24s} {fmt(m['frequency_nadir_hz']):>9s} "
            f"{fmt(m['settling_time_s']):>9s} "
            f"{fmt(m['islanding_detection_latency_s']):>7s} "
            f"{fmt(m['reconnection_ready_t'], '.2f'):>8s} "
            f"{fmt(m['power_sharing_error'], '.1e'):>9s} "
            f"{fmt(max(jumps) if jumps else None, '.3f'):>9s} "
            f"{m['power_balance_max_residual']:8.1e} "
            f"{res.wall_time_s:7.1f}"
        )
    if args.sha256:
        print(json.dumps(hashes, indent=1, sort_keys=True))
    return compare(out_root, Path(args.compare), names) if args.compare else 0


def compare(out_root: Path, ref_root: Path, names: list[str]) -> int:
    """Print what differs between the outputs under ``out_root`` and
    ``ref_root``; 1 when a compared file or a metrics field differs or is
    missing."""
    differing = fields = 0
    for name in names:
        out, ref = out_root / name, ref_root / name
        for fname in COMPARED_FILES:
            new = (out / fname).read_bytes()
            old = (ref / fname).read_bytes() if (ref / fname).is_file() else None
            if new != old:
                print(f"differs: {name}/{fname}")
                differing += 1
                if fname == "timeseries.csv" and old is not None:
                    print(f"delta:   {name}/{fname}: {_csv_delta(old, new)}")
                if fname in DIFFED_FILES and old is not None:
                    sys.stdout.writelines(difflib.unified_diff(
                        old.decode().splitlines(keepends=True),
                        new.decode().splitlines(keepends=True),
                        str(ref / fname), str(out / fname), n=0,
                    ))
        deltas: dict[str, float] = {}
        if (ref / "metrics.json").is_file():
            _metric_deltas(
                json.loads((out / "metrics.json").read_text()),
                json.loads((ref / "metrics.json").read_text()),
                "", deltas,
            )
        else:
            deltas["metrics.json"] = math.inf
        for field, d in sorted(deltas.items()):
            print(f"metric:  {name} {field}: max |delta| {d:.3g}")
        fields += len(deltas)
    print(f"{differing} compared file(s) and {fields} metrics.json field(s) "
          f"differ from {ref_root}")
    return 1 if differing or fields else 0


def _csv_delta(old: bytes, new: bytes) -> str:
    """The largest |new - old| over the cells of two CSV files and its
    column (inf for a non-numeric change), or which of header and row count
    differs."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    if a[:1] != b[:1]:
        return "headers differ"
    if len(a) != len(b):
        return f"row counts differ ({len(a) - 1} -> {len(b) - 1})"
    columns = a[0].split(",")
    worst, column = 0.0, None
    for row_a, row_b in zip(a[1:], b[1:]):
        if row_a != row_b:
            for col, x, y in zip(columns, row_a.split(","), row_b.split(",")):
                if x != y:
                    try:
                        d = abs(float(y) - float(x))
                    except ValueError:
                        d = math.nan
                    if math.isnan(d):  # a non-numeric cell or a NaN
                        d = math.inf
                    if column is None or d > worst:
                        worst, column = d, col
    return f"max |delta| {worst:.3g} in column {column}"


def _metric_deltas(a, b, path: str, deltas: dict[str, float]) -> None:
    """Record in ``deltas`` the max |a - b| of each differing field under
    ``path``; list entries share their list's field name."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            if key != "wall_time_s":
                sub = f"{path}.{key}" if path else key
                _metric_deltas(a.get(key), b.get(key), sub, deltas)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _metric_deltas(x, y, f"{path}[]", deltas)
    elif a != b:
        numeric = all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)
        )
        d = abs(a - b) if numeric else math.inf
        deltas[path] = max(deltas.get(path, 0.0), d)


if __name__ == "__main__":
    sys.exit(main())
