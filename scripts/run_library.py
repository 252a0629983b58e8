#!/usr/bin/env python3
"""Run the whole scenario library and print a one-line metric summary each.

Usage: python scripts/run_library.py [--out OUT_DIR] [--sha256]

With ``--sha256`` the summary is replaced by one JSON object that maps each
scenario to the sha256 of its ``timeseries.csv`` and ``events.csv`` (the
format of ``tests/data/library_sha256.json``).
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualpath.runner import run
from dualpath.scenario import load_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
OUTPUT_FILES = ("timeseries.csv", "events.csv")


def fmt(x, spec=".3f"):
    return "-" if x is None else format(x, spec)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument(
        "--sha256", action="store_true",
        help="print the sha256 of each scenario's timeseries.csv and events.csv",
    )
    args = ap.parse_args()
    if args.sha256:
        hashes = {}
        for path in sorted(SCENARIOS.glob("*.yaml")):
            cfg = load_config(path)
            out = Path(args.out) / cfg.name
            run(cfg, out)
            hashes[cfg.name] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in OUTPUT_FILES
            }
        print(json.dumps(hashes, indent=1, sort_keys=True))
        return

    header = (
        f"{'scenario':24s} {'nadir Hz':>9s} {'settle s':>9s} {'det s':>7s} "
        f"{'recon s':>8s} {'share':>9s} {'jump deg':>9s} {'resid':>8s} {'wall s':>7s}"
    )
    print(header)
    print("-" * len(header))
    for path in sorted(SCENARIOS.glob("*.yaml")):
        cfg = load_config(path)
        res = run(cfg, Path(args.out) / cfg.name)
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


if __name__ == "__main__":
    main()
