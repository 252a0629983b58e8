#!/usr/bin/env python3
"""Run every benchmark workload, untraced and traced, and print one table.

    python3 bench/suite.py [--seeds 0 7] [--seconds 30] [--save FILE]

Each workload and trace setting runs in its own ``run.py`` process, one
after another, so ``peak_rss_mb`` is the peak of a process that ran only
that workload.  ``--save`` writes every result to FILE as JSON (this is how
``baseline.json`` was made).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print(lines[0], flush=True)  # units run, traced and untraced
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[DEFAULT_SEED, HELD_OUT_SEED])
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--save", type=Path, default=None)
    args = ap.parse_args()

    results: dict = {}
    for seed in args.seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                res = run_one(workload, seed, args.seconds, trace)
                results.setdefault(str(seed), {}).setdefault(workload, {})[f"trace{trace}"] = res

    for seed, by_workload in results.items():
        print(f"\nseed {seed}")
        print(f"{'metric':36s}" + "".join(f"{w:>14s}" for w in WORKLOADS) + "  unit")
        names = {}
        for trace in ("trace0", "trace1"):
            for res in by_workload.values():
                for name, m in res[trace]["metrics"].items():
                    names.setdefault(name, m["unit"])
        for name, unit in names.items():
            row = []
            for w in WORKLOADS:
                m = by_workload[w]["trace0"]["metrics"].get(name) or by_workload[w]["trace1"]["metrics"][name]
                row.append(f"{m['value']:14.6g}")
            print(f"{name:36s}" + "".join(row) + f"  {unit}")
        for trace in ("trace0", "trace1"):
            row = []
            for w in WORKLOADS:
                res = by_workload[w][trace]
                row.append(f"{res['failed'] / res['attempted']:14.6g}")
            print(f"{'fail_ratio (' + trace + ')':36s}" + "".join(row) + "  ratio")

    if args.save:
        import numpy

        args.save.write_text(json.dumps({
            "host": {
                "machine": platform.machine(),
                "cpu": _cpu_model(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "seconds": args.seconds,
            "results": results,
        }, indent=1) + "\n")
    return 0


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
