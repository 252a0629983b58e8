"""Command-line entry point.

    dualpath run <config.yaml> [--out DIR] [--decimate N] [--seed S]
    dualpath batch <dir> [--out DIR] [--workers N]
    dualpath validate <config.yaml>

Exit codes: 0 success, 1 validation failure, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .runner import run
from .scenario import (ParseError, ScenarioConfig, ValidationError, load_config,
                       run_setting_problems)


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.decimate is not None:
            cfg.output.decimate = args.decimate
        if args.seed is not None:
            cfg.seed = args.seed
        problems = run_setting_problems(cfg)
        if problems:
            raise ValidationError(problems)
    except (ParseError, ValidationError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path("out") / cfg.name
    result = run(cfg, out_dir)
    status = "ABORTED" if result.aborted else "ok"
    print(
        f"{cfg.name}: {status}  t_end={result.t[-1] if result.t.size else 0:.3f}s "
        f"steps={result.t.size}  wall={result.wall_time_s:.2f}s  -> {out_dir}"
    )
    if result.aborted:
        print(result.abort_reason, file=sys.stderr)
        return 2
    return 0


def _run_one(task: tuple[ScenarioConfig, str]) -> tuple[str, int]:
    cfg, out_root = task
    result = run(cfg, Path(out_root) / cfg.name)
    return cfg.name, 2 if result.aborted else 0


def _cmd_batch(args) -> int:
    if args.workers < 1:
        print(f"--workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 1
    paths = sorted(Path(args.dir).glob("*.yaml"))
    if not paths:
        print(f"no *.yaml scenarios in {args.dir}", file=sys.stderr)
        return 1
    out_root = args.out or "out"
    # parse and validate everything up front so a typo fails fast; the
    # workers run the parsed configs
    rc, tasks = 0, []
    for p in paths:
        try:
            tasks.append((load_config(p), out_root))
        except (ParseError, ValidationError) as exc:
            print(f"{p.name}: invalid: {exc}", file=sys.stderr)
            rc = 1
    if rc:
        return rc
    # a pool forks all its workers up front: no more than there are
    # scenarios to run or cores to run them on
    workers = min(args.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]
    for name, code in results:
        print(f"{name}: {'ok' if code == 0 else 'ABORTED'}")
        rc = max(rc, code)
    return rc


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(
        f"{cfg.name}: valid  ({len(cfg.buses)} buses, {len(cfg.inverters)} "
        f"inverters, {len(cfg.events)} events, dt={cfg.dt}, t_end={cfg.t_end})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualpath",
        description="dual-path universal inverter microgrid simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--decimate", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run every scenario in a directory")
    p_batch.add_argument("dir")
    p_batch.add_argument("--out", default=None)
    p_batch.add_argument("--workers", type=int, default=1)
    p_batch.set_defaults(func=_cmd_batch)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
