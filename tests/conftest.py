import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import settings

# every run of the suite draws the same examples (seeded from each test),
# so two runs differ only by the code under test; @settings keep their
# example counts and the strategies are unchanged
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dualpath.frames import steps  # noqa: E402
from dualpath.runner import run  # noqa: E402
from dualpath.scenario import load_config  # noqa: E402

SCENARIOS = SRC.parent / "scenarios"

# the scenario library that the acceptance suite reads (``library`` fixture);
# ``canonical_testbed`` also runs twice for the ``canonical`` fixture
LIBRARY = [
    "flat_equilibrium",
    "grid_pq_tracking",
    "islanding_restoration",
    "islanding_collapse",
    "sharing_droop",
    "sharing_restoration",
    "reconnection",
    "blackstart",
    "pulse_plugin",
    "unbalanced_grid",
    "setpoint_barrage",
    "load_steps_grid",
]

# the pool and each submitted run's (name, future)
LIBRARY_RUNS = pytest.StashKey[tuple]()


def _run_cost(cfg):
    """Expected run time: control steps times (units + 1, for the solve)."""
    return steps(cfg.t_end, cfg.dt) * (len(cfg.inverters) + 1)


def start_library_runs(with_library):
    """Start the canonical testbed twice and, if ``with_library``, every
    library scenario once, on two worker processes (one on a one-core
    host), the longest first; returns the pool and each run's future."""
    names = ["canonical_testbed"] * 2 + (LIBRARY if with_library else [])
    cfgs = sorted(
        ((name, load_config(SCENARIOS / f"{name}.yaml")) for name in names),
        key=lambda nc: _run_cost(nc[1]), reverse=True,
    )
    pool = ProcessPoolExecutor(
        max_workers=min(2, os.cpu_count() or 1),
        mp_context=multiprocessing.get_context("spawn"),
    )
    return pool, [(name, pool.submit(run, cfg)) for name, cfg in cfgs]


@pytest.hookimpl(trylast=True)  # after -k and -m have deselected
def pytest_collection_modifyitems(config, items):
    """Start the library runs that the selected tests read when collection
    ends, and run those tests last, so that the rest of the suite runs in
    this process while worker processes run the library."""
    readers = [item for item in items if "library_runs" in item.fixturenames]
    if readers and not config.option.collectonly:
        ids = set(map(id, readers))
        items[:] = [item for item in items if id(item) not in ids] + readers
        with_library = any("library" in item.fixturenames for item in readers)
        config.stash[LIBRARY_RUNS] = start_library_runs(with_library)


def pytest_sessionfinish(session):
    started = session.config.stash.get(LIBRARY_RUNS, None)
    if started is not None:
        started[0].shutdown(cancel_futures=True)


@pytest.fixture(scope="session")
def library_runs(request):
    return request.config.stash[LIBRARY_RUNS]
