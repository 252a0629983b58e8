"""Per-layer self time and counters, taken from outside the program.

``LayerTrace`` replaces each layer's entry points with timing wrappers for
the duration of a ``with`` block and puts the originals back on exit.  The
wrappers go where the runner looks the functions up: ``dualpath.runner``
imports ``pll_step``, ``droop_step``, ``validate_setpoint`` and the others by
name, so those names are replaced in ``dualpath.runner``; methods are
replaced on their classes; ``compute_metrics`` is replaced in
``dualpath.metrics`` because ``Simulation.run`` imports it at call time.

Every wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it called, so the self times of all spans inside
``Simulation.run`` add up to the duration of ``run`` itself.  Only sums are
kept (a traced ``testbed`` run makes about 1.5 million calls), not the spans.

Counters come from return values: ``SolveReport.cp_iterations`` and
``.residual``, the ``(ok, reason)`` of ``request_transition``, each
``GuardVerdict.accepted`` and the tripped flag of ``IslandingDetector.push``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import dualpath.metrics
import dualpath.runner
from dualpath.detect import IslandingDetector, ReconnectionMonitor
from dualpath.network import Network
from dualpath.runner import Simulation
from dualpath.supervisor import Supervisor

# span name -> (owner, attribute) pairs wrapped into it
SPANS = {
    "network.solve": [(Network, "solve")],
    "network.residual": [(Network, "power_balance_residual")],
    "network.refresh": [(Network, "_refresh_cache")],
    "pll.step": [(dualpath.runner, "pll_step")],
    "pll.gfl_refs": [
        (dualpath.runner, "current_refs_from_pq"),
        (dualpath.runner, "gfl_injection"),
    ],
    "droop.step": [
        (dualpath.runner, "power_filter_step"),
        (dualpath.runner, "droop_step"),
        (dualpath.runner, "restoration_step"),
        (dualpath.runner, "virtual_impedance_step"),
        (dualpath.runner, "black_start_ramp"),
    ],
    "supervisor.sync": [
        (Supervisor, "shadow_sync_step"),
        (dualpath.runner, "shadow_follow"),
    ],
    "detect.push": [(IslandingDetector, "push")],
    "detect.recon": [(ReconnectionMonitor, "update")],
    "guard.validate": [(dualpath.runner, "validate_setpoint")],
    "runner.step_inverter": [(Simulation, "_step_inverter")],
    "runner.island_freq": [(Simulation, "_island_frequencies")],
    "runner.initialize": [(Simulation, "_initialize")],
    "runner.run": [(Simulation, "run")],
    "metrics.compute": [(dualpath.metrics, "compute_metrics")],
}


class Tally:
    """Sums for one phase of one or more runs: self and inclusive time (ns)
    and calls per span, and the counters read from return values."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.cp_iters_max = 0
        self.residual_max = 0.0


class LayerTrace:
    """Wraps every span in ``SPANS`` while active; wrappers add into
    ``self.tally``, which the caller swaps to separate phases."""

    def __init__(self) -> None:
        self.tally = Tally()
        self._stack = [0]
        # last push result per detector (held, so no id is reused)
        self._tripped: dict[IslandingDetector, bool] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers --------------------------------

    def __enter__(self) -> "LayerTrace":
        after = {
            "network.solve": self._after_solve,
            "guard.validate": self._after_guard,
            "detect.push": self._after_push,
        }
        for name, targets in SPANS.items():
            for owner, attr in targets:
                wrapper = self._span(name, getattr(owner, attr), after.get(name))
                self._patch(owner, attr, wrapper)
        self._patch(
            Supervisor, "request_transition",
            self._counted(Supervisor.request_transition, self._after_request),
        )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn, after=None):
        clock = time.perf_counter_ns
        trace = self

        def wrapper(*args, **kwargs):
            stack = trace._stack
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                tally = trace.tally
                tally.self_ns[name] += elapsed - stack.pop()
                tally.total_ns[name] += elapsed
                tally.calls[name] += 1
                stack[-1] += elapsed
            if after is not None:
                after(args, out)
            return out

        return wrapper

    @staticmethod
    def _counted(fn, after):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, out)
            return out

        return wrapper

    # -- counters read from return values --------------------------------------

    def _after_solve(self, args, out) -> None:
        report, tally = out[1], self.tally
        tally.counts["cp_iters"] += report.cp_iterations
        tally.cp_iters_max = max(tally.cp_iters_max, report.cp_iterations)
        tally.residual_max = max(tally.residual_max, report.residual)

    def _after_guard(self, args, verdict) -> None:
        self.tally.counts["guard.accepted"] += verdict.accepted

    def _after_push(self, args, tripped: bool) -> None:
        det = args[0]
        if tripped and not self._tripped.get(det, False):
            self.tally.counts["detect.trips"] += 1
        self._tripped[det] = tripped

    def _after_request(self, args, out) -> None:
        self.tally.counts["transitions.requested"] += 1
        self.tally.counts["transitions.accepted"] += out[0]
