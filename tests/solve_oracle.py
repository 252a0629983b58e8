"""``Network.solve`` and ``Network.power_balance_residual`` as they were
before the solve dropped its per-step comprehensions, reductions and
helper calls, as functions of the network (``self``).  Word for word as
then: the constant-power branch (the CP currents first, from the
open-circuit voltages, then one product; the closed form for one CP bus
and its collapse check), the product with the inverse and its refinement
pass with the residual reduced in the solve, and the power balance as one
Python sum per state.  Since the network has one bus index, the parts that
read the network's topology (``Network.topology``) read its bus-position
layout: the sources, formers and injections add into a vector by bus
position (an injection on a dead bus skipped by its ``live`` flag), the
solved vectors are by bus position with no scatter, and a CP load's
position is its bus's.  The independent check of that layout on a dead bus
is ``test_network.py::test_solution_independent_of_bus_ordering``.  The
power balance builds its impedance-load and line terms from the network's
own loads and lines in service, not from the topology's power-balance
arrays, which it checks.

Kept as the oracle the solve must match bit for bit, and the block
power-balance check within ``ROUNDING * power_balance_scale``
(``tests/test_network.py``, ``tests/test_runner.py``).  It reads the
network's topology, so it runs on any ``Network``; run it on a second
network built like the one under test, since a solve warm-starts the next
one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from dualpath.network import (
    CP_V_COLLAPSE,
    OPEN,
    ConstantImpedanceLoad,
    NetworkState,
    NonConvergenceError,
    _newton_cp_block,
)


@dataclass
class SolveReport:
    """The report as it was, with the residual reduced in the solve."""

    cp_iterations: int
    residual: float


def solve(
    self,
    emfs: Sequence[complex] = (),
    injections: Sequence[tuple[int, complex]] = (),
) -> tuple[NetworkState, SolveReport]:
    """Solve the network; see module docstring for the device models.

    ``emfs`` are the formers' EMF phasors in ``set_formers`` order (grid
    sources supply their own), one per former or ValueError;
    ``injections`` are grid-following currents as ``(bus position,
    phasor)`` pairs (one on a dead bus flows nowhere).  Returns the state,
    holding the formers' currents in ``emfs`` order, and the report.
    """
    if len(emfs) != len(self.formers):
        raise ValueError(f"{len(emfs)} EMFs for {len(self.formers)} formers")
    c = self.topology()
    y: np.ndarray = c["y"]
    yinv: np.ndarray = c["yinv"]
    live = c["live"]
    n = len(live)

    base = [0j] * n
    for src, p in c["sources"]:
        base[p] += src.e / src.z_s
    for (p, z), e in zip(c["formers"], emfs):
        base[p] += e / z
    for p, inj in injections:
        if live[p]:
            base[p] += inj

    cp_currents: list[complex] = []
    iterations = 0
    residual = 0.0
    if c["cp_bus"]:
        # the CP loads' currents first, from the voltages w the rest of
        # the network gives their buses with them drawing nothing; they
        # then join the injections.  Setpoints are read every solve: a
        # load step on a CP load does not change the topology, so
        # nothing about them is cached
        cp_bus = c["cp_bus"]
        s = [0j] * len(cp_bus)
        for ld, j in c["cp_slot"]:
            s[j] += complex(ld.p, ld.q)
        w = []
        for row in c["yinv_cp"]:
            wk = 0j
            for a, b in zip(row, base):
                wk += a * b
            w.append(wk)
        if len(cp_bus) == 1:
            x_bus = [_cp_voltage(w[0], c["z_cp"], s[0])]
            iterations = 1
        else:
            w_c = np.array(w)
            x, iterations = _newton_cp_block(
                w_c, self._cp_start(w_c), c["z_cp"], np.array(s)
            )
            self._cp_warm = (x, w_c)
            x_bus = x.tolist()
        for ld, j in c["cp_slot"]:
            i_cp = -complex(ld.p, -ld.q) / x_bus[j].conjugate()
            cp_currents.append(i_cp)
            base[cp_bus[j]] += i_cp
    i_base = np.array(base, dtype=complex)
    v = yinv @ i_base
    if n:
        # one refinement pass; the pre-refinement residual bounds the
        # returned solution's residual from above
        r = i_base - y @ v
        residual = float(np.abs(r).max())
        v += yinv @ r

    # negative-sequence pass shares the same admittance matrix
    i_neg = None
    for src, p in c["sources"]:
        if src.e_neg != 0:
            i_neg = i_neg or [0j] * n
            i_neg[p] += src.e_neg / src.z_s
    v_neg = None if i_neg is None else yinv @ np.array(i_neg, dtype=complex)

    vl = v.tolist()
    former_currents = [(e - vl[p]) / z for (p, z), e in zip(c["formers"], emfs)]
    state = NetworkState(
        v, vl, v_neg, emfs, injections, former_currents, cp_currents
    )
    return state, SolveReport(iterations, residual)


def power_balance_residual(self, state: NetworkState) -> float:
    """|sum(sources) - sum(loads) - sum(losses)| for the solved state,
    from the inputs, voltages and currents it holds.

    Each voltage source delivers its EMF's power less the loss in its own
    impedance, ``(E - z I) conj(I)``, a grid source's ``I`` being
    ``(E - V) / z`` as in the solve; injections and constant-power loads
    are currents into their bus, ``V conj(I)``; impedance loads and lines
    dissipate ``|V|^2 conj(y)``, which for a line is its ``|I|^2 z`` with
    ``V`` the drop across it.  One Python pass over element lists built
    per topology, with no array operation.
    """
    c = self.topology()
    z_loads, lines = _dissipating(self, c["live"])
    v = state.v_list
    s = 0j
    for src, p in c["sources"]:
        i = (src.e - v[p]) / src.z_s
        s += (src.e - src.z_s * i) * i.conjugate()
    for (_, z), e, i in zip(c["formers"], state.emfs, state.former_currents):
        s += (e - z * i) * i.conjugate()
    for p, inj in state.injections:
        s += v[p] * inj.conjugate()
    for (ld, _), i in zip(c["cp_slot"], state.cp_currents):
        s += v[self.bus_index[ld.bus]] * i.conjugate()
    for b, y_conj in z_loads:
        vb = v[b]
        s -= (vb.real * vb.real + vb.imag * vb.imag) * y_conj
    for p, q, y_conj in lines:
        s -= abs(v[p] - v[q]) ** 2 * y_conj
    return abs(s)


def _dissipating(self, live: list[bool]) -> tuple[list, list]:
    """The network's impedance loads on a live bus, less any stepped to zero
    admittance, as ``(bus position, conj(y))``, and its lines in service on
    a live island as ``(from position, to position, conj(y))``, from its own
    elements."""
    pos = self.bus_index
    z_loads = [(pos[ld.bus], (1.0 / ld.z).conjugate()) for ld in self.loads.values()
               if isinstance(ld, ConstantImpedanceLoad) and live[pos[ld.bus]]
               and ld.z != OPEN]
    lines = [(pos[ln.from_bus], pos[ln.to_bus], (1.0 / ln.z).conjugate())
             for ln in self.effective_lines() if live[pos[ln.from_bus]]]
    return z_loads, lines


# |check - oracle| <= ROUNDING * power_balance_scale: both sum the same
# terms in float64, each rounded within a few eps of its size (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., section 4.2)
ROUNDING = 4 * np.finfo(float).eps


def power_balance_scale(self, state: NetworkState) -> float:
    """sum(|term|) over the terms ``power_balance_residual`` adds up for
    the solved state, the scale of the rounding in its sum."""
    c = self.topology()
    z_loads, lines = _dissipating(self, c["live"])
    v = state.v_list
    terms = []
    for src, p in c["sources"]:
        i = (src.e - v[p]) / src.z_s
        terms.append((src.e - src.z_s * i) * i.conjugate())
    for (_, z), e, i in zip(c["formers"], state.emfs, state.former_currents):
        terms.append((e - z * i) * i.conjugate())
    terms += [v[p] * inj.conjugate() for p, inj in state.injections]
    terms += [v[self.bus_index[ld.bus]] * i.conjugate()
              for (ld, _), i in zip(c["cp_slot"], state.cp_currents)]
    terms += [abs(v[b]) ** 2 * y_conj for b, y_conj in z_loads]
    terms += [abs(v[p] - v[q]) ** 2 * y_conj for p, q, y_conj in lines]
    return math.fsum(abs(t) for t in terms)


def _cp_voltage(w: complex, z: complex, s: complex) -> complex:
    """The voltage of a single constant-power bus, in closed form.

    Solves ``x = w - z * conj(s) / conj(x)``: ``w`` is the voltage the rest
    of the network gives the bus with the CP load removed, ``z`` the bus's
    own entry of the inverse admittance matrix and ``s`` the power the bus
    draws.  With ``c = conj(z) * s``, ``a = |x|^2`` solves
    ``a^2 - (|w|^2 - 2 Re c) a + |c|^2 = 0`` and ``x = (a + c) / conj(w)``;
    the upper root is the stable branch of the P-V curve.  No real positive
    root is the loadability abort; ``|w|`` or ``|x|`` below
    ``CP_V_COLLAPSE`` the collapse abort.
    """
    _check_collapse(abs(w))
    c = z.conjugate() * s
    b = w.real * w.real + w.imag * w.imag - 2.0 * c.real
    h = 2.0 * abs(c)
    d = (b - h) * (b + h)  # b^2 - 4 |c|^2
    if not (d >= 0.0 and b > 0.0):
        raise NonConvergenceError("constant-power load beyond the loadability limit (nose "
                                  f"of the P-V curve): |V|^2 discriminant {d:.3e}", 1)
    x = (0.5 * (b + math.sqrt(d)) + c) / w.conjugate()
    _check_collapse(abs(x))
    return x


def _check_collapse(v_min: float) -> None:
    if not v_min >= CP_V_COLLAPSE:
        raise NonConvergenceError(
            f"constant-power bus voltage collapsed to {v_min:.3e} pu: "
            "load beyond the loadability limit",
            1,
        )
