"""``Network.solve`` and ``Network.power_balance_residual`` as they were
before the solve dropped its per-step comprehensions, reductions and
helper calls: the bodies word for word, as functions of the network
(``self``).  The solve's constant-power branch follows the closed-form
rule: the CP currents first, from the open-circuit voltages, then one
product; it is the library's branch word for word, with the closed form
for one CP bus and its collapse check.

Kept as the oracle the solve must match bit for bit, and the block
power-balance check within ``ROUNDING * power_balance_scale``
(``tests/test_network.py``, ``tests/test_runner.py``).  It reads the
network's per-topology cache, so it runs on any ``Network``; run it on a
second network built like the one under test, since a solve warm-starts
the next one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from dualpath.network import (
    CP_V_COLLAPSE,
    NetworkState,
    NonConvergenceError,
    _newton_cp_block,
)


@dataclass
class SolveReport:
    """The report as it was, with the residual reduced in the solve."""

    cp_iterations: int
    residual: float
    de_energized_with_load: list[list[str]]


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
    if self._cache_version != self._version:
        self._refresh_cache()
    c = self._cache
    y: np.ndarray = c["y"]
    yinv: np.ndarray = c["yinv"]
    n = c["n"]

    base = [0j] * n
    for src, k, _ in c["sources"]:
        base[k] += src.e / src.z_s
    for (k, _, z), e in zip(c["formers"], emfs):
        base[k] += e / z
    e_at = c["e_at"]
    for p, inj in injections:
        k = e_at[p]
        if k is not None:
            base[k] += inj

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
    for src, k, _ in c["sources"]:
        if src.e_neg != 0:
            i_neg = i_neg or [0j] * n
            i_neg[k] += src.e_neg / src.z_s
    v_neg = None if i_neg is None else self._on_buses(yinv @ np.array(i_neg, dtype=complex))

    v_full = self._on_buses(v)
    vl = v_full.tolist()
    former_currents = [(e - vl[p]) / z for (_, p, z), e in zip(c["formers"], emfs)]
    state = NetworkState(
        v_full, vl, v_neg, emfs, injections, former_currents, cp_currents
    )
    return state, SolveReport(iterations, residual, c["de_energized_with_load"])


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
    c = self._cache
    v = state.v_list
    s = 0j
    for src, _, p in c["sources"]:
        i = (src.e - v[p]) / src.z_s
        s += (src.e - src.z_s * i) * i.conjugate()
    for (_, _, z), e, i in zip(c["formers"], state.emfs, state.former_currents):
        s += (e - z * i) * i.conjugate()
    for p, inj in state.injections:
        s += v[p] * inj.conjugate()
    for (ld, _), i in zip(c["cp_slot"], state.cp_currents):
        s += v[self.bus_index[ld.bus]] * i.conjugate()
    for b, y_conj in c["z_loads"]:
        vb = v[b]
        s -= (vb.real * vb.real + vb.imag * vb.imag) * y_conj
    for p, q, y_conj in c["lines"]:
        s -= abs(v[p] - v[q]) ** 2 * y_conj
    return abs(s)


# |check - oracle| <= ROUNDING * power_balance_scale: both sum the same
# terms in float64, each rounded within a few eps of its size (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., section 4.2)
ROUNDING = 4 * np.finfo(float).eps


def power_balance_scale(self, state: NetworkState) -> float:
    """sum(|term|) over the terms ``power_balance_residual`` adds up for
    the solved state, the scale of the rounding in its sum."""
    c = self._cache
    v = state.v_list
    terms = []
    for src, _, p in c["sources"]:
        i = (src.e - v[p]) / src.z_s
        terms.append((src.e - src.z_s * i) * i.conjugate())
    for (_, _, z), e, i in zip(c["formers"], state.emfs, state.former_currents):
        terms.append((e - z * i) * i.conjugate())
    terms += [v[p] * inj.conjugate() for p, inj in state.injections]
    terms += [v[p] * i.conjugate() for p, i in zip(c["cp_pos"], state.cp_currents)]
    terms += [abs(v[b]) ** 2 * y_conj for b, y_conj in c["z_loads"]]
    terms += [abs(v[p] - v[q]) ** 2 * y_conj for p, q, y_conj in c["lines"]]
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
