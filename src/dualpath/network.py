"""Quasi-static phasor model of the microgrid.

Buses, lines, breakers, loads and voltage sources are solved algebraically at
every control step.  Voltage sources (the utility "grid emulator" and
grid-forming inverters) are folded in as Norton equivalents; grid-following
inverters enter as current injections; constant-power loads enter first,
as currents into the buses that carry them: one such bus solved in closed
form, two or more by Newton-Raphson on their voltages, warm-started from the
previous step.  A constant-power demand beyond what the network can deliver
(past the nose of the P-V curve) aborts the solve with a NonConvergenceError
that names the loadability limit.

All impedances and powers here are in system per-unit.  Phasors live in a
common reference frame rotating at the nominal frequency; off-nominal
frequencies show up as slow rotation of source EMF phasors.

An open breaker removes every line between its bus pair (the breaker is in
series with those lines).  Islands without any voltage source are reported as
de-energized and their buses held at zero volts; this is a normal state (it is
how blackout and black-start scenarios begin), not an abort.  Every vector and
matrix is indexed by bus position (``Network.bus_index``): the admittance
matrix leaves out a dead island's lines and loads, so a dead bus has a zero
row, and its inverse inverts only the live buses' block, so a dead bus's row
and column of it are zero and the bus solves to 0 V.  What depends on the
topology is one object, built in one pass, compared by identity
(``Network.topology``).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .frames import TWO_PI


class UnknownElementError(KeyError):
    """An event referenced a network element that does not exist."""


class NonConvergenceError(RuntimeError):
    """The network has no usable solution.  Either the constant-power bus
    voltages have none, at or beyond the loadability limit: with one CP bus,
    raised after one evaluation when the P-V quadratic has no positive root
    or a voltage is below ``CP_V_COLLAPSE``; with more, when Newton's
    Jacobian goes singular, a voltage collapses or ``CP_MAX_ITERS`` steps run
    out.  Or a topology refresh finds the admittance matrix or its inverse
    with a non-finite entry (say, a line of subnormal impedance), or the
    matrix singular."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


CP_MAX_ITERS = 50
CP_TOL = 1e-10
CP_V_COLLAPSE = 1e-3  # pu; a CP-bus voltage below this is a collapse
CP_DET_MIN = 1e-12  # Newton Jacobian determinant treated as singular
OPEN = complex(math.inf)  # impedance of a load stepped to zero admittance


@dataclass(slots=True)
class Line:
    from_bus: str
    to_bus: str
    r: float = 0.0
    x: float = 0.0

    def __post_init__(self) -> None:
        if self.from_bus == self.to_bus:
            raise ValueError(f"line endpoints must differ ({self.from_bus})")
        if self.r < 0:
            raise ValueError("line resistance must be >= 0")
        if self.r == 0 and self.x == 0:
            raise ValueError("line impedance must be nonzero")

    @property
    def z(self) -> complex:
        return complex(self.r, self.x)


@dataclass(slots=True)
class Breaker:
    id: str
    from_bus: str
    to_bus: str
    closed: bool = True


@dataclass(slots=True)
class GridSource:
    """Utility source: EMF behind a source impedance, at a set frequency."""

    id: str
    bus: str
    e: complex
    z_s: complex
    f_grid: float | None = None  # Hz; None: set from base.f_nom by parsing
    rating: float = 30000.0
    e_neg: complex = 0.0

    def __post_init__(self) -> None:
        if self.rating <= 0:
            raise ValueError("source rating must be positive")
        if abs(self.e) > 1.2:
            raise ValueError("source EMF magnitude outside [0, 1.2] pu")
        if self.z_s == 0:
            raise ValueError("source impedance must be nonzero")


@dataclass(slots=True)
class ConstantImpedanceLoad:
    id: str
    bus: str
    z: complex

    def __post_init__(self) -> None:
        if self.z == 0:
            raise ValueError("constant-impedance load must have z != 0")


@dataclass(slots=True)
class ConstantPowerLoad:
    id: str
    bus: str
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("constant-power load must be finite")


Load = ConstantImpedanceLoad | ConstantPowerLoad


def build_ybus(buses: list[str], lines: list[Line]) -> np.ndarray:
    """Nodal admittance matrix of ``lines`` over ``buses`` (no shunt elements).

    Every line must join two of ``buses``; pass ``Network.effective_lines()``
    to leave out the lines behind open breakers.  Isolated buses produce a
    zero row; callers decide how to treat them.
    """
    idx = {b: i for i, b in enumerate(buses)}
    n = len(buses)
    y = np.zeros((n, n), dtype=complex)
    for ln in lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        yl = 1.0 / ln.z
        y[i, i] += yl
        y[j, j] += yl
        y[i, j] -= yl
        y[j, i] -= yl
    return y


@dataclass(slots=True)
class SolveReport:
    """One solve's CP-load evaluations and its KCL mismatch ``i - Y v``
    before the refinement pass (one entry per bus, by bus position, 0 on a
    dead bus).  The dead islands that carry load are a fact of the topology
    (``Network.topology``)."""

    cp_iterations: int
    mismatch: np.ndarray

    @property
    def residual(self) -> float:
        """max |mismatch|, which bounds the refined solution's; NaN if any
        entry is NaN, 0.0 with no live bus.  Reduced when read."""
        return float(np.abs(self.mismatch).max(initial=0.0))


@dataclass(slots=True)
class NetworkState:
    """One solve: its inputs, the bus voltages by bus position (zero on dead
    buses; ``v_list`` is ``v_pos`` as Python complexes), the formers' currents
    in ``emfs`` order and the live constant-power loads' in
    ``Network.loads`` order, the grid sources' EMFs and the topology
    (``Network.topology``) it was solved with.  Grid-source and line
    currents follow from ``v``."""

    v_pos: np.ndarray
    v_list: list[complex]
    v_neg: np.ndarray | None  # None without negative-sequence sources
    emfs: Sequence[complex]
    injections: Sequence[tuple[int, complex]]
    former_currents: list[complex]
    cp_currents: list[complex]
    source_emfs: Sequence[complex] = ()
    topology: dict | None = None


class StateBlock:
    """Solved states as the power-balance check reads them: each state's bus
    voltages and number of injections; of all states end to end, the EMFs
    of the grid sources then formers (whose currents the check recomputes),
    the injections' bus positions and currents and the CP loads' currents;
    and in ``groups`` the first state of each topology, with the topology."""

    def __init__(self):
        self.v: list[np.ndarray] | np.ndarray = []
        self.emfs, self.n_inj, self.inj_pos, self.inj_val, self.cp_currents = [], [], [], [], []
        self.groups: list[tuple[int, dict]] = []

    def append(self, state: NetworkState) -> None:
        if not self.groups or state.topology is not self.groups[-1][1]:
            self.groups.append((len(self.v), state.topology))
        self.v.append(state.v_pos)
        self.emfs += state.source_emfs
        self.emfs += state.emfs
        self.n_inj.append(len(state.injections))
        for p, i in state.injections:
            self.inj_pos.append(p)
            self.inj_val.append(i)
        self.cp_currents += state.cp_currents

    def voltages(self) -> np.ndarray:
        """The bus voltages as a (state, bus) array, which replaces the rows
        held (so that they are not held twice); no state is added after."""
        if isinstance(self.v, list):  # (bytes.join copies the rows fastest)
            self.v = np.frombuffer(b"".join(self.v), complex).reshape(len(self.v), -1)
        return self.v


class Network:
    """Mutable microgrid model solved once per control step."""

    def __init__(
        self,
        buses: list[str],
        lines: list[Line],
        breakers: list[Breaker] = (),
        grid_sources: list[GridSource] = (),
        loads: list[Load] = (),
    ):
        if len(set(buses)) != len(buses):
            raise ValueError("duplicate bus ids")
        self.buses = list(buses)
        self.bus_index = {b: i for i, b in enumerate(self.buses)}
        for ln in lines:
            self._check_bus(ln.from_bus)
            self._check_bus(ln.to_bus)
        for br in breakers:
            self._check_bus(br.from_bus)
            self._check_bus(br.to_bus)
        self.lines = list(lines)
        self.breakers = {br.id: br for br in breakers}
        self.grid_sources = {}
        for src in grid_sources:
            self._check_bus(src.bus)
            self.grid_sources[src.id] = src
        self.loads = {}
        for ld in loads:
            self._check_bus(ld.bus)
            self.loads[ld.id] = ld
        # grid-forming couplings, (bus, z) in the order solve takes the EMFs
        self.formers: list[tuple[str, complex]] = []
        # the topology (see ``topology``); None until read after a change
        self._cache: dict | None = None
        # (CP-bus voltages, their open-circuit voltages) of the last solve
        # with two or more CP buses
        self._cp_warm: tuple | None = None

    def _check_bus(self, bus: str) -> None:
        if bus not in self.bus_index:
            raise UnknownElementError(f"unknown bus {bus!r}")

    # -- mutation ----------------------------------------------------------

    def set_formers(self, formers: list[tuple[str, complex]]) -> None:
        """Set the grid-forming couplings, ``(bus, impedance)`` each; the
        topology is dropped only when they change.  A zero impedance raises
        ZeroDivisionError when the topology is next rebuilt."""
        if formers != self.formers:
            for bus, _ in formers:
                self._check_bus(bus)
            self.formers = formers
            self._cache = None

    def _element(self, table: dict, kind: str, element_id: str):
        """The element ``element_id`` of ``table``, which holds ``kind``s."""
        if element_id not in table:
            raise UnknownElementError(f"unknown {kind} {element_id!r}")
        return table[element_id]

    def set_breaker(self, breaker_id: str, closed: bool) -> None:
        br = self._element(self.breakers, "breaker", breaker_id)
        if br.closed != closed:
            br.closed = closed
            self._cache = None

    def step_load(self, load_id: str, dp: float, dq: float) -> None:
        ld = self._element(self.loads, "load", load_id)
        if isinstance(ld, ConstantPowerLoad):
            ld.p += dp
            ld.q += dq
        else:
            # add a parallel admittance drawing (dp, dq) at 1 pu voltage; at
            # zero admittance the load is an open circuit
            y_new = 1.0 / ld.z + complex(dp, -dq)
            ld.z = 1.0 / y_new if y_new != 0 else OPEN
            self._cache = None

    def set_source_freq(self, source_id: str, f: float) -> None:
        src = self._element(self.grid_sources, "grid source", source_id)
        src.f_grid = f

    def set_source_unbalance(self, source_id: str, mag: float, angle: float) -> None:
        src = self._element(self.grid_sources, "grid source", source_id)
        src.e_neg = mag * cmath.exp(1j * angle)

    def advance_sources(self, dt: float, f_nom: float) -> None:
        """Rotate source EMFs by their off-nominal frequency for one step."""
        for src in self.grid_sources.values():
            df = src.f_grid - f_nom
            if df != 0.0:
                rot = cmath.exp(1j * TWO_PI * df * dt)
                src.e *= rot
                src.e_neg *= rot

    # -- topology ----------------------------------------------------------

    def effective_lines(self) -> list[Line]:
        """Lines in service: an open breaker removes every line between its
        bus pair."""
        open_pairs = {
            frozenset((br.from_bus, br.to_bus))
            for br in self.breakers.values()
            if not br.closed
        }
        return [
            ln
            for ln in self.lines
            if frozenset((ln.from_bus, ln.to_bus)) not in open_pairs
        ]

    def islands(self, lines: list[Line]) -> list[list[str]]:
        """Connected components of the bus graph joined by ``lines``."""
        parent = list(range(len(self.buses)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for ln in lines:
            a = find(self.bus_index[ln.from_bus])
            b = find(self.bus_index[ln.to_bus])
            if a != b:
                parent[a] = b
        groups: dict[int, list[str]] = {}
        for i, bus in enumerate(self.buses):
            groups.setdefault(find(i), []).append(bus)
        return list(groups.values())

    def topology(self) -> dict:
        """The per-topology cache, rebuilt on the first read after a change
        (a failed rebuild raises NonConvergenceError again on the next
        read).  It holds ``islands``, each bus's island index ``island_at``
        and ``live`` flag (its island holds a voltage source) by bus
        position, and ``de_energized_with_load``, the dead loaded islands."""
        if self._cache is None:
            self._refresh_cache()
        return self._cache

    # -- solve -------------------------------------------------------------

    def _refresh_cache(self) -> None:
        eff_lines = self.effective_lines()
        islands = self.islands(eff_lines)
        pos = self.bus_index
        source_buses = {src.bus for src in self.grid_sources.values()}
        source_buses.update(bus for bus, _ in self.formers)
        loaded = {ld.bus for ld in self.loads.values()}
        dead_loaded: list[list[str]] = []  # islands with a load but no source
        island_at = [0] * len(self.buses)
        live = [False] * len(self.buses)
        for k, isl in enumerate(islands):
            has_src = any(b in source_buses for b in isl)
            for b in isl:
                island_at[pos[b]], live[pos[b]] = k, has_src
            if not has_src and any(b in loaded for b in isl):
                dead_loaded.append(isl)
        live_pos = [p for p, is_live in enumerate(live) if is_live]

        # a line lies inside one island, so both or neither end is live
        live_lines = [ln for ln in eff_lines if live[pos[ln.from_bus]]]
        y = build_ybus(self.buses, live_lines)
        # Norton sources: (source, bus position), and (bus position,
        # coupling) per former; all voltage sources as (position, impedance)
        sources = [(src, pos[src.bus]) for src in self.grid_sources.values()]
        formers = [(pos[b], z) for b, z in self.formers]
        vs = [(p, src.z_s) for src, p in sources] + formers
        # a load stepped to zero admittance draws nothing and drops out
        z_loads = [ld for ld in self.loads.values() if isinstance(ld, ConstantImpedanceLoad)
                   and live[pos[ld.bus]] and ld.z != OPEN]
        for p, z in vs + [(pos[ld.bus], ld.z) for ld in z_loads]:
            y[p, p] += 1.0 / z
        if not np.isfinite(y).all():
            raise NonConvergenceError("admittance matrix has a non-finite entry")
        # the live block inverted; a dead bus's zero row and column stay
        # zero, so it solves to 0 V
        yinv = np.zeros_like(y)
        try:
            yinv[np.ix_(live_pos, live_pos)] = np.linalg.inv(y[np.ix_(live_pos, live_pos)])
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"admittance matrix not invertible: {exc}") from None
        if not np.isfinite(yinv).all():
            raise NonConvergenceError("inverse admittance matrix has a non-finite entry")

        # constant-power loads: the solve works on the voltages of the buses
        # that carry them (loads sharing a bus are summed)
        cp_loads = [
            ld
            for ld in self.loads.values()
            if isinstance(ld, ConstantPowerLoad) and live[pos[ld.bus]]
        ]
        cp_pos = [pos[ld.bus] for ld in cp_loads]
        cp_bus = list(dict.fromkeys(cp_pos))
        cp_slot = [(ld, cp_bus.index(p)) for ld, p in zip(cp_loads, cp_pos)]

        self._cache = {
            "islands": islands,
            "island_at": island_at,
            "live": live,
            "sources": sources,
            "formers": formers,
            "y": y,
            "yinv": yinv,
            "cp_bus": cp_bus,  # the live CP buses' positions
            "cp_slot": cp_slot,
            # the CP buses' block of the inverse admittance matrix (one CP
            # bus: its entry as a Python complex) and their rows as lists
            "z_cp": (complex(yinv[cp_bus[0], cp_bus[0]]) if len(cp_bus) == 1
                     else yinv[np.ix_(cp_bus, cp_bus)]),
            "yinv_cp": yinv[cp_bus].tolist(),
            "de_energized_with_load": dead_loaded,
            # the terms as the power-balance check reads them: the voltage
            # sources' positions and impedances, the CP loads' positions (per
            # load), the impedance loads' positions, the lines' ends, and the
            # impedance loads' then lines' conj(y)
            "balance": (
                np.array([p for p, _ in vs], np.intp), np.array([z for _, z in vs], complex),
                np.array(cp_pos, np.intp), np.array([pos[ld.bus] for ld in z_loads], np.intp),
                np.array([pos[ln.from_bus] for ln in live_lines], np.intp),
                np.array([pos[ln.to_bus] for ln in live_lines], np.intp),
                np.array([(1.0 / e.z).conjugate() for e in z_loads + live_lines], complex),
            ),
        }
        self._cp_warm = None

    def _cp_start(self, w_c):
        """The block Newton's starting CP-bus voltages for open-circuit
        voltages ``w_c``: the last solve's voltages, carried along with the
        change in the open-circuit voltage (sources rotate a little every
        step in an island off nominal frequency); ``w_c`` itself after a
        topology change.
        """
        if self._cp_warm is None:
            return w_c
        x_prev, w_prev = self._cp_warm
        return x_prev * (w_c / w_prev)

    def solve(
        self,
        emfs: Sequence[complex] = (),
        injections: Sequence[tuple[int, complex]] = (),
    ) -> tuple[NetworkState, SolveReport]:
        """Solve the network; see module docstring for the device models.

        ``emfs`` are the formers' EMF phasors in ``set_formers`` order (grid
        sources supply their own), one per former or ValueError;
        ``injections`` are grid-following currents as ``(bus position,
        phasor)`` pairs (one on a dead bus flows nowhere and moves no bit).
        Every vector is by bus position; with finite inputs a dead bus
        solves to exactly 0 V with a mismatch of exactly 0.  Solves on
        ``topology()``, rebuilt first after a change.  Returns the state,
        holding the formers' currents in ``emfs`` order and that topology,
        and the report.  The report carries the KCL mismatch unreduced: the
        runner folds its worst |entry| into ``solver.residual_max`` once per
        record block.
        """
        if len(emfs) != len(self.formers):
            raise ValueError(f"{len(emfs)} EMFs for {len(self.formers)} formers")
        c = self._cache or self.topology()
        y: np.ndarray = c["y"]
        yinv: np.ndarray = c["yinv"]

        # plain loops: a comprehension is a function call per solve.  Python
        # arithmetic differs from BLAS products and NumPy's complex ufuncs
        # in the last bits, and the outputs are pinned to the bit: the CP
        # buses' open-circuit voltages are Python sums, the rest NumPy calls
        live = c["live"]
        base = [0j] * len(live)
        source_emfs = []
        for src, p in c["sources"]:
            source_emfs.append(src.e)
            base[p] += src.e / src.z_s
        for (p, z), e in zip(c["formers"], emfs):
            base[p] += e / z
        for p, inj in injections:
            if live[p]:
                base[p] += inj

        cp_currents: list[complex] = []
        iterations = 0
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
        # one refinement pass; the mismatch before it bounds the returned
        # solution's from above
        r = i_base - y @ v
        v += yinv @ r

        # negative-sequence pass shares the same admittance matrix
        i_neg = None
        for src, p in c["sources"]:
            if src.e_neg != 0:
                i_neg = i_neg or [0j] * len(live)
                i_neg[p] += src.e_neg / src.z_s
        v_neg = None if i_neg is None else yinv @ np.array(i_neg, dtype=complex)

        vl = v.tolist()
        former_currents = []
        for (p, z), e in zip(c["formers"], emfs):
            former_currents.append((e - vl[p]) / z)
        state = NetworkState(
            v, vl, v_neg, emfs, injections, former_currents, cp_currents,
            source_emfs, c,
        )
        return state, SolveReport(iterations, r)

    def power_balance_residual(self, held: StateBlock) -> np.ndarray:
        """|sum(sources) - sum(loads) - sum(losses)| of each state in
        ``held``, from its inputs and the topology it was solved with.

        Each voltage source delivers its EMF's power less the loss in its
        own impedance, ``(E - z I) conj(I)`` with ``I = (E - V) / z`` as in
        the solve; injections and constant-power loads are currents into
        their bus, ``V conj(I)``; impedance loads and lines dissipate
        ``|V|^2 conj(y)``, ``V`` being a line's drop.  The states of a
        topology are summed at once in NumPy complex arithmetic, so each
        residual equals the per-state Python sum within a few
        eps * sum(|term|).  NaN gives NaN and overflow inf, unwarned."""
        if not held.groups:
            return np.empty(0)
        out = np.zeros(len(held.v), complex)
        ends = [a for a, _ in held.groups[1:]] + [len(held.v)]
        v = held.voltages()
        e0 = c0 = 0
        with np.errstate(all="ignore"):
            for (a, c), b in zip(held.groups, ends):
                vs_pos, z, cp_pos, zl_pos, ln_from, ln_to, y = c["balance"]
                n, vg = b - a, v[a:b]
                e1, c1 = e0 + n * len(z), c0 + n * len(cp_pos)
                e = np.array(held.emfs[e0:e1], complex).reshape(n, len(z))
                i = (e - vg[:, vs_pos]) / z
                s = ((e - z * i) * i.conj()).sum(axis=1)
                i = np.array(held.cp_currents[c0:c1], complex).reshape(n, len(cp_pos))
                s += (vg[:, cp_pos] * i.conj()).sum(axis=1)
                d = np.concatenate((vg[:, zl_pos], vg[:, ln_from] - vg[:, ln_to]), axis=1)
                d *= d.conj()  # |V|^2, in place
                out[a:b] = s - (d * y).sum(axis=1)
                e0, c0 = e1, c1
            step = np.repeat(np.arange(len(held.v)), held.n_inj)
            np.add.at(out, step, v[step, held.inj_pos] * np.conj(held.inj_val))
        return np.abs(out)


def _cp_voltage(w: complex, z: complex, s: complex) -> complex:
    """The voltage of a single constant-power bus, in closed form.

    Solves ``x = w - z * conj(s) / conj(x)``: ``w`` is the voltage the rest
    of the network gives the bus with the CP load removed, ``z`` the bus's
    own entry of the inverse admittance matrix and ``s`` the power the bus
    draws.  With ``c = conj(z) * s``, ``a = |x|^2`` solves
    ``a^2 - (|w|^2 - 2 Re c) a + |c|^2 = 0`` and ``x = (a + c) / conj(w)``;
    the upper root is the stable branch of the P-V curve (Van Cutsem &
    Vournas, Voltage Stability of Electric Power Systems, 1998, ch. 2).  No
    real positive root is the loadability abort; ``|w|`` or ``|x|`` below
    ``CP_V_COLLAPSE`` the collapse abort.
    """
    if not abs(w) >= CP_V_COLLAPSE:
        raise _collapsed(abs(w), 1)
    c = z.conjugate() * s
    b = w.real * w.real + w.imag * w.imag - 2.0 * c.real
    h = 2.0 * abs(c)
    d = (b - h) * (b + h)  # b^2 - 4 |c|^2
    if not (d >= 0.0 and b > 0.0):
        raise NonConvergenceError("constant-power load beyond the loadability limit (nose "
                                  f"of the P-V curve): |V|^2 discriminant {d:.3e}", 1)
    x = (0.5 * (b + math.sqrt(d)) + c) / w.conjugate()
    if not abs(x) >= CP_V_COLLAPSE:
        raise _collapsed(abs(x), 1)
    return x


def _newton_cp_block(
    w: np.ndarray, x: np.ndarray, z: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, int]:
    """Newton-Raphson on the voltages of m > 1 constant-power buses.

    Solves ``F(x) = x - w + z @ (conj(s) / conj(x)) = 0`` (``_cp_voltage``
    with ``z`` the CP buses' m x m block of the inverse admittance matrix)
    from the voltages ``x``.  The CP currents are not holomorphic, so each
    step solves ``d + beta @ conj(d) = g``, ``g = -F``, ``beta[i, j] =
    -z[i, j] conj(s[j]) / conj(x[j])**2`` (Tinney & Hart 1967), as the real
    2m x 2m system ``[[I + Re beta, Im beta], [Im beta, I - Re beta]] [Re d;
    Im d] = [Re g; Im g]``, until ``max |F| <= CP_TOL`` (pu volts); returns
    the voltages and the number of evaluations of ``F``.
    """
    m = len(x)
    sb = np.conj(s)
    eye = np.eye(m)
    for it in range(1, CP_MAX_ITERS + 1):
        v_min = float(np.min(np.abs(x)))
        if not v_min >= CP_V_COLLAPSE:
            raise _collapsed(v_min, it)
        xb = np.conj(x)
        u = sb / xb
        g = w - x - z @ u
        if float(np.max(np.abs(g))) <= CP_TOL:
            return x, it
        beta = -z * (u / xb)
        jac = np.block([[eye + beta.real, beta.imag], [beta.imag, eye - beta.real]])
        det = float(np.linalg.det(jac))
        if not det > CP_DET_MIN:
            raise _singular(det, it)
        step = np.linalg.solve(jac, np.concatenate((g.real, g.imag)))
        x = x + (step[:m] + 1j * step[m:])
    raise _not_converged(float(np.max(np.abs(g))))


def _not_converged(last_mismatch: float) -> NonConvergenceError:
    return NonConvergenceError(
        "Newton on the constant-power bus voltages did not converge in "
        f"{CP_MAX_ITERS} iterations (last |F|={last_mismatch:.3e} pu): "
        "load beyond the loadability limit",
        CP_MAX_ITERS,
    )


def _collapsed(v_min: float, it: int) -> NonConvergenceError:
    return NonConvergenceError(
        f"constant-power bus voltage collapsed to {v_min:.3e} pu: "
        "load beyond the loadability limit",
        it,
    )


def _singular(det: float, it: int) -> NonConvergenceError:
    return NonConvergenceError(
        f"Newton Jacobian singular (det={det:.3e}): constant-power load "
        "at or beyond the loadability limit (nose of the P-V curve)",
        it,
    )

