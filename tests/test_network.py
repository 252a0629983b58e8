import cmath
import copy
import math
import warnings

import numpy as np
import pytest
import solve_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualpath.network import (
    CP_V_COLLAPSE,
    Breaker,
    ConstantImpedanceLoad,
    ConstantPowerLoad,
    GridSource,
    Line,
    Network,
    NonConvergenceError,
    StateBlock,
    UnknownElementError,
    build_ybus,
)


def block_of(*states):
    """A ``StateBlock`` holding ``states`` in order."""
    block = StateBlock()
    for state in states:
        block.append(state)
    return block


def balance_residual(net, state):
    """The power-balance residual of one solved state."""
    return net.power_balance_residual(block_of(state))[0]


def bus_v(net, state, bus):
    """The solved voltage of ``bus``; the state holds them by bus position."""
    return state.v_list[net.bus_index[bus]]


def two_bus(load=None, z_s=0.1j):
    loads = [load] if load is not None else []
    return Network(
        buses=["src", "ld"],
        lines=[Line("src", "ld", 0.0, 1e-6)],
        grid_sources=[GridSource("g", "src", 1.0 + 0j, z_s)],
        loads=loads,
    )


def test_line_validation():
    with pytest.raises(ValueError):
        Line("a", "a", 0.01, 0.1)
    with pytest.raises(ValueError):
        Line("a", "b", -0.01, 0.1)
    with pytest.raises(ValueError):
        Line("a", "b", 0.0, 0.0)


def test_build_ybus_single_line():
    y = build_ybus(["1", "2"], [Line("1", "2", 0.01, 0.1)])
    yl = 1.0 / (0.01 + 0.1j)
    ref = np.array([[yl, -yl], [-yl, yl]])
    assert np.allclose(y, ref, atol=1e-15)
    assert np.allclose(y, y.T)
    assert np.allclose(y.sum(axis=1), 0.0, atol=1e-12)


def test_build_ybus_open_breaker_zeroes_matrix():
    net = Network(
        ["1", "2"],
        [Line("1", "2", 0.01, 0.1)],
        [Breaker("b", "1", "2", closed=False)],
    )
    y = build_ybus(net.buses, net.effective_lines())
    assert np.allclose(y, 0.0)


def test_build_ybus_triangle_matches_hand_assembly():
    lines = [
        Line("1", "2", 0.01, 0.1),
        Line("2", "3", 0.02, 0.2),
        Line("1", "3", 0.03, 0.15),
    ]
    y = build_ybus(["1", "2", "3"], lines)
    y12 = 1 / (0.01 + 0.1j)
    y23 = 1 / (0.02 + 0.2j)
    y13 = 1 / (0.03 + 0.15j)
    ref = np.array(
        [
            [y12 + y13, -y12, -y13],
            [-y12, y12 + y23, -y23],
            [-y13, -y23, y13 + y23],
        ]
    )
    assert np.allclose(y, ref, atol=1e-12)


def test_build_ybus_parallel_lines_add():
    y = build_ybus(["1", "2"], [Line("1", "2", 0.0, 0.1), Line("1", "2", 0.0, 0.1)])
    assert y[0, 0] == pytest.approx(2 / 0.1j)


def test_solve_no_load_gives_emf():
    net = Network(
        buses=["b"], lines=[], grid_sources=[GridSource("g", "b", 1.0 + 0j, 0.1j)]
    )
    state, rep = net.solve()
    assert bus_v(net, state, "b") == pytest.approx(1.0 + 0j, abs=1e-12)
    assert rep.residual < 1e-10


def test_solve_voltage_divider_analytic():
    net = Network(
        buses=["b"],
        lines=[],
        grid_sources=[GridSource("g", "b", 1.0 + 0j, 0.1j)],
        loads=[ConstantImpedanceLoad("zl", "b", 1.0 + 0j)],
    )
    state, rep = net.solve()
    expected = 1.0 / (1.0 + 0.1j)  # complex divider oracle
    assert abs(bus_v(net, state, "b") - expected) < 1e-12
    assert abs(bus_v(net, state, "b")) == pytest.approx(0.995037, abs=1e-6)
    assert math.degrees(cmath.phase(bus_v(net, state, "b"))) == pytest.approx(-5.7106, abs=1e-3)
    assert rep.residual < 1e-10


def cp_bisection_oracle(p_load, x_src, e=1.0):
    """High-voltage root of P = (E*V/X)*sqrt(1-(V/E)^2) by plain bisection."""

    def f(v):
        return (e * v / x_src) * math.sqrt(max(0.0, 1 - (v / e) ** 2)) - p_load

    lo, hi = e / math.sqrt(2), e  # f decreasing on this branch
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_constant_power_matches_bisection_oracle():
    net = two_bus(ConstantPowerLoad("cp", "ld", 0.5, 0.0))
    state, rep = net.solve()
    v_ref = cp_bisection_oracle(0.5, 0.1 + 1e-6)
    assert abs(abs(bus_v(net, state, "ld")) - v_ref) < 1e-8
    assert rep.cp_iterations == 1  # one CP bus: the closed form
    # delivered power equals the setpoint
    s = bus_v(net, state, "ld") * (-state.cp_currents[0]).conjugate()
    assert s.real == pytest.approx(0.5, abs=1e-8)
    assert s.imag == pytest.approx(0.0, abs=1e-8)


def test_solve_constant_power_nonconvergence_aborts():
    # far beyond the feeder's maximum transferable power: no solution exists
    net = two_bus(ConstantPowerLoad("cp", "ld", 8.0, 0.0), z_s=0.3j)
    with pytest.raises(NonConvergenceError):
        net.solve()


X_EDGE = 0.1 + 1e-6  # source reactance plus the two_bus line
P_MAX = 1 / (2 * X_EDGE)  # loadability limit of two_bus at unity pf


# the 1e-6 line's admittance of 1e6 pu limits any CP solver on two_bus to
# about 1e-11, so the bound stays at 1e-8 up to the nose
@pytest.mark.parametrize("frac", [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999])
def test_cp_newton_reaches_the_loadability_limit(frac):
    # high root of V^4 - V^2 + (x p)^2 = 0 (E = 1, unity pf)
    p = frac * P_MAX
    net = two_bus(ConstantPowerLoad("cp", "ld", p, 0.0))
    state, _ = net.solve()
    v_ref = math.sqrt((1 + math.sqrt(1 - (2 * X_EDGE * p) ** 2)) / 2)
    assert abs(abs(bus_v(net, state, "ld")) - v_ref) < 1e-8


def test_cp_beyond_the_loadability_limit_aborts_naming_it():
    for frac in (1.01, 1.0001):  # just past the nose too, after one evaluation
        net = two_bus(ConstantPowerLoad("cp", "ld", frac * P_MAX, 0.0))
        with pytest.raises(NonConvergenceError, match="loadability limit") as exc:
            net.solve()
        assert exc.value.iterations == 1


@pytest.mark.parametrize("e", [5e-4, 0.0])
def test_cp_bus_below_the_collapse_voltage_aborts(e):
    # the source holds the CP bus at |w| = e with the load drawing nothing
    net = Network(buses=["src", "ld"], lines=[Line("src", "ld", 0.0, 0.05)],
                  grid_sources=[GridSource("g", "src", complex(e), 0.1j)],
                  loads=[ConstantPowerLoad("cp", "ld", 1e-9, 0.0)])
    with pytest.raises(NonConvergenceError, match="collapsed to .* loadability limit") as exc:
        net.solve()
    assert exc.value.iterations == 1
    assert CP_V_COLLAPSE > e


CHAIN = ["b0", "b1", "b2", "b3", "b4"]


@pytest.mark.parametrize("buses, lines, z_s, match", [
    # a subnormal reactance: its admittance overflows to infinity
    (["src", "ld"], [Line("src", "ld", 0.0, 1e-320)], 0.1j,
     "admittance matrix has a non-finite entry"),
    # parallel reactances that cancel leave the far bus no admittance at all
    (["src", "ld"], [Line("src", "ld", 0.0, 0.1), Line("src", "ld", 0.0, -0.1)],
     0.1j, "admittance matrix not invertible"),
    # finite admittances whose driving-point impedance at the chain's end,
    # 5 * 4e307, overflows
    (CHAIN, [Line(a, b, 0.0, 4e307) for a, b in zip(CHAIN, CHAIN[1:])], 4e307j,
     "inverse admittance matrix has a non-finite entry"),
])
def test_unusable_admittance_matrix_aborts_naming_it(buses, lines, z_s, match):
    net = Network(buses=buses, lines=lines,
                  grid_sources=[GridSource("g", buses[0], 1.0 + 0j, z_s)])
    with pytest.raises(NonConvergenceError, match=match):
        net.solve()
    # the cache stays stale, so the next solve fails the same way
    with pytest.raises(NonConvergenceError, match=match):
        net.partition()


def test_one_cp_bus_solve_does_not_depend_on_the_solve_before():
    # a fresh network and one that solved other loads and source angles
    # first give the same bits: nothing carries over from one solve
    def build():
        net = two_bus(ConstantPowerLoad("cp", "ld", 0.3, 0.1))
        net.grid_sources["g"].f_grid = 60.5
        return net

    used, fresh = build(), build()
    for p in (4.5, 0.01, 2.0):
        used.loads["cp"].p = p
        used.solve()
        for net in (used, fresh):
            net.advance_sources(1e-3, 60.0)
    used.loads["cp"].p = 0.3
    (a, ra), (b, rb) = used.solve(), fresh.solve()
    assert np.array_equal(a.v_pos, b.v_pos) and a.cp_currents == b.cp_currents
    assert np.array_equal(ra.mismatch, rb.mismatch)
    assert ra.cp_iterations == rb.cp_iterations == 1
    assert ra.de_energized_with_load == rb.de_energized_with_load


def cp_fixed_point_oracle(net, damping=0.7, tol=1e-14, max_iters=5000):
    """Bus voltages by the damped fixed point on the CP-load currents.

    Independent of the solver's Newton: each CP bus draws the sum of its
    loads' conj(S / V).  Y comes from ``build_ybus``, which the solver also
    uses and the hand-assembly tests above pin, plus the shunts.  Valid for
    a network with every bus energized and no breakers.
    """
    idx = net.bus_index
    y = build_ybus(net.buses, net.lines)
    i_base = np.zeros(len(net.buses), dtype=complex)
    for src in net.grid_sources.values():
        y[idx[src.bus], idx[src.bus]] += 1 / src.z_s
        i_base[idx[src.bus]] += src.e / src.z_s
    cp = []
    for ld in net.loads.values():
        if isinstance(ld, ConstantImpedanceLoad):
            y[idx[ld.bus], idx[ld.bus]] += 1 / ld.z
        else:
            cp.append((idx[ld.bus], complex(ld.p, ld.q)))
    yinv = np.linalg.inv(y)
    v = yinv @ i_base
    i_cp = np.zeros_like(i_base)
    for _ in range(max_iters):
        target = np.zeros_like(i_base)
        for k, s in cp:
            target[k] -= s.conjugate() / v[k].conjugate()
        i_cp += damping * (target - i_cp)
        v_new = yinv @ (i_base + i_cp)
        if np.max(np.abs(v_new - v)) <= tol:
            return v_new
        v = v_new
    raise AssertionError("oracle fixed point did not converge")


def multi_cp_network():
    # CP loads on two buses, two of them sharing bus d
    return Network(
        buses=["a", "b", "c", "d"],
        lines=[
            Line("a", "b", 0.01, 0.08),
            Line("b", "c", 0.02, 0.1),
            Line("b", "d", 0.015, 0.12),
            Line("c", "d", 0.03, 0.15),
        ],
        grid_sources=[GridSource("g", "a", 1.0 + 0j, 0.002 + 0.02j)],
        loads=[
            ConstantImpedanceLoad("z1", "b", 2.0 + 0.5j),
            ConstantPowerLoad("p1", "c", 0.2, 0.05),
            ConstantPowerLoad("p2", "d", 0.15, 0.02),
            ConstantPowerLoad("p3", "d", 0.1, -0.03),
        ],
    )


def test_cp_newton_block_matches_fixed_point_oracle():
    net = multi_cp_network()
    state, rep = net.solve()
    # quadratic convergence from the open-circuit start; a wrong Jacobian
    # still converges here, but only linearly (9 evaluations with the
    # Re(beta) blocks swapped)
    assert 0 < rep.cp_iterations <= 5
    v_ref = cp_fixed_point_oracle(net)
    for bus in net.buses:
        assert abs(bus_v(net, state, bus) - v_ref[net.bus_index[bus]]) < 1e-9
    # each load, and so each CP bus, takes exactly its setpoint
    # the CP currents are in load order: p1, p2, p3
    cp = dict(zip(("p1", "p2", "p3"), state.cp_currents))
    for bus, ids in (("c", ["p1"]), ("d", ["p2", "p3"])):
        s_bus = sum(
            bus_v(net, state, bus) * (-cp[i]).conjugate() for i in ids
        )
        s_set = sum(complex(net.loads[i].p, net.loads[i].q) for i in ids)
        assert abs(s_bus - s_set) < 1e-10
    for i in ("p1", "p2", "p3"):
        ld = net.loads[i]
        s = bus_v(net, state, ld.bus) * (-cp[i]).conjugate()
        assert abs(s - complex(ld.p, ld.q)) < 1e-10
    assert balance_residual(net, state) < 1e-10


def test_cp_newton_block_warm_started_matches_fixed_point_oracle():
    # the block Newton starts from the last solve's voltages: after a load
    # step and a source turn it still lands on the oracle's fixed point
    net = multi_cp_network()
    net.grid_sources["g"].f_grid = 60.5
    net.solve()
    net.step_load("p2", 0.05, 0.01)
    net.advance_sources(1e-3, 60.0)
    state, rep = net.solve()
    assert 0 < rep.cp_iterations <= 5
    v_ref = cp_fixed_point_oracle(net)
    for bus in net.buses:
        assert abs(bus_v(net, state, bus) - v_ref[net.bus_index[bus]]) < 1e-9
    assert balance_residual(net, state) < 1e-10


def test_cp_load_step_is_seen_by_the_next_solve():
    # a CP load step leaves the topology (and its cache) as it was
    net = two_bus(ConstantPowerLoad("cp", "ld", 0.5, 0.1))
    net.solve()
    net.step_load("cp", 0.7, -0.25)
    state, _ = net.solve()
    s = bus_v(net, state, "ld") * (-state.cp_currents[0]).conjugate()
    assert abs(s - complex(1.2, -0.15)) < 1e-10


def solved_line(z, load=None):
    """(V_from, V_to, series current) of a line from a stiff source.

    The current is the line's voltage drop times its admittance.  The grid
    source carries the same current, but its solved value divides
    ``E - V_from`` by the 1e-6j source impedance, which magnifies rounding
    a millionfold.
    """
    net = Network(
        buses=["g", "b"],
        lines=[Line("g", "b", z.real, z.imag)],
        grid_sources=[GridSource("s", "g", 1.0 + 0j, 1e-6j)],
        loads=[] if load is None else [ConstantImpedanceLoad("zl", "b", load)],
    )
    state, _ = net.solve()
    v_from, v_to = bus_v(net, state, "g"), bus_v(net, state, "b")
    return v_from, v_to, (v_from - v_to) * (1.0 / z)


def test_branch_power_zero_flow_and_resistive():
    # branch power S = V_from conj(I)
    v_from, _, i = solved_line(0.1j)
    assert v_from * i.conjugate() == 0
    v_from, _, i = solved_line(0.05 + 0j, load=1.0 + 0j)
    assert (v_from * i.conjugate()).imag == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        Line("g", "b", 0.0, 0.0)


def test_branch_power_matches_divider_example():
    v_from, v_to, i = solved_line(0.1j, load=1.0 + 0j)
    # independent complex arithmetic oracle
    assert i == pytest.approx((v_from - v_to) / 0.1j, abs=1e-12)
    # a lossless line delivers the load's |V|^2 / R
    assert (v_from * i.conjugate()).real == pytest.approx(abs(v_to) ** 2, abs=1e-12)


def test_from_and_to_end_powers_differ_by_losses():
    z = 0.02 + 0.1j
    v_from, v_to, i = solved_line(z, load=0.9 + 0.3j)
    s_from = v_from * i.conjugate()
    s_to = v_to * i.conjugate()
    assert s_from - s_to == pytest.approx(abs(i) ** 2 * z, abs=1e-12)


def test_de_energized_island_reported_not_fatal():
    net = Network(
        buses=["g", "m"],
        lines=[Line("g", "m", 0.01, 0.1)],
        breakers=[Breaker("pcc", "g", "m", closed=True)],
        grid_sources=[GridSource("grid", "g", 1.0 + 0j, 0.05j)],
        loads=[ConstantPowerLoad("cp", "m", 0.4, 0.0)],
    )
    state, rep = net.solve()
    assert all(net.partition()[2])
    net.set_breaker("pcc", False)
    state, rep = net.solve()
    islands, island_at, live = net.partition()
    assert (islands, island_at, live) == ([["g"], ["m"]], [0, 1], [True, False])
    assert [isl for isl in islands if not live[net.bus_index[isl[0]]]] == [["m"]]
    assert rep.de_energized_with_load == [["m"]]
    assert bus_v(net, state, "m") == 0
    assert abs(bus_v(net, state, "g")) == pytest.approx(1.0, abs=1e-9)


def test_power_balance_residual_small():
    net = Network(
        buses=["a", "b", "c"],
        lines=[Line("a", "b", 0.01, 0.1), Line("b", "c", 0.02, 0.08)],
        grid_sources=[GridSource("g", "a", 1.02 + 0j, 0.002 + 0.02j)],
        loads=[
            ConstantImpedanceLoad("z1", "b", 1.8 + 0.4j),
            ConstantPowerLoad("p1", "c", 0.35, 0.1),
        ],
    )
    state, rep = net.solve(injections=[(net.bus_index["c"], 0.2 - 0.05j)])
    assert balance_residual(net, state) < 1e-8


@pytest.mark.parametrize("z_abs", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    e=st.tuples(st.floats(0.95, 1.05), st.floats(-0.2, 0.2)),
    line=st.tuples(st.floats(0.0, 0.05), st.floats(0.02, 0.1)),
    load=st.tuples(st.floats(0.5, 5.0), st.floats(0.0, 1.0)),
)
def test_stiff_source_residual_grows_as_one_over_its_impedance(z_abs, e, line, load):
    # the source current (E - V) / z_s loses digits as 1/|z_s| grows: the
    # residual is bounded by about 2e-15 / |z_s| (near 1e-9 at 1e-7 pu)
    net = Network(
        buses=["g", "b"],
        lines=[Line("g", "b", *line)],
        grid_sources=[GridSource("s", "g", cmath.rect(*e), z_abs * (0.1 + 1j))],
        loads=[ConstantImpedanceLoad("zl", "b", complex(*load))],
    )
    state, _ = net.solve()
    assert balance_residual(net, state) * z_abs <= 2e-15


def test_former_voltage_source():
    net = Network(
        buses=["b", "l"],
        lines=[Line("b", "l", 0.005, 0.05)],
        loads=[ConstantImpedanceLoad("zl", "l", 2.0 + 0j)],
    )
    net.set_formers([("b", 0.005 + 0.05j)])
    state, rep = net.solve([1.0 + 0j])
    assert 0.9 < abs(bus_v(net, state, "l")) < 1.0
    assert balance_residual(net, state) < 1e-8


@settings(max_examples=25, deadline=None)
@example(["e", "a", "f", "b", "c", "d"])  # the two islands interleave
@given(st.permutations(["a", "b", "c", "d", "e", "f"]))
def test_solution_independent_of_bus_ordering(order):
    # e-f is an island with loads and no source, its buses placed among the
    # live ones by the permutation; the reference network has no such island
    def build(buses):
        lines = [
            Line("a", "b", 0.01, 0.1),
            Line("b", "c", 0.02, 0.15),
            Line("c", "d", 0.01, 0.05),
            Line("a", "d", 0.03, 0.2),
        ]
        loads = [
            ConstantImpedanceLoad("z1", "c", 1.5 + 0.3j),
            ConstantPowerLoad("p1", "d", 0.3, 0.05),
        ]
        if "e" in buses:
            lines.append(Line("e", "f", 0.01, 0.1))
            loads += [ConstantImpedanceLoad("z_dead", "e", 2.0 + 0.5j),
                      ConstantPowerLoad("p_dead", "f", 0.2, 0.05)]
        source = GridSource("g", "a", 1.0 + 0j, 0.01j)
        return Network(list(buses), lines, grid_sources=[source], loads=loads)

    ref_net, net = build("abcd"), build(order)
    ref, _ = ref_net.solve()
    got, report = net.solve()
    pos = net.bus_index
    for bus in "abcd":
        assert abs(bus_v(net, got, bus) - bus_v(ref_net, ref, bus)) < 1e-12
    for bus in "ef":
        assert bus_v(net, got, bus) == 0 and report.mismatch[pos[bus]] == 0
    assert report.de_energized_with_load == [[b for b in order if b in "ef"]]
    # an injection on a dead bus flows nowhere: it moves no bit
    fed, fed_report = copy.deepcopy(net).solve(injections=[(pos["e"], 0.3 - 0.1j)])
    assert np.array_equal(fed.v_pos, got.v_pos)
    assert np.array_equal(fed_report.mismatch, report.mismatch)
    # each bus's island and live flag, by bus position
    islands, island_at, live = net.partition()
    assert sorted(map(sorted, islands)) == [list("abcd"), list("ef")]
    for bus in order:
        assert bus in islands[island_at[pos[bus]]]
        assert live[pos[bus]] == (bus in "abcd")


def test_apply_events():
    net = Network(
        buses=["g", "m"],
        lines=[Line("g", "m", 0.01, 0.1)],
        breakers=[Breaker("pcc", "g", "m")],
        grid_sources=[GridSource("grid", "g", 1.0 + 0j, 0.05j)],
        loads=[ConstantPowerLoad("cp", "m", 0.4, 0.0)],
    )
    net.step_load("cp", 0.3, 0.1)
    assert net.loads["cp"].p == pytest.approx(0.7)
    assert net.loads["cp"].q == pytest.approx(0.1)
    net.set_breaker("pcc", False)
    assert not net.breakers["pcc"].closed
    net.set_source_freq("grid", 60.5)
    assert net.grid_sources["grid"].f_grid == 60.5
    net.set_source_unbalance("grid", 0.1, 0.0)
    assert net.grid_sources["grid"].e_neg == pytest.approx(0.1 + 0j)
    with pytest.raises(UnknownElementError):
        net.step_load("nope", 0.1, 0.0)
    with pytest.raises(UnknownElementError):
        net.set_breaker("nope", True)


def test_impedance_load_step_adds_parallel_admittance():
    net = Network(
        buses=["b"],
        lines=[],
        grid_sources=[GridSource("g", "b", 1.0 + 0j, 0.001j)],
        loads=[ConstantImpedanceLoad("zl", "b", 1.0 + 0j)],
    )
    net.step_load("zl", 0.5, 0.0)
    y = 1.0 / net.loads["zl"].z
    assert y == pytest.approx(1.5 + 0j)


def test_load_stepped_to_zero_admittance_drops_out():
    # r = 2 pu draws 0.5 pu at 1 pu; the -0.5 pu step leaves zero admittance
    net = two_bus(ConstantImpedanceLoad("zl", "ld", 2.0 + 0j))
    net.step_load("zl", -0.5, 0.0)
    state, _ = net.solve()
    assert np.array_equal(state.v_pos, two_bus().solve()[0].v_pos)
    assert balance_residual(net, state) < 1e-10
    net.step_load("zl", 0.25, 0.0)
    assert 1.0 / net.loads["zl"].z == pytest.approx(0.25)


def test_unbalance_appears_in_negative_sequence_solve():
    net = Network(
        buses=["b"],
        lines=[],
        grid_sources=[GridSource("g", "b", 1.0 + 0j, 0.01j)],
    )
    net.set_source_unbalance("g", 0.1, 0.0)
    state, _ = net.solve()
    # no neg-seq load current: bus neg-seq voltage equals the injected EMF
    assert state.v_neg[net.bus_index["b"]] == pytest.approx(0.1 + 0j, abs=1e-12)
    assert abs(bus_v(net, state, "b") - 1.0) < 1e-12


def test_unbalanced_waveform_matches_fortescue_reconstruction_oracle():
    from sampled_pll import phase_samples

    net = Network(
        buses=["b"],
        lines=[],
        grid_sources=[GridSource("g", "b", 1.0 + 0j, 0.01j)],
    )
    net.set_source_unbalance("g", 0.1, 0.3)
    state, _ = net.solve()
    v_pos, v_neg = bus_v(net, state, "b"), complex(state.v_neg[net.bus_index["b"]])
    # independent oracle: phase phasors via the inverse 3x3 component matrix,
    # each phase sampled as Re(phasor * e^{j theta})
    a_op = cmath.exp(2j * math.pi / 3)
    inv_m = np.array([[1, 1, 1], [1, a_op**2, a_op], [1, a_op, a_op**2]])
    phases = inv_m @ np.array([0.0 + 0j, v_pos, v_neg])
    for theta in (0.0, 0.7, 2.1):
        a, b, c = phase_samples(v_pos, v_neg, cmath.exp(1j * theta))
        ref = (phases * cmath.exp(1j * theta)).real
        assert a == pytest.approx(ref[0], abs=1e-12)
        assert b == pytest.approx(ref[1], abs=1e-12)
        assert c == pytest.approx(ref[2], abs=1e-12)
    # the waveform is genuinely unbalanced
    _, b0, c0 = phase_samples(v_pos, v_neg, 1.0)
    assert abs(b0) != pytest.approx(abs(c0), abs=1e-3)


def test_source_advance_rotates_emf():
    net = Network(
        buses=["b"], lines=[], grid_sources=[GridSource("g", "b", 1.0 + 0j, 0.01j)]
    )
    net.set_source_freq("g", 61.0)
    net.advance_sources(0.25, f_nom=60.0)
    # 1 Hz off-nominal for 0.25 s -> pi/2 rotation
    assert net.grid_sources["g"].e == pytest.approx(1j, abs=1e-12)


def breaker_isolated_load_net():
    """4 buses: grid source at g, former at b, CP load at a and an impedance
    load at d, which the breaker ``brk`` cuts off."""
    net = Network(
        buses=["g", "a", "b", "d"],
        lines=[
            Line("g", "a", 0.01, 0.1),
            Line("a", "b", 0.02, 0.05),
            Line("a", "d", 0.01, 0.04),
        ],
        breakers=[Breaker("brk", "a", "d")],
        grid_sources=[GridSource("s", "g", 1.0 + 0j, 0.01j)],
        loads=[
            ConstantImpedanceLoad("zl", "d", 2.0 + 0.5j),
            ConstantPowerLoad("cp", "a", 0.3, 0.1),
        ],
    )
    net.set_formers([("b", 0.005 + 0.05j)])
    return net


def array_loss_residual(net, state):
    """Power-balance oracle with the line losses as one ``np.vdot`` over
    branch-current arrays gathered from ``v_pos``; ``net`` has one CP load."""
    v, pos = state.v_pos, net.bus_index
    s = 0j
    for src in net.grid_sources.values():
        i = (src.e - state.v_list[pos[src.bus]]) / src.z_s
        s += (src.e - src.z_s * i) * i.conjugate()
    for (_, z), e, i in zip(net.formers, state.emfs, state.former_currents):
        s += (e - z * i) * i.conjugate()
    for p, inj in state.injections:
        s += v[p] * inj.conjugate()
    for ld in net.loads.values():
        vb = complex(v[pos[ld.bus]])
        if isinstance(ld, ConstantPowerLoad):
            s += vb * state.cp_currents[0].conjugate()
        else:
            s -= abs(vb) ** 2 * (1.0 / ld.z).conjugate()
    lines = net.effective_lines()
    z = np.array([ln.z for ln in lines])
    ib = (v[[pos[ln.from_bus] for ln in lines]] - v[[pos[ln.to_bus] for ln in lines]]) / z
    return abs(s - np.vdot(ib, z * ib))


def test_dead_bus_scatter_and_line_losses_match_oracles():
    net = breaker_isolated_load_net()
    emfs, injections = [1.01 * cmath.exp(0.02j)], [(net.bus_index["b"], 0.1 - 0.02j)]
    dead = net.bus_index["d"]
    for closed in (True, False, True):
        net.set_breaker("brk", closed)
        state, report = net.solve(emfs, injections)
        assert state.v_list == state.v_pos.tolist()
        if closed:
            assert abs(state.v_pos[dead]) > 0.5
        else:
            assert state.v_pos[dead] == 0 and state.v_list[dead] == 0
            assert report.de_energized_with_load == [["d"]]
        residual = balance_residual(net, state)
        assert residual <= 1e-12
        assert abs(residual - array_loss_residual(net, state)) <= 1e-15
    fresh, _ = breaker_isolated_load_net().solve(emfs, injections)
    assert np.array_equal(state.v_pos, fresh.v_pos)


def test_solve_takes_one_emf_per_former():
    # a short or long EMF list raises instead of dropping a former's current
    net = breaker_isolated_load_net()
    for emfs in ([], [1.0 + 0j, 1.0 + 0j]):
        with pytest.raises(ValueError, match="EMFs for 1 formers"):
            net.solve(emfs)
    state, _ = net.solve([1.0 + 0j])
    assert len(state.former_currents) == 1


def test_set_formers_moves_the_topology_only_on_change(monkeypatch):
    refreshes = []
    refresh = Network._refresh_cache
    monkeypatch.setattr(
        Network, "_refresh_cache", lambda net: refreshes.append(1) or refresh(net)
    )
    net = breaker_isolated_load_net()
    net.solve([1.0 + 0j])
    version = net._version
    net.set_formers([("b", 0.005 + 0.05j)])  # the same couplings again
    net.solve([1.0 + 0j])
    assert net._version == version and len(refreshes) == 1
    net.set_formers([("b", 0.005 + 0.05j), ("d", 0.01 + 0.1j)])
    state, _ = net.solve([1.0 + 0j, 1.0 + 0j])
    assert net._version == version + 1 and len(refreshes) == 2
    assert len(state.former_currents) == 2
    with pytest.raises(UnknownElementError):
        net.set_formers([("nope", 0.01j)])


# -- bit-for-bit against the solve as it was (tests/solve_oracle.py) --------

# what each random network holds besides a grid source, an impedance load
# and a chain of lines: constant-power loads on one bus (the scalar Newton,
# sometimes two loads sharing it) or two buses (the block Newton), an open
# breaker that leaves the last bus dead with a load (and, with an
# injection, a current into a dead bus), a negative-sequence source EMF
SOLVE_CASES = {
    "linear": {},
    "cp_one_bus": {"cp_buses": 1},
    "cp_two_buses": {"cp_buses": 2},
    "dead_island": {"dead": True, "cp_buses": 1},
    "negative_sequence": {"e_neg": True},
    "dead_bus_injection": {"dead": True, "dead_injection": True},
}


def random_network(data, case: dict) -> tuple[Network, list, list]:
    """A network of 3 to 5 buses drawn for ``case``, its formers set, with
    the EMFs and injections of its first solve."""
    draw = data.draw
    nb = draw(st.integers(3, 5))
    buses = [f"b{i}" for i in range(nb)]
    lines = [
        Line(a, b, draw(st.floats(0.0, 0.05)), draw(st.floats(0.02, 0.1)))
        for a, b in zip(buses, buses[1:])
    ]
    dead = case.get("dead", False)
    breakers = [Breaker("brk", buses[-2], buses[-1], closed=not dead)]
    e_src = cmath.rect(draw(st.floats(0.95, 1.05)), draw(st.floats(-0.2, 0.2)))
    source = GridSource("g", "b0", e_src, complex(0.0, draw(st.floats(0.005, 0.05))),
                        f_grid=draw(st.sampled_from([60.0, 59.9, 60.2])))
    if case.get("e_neg"):
        source.e_neg = cmath.rect(draw(st.floats(0.01, 0.1)), draw(st.floats(-3.0, 3.0)))
    live = buses[1:-1] if dead else buses[1:]
    z_load = complex(draw(st.floats(1.0, 5.0)), draw(st.floats(0.0, 1.0)))
    loads = [ConstantImpedanceLoad("z0", draw(st.sampled_from(live)), z_load)]
    if dead:
        loads.append(ConstantImpedanceLoad("z_dead", buses[-1], 2.0 + 0.5j))
    cp_buses = draw(st.permutations(live))[:case.get("cp_buses", 0)]
    for j, bus in enumerate(cp_buses + cp_buses[:draw(st.integers(0, 1))]):
        loads.append(ConstantPowerLoad(f"cp{j}", bus, draw(st.floats(0.0, 0.3)),
                                       draw(st.floats(-0.1, 0.1))))
    net = Network(buses, lines, breakers, [source], loads)
    former = draw(st.sampled_from([None, *live]))
    if former is not None:
        net.set_formers([(former, complex(0.005, draw(st.floats(0.02, 0.1))))])
    emfs = [cmath.rect(draw(st.floats(0.95, 1.05)), draw(st.floats(-0.2, 0.2)))
            for _ in net.formers]
    injections = [
        (net.bus_index[b], complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.1, 0.1))))
        for b in draw(st.lists(st.sampled_from(live), max_size=2))
    ]
    if case.get("dead_injection"):
        injections.append((nb - 1, 0.2 - 0.05j))
    return net, emfs, injections


def solve_both(net, twin, emfs, injections):
    """Solve ``net`` with ``Network.solve`` and its twin with the oracle;
    (state, report, power-balance residual, the oracle's sum of |term|)
    each, or the error raised."""
    out = []
    for solve, residual, target in (
        (Network.solve, balance_residual, net),
        (solve_oracle.solve, solve_oracle.power_balance_residual, twin),
    ):
        try:
            state, report = solve(target, emfs, injections)
        except NonConvergenceError as exc:
            out.append((str(exc), exc.iterations))
        else:
            out.append((state, report, residual(target, state),
                        solve_oracle.power_balance_scale(target, state)))
    return out


def assert_same_solve(new, old):
    if isinstance(old[0], str):  # the same non-convergence
        assert new == old
        return
    (sa, ra, pa, _), (sb, rb, pb, scale) = new, old
    assert np.array_equal(sa.v_pos, sb.v_pos) and sa.v_list == sb.v_list
    assert (sa.v_neg is None) == (sb.v_neg is None)
    assert sa.v_neg is None or np.array_equal(sa.v_neg, sb.v_neg)
    assert sa.former_currents == sb.former_currents
    assert sa.cp_currents == sb.cp_currents
    assert (ra.cp_iterations, ra.residual, ra.de_energized_with_load) == (
        rb.cp_iterations, rb.residual, rb.de_energized_with_load)
    assert abs(pa - pb) <= solve_oracle.ROUNDING * scale


@pytest.mark.parametrize("case", list(SOLVE_CASES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_matches_the_pre_change_solve_bit_for_bit(case, data):
    # three solves warm-start each other: the sources rotate off nominal,
    # the former's EMF turns and a CP load steps between them
    net, emfs, injections = random_network(data, SOLVE_CASES[case])
    twin = copy.deepcopy(net)
    for _ in range(3):
        assert_same_solve(*solve_both(net, twin, emfs, injections))
        for target in (net, twin):
            target.advance_sources(1e-3, 60.0)
            if "cp0" in target.loads:
                target.step_load("cp0", 0.01, 0.0)
        emfs = [e * cmath.exp(0.01j) for e in emfs]


def test_nan_emf_gives_a_nan_residual_as_before():
    # without the CP load, whose Newton would stop at the NaN voltage
    net, twin = breaker_isolated_load_net(), breaker_isolated_load_net()
    for target in (net, twin):
        del target.loads["cp"]
    new, old = solve_both(net, twin, [complex(math.nan, 0.0)], [])
    assert math.isnan(new[1].residual) and math.isnan(old[1].residual)
    assert new[1].cp_iterations == old[1].cp_iterations


def test_a_state_is_checked_against_its_own_inputs():
    # the check reads the source EMFs and the topology the state was solved
    # with, not the network's at the time of the check
    net = breaker_isolated_load_net()
    net.set_source_freq("s", 60.5)
    emfs = [1.01 * cmath.exp(0.02j)]
    first, _ = net.solve(emfs)
    net.advance_sources(0.01, 60.0)  # the source turns by 0.031 rad
    assert balance_residual(net, first) < 1e-12
    net.set_breaker("brk", False)
    second, _ = net.solve(emfs)  # the next solve rebuilds the topology
    assert second.topology is not first.topology
    assert second.source_emfs != first.source_emfs
    block = net.power_balance_residual(block_of(first, second, first))
    assert block.max() < 1e-12
    assert block[0] == block[2] == balance_residual(net, first)


def oracle_sequence_net():
    """5 buses: a rotating grid source at b0, an impedance load at b2, a
    former and a CP load at b3 behind ``brk_a``, a CP load at b4 behind
    ``brk_b``."""
    net = Network(
        buses=["b0", "b1", "b2", "b3", "b4"],
        lines=[Line("b0", "b1", 0.01, 0.05), Line("b1", "b2", 0.01, 0.05),
               Line("b2", "b3", 0.02, 0.06), Line("b1", "b4", 0.015, 0.04)],
        breakers=[Breaker("brk_a", "b2", "b3"), Breaker("brk_b", "b1", "b4")],
        grid_sources=[GridSource("g", "b0", 1.0 + 0j, 0.002 + 0.02j, f_grid=60.5)],
        loads=[ConstantImpedanceLoad("zl", "b2", 2.0 + 0.5j),
               ConstantPowerLoad("cp3", "b3", 0.1, 0.02),
               ConstantPowerLoad("cp4", "b4", 0.15, 0.03)],
    )
    net.set_formers([("b3", 0.005 + 0.05j)])
    return net


def test_block_check_matches_the_oracle_state_by_state():
    # one block of solves across a breaker toggle, an impedance-load step,
    # injections that drop to zero or sit on a dead bus, negative-sequence
    # sources, two, one and no CP buses and a NaN EMF; the oracle checks
    # each state right after its own solve
    net = oracle_sequence_net()
    twin = copy.deepcopy(net)
    b2, b4 = net.bus_index["b2"], net.bus_index["b4"]
    z_f = 0.005 + 0.05j
    steps = [
        ([], [(b2, 0.1 - 0.02j)]),
        ([], [(b2, 0.1 - 0.02j), (b4, 0.05 + 0.01j)]),
        ([], [(b2, 0.1 - 0.02j), (b2, 0.05 + 0.01j)]),  # two on one bus
        ([("step_load", "zl", 0.1, 0.02)], [(b2, 0.1 - 0.02j)]),
        ([], [(b2, 0j)]),  # an injection at zero
        ([], []),  # and gone
        ([("set_breaker", "brk_b", False)], [(b2, 0.1), (b4, 0.2 - 0.05j)]),  # b4 dead
        ([("set_source_unbalance", "g", 0.05, 0.3)], [(b4, 0.2 - 0.05j)]),
        ([("set_breaker", "brk_b", True)], [(b2, 0.1)]),
        ([("set_breaker", "brk_b", False), ("set_breaker", "brk_a", False),
          ("set_formers", [("b2", z_f)])], [(b4, 0.1 + 0j)]),  # no CP bus live
        ([], [(b2, 0.05 - 0.01j)]),
    ]
    held, oracle, scale, cp_buses = StateBlock(), [], [], []
    for k, (changes, injections) in enumerate(steps):
        for target in (net, twin):
            for name, *args in changes:
                getattr(target, name)(*args)
        emfs = [cmath.rect(1.02, 0.05 + 0.01 * k)]
        if k == len(steps) - 2:
            emfs = [complex(math.nan, 0.0)]
        state, _ = net.solve(emfs, injections)
        twin_state, _ = solve_oracle.solve(twin, emfs, injections)
        oracle.append(solve_oracle.power_balance_residual(twin, twin_state))
        scale.append(solve_oracle.power_balance_scale(twin, twin_state))
        held.append(state)
        cp_buses.append(len(state.cp_currents))
        for target in (net, twin):
            target.advance_sources(1e-3, 60.0)
    assert cp_buses == [2, 2, 2, 2, 2, 2, 1, 1, 2, 0, 0]
    assert len(held.groups) == 5 and held.n_inj == [1, 2, 2, 1, 1, 0, 2, 1, 1, 1, 1]
    block = net.power_balance_residual(held).tolist()
    assert math.isnan(block[-2]) and math.isnan(oracle[-2])
    del block[-2], oracle[-2], scale[-2]
    for got, want, m in zip(block, oracle, scale):
        assert abs(got - want) <= solve_oracle.ROUNDING * m
    assert max(block) < 1e-12


def test_nan_emf_gives_a_nan_residual_without_a_warning():
    net = breaker_isolated_load_net()
    del net.loads["cp"]  # whose Newton would stop at the NaN voltage
    state, _ = net.solve([complex(math.nan, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(balance_residual(net, state))


def test_an_overflowing_state_gives_a_non_finite_residual_and_raises_nothing():
    # a 1e200 pu EMF: the line drop's square overflows, where the per-step
    # Python check raised OverflowError
    net = Network(buses=["b", "l"], lines=[Line("b", "l", 0.005, 0.05)],
                  loads=[ConstantImpedanceLoad("zl", "l", 2.0 + 0j)])
    net.set_formers([("b", 0.005 + 0.05j)])
    state, _ = net.solve([1e200 + 0j])
    assert abs(state.v_list[0]) > 1e199
    with pytest.raises(OverflowError):
        solve_oracle.power_balance_residual(net, state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(balance_residual(net, state))
