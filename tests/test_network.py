import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpath.network import (
    Breaker,
    ConstantImpedanceLoad,
    ConstantPowerLoad,
    GridSource,
    Line,
    Network,
    NonConvergenceError,
    UnknownElementError,
    build_ybus,
)


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
    assert rep.cp_iterations > 0
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


@pytest.mark.parametrize("frac", [0.5, 0.9, 0.95, 0.99])
def test_cp_newton_reaches_the_loadability_limit(frac):
    # high root of V^4 - V^2 + (x p)^2 = 0 (E = 1, unity pf)
    p = frac * P_MAX
    net = two_bus(ConstantPowerLoad("cp", "ld", p, 0.0))
    state, _ = net.solve()
    v_ref = math.sqrt((1 + math.sqrt(1 - (2 * X_EDGE * p) ** 2)) / 2)
    assert abs(abs(bus_v(net, state, "ld")) - v_ref) < 1e-8


def test_cp_beyond_the_loadability_limit_aborts_naming_it():
    net = two_bus(ConstantPowerLoad("cp", "ld", 1.01 * P_MAX, 0.0))
    with pytest.raises(NonConvergenceError, match="loadability limit"):
        net.solve()


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
    assert net.power_balance_residual(state) < 1e-10


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
    islands, _, live = net.partition()
    assert [isl for isl, has_src in zip(islands, live) if not has_src] == [["m"]]
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
    assert net.power_balance_residual(state) < 1e-8


def test_former_voltage_source():
    net = Network(
        buses=["b", "l"],
        lines=[Line("b", "l", 0.005, 0.05)],
        loads=[ConstantImpedanceLoad("zl", "l", 2.0 + 0j)],
    )
    net.set_formers([("b", 0.005 + 0.05j)])
    state, rep = net.solve([1.0 + 0j])
    assert 0.9 < abs(bus_v(net, state, "l")) < 1.0
    assert net.power_balance_residual(state) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.permutations(["a", "b", "c", "d"]))
def test_solution_independent_of_bus_ordering(order):
    def build(buses):
        return Network(
            buses=list(buses),
            lines=[
                Line("a", "b", 0.01, 0.1),
                Line("b", "c", 0.02, 0.15),
                Line("c", "d", 0.01, 0.05),
                Line("a", "d", 0.03, 0.2),
            ],
            grid_sources=[GridSource("g", "a", 1.0 + 0j, 0.01j)],
            loads=[
                ConstantImpedanceLoad("z1", "c", 1.5 + 0.3j),
                ConstantPowerLoad("p1", "d", 0.3, 0.05),
            ],
        )

    ref_net, net = build(["a", "b", "c", "d"]), build(order)
    ref, _ = ref_net.solve()
    got, _ = net.solve()
    for bus in "abcd":
        assert abs(bus_v(net, got, bus) - bus_v(ref_net, ref, bus)) < 1e-12


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
    assert net.power_balance_residual(state) < 1e-10
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
        residual = net.power_balance_residual(state)
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
