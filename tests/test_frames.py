import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualpath.frames import (
    DqFrame,
    PerUnitBase,
    Phasor,
    SequenceSet,
    clarke,
    fortescue,
    inverse_clarke,
    inverse_fortescue,
    inverse_park,
    park,
    synth_abc,
    wrap_angle,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


# --- independent matrix oracles -------------------------------------------

CLARKE_M = np.array([[2 / 3, -1 / 3, -1 / 3], [0.0, 1 / math.sqrt(3), -1 / math.sqrt(3)]])

_a = cmath.exp(2j * math.pi / 3)
FORTESCUE_M = np.array([[1, 1, 1], [1, _a, _a**2], [1, _a**2, _a]]) / 3.0


def test_perunit_base_positive():
    b = PerUnitBase()
    assert b.s_base == 5000.0 and b.v_base == 208.0 and b.f_nom == 60.0
    assert b.omega_base == pytest.approx(2 * math.pi * 60.0)
    with pytest.raises(ValueError):
        PerUnitBase(s_base=-1.0)


def test_clarke_balanced_and_zero():
    assert clarke(1.0, -0.5, -0.5) == pytest.approx((1.0, 0.0))
    assert clarke(0.0, 0.0, 0.0) == (0.0, 0.0)


@given(finite, finite, finite)
def test_clarke_matches_matrix_oracle(a, b, c):
    alpha, beta = clarke(a, b, c)
    ref = CLARKE_M @ np.array([a, b, c])
    assert alpha == pytest.approx(ref[0], abs=1e-12)
    assert beta == pytest.approx(ref[1], abs=1e-12)


def test_park_identity_and_quarter_turn():
    dq = park(1.0, 0.0, 0.0)
    assert (dq.d, dq.q) == pytest.approx((1.0, 0.0))
    dq = park(1.0, 0.0, math.pi / 2)
    assert (dq.d, dq.q) == pytest.approx((0.0, -1.0), abs=1e-15)


@given(finite, finite, angles)
def test_park_roundtrip(alpha, beta, theta):
    back = inverse_park(park(alpha, beta, theta), theta)
    assert back[0] == pytest.approx(alpha, abs=1e-12)
    assert back[1] == pytest.approx(beta, abs=1e-12)


@given(finite, angles)
def test_clarke_park_amplitude_invariance(m, theta):
    # balanced set of peak m at angle theta maps to dq magnitude |m|
    a = m * math.cos(theta)
    b = m * math.cos(theta - 2 * math.pi / 3)
    c = m * math.cos(theta + 2 * math.pi / 3)
    alpha, beta = clarke(a, b, c)
    dq = park(alpha, beta, 0.0)
    assert dq.mag == pytest.approx(abs(m), abs=1e-12)


def test_fortescue_balanced_set():
    seq = fortescue(
        Phasor.from_polar(1.0, 0.0),
        Phasor.from_polar(1.0, -2 * math.pi / 3),
        Phasor.from_polar(1.0, 2 * math.pi / 3),
    )
    assert seq.pos.z == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert abs(seq.neg.z) == pytest.approx(0.0, abs=1e-15)
    assert abs(seq.zero.z) == pytest.approx(0.0, abs=1e-15)


def test_fortescue_single_phase_matches_matrix_oracle():
    seq = fortescue(Phasor(1.0, 0.0), Phasor(), Phasor())
    ref = FORTESCUE_M @ np.array([1.0, 0.0, 0.0])
    # zero, pos, neg rows of the oracle matrix
    assert seq.zero.z == pytest.approx(ref[0])
    assert seq.pos.z == pytest.approx(ref[1])
    assert seq.neg.z == pytest.approx(ref[2])
    assert seq.pos.z == pytest.approx(1 / 3 + 0j)


def test_fortescue_all_zero():
    seq = fortescue(Phasor(), Phasor(), Phasor())
    assert seq.pos.z == 0 and seq.neg.z == 0 and seq.zero.z == 0


@given(st.tuples(*[finite] * 6))
def test_fortescue_roundtrip(vals):
    va = Phasor(vals[0], vals[1])
    vb = Phasor(vals[2], vals[3])
    vc = Phasor(vals[4], vals[5])
    ra, rb, rc = inverse_fortescue(fortescue(va, vb, vc))
    assert ra.z == pytest.approx(va.z, abs=1e-12)
    assert rb.z == pytest.approx(vb.z, abs=1e-12)
    assert rc.z == pytest.approx(vc.z, abs=1e-12)


def test_synth_abc_positive_sequence():
    seq = SequenceSet(pos=Phasor.from_polar(1.0, 0.0))
    s = synth_abc(seq, 0.0)
    assert (s.a, s.b, s.c) == pytest.approx((1.0, -0.5, -0.5))
    zero = synth_abc(SequenceSet(), 1.234)
    assert (zero.a, zero.b, zero.c) == (0.0, 0.0, 0.0)


@given(st.tuples(*[finite] * 4), angles)
def test_synth_abc_mixture_matches_phasor_sum_oracle(vals, theta):
    seq = SequenceSet(pos=Phasor(vals[0], vals[1]), neg=Phasor(vals[2], vals[3]))
    s = synth_abc(seq, theta)
    rot = cmath.exp(1j * theta)
    for got, ph in zip((s.a, s.b, s.c), inverse_fortescue(seq)):
        assert got == pytest.approx((ph.z * rot).real, abs=1e-12)


def test_synth_abc_pos_only_formula():
    # phase a of a pos-only set of magnitude m, angle phi is m*cos(theta+phi)
    m, phi, theta = 0.97, 0.4, 1.1
    s = synth_abc(SequenceSet(pos=Phasor.from_polar(m, phi)), theta)
    assert s.a == pytest.approx(m * math.cos(theta + phi), abs=1e-12)


@given(angles)
def test_wrap_angle_range_and_periodicity(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert wrap_angle(theta + 2 * math.pi) == pytest.approx(w, abs=1e-9)


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_phasor_angle_wrapped():
    p = Phasor(-1.0, 0.0)
    assert p.angle == pytest.approx(math.pi)
    assert Phasor.from_polar(2.0, 0.5).mag == pytest.approx(2.0)
    assert complex(Phasor(1.0, 2.0)) == 1 + 2j


def test_dq_mag():
    assert DqFrame(3.0, 4.0).mag == pytest.approx(5.0)


@given(finite, finite)
def test_inverse_clarke_roundtrip_zero_sequence_free(alpha, beta):
    a, b, c = inverse_clarke(alpha, beta)
    assert a + b + c == pytest.approx(0.0, abs=1e-12)
    back = clarke(a, b, c)
    assert back[0] == pytest.approx(alpha, abs=1e-12)
    assert back[1] == pytest.approx(beta, abs=1e-12)
