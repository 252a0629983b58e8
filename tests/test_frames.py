import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sampled_pll import clarke, phase_samples

from dualpath.frames import PerUnitBase, wrap_angle
from dualpath.pll import gfl_injection

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


# --- independent matrix oracles -------------------------------------------

CLARKE_M = np.array([[2 / 3, -1 / 3, -1 / 3], [0.0, 1 / math.sqrt(3), -1 / math.sqrt(3)]])

_a = cmath.exp(2j * math.pi / 3)
FORTESCUE_M = np.array([[1, 1, 1], [1, _a, _a**2], [1, _a**2, _a]]) / 3.0


def phase_phasors(v_pos, v_neg):
    # Re(z * 1) and Re(z * -j) are the real and imaginary parts of each
    # phase phasor z
    re = phase_samples(v_pos, v_neg, 1.0)
    im = phase_samples(v_pos, v_neg, -1j)
    return np.array([complex(x, y) for x, y in zip(re, im)])


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
    # the GFL path rotates dq references into the network frame at theta
    assert gfl_injection(1.0, 0.0, 0.0) == pytest.approx(1.0)
    assert gfl_injection(0.0, -1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


@given(finite, finite, angles)
def test_park_roundtrip(alpha, beta, theta):
    # the runner's forward rotation d + jq = (alpha + j beta) e^{-j theta}
    dq = complex(alpha, beta) * cmath.exp(-1j * theta)
    back = gfl_injection(dq.real, dq.imag, theta)
    assert back.real == pytest.approx(alpha, abs=1e-12)
    assert back.imag == pytest.approx(beta, abs=1e-12)


@given(finite, angles)
def test_clarke_park_amplitude_invariance(m, theta):
    # balanced set of peak m at angle theta maps to dq magnitude |m|
    a = m * math.cos(theta)
    b = m * math.cos(theta - 2 * math.pi / 3)
    c = m * math.cos(theta + 2 * math.pi / 3)
    alpha, beta = clarke(a, b, c)
    assert math.hypot(alpha, beta) == pytest.approx(abs(m), abs=1e-12)


def test_fortescue_balanced_set():
    phases = phase_phasors(1.0, 0.0)
    ref = np.exp(1j * np.array([0.0, -2 * math.pi / 3, 2 * math.pi / 3]))
    assert phases == pytest.approx(ref, abs=1e-15)
    zero, pos, neg = FORTESCUE_M @ phases
    assert pos == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert abs(neg) == pytest.approx(0.0, abs=1e-15)
    assert abs(zero) == pytest.approx(0.0, abs=1e-15)


def test_fortescue_all_zero():
    assert phase_samples(0j, 0j, cmath.exp(0.7j)) == (0.0, 0.0, 0.0)


@given(st.tuples(*[finite] * 4))
def test_fortescue_roundtrip(vals):
    v_pos, v_neg = complex(vals[0], vals[1]), complex(vals[2], vals[3])
    zero, pos, neg = FORTESCUE_M @ phase_phasors(v_pos, v_neg)
    assert zero == pytest.approx(0j, abs=1e-12)
    assert pos == pytest.approx(v_pos, abs=1e-12)
    assert neg == pytest.approx(v_neg, abs=1e-12)


def test_synth_abc_positive_sequence():
    assert phase_samples(1.0 + 0j, 0j, 1.0) == pytest.approx((1.0, -0.5, -0.5))
    assert phase_samples(0j, 0j, cmath.exp(1.234j)) == (0.0, 0.0, 0.0)


@given(st.tuples(*[finite] * 4), angles)
def test_synth_abc_mixture_matches_phasor_sum_oracle(vals, theta):
    v_pos, v_neg = complex(vals[0], vals[1]), complex(vals[2], vals[3])
    rot = cmath.exp(1j * theta)
    # inverse of the component matrix: phases from (zero, pos, neg)
    phases = np.linalg.inv(FORTESCUE_M) @ np.array([0j, v_pos, v_neg])
    assert phase_samples(v_pos, v_neg, rot) == pytest.approx(
        tuple((phases * rot).real), abs=1e-12
    )


def test_synth_abc_pos_only_formula():
    # phase a of a pos-only set of magnitude m, angle phi is m*cos(theta+phi)
    m, phi, theta = 0.97, 0.4, 1.1
    a, _, _ = phase_samples(cmath.rect(m, phi), 0j, cmath.exp(1j * theta))
    assert a == pytest.approx(m * math.cos(theta + phi), abs=1e-12)


@given(angles)
def test_wrap_angle_range_and_periodicity(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert wrap_angle(theta + 2 * math.pi) == pytest.approx(w, abs=1e-9)


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


@given(finite, finite)
def test_inverse_clarke_roundtrip_zero_sequence_free(alpha, beta):
    # a positive-sequence set at zero angle is the inverse Clarke transform
    a, b, c = phase_samples(complex(alpha, beta), 0j, 1.0)
    assert a + b + c == pytest.approx(0.0, abs=1e-12)
    back = clarke(a, b, c)
    assert back[0] == pytest.approx(alpha, abs=1e-12)
    assert back[1] == pytest.approx(beta, abs=1e-12)
