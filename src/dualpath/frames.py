"""Per-unit bases, phasors, and three-phase reference-frame transforms.

Conventions used throughout the package:

* Clarke transform is amplitude-invariant (2/3 scaling):
  ``alpha = (2/3)(a - b/2 - c/2)``, ``beta = (b - c)/sqrt(3)``.
* Park rotation: ``d = alpha*cos(theta) + beta*sin(theta)``,
  ``q = -alpha*sin(theta) + beta*cos(theta)``.  Equivalently
  ``d + j*q = (alpha + j*beta) * exp(-j*theta)``.
* Per-unit power: ``p = v_d*i_d + v_q*i_q``, ``q = v_q*i_d - v_d*i_q``,
  i.e. ``s = v * conj(i)`` on complex phasors; the 3/2 factor of the
  amplitude-invariant frame is absorbed into the base definitions.
* Symmetrical components use ``a = exp(j*2*pi/3)`` and
  ``V+ = (Va + a*Vb + a^2*Vc)/3``.
* Angles are stored unwrapped wherever they are integrated and wrapped to
  ``(-pi, pi]`` only at reporting boundaries.

Everything in this module is a pure function or an immutable value type.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)

# 120-degree rotation operator for symmetrical components
A_OP = cmath.exp(1j * TWO_PI / 3.0)
A_OP2 = A_OP * A_OP


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    w = math.remainder(theta, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


@dataclass(frozen=True, slots=True)
class PerUnitBase:
    """System base quantities. All three must be strictly positive."""

    s_base: float = 5000.0   # VA
    v_base: float = 208.0    # line-to-line RMS volts
    f_nom: float = 60.0      # Hz

    def __post_init__(self) -> None:
        if self.s_base <= 0 or self.v_base <= 0 or self.f_nom <= 0:
            raise ValueError("per-unit bases must be strictly positive")

    @property
    def omega_base(self) -> float:
        """Nominal angular frequency in rad/s."""
        return TWO_PI * self.f_nom


@dataclass(frozen=True, slots=True)
class Phasor:
    """Complex per-unit quantity in rectangular form."""

    re: float = 0.0
    im: float = 0.0

    @classmethod
    def from_complex(cls, z: complex) -> "Phasor":
        return cls(z.real, z.imag)

    @classmethod
    def from_polar(cls, mag: float, angle: float) -> "Phasor":
        return cls(mag * math.cos(angle), mag * math.sin(angle))

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @property
    def mag(self) -> float:
        return math.hypot(self.re, self.im)

    @property
    def angle(self) -> float:
        """Phase angle wrapped to (-pi, pi]."""
        return wrap_angle(math.atan2(self.im, self.re))

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True, slots=True)
class SequenceSet:
    """Positive/negative/zero sequence phasors of a three-phase set."""

    pos: Phasor = Phasor()
    neg: Phasor = Phasor()
    zero: Phasor = Phasor()


@dataclass(frozen=True, slots=True)
class AbcSample:
    """Instantaneous three-phase sample at simulation time t."""

    a: float
    b: float
    c: float
    t: float = 0.0


@dataclass(frozen=True, slots=True)
class DqFrame:
    """Synchronous-frame pair."""

    d: float
    q: float

    @property
    def mag(self) -> float:
        return math.hypot(self.d, self.q)


def clarke(a: float, b: float, c: float) -> tuple[float, float]:
    """Amplitude-invariant Clarke transform (abc -> alpha/beta)."""
    alpha = (2.0 / 3.0) * (a - 0.5 * b - 0.5 * c)
    beta = (b - c) / SQRT3
    return alpha, beta


def inverse_clarke(alpha: float, beta: float) -> tuple[float, float, float]:
    """alpha/beta -> abc for a zero-sequence-free set."""
    a = alpha
    b = -0.5 * alpha + 0.5 * SQRT3 * beta
    c = -0.5 * alpha - 0.5 * SQRT3 * beta
    return a, b, c


def park(alpha: float, beta: float, theta: float) -> DqFrame:
    """Rotate stationary alpha/beta into the frame at angle theta."""
    c = math.cos(theta)
    s = math.sin(theta)
    return DqFrame(alpha * c + beta * s, -alpha * s + beta * c)


def inverse_park(dq: DqFrame, theta: float) -> tuple[float, float]:
    """Rotate a dq pair back to the stationary frame."""
    c = math.cos(theta)
    s = math.sin(theta)
    return dq.d * c - dq.q * s, dq.d * s + dq.q * c


def fortescue(va: Phasor, vb: Phasor, vc: Phasor) -> SequenceSet:
    """Symmetrical-component decomposition of three phase phasors."""
    za, zb, zc = va.z, vb.z, vc.z
    zero = (za + zb + zc) / 3.0
    pos = (za + A_OP * zb + A_OP2 * zc) / 3.0
    neg = (za + A_OP2 * zb + A_OP * zc) / 3.0
    return SequenceSet(
        Phasor.from_complex(pos), Phasor.from_complex(neg), Phasor.from_complex(zero)
    )


def inverse_fortescue(seq: SequenceSet) -> tuple[Phasor, Phasor, Phasor]:
    """Reconstruct phase phasors from a sequence set."""
    p, n, z = seq.pos.z, seq.neg.z, seq.zero.z
    va = z + p + n
    vb = z + A_OP2 * p + A_OP * n
    vc = z + A_OP * p + A_OP2 * n
    return (Phasor.from_complex(va), Phasor.from_complex(vb), Phasor.from_complex(vc))


def synth_abc(seq: SequenceSet, theta: float, t: float = 0.0) -> AbcSample:
    """Instantaneous waveform values: each phase is Re(phasor * e^{j*theta})."""
    va, vb, vc = inverse_fortescue(seq)
    rot = cmath.exp(1j * theta)
    return AbcSample((va.z * rot).real, (vb.z * rot).real, (vc.z * rot).real, t)
