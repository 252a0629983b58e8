"""Per-unit bases, angle wrapping and the three-phase transforms.

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

Phasors are plain complex numbers.  Everything in this module is a pure
function, a constant or an immutable value type.
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


def clarke(a: float, b: float, c: float) -> tuple[float, float]:
    """Amplitude-invariant Clarke transform (abc -> alpha/beta)."""
    alpha = (2.0 / 3.0) * (a - 0.5 * b - 0.5 * c)
    beta = (b - c) / SQRT3
    return alpha, beta


def phase_samples(
    v_pos: complex, v_neg: complex, rot: complex
) -> tuple[float, float, float]:
    """Instantaneous values of the three phases of a zero-sequence-free set.

    The phase phasors are rebuilt from the positive- and negative-sequence
    phasors; each phase is ``Re(phasor * rot)``, with ``rot = exp(j*theta)``
    the rotation at the sample instant.
    """
    return (
        ((v_pos + v_neg) * rot).real,
        ((A_OP2 * v_pos + A_OP * v_neg) * rot).real,
        ((A_OP * v_pos + A_OP2 * v_neg) * rot).real,
    )
