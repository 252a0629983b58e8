"""Per-unit bases, angle wrapping and the three-phase transforms.

Conventions used throughout the package:

* Clarke transform is amplitude-invariant (2/3 scaling):
  ``alpha = (2/3)(a - b/2 - c/2)``, ``beta = (b - c)/sqrt(3)``; the PLL
  applies it to the phase samples it synthesizes (``pll.pll_step``).
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


def steps(seconds: float, dt: float) -> int:
    """The one conversion of a duration to control steps: ceil(seconds/dt - 1e-9),
    the slack keeping N steps' worth (0.16 s of 1e-4 s) at N.  Raises on NaN, inf."""
    return math.ceil(seconds / dt - 1e-9)


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
