"""Disk automorphisms and their radial circle minimum.

A :class:`MobiusAut` is the map ``zeta -> e^{i theta} (zeta - a) / (1 -
conj(a) zeta)``.  :func:`mobius_eval` evaluates it at a scalar or an
ndarray, and :func:`mobius_circle_min_modulus` gives its least modulus over
a circle centered at 0 in closed form, which the witness scores of
:mod:`polysqueeze.squeezing` use.  The radial distance pair ``sigma`` /
``sigma_inv`` and the Poincare distance serve only the verification suites
and live in :mod:`polysqueeze.verify`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class MobiusAut:
    """Disk automorphism ``zeta -> e^{i theta} (zeta - a) / (1 - conj(a) zeta)``.

    ``a`` is the zero of the map.  Radial quantities are independent of
    ``theta``; it is carried so that witnesses are fully specified maps.
    """

    a: complex
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "theta", float(self.theta))
        if not abs(self.a) < 1:
            raise DomainError(f"Mobius parameter must satisfy |a| < 1, got {self.a}")
        if not math.isfinite(self.theta):
            raise DomainError("rotation angle must be finite")

    def __call__(self, zeta):
        return mobius_eval(self, zeta)

    def inverse(self) -> "MobiusAut":
        """Exact inverse automorphism: zero at ``-e^{i theta} a``, rotation ``-theta``."""
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        return MobiusAut(-phase * self.a, -self.theta)


def mobius_eval(m: MobiusAut, zeta):
    """Evaluate the automorphism at ``zeta`` (scalar or ndarray, |zeta| <= 1)."""
    # numpy is imported only where arrays are built: if it was never loaded,
    # zeta cannot be an ndarray.
    np = sys.modules.get("numpy")
    if np is None or not isinstance(zeta, np.ndarray):
        w = zeta - m.a
        if not w:
            # the map's own zero, also where 1 - |a|^2 rounds to 0 and the
            # quotient would be 0/0
            return w
        w = w / (1.0 - m.a.conjugate() * zeta)
        if m.theta != 0.0:
            w = complex(math.cos(m.theta), math.sin(m.theta)) * w
        return w
    # The same operations in place: two temporaries of the input's size, not three.
    den = m.a.conjugate() * zeta
    np.subtract(1.0, den, out=den)
    w = zeta - m.a
    w /= den
    if m.theta != 0.0:
        np.multiply(complex(math.cos(m.theta), math.sin(m.theta)), w, out=w)
    return w


def mobius_circle_min_modulus(a: complex, r: float) -> float:
    """Minimum of ``|mobius_eval((a, theta), zeta)|`` over the circle ``|zeta| = r``.

    The circle is a hyperbolic circle centered at 0, so the minimum is attained
    radially and equals ``||a| - r| / (1 - r |a|)``, independent of ``theta``.
    """
    a = complex(a)
    r = float(r)
    if not abs(a) < 1:
        raise DomainError(f"|a| < 1 required, got {a}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"circle radius must lie in (0, 1), got {r}")
    return abs(abs(a) - r) / (1.0 - r * abs(a))
