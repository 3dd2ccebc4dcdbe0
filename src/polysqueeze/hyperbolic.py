"""Poincare-metric primitives on the unit disk.

The radial distance function is ``sigma(x) = log((1+x)/(1-x))`` with inverse
``tanh(t/2)``; ``sigma(|z|)`` is the Poincare distance from 0 to ``z``.  The
Kobayashi distance coincides with the Poincare distance on the disk; the
puncture upper bound of :mod:`polysqueeze.squeezing` measures it from a point
to each puncture with every puncture filled, which is the whole disk.

All functions are pure and operate on doubles.  Near the unit circle every
bit of a radius ``x`` that matters is in ``1 - x``, which a double holding
``x`` has lost: above t of about 10 many values of ``t`` round to the same
``tanh(t/2)``.  So ``sigma_inv`` returns a float that also carries its
complement ``1 - x``, computed from ``t`` without cancellation, and ``sigma``
divides by that complement instead of forming ``1 - x``.  With it the
inverse-then-forward identity ``sigma(sigma_inv(t)) = t`` holds to a few ulps
of ``t``; the float value itself is the plain rounded ``tanh(t/2)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

# Poincare distances are plain nonnegative finite floats.
HyperbolicValue = float

_ONE_BELOW_1 = math.nextafter(1.0, 0.0)


class _Radius(float):
    """A float radius in [0, 1) that carries ``complement = 1 - x``.

    ``x`` is the exact radius that the float value rounds.  The complement
    keeps full relative precision where the float has rounded toward 1; it is
    0.0 where it is not known (below the normal double range).  Arithmetic
    on the value yields plain floats.
    """

    __slots__ = ("complement",)


def sigma(x: float) -> HyperbolicValue:
    """Poincare distance from 0 to a point at radius ``x``: log((1+x)/(1-x)).

    A radius returned by :func:`sigma_inv` supplies its carried ``1 - x``;
    any other input forms ``1 - x`` from the double.
    """
    complement = x.complement if isinstance(x, _Radius) else 0.0
    x = float(x)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"sigma requires 0 <= x < 1, got {x}")
    # log1p form keeps relative accuracy as x -> 1.
    return math.log1p(2.0 * x / (complement or (1.0 - x)))


def sigma_inv(t: HyperbolicValue) -> float:
    """Radius at Poincare distance ``t`` from 0: tanh(t/2).

    The float value is ``math.tanh(t/2)``, clamped below 1.  Its attribute
    ``complement`` is ``1 - tanh(t/2) = 2 e^{-t} / (1 + e^{-t})``, accurate to
    a few ulps relative while ``e^{-t}`` is a normal double (t up to about
    708) and 0.0 beyond, where :func:`sigma` falls back to the float.
    """
    t = float(t)
    if not (t >= 0.0) or math.isinf(t):
        raise DomainError(f"sigma_inv requires a finite t >= 0, got {t}")
    x = math.tanh(0.5 * t)
    e = math.exp(-t)
    # tanh rounds to 1.0 for t >= ~38.12; clamp to keep the codomain [0, 1).
    r = _Radius(x if x < 1.0 else _ONE_BELOW_1)
    r.complement = 2.0 * e / (1.0 + e) if e >= sys.float_info.min else 0.0
    return r


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


def _pseudo_hyperbolic(a: complex, b: complex) -> float:
    u = abs((b - a) / (1.0 - a.conjugate() * b))
    # Interior inputs give u < 1 mathematically; guard the last-ulp rounding.
    return u if u < 1.0 else _ONE_BELOW_1


def poincare_distance(a: complex, b: complex) -> HyperbolicValue:
    """Poincare distance between two points of the unit disk."""
    a, b = complex(a), complex(b)
    if not (abs(a) < 1 and abs(b) < 1):
        raise DomainError(f"poincare_distance requires both points inside the disk: {a}, {b}")
    return sigma(_pseudo_hyperbolic(a, b))


def kob_disk(a: complex, b: complex) -> HyperbolicValue:
    """Kobayashi distance on the unit disk (equals the Poincare distance)."""
    return poincare_distance(a, b)


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
