"""Exact target constants for the multiplicity conjecture.

Two sources of targets:

* the coefficients m_d of the odd/even zigzag series

      sec x + tan x = 1 + sum_{d >= 1} m_d x^d,

  computed exactly as (zigzag number)_d / d! via the boustrophedon
  recurrence, giving the characteristic-free target 1 + m_d;

* the dimension-7 quadric hypersurface value

      ehk7(p) = (332 p^4 + 304 p^2 + 192) / (315 p^4 + 273 p^2 + 168),

  a strictly decreasing function of p >= 3 with limit 1 + m_7 = 332/315,
  whose worst case ehk7(3) = 71/67 is the target actually certified against
  in dimension 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .volume import _fact, to_rational

__all__ = [
    "TargetValue",
    "zigzag_numbers",
    "m_coeffs",
    "ehk_quadric_dim7",
    "QuadricIdentityReport",
    "verify_quadric_identities",
    "wy_target",
    "dimension_target",
    "large_e_threshold",
]

# Polynomials in p as integer coefficient tuples, index = power of p: the
# closed form ehk7 = _QUADRIC_NUM / _QUADRIC_DEN, its distance to the limit
# ehk7 - 332/315 = _RES_NUM / _RES_DEN, and its slope -_DER_NUM / _DER_DEN.
_QUADRIC_NUM = (192, 0, 304, 0, 332)
_QUADRIC_DEN = (168, 0, 273, 0, 315)
_RES_NUM = (224, 0, 244)
_RES_DEN = (2520, 0, 4095, 0, 4725)
_DER_NUM = (0, 128, 0, 896, 0, 488)
_DER_DEN = (1344, 0, 4368, 0, 8589, 0, 8190, 0, 4725)


def _at(coeffs: tuple, x):
    """The polynomial ``coeffs`` at x, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _check_int(name: str, value, least: int) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class TargetValue:
    """A certification target: exact value plus where it came from.

    provenance is one of "series" (1 + m_d), "closed-form-d7" (quadric
    value at a specific characteristic), or "user-supplied".  dimension is
    a plain int >= 1, and characteristic None or a plain int >= 3.
    """

    dimension: int
    characteristic: int | None
    value: Fraction
    provenance: str

    def __post_init__(self):
        _check_int("dimension", self.dimension, 1)
        if self.characteristic is not None:
            _check_int("characteristic", self.characteristic, 3)
        object.__setattr__(self, "value", to_rational(self.value))
        if self.provenance not in ("series", "closed-form-d7", "user-supplied"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.value <= 1:
            raise ValueError(f"target must exceed 1, got {self.value}")


def zigzag_numbers(n_max: int) -> list[int]:
    """Zigzag (secant/tangent) numbers Z_0..Z_n by the boustrophedon recurrence.

    Row n of the triangle is filled left to right as partial sums against the
    reversed previous row; Z_n is the last entry.  O(n^2) integer additions.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    row = [1]
    out = [1]
    for n in range(1, n_max + 1):
        new = [0]
        for k in range(n):
            new.append(new[-1] + row[n - 1 - k])
        row = new
        out.append(row[-1])
    return out


def m_coeffs(n_max: int) -> list[Fraction]:
    """Exact m_1..m_{n_max}: coefficient of x^d in sec x + tan x is Z_d / d!."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    zz = zigzag_numbers(n_max)
    return [Fraction(zz[d], _fact(d)) for d in range(1, n_max + 1)]


def ehk_quadric_dim7(p) -> Fraction:
    """Hilbert-Kunz multiplicity of the dimension-7 quadric at parameter p >= 3."""
    p = to_rational(p)
    if p < 3:
        raise ValueError(f"parameter p must be >= 3, got {p}")
    return _at(_QUADRIC_NUM, p) / _at(_QUADRIC_DEN, p)


@dataclass(frozen=True)
class QuadricIdentityReport:
    """Outcome of the exact structural checks on the dimension-7 closed form."""

    decomposition_identity: bool
    derivative_identity: bool
    derivative_negative: bool
    strictly_decreasing: bool
    sampled_parameters: tuple[int, ...]

    @property
    def all_hold(self) -> bool:
        return (
            self.decomposition_identity
            and self.derivative_identity
            and self.derivative_negative
            and self.strictly_decreasing
        )


def verify_quadric_identities(p_max: int = 199) -> QuadricIdentityReport:
    """Certify the closed form's structure by exact rational arithmetic.

    * decomposition: ehk7(p) - 332/315 = (244 p^2 + 224) / (4725 p^4 + 4095 p^2 + 2520)
      as rational functions;
    * derivative: d/dp ehk7(p) = -(488 p^5 + 896 p^3 + 128 p)
      / (4725 p^8 + 8190 p^6 + 8589 p^4 + 4368 p^2 + 1344), again exactly;
    * sign: the derivative numerator has nonnegative coefficients, not all
      in the constant term, so the function strictly decreases for every p > 0;
    * monotone chain: exact comparisons along odd p from 3 to p_max.
    """
    n, d = _QUADRIC_NUM, _QUADRIC_DEN
    dn, dd = _derivative(n), _derivative(d)
    # a/b = c/e iff the polynomials a e and b c are equal, which they are if
    # they agree at more points than their degree; every denominator is
    # positive at p >= 0.  The largest degree is the derivative identity's,
    # (n'd - nd') _DER_DEN: 3 + 4 + 8 = 15, so 16 points.
    points = range(len(dn) + len(d) + len(_DER_DEN) - 2)
    decomposition = all(
        Fraction(_at(n, x), _at(d, x)) - Fraction(332, 315)
        == Fraction(_at(_RES_NUM, x), _at(_RES_DEN, x))
        for x in points
    )
    # d/dp (n/d) = (n'd - nd') / d^2.
    derivative = all(
        Fraction(_at(dn, x) * _at(d, x) - _at(n, x) * _at(dd, x), _at(d, x) ** 2)
        == Fraction(-_at(_DER_NUM, x), _at(_DER_DEN, x))
        for x in points
    )
    negative = all(c >= 0 for c in _DER_NUM) and any(_DER_NUM[1:])

    samples = tuple(range(3, p_max + 1, 2))
    values = [ehk_quadric_dim7(p) for p in samples]
    decreasing = all(a > b for a, b in zip(values, values[1:]))

    return QuadricIdentityReport(
        decomposition_identity=decomposition,
        derivative_identity=derivative,
        derivative_negative=negative,
        strictly_decreasing=decreasing,
        sampled_parameters=samples,
    )


def wy_target(d: int, p: int | None = None) -> TargetValue:
    """Target constant for dimension d: quadric closed form when available.

    With p given, only d = 7 has a transcribed closed form; other dimensions
    raise.  Without p the characteristic-free series value 1 + m_d is used.
    """
    _check_int("dimension", d, 1)
    if p is not None:
        _check_int("characteristic", p, 3)
        if d != 7:
            raise ValueError(
                f"no closed form available for dimension {d} at explicit p"
            )
        return TargetValue(
            dimension=7,
            characteristic=p,
            value=ehk_quadric_dim7(p),
            provenance="closed-form-d7",
        )
    return TargetValue(
        dimension=d,
        characteristic=None,
        value=1 + m_coeffs(d)[-1],
        provenance="series",
    )


def dimension_target(d: int) -> TargetValue:
    """The target a proof in dimension d certifies against by default.

    Dimension 7 has a transcribed closed form whose worst case over odd
    characteristics sits at p = 3, giving 71/67; other dimensions use 1 + m_d.
    """
    return wy_target(d, 3) if d == 7 else wy_target(d)


def large_e_threshold(d: int, target) -> int:
    """Largest integer e NOT settled by e_HK >= e/d!: floor(target * d!).

    Every integer e above the returned value satisfies e/d! > target exactly.
    """
    _check_int("dimension", d, 1)
    return floor(to_rational(target) * _fact(d))
