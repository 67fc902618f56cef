"""Exact hypercube-slice volumes and their density.

The central object is

    nu(s, d) = vol{ x in [0,1]^d : x_1 + ... + x_d <= s },

the cumulative distribution function of a sum of d independent uniform
variables (the Irwin-Hall distribution).  On [0, d] it is the degree-d
piecewise polynomial

    nu(s, d) = sum_{j=0}^{floor(s)} (-1)^j (s - j)^d / (j! (d - j)!),

with nu = 0 for s <= 0 and nu = 1 for s >= d.  :func:`nu_exact` evaluates
it on integers: for s = p/q in lowest terms the sum is

    nu(s, d) = [ sum_{j=0}^{floor(p/q)} (-1)^j C(d, j) (p - j q)^d ] / (d! q^d),

one integer numerator over one denominator, reduced once at the end.  The
volume is symmetric, nu(s, d) = 1 - nu(d - s, d), so above the midpoint
d/2 it sums at d - s instead, which has at most half the terms; the
binomials C(d, j) come from a table built once, as the factorials do.  Its
slope, the Irwin-Hall density :func:`nu_density`, is a difference of two
volumes one dimension down.  Everything here is computed in exact
arithmetic; the float volume the search scans is
:func:`hkcert.search.nu_vector`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__ = [
    "to_rational",
    "nu_exact",
    "nu_density",
]

# Factorials and binomial rows cached as exact integers.  The volumes take
# no dimension beyond the cache (:func:`_check_dimension`): the float
# path's error bound is tested up to it, and past it the volumes are close
# to meaningless.
MAX_CACHED_DIMENSION = 64
_FACT = tuple(factorial(n) for n in range(MAX_CACHED_DIMENSION + 1))
_BINOM = tuple(
    tuple(comb(n, j) for j in range(n + 1)) for n in range(MAX_CACHED_DIMENSION + 1)
)


# The clamped volumes, shared: a Fraction is immutable.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _fact(n: int) -> int:
    return _FACT[n] if n <= MAX_CACHED_DIMENSION else factorial(n)


def _canonical(text: str) -> Fraction | None:
    """The Fraction whose ``str`` is ``text`` ("n" or "n/d" in lowest terms,
    d > 1), read without the regex of ``Fraction(str)``; None for any other
    string."""
    n, slash, d = text.partition("/")
    try:
        value = Fraction(int(n), int(d)) if slash else Fraction(int(n))
    except (ValueError, ZeroDivisionError):
        return None
    # int() also takes signs, spaces and underscores, and the quotient is
    # reduced: comparing with str(value) leaves only the written form.
    return value if str(value) == text else None


def to_rational(value: Fraction | int | str) -> Fraction:
    """Coerce ``value`` to an exact :class:`~fractions.Fraction`.

    Accepts Fractions, integers, and strings ("7/8", "2.74118"); decimal
    strings convert exactly.  Binary floats are rejected so that inexact
    values cannot slip into a certification path unnoticed -- convert them
    deliberately, e.g. with ``Fraction(x).limit_denominator(n)``.  A string
    in the form ``str`` writes a Fraction in is read by :func:`_canonical`;
    every other string goes to ``Fraction(str)``.
    """
    if type(value) is Fraction:  # immutable, so the value itself will do
        return value
    if type(value) is str:
        exact = _canonical(value)
        return Fraction(value) if exact is None else exact
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"refusing to coerce {value!r} to an exact rational; "
            "convert floats deliberately, e.g. Fraction(x).limit_denominator(n)"
        )
    return Fraction(value)


def _check_dimension(d: int) -> None:
    # One type test rather than two isinstance tests: every bound built runs it.
    if type(d) is not int or not 1 <= d <= MAX_CACHED_DIMENSION:
        raise ValueError(
            f"dimension must be a positive integer at most {MAX_CACHED_DIMENSION}, got {d!r}"
        )


def nu_exact(s: Fraction | int | str, d: int) -> Fraction:
    """Exact volume of the slice of [0,1]^d where the coordinates sum to <= s.

    Total on all rational s: clamps to 0 below 0 and to 1 above d, which is
    how the bound formulas expect shifted arguments like s - t to behave.
    In between, with s = p/q in lowest terms, the volume is one integer sum
    over one denominator,

        nu(s, d) = sum_{j=0}^{floor(p/q)} (-1)^j C(d, j) (p - j q)^d / (d! q^d),

    so the only Fraction built is the result (reduced once, hence equal to
    the per-term rational sum).  Above the midpoint, 2p > dq, the sum runs
    at d - s = (dq - p)/q over the same denominator and the result is
    (d! q^d - total) / (d! q^d), by nu(s) = 1 - nu(d - s); so no sum has
    more than d/2 + 1 terms.
    """
    _check_dimension(d)
    s = to_rational(s)
    p, q = s.numerator, s.denominator
    if p <= 0:
        return _ZERO
    if p >= d * q:
        return _ONE
    reflect = 2 * p > d * q
    if reflect:
        p = d * q - p
    binom = _BINOM[d]
    total = 0
    # At integer s the j = s term is (p - jq)^d = 0, so the inclusive floor
    # needs no case split.
    for j in range(p // q + 1):
        term = binom[j] * (p - j * q) ** d
        total += -term if j & 1 else term
    den = _FACT[d] * q**d  # d is at most MAX_CACHED_DIMENSION
    return Fraction(den - total if reflect else total, den)


def nu_density(s: Fraction | int | str, d: int) -> Fraction:
    """Exact slope of the slice volume at s (right-hand piece at breakpoints).

    This is the Irwin-Hall density: nu(s, d-1) - nu(s-1, d-1) for d >= 2,
    and the indicator of [0, 1) for d = 1.  Nonnegative everywhere; 0 left
    of 0 and from d on.
    """
    _check_dimension(d)
    s = to_rational(s)
    if d == 1:
        return Fraction(1 if 0 <= s < 1 else 0)
    return nu_exact(s, d - 1) - nu_exact(s - 1, d - 1)
