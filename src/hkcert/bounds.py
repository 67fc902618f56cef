"""Exact lower-bound expressions for Hilbert-Kunz multiplicities.

All bounds are built from slice volumes nu(x, d) evaluated at shifted
arguments.  The master two-parameter family, for a d-dimensional ring with
Hilbert-Samuel multiplicity e, generator count mu (minimal generators of the
maximal ideal modulo the tight closure of a minimal reduction), and k
adjoined square roots, is

    G(s, t) = 1 - t/2^k
            + e * (nu(s) - (mu-k-1) nu(s-1) - k nu(s-1/2) - nu(s-t)),

valid for s >= 0, t in [0, 1].  Its pre-rescaling companion (the bound seen
by the k-th quadratic extension) is 1 - t + 2^k e (...) with the same inner
sum, so G = 1 + (companion - 1) / 2^k identically.

The k = 0 instance comes from a one-parameter interpolation function phi
between Hilbert-Kunz multiplicities of radical extensions:

    phi(t) >= t - t0 + e * (nu(s) - sum_i nu(s - a_i) - nu(s - t0)),

for 0 <= t0 <= t <= 1 and order values a_i of the non-distinguished
generators; phi(1) is the Hilbert-Kunz multiplicity itself.

The worst case mu = e - 2 with k = 1 gives the single-variable-e family
H_e(s, t) used by the dimension-7 search, which is a downward parabola in e
with apex at the ratio exposed by :func:`e_max`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .search import GridAxis, SearchParams, nu_vector, optimize_bound
from .volume import nu_exact, to_rational

__all__ = [
    "LinearInEError",
    "EvalPoint",
    "BoundSpec",
    "noroots_bound",
    "general_bound",
    "s_bound",
    "h_bound",
    "quadratic_in_e",
    "e_max",
    "range_min",
    "mu_small_bound",
    "not_normal_bound",
    "phi_envelope",
    "HBoundObjective",
    "GeneralBoundObjective",
    "MuSmallObjective",
    "NoRootsObjective",
    "ConstantObjective",
]


class LinearInEError(ValueError):
    """The bound degenerates to a linear function of e (no parabola vertex)."""


def _check_offsets(offsets: Iterable) -> tuple[Fraction, ...]:
    out = tuple(to_rational(a) for a in offsets)
    for a in out:
        if not 0 <= a <= 1:
            raise ValueError(f"order value {a} outside [0, 1]")
    return out


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point (s, t, t0) with 0 <= t0 <= t <= 1 and s >= 0.

    t0 defaults to t, which is the single-parameter form of the phi bound.
    """

    s: Fraction
    t: Fraction
    t0: Fraction = None  # type: ignore[assignment]

    def __init__(self, s, t, t0=None):
        s = to_rational(s)
        t = to_rational(t)
        t0 = t if t0 is None else to_rational(t0)
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        if not 0 <= t <= 1:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        if not 0 <= t0 <= t:
            raise ValueError(f"need 0 <= t0 <= t, got t0={t0}, t={t}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "t0", t0)


@dataclass(frozen=True)
class BoundSpec:
    """Ring parameters feeding the master bound family.

    ``extra`` lists additional (multiplicity, order value) pairs subtracted
    as m * nu(s - a) beyond the standard mu/k pattern; it is empty in every
    table-reproduction use.
    """

    dimension: int
    e: Fraction
    mu: int
    k: int = 0
    extra: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)

    def __init__(self, dimension, e, mu, k=0, extra=()):
        if not isinstance(dimension, int) or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        e = to_rational(e)
        if e <= 0:
            raise ValueError(f"multiplicity e must be positive, got {e}")
        if not isinstance(mu, int) or mu < 1:
            raise ValueError(f"generator count mu must be a positive integer, got {mu!r}")
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"root count k must be a nonnegative integer, got {k!r}")
        if k >= 1 and mu < k + 1:
            raise ValueError(f"root count k={k} requires mu >= k+1, got mu={mu}")
        norm = []
        for mult, a in extra:
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"extra multiplicity must be a positive integer, got {mult!r}")
            a = to_rational(a)
            if not 0 <= a <= 1:
                raise ValueError(f"extra order value {a} outside [0, 1]")
            norm.append((mult, a))
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "extra", tuple(norm))


def noroots_bound(
    e: Fraction | int | str,
    offsets: Sequence,
    d: int,
    point: EvalPoint,
) -> Fraction:
    """Exact phi(t) lower bound t - t0 + e (nu(s) - sum nu(s-a) - nu(s-t0)).

    ``offsets`` holds the order values of the generators other than the
    distinguished one, so a ring with mu generators passes mu - 1 of them.
    With t = 1 this bounds the Hilbert-Kunz multiplicity itself.
    """
    e = to_rational(e)
    offs = _check_offsets(offsets)
    inner = nu_exact(point.s, d) - nu_exact(point.s - point.t0, d)
    for a in offs:
        inner -= nu_exact(point.s - a, d)
    return point.t - point.t0 + e * inner


def _inner_sum(d: int, e, mu, k: int, s: Fraction, t: Fraction, extra=()) -> Fraction:
    # nu(s) - (mu-k-1) nu(s-1) - k nu(s-1/2) - nu(s-t) - sum m*nu(s-a).
    # mu may be rational here: the continuous-in-e families substitute e - 2.
    inner = (
        nu_exact(s, d)
        - (mu - k - 1) * nu_exact(s - 1, d)
        - k * nu_exact(s - Fraction(1, 2), d)
        - nu_exact(s - t, d)
    )
    for mult, a in extra:
        inner -= mult * nu_exact(s - a, d)
    return inner


def _check_st(s, t) -> tuple[Fraction, Fraction]:
    s, t = to_rational(s), to_rational(t)
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return s, t


def general_bound(spec: BoundSpec, s, t) -> Fraction:
    """Exact value of 1 - t/2^k + e (nu(s) - (mu-k-1)nu(s-1) - k nu(s-1/2) - nu(s-t))."""
    s, t = _check_st(s, t)
    inner = _inner_sum(spec.dimension, spec.e, spec.mu, spec.k, s, t, spec.extra)
    return 1 - t / 2**spec.k + spec.e * inner


def s_bound(spec: BoundSpec, s, t) -> Fraction:
    """Pre-rescaling bound 1 - t + 2^k e (...): what the k-th extension satisfies.

    Related to :func:`general_bound` by general = 1 + (s_bound - 1) / 2^k.
    """
    if spec.k == 0:
        raise ValueError("the pre-rescaling bound requires k >= 1")
    s, t = _check_st(s, t)
    inner = _inner_sum(spec.dimension, spec.e, spec.mu, spec.k, s, t, spec.extra)
    return 1 - t + 2**spec.k * spec.e * inner


def h_bound(e, s, t, d: int = 7) -> Fraction:
    """Worst-generator-count family H_e(s,t): mu = e - 2 with one square root.

        H_e(s, t) = 1 - t/2 + e (nu(s) - (e-4) nu(s-1) - nu(s-1/2) - nu(s-t))

    e may be any rational >= 4 (the parabola analysis treats it continuously).
    """
    e = to_rational(e)
    if e < 4:
        raise ValueError(f"h_bound needs e >= 4 so that mu = e - 2 >= 2, got {e}")
    s, t = _check_st(s, t)
    return 1 - t / 2 + e * _inner_sum(d, e, e - 2, 1, s, t)


def quadratic_in_e(s, t, d: int = 7) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) with H_e(s,t) = a e^2 + b e + c for all e.

    a = -nu(s-1) <= 0, so the family is concave in e and interval minima sit
    at the endpoints.
    """
    s, t = _check_st(s, t)
    n1 = nu_exact(s - 1, d)
    a = -n1
    b = (
        nu_exact(s, d)
        + 4 * n1
        - nu_exact(s - Fraction(1, 2), d)
        - nu_exact(s - t, d)
    )
    c = 1 - t / 2
    return a, b, c


def e_max(s0, t0, d: int = 7) -> Fraction:
    """Vertex -b/(2a) of the parabola e -> H_e(s0, t0).

    Raises :class:`LinearInEError` when s0 <= 1 (then nu(s0 - 1) = 0 and the
    family is linear in e).
    """
    a, b, _ = quadratic_in_e(s0, t0, d)
    if a == 0:
        raise LinearInEError(
            f"H is linear in e at s0={s0} (nu(s0-1) = 0); no vertex exists"
        )
    return -b / (2 * a)


def range_min(e1, e2, s0, t0, d: int = 7) -> Fraction:
    """min(H_{e1}, H_{e2}) at (s0, t0): a lower bound for every e in [e1, e2].

    Sound because the family is concave in e (quadratic coefficient <= 0).
    """
    e1, e2 = to_rational(e1), to_rational(e2)
    if e1 > e2:
        raise ValueError(f"need e1 <= e2, got {e1} > {e2}")
    return min(h_bound(e1, s0, t0, d), h_bound(e2, s0, t0, d))


def mu_small_bound(e, mu: int, s, d: int = 7) -> Fraction:
    """Root-free bound e (nu(s) - mu nu(s-1)) for small generator counts."""
    e, s = to_rational(e), to_rational(s)
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return e * (nu_exact(s, d) - mu * nu_exact(s - 1, d))


def not_normal_bound(k: int) -> Fraction:
    """Escape-hatch bound 1 + 1/2^k when the k-th quadratic extension is not normal."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return 1 + Fraction(1, 2**k)


# --------------------------------------------------------------------------
# Vectorized objective adapters for the grid search.


@dataclass(frozen=True)
class HBoundObjective:
    """H_e(s, t) on a fixed dimension, as a search objective."""

    e: Fraction
    d: int = 7

    def __init__(self, e, d: int = 7):
        object.__setattr__(self, "e", to_rational(e))
        object.__setattr__(self, "d", d)

    @property
    def dimension(self) -> int:
        return self.d

    def exact(self, s: Fraction, t: Fraction) -> Fraction:
        return h_bound(self.e, s, t, self.d)

    def vector(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        e, d = float(self.e), self.d
        base = (
            nu_vector(s, d)
            - (e - 4.0) * nu_vector(s - 1.0, d)
            - nu_vector(s - 0.5, d)
        )
        return 1.0 - t[None, :] / 2.0 + e * (
            base[:, None] - nu_vector(s[:, None] - t[None, :], d)
        )

    def descriptor(self) -> dict:
        return {"kind": "h", "e": str(self.e), "d": self.d}


@dataclass(frozen=True)
class GeneralBoundObjective:
    """The master family for a full BoundSpec, as a search objective."""

    spec: BoundSpec

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def exact(self, s: Fraction, t: Fraction) -> Fraction:
        return general_bound(self.spec, s, t)

    def vector(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        sp = self.spec
        e, d, mu, k = float(sp.e), sp.dimension, float(sp.mu), sp.k
        base = (
            nu_vector(s, d)
            - (mu - k - 1) * nu_vector(s - 1.0, d)
            - k * nu_vector(s - 0.5, d)
        )
        for mult, a in sp.extra:
            base = base - mult * nu_vector(s - float(a), d)
        return 1.0 - t[None, :] / 2.0**k + e * (
            base[:, None] - nu_vector(s[:, None] - t[None, :], d)
        )

    def descriptor(self) -> dict:
        sp = self.spec
        return {
            "kind": "general",
            "d": sp.dimension,
            "e": str(sp.e),
            "mu": sp.mu,
            "k": sp.k,
            "extra": [[m, str(a)] for m, a in sp.extra],
        }


@dataclass(frozen=True)
class MuSmallObjective:
    """e (nu(s) - mu nu(s-1)); constant in t."""

    e: Fraction
    mu: int
    d: int = 7

    def __init__(self, e, mu: int, d: int = 7):
        object.__setattr__(self, "e", to_rational(e))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "d", d)

    @property
    def dimension(self) -> int:
        return self.d

    def exact(self, s: Fraction, t: Fraction) -> Fraction:
        return mu_small_bound(self.e, self.mu, s, self.d)

    def vector(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        e, d = float(self.e), self.d
        col = e * (nu_vector(s, d) - self.mu * nu_vector(s - 1.0, d))
        return np.broadcast_to(col[:, None], (len(s), len(t))).copy()

    def descriptor(self) -> dict:
        return {"kind": "mu-small", "e": str(self.e), "mu": self.mu, "d": self.d}


@dataclass(frozen=True)
class NoRootsObjective:
    """phi bound with the grid's t-axis interpreted as t0, at fixed phi argument.

    Scanning (s, t0) for a fixed argument ``t_arg`` gives the certified
    envelope machinery its candidates; exact() matches noroots_bound at
    EvalPoint(s, t_arg, t0).
    """

    e: Fraction
    offsets: tuple[Fraction, ...]
    d: int
    t_arg: Fraction

    def __init__(self, e, offsets, d: int, t_arg):
        object.__setattr__(self, "e", to_rational(e))
        object.__setattr__(self, "offsets", _check_offsets(offsets))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t_arg", to_rational(t_arg))

    @property
    def dimension(self) -> int:
        return self.d

    def exact(self, s: Fraction, t0: Fraction) -> Fraction:
        return noroots_bound(
            self.e, self.offsets, self.d, EvalPoint(s, self.t_arg, t0)
        )

    def vector(self, s: np.ndarray, t0: np.ndarray) -> np.ndarray:
        e, d = float(self.e), self.d
        base = nu_vector(s, d)
        for a in self.offsets:
            base = base - nu_vector(s - float(a), d)
        return (float(self.t_arg) - t0[None, :]) + e * (
            base[:, None] - nu_vector(s[:, None] - t0[None, :], d)
        )

    def descriptor(self) -> dict:
        return {
            "kind": "noroots",
            "e": str(self.e),
            "offsets": [str(a) for a in self.offsets],
            "d": self.d,
            "t": str(self.t_arg),
        }


@dataclass(frozen=True)
class ConstantObjective:
    """Constant objective; exists so search determinism can be pinned down."""

    value: Fraction = Fraction(0)
    d: int = 1

    @property
    def dimension(self) -> int:
        return self.d

    def exact(self, s: Fraction, t: Fraction) -> Fraction:
        return to_rational(self.value)

    def vector(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.full((len(s), len(t)), float(self.value))

    def descriptor(self) -> dict:
        return {"kind": "constant", "value": str(self.value), "d": self.d}


# --------------------------------------------------------------------------
# Certified lower envelope of phi.


@lru_cache(maxsize=64)
def _envelope_table(
    e: Fraction,
    offsets: tuple[Fraction, ...],
    d: int,
    params: SearchParams,
) -> tuple[tuple[Fraction, Fraction], ...]:
    """For each node tau of a fixed [0,1] grid, the exact best of
    -tau + e (nu(s) - sum nu(s-a) - nu(s-tau)) over a refined s search.

    The tau grid does not depend on the envelope argument t, which is what
    makes the envelope monotone by construction.
    """
    ns, nt = params.grid
    inner_params = replace(params, t_range=(Fraction(0), Fraction(0)), grid=(ns, 2))
    table = []
    for j in range(nt):
        tau = Fraction(j, nt - 1)
        # 1-D refined search in s at fixed tau (argument value is irrelevant
        # to the maximizer, so scan with t_arg = 1 and subtract it back).
        objective = NoRootsObjective(e, offsets, d, 1)
        cand = optimize_bound(
            objective, replace(inner_params, t_range=(tau, tau))
        )
        g = objective.exact(cand.s_exact, tau) - 1  # = -tau + e * inner
        table.append((tau, g))
    return tuple(table)


def phi_envelope(
    t,
    e,
    offsets: Sequence,
    d: int,
    params: SearchParams | None = None,
) -> Fraction:
    """Certified lower bound for the interpolation function phi at argument t.

    Maximizes the exact phi bound over grid candidates (s, t0 <= t) and
    clamps at 0 (= phi(0)).  The t0 candidates come from a fixed absolute
    grid on [0, 1] plus t0 = t itself, and each candidate's value grows
    pointwise with t, so the envelope is nondecreasing in t by construction.
    Never exceeds the true supremum: every reported value is an exact
    evaluation of the bound at an admissible rational point.
    """
    t = to_rational(t)
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    e = to_rational(e)
    offs = _check_offsets(offsets)
    params = params or SearchParams(grid=(120, 33), refine_rounds=2)

    best = Fraction(0)
    for tau, g in _envelope_table(e, offs, d, params):
        if tau <= t:
            best = max(best, t + g)

    # t0 = t on a fixed s grid (no refinement, so the candidate set is
    # t-independent and the pointwise-monotone argument still applies).
    s_lo, s_hi = params.resolved_s_range(d)
    ns, _ = params.grid
    for s in GridAxis(s_lo, s_hi, ns, params.max_denominator).nodes():
        inner = nu_exact(s, d) - nu_exact(s - t, d)
        for a in offs:
            inner -= nu_exact(s - a, d)
        best = max(best, e * inner)
    return best
