"""Deterministic search over s with local refinement, on a float fast path.

Every bound the optimizer serves depends on t through a term whose
maximizer over a t range has a closed form (see
:meth:`~hkcert.bounds.LinearBound.row_best`), so the search runs over s
alone: the optimizer scans an evenly spaced s axis, asks the objective for
the best t of each node, then repeatedly shrinks a box around the incumbent
s by a fixed factor and rescans.  Each axis is held as integer numerators
over one common denominator (:class:`GridAxis`); its floats are derived
from those integers by correctly rounded division, never the other way
around.  The refinement boxes and the incumbent s are integers too, and
the objective returns its t as an exact rational.  So the best point found
can be certified afterwards with exact arithmetic at exactly the
coordinates the search chose.

Ties are broken by value (descending), then s, then t (ascending), so the
result is deterministic.  Within one scan the objective returns the first
best node, and the axis never decreases, so that node has the smallest s;
at one node it prefers the smaller t.  A snapped axis may repeat a node,
which changes neither.  Across refinement rounds the rule compares the
exact incumbents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Protocol

import numpy as np

from .volume import _check_dimension, _fact, to_rational

__all__ = [
    "SearchParams",
    "Candidate",
    "GridAxis",
    "nu_vector",
    "optimize_bound",
]


def nu_vector(x: np.ndarray, d: int) -> np.ndarray:
    """Float slice volume nu(x, d), element by element over an array.

    Each x is clamped to [0, d] and reflected to r = min(x, d - x) <= d/2,
    the alternating sum of :func:`~hkcert.volume.nu_exact` runs at r, and
    x > d/2 returns 1 minus it (nu(x) = 1 - nu(d - x)).  So the terms stay
    small and the sum never cancels catastrophically near x = d.  They
    still grow with d, and so does the absolute error against
    :func:`~hkcert.volume.nu_exact`: ``_error_band(d)``, which is 1e-14
    for d <= 12, 1e-13 for d <= 20, 1e-11 for d <= 32, 1e-8 for d <= 48
    and 1e-6 for d <= 64 (the largest dimension the exact volumes accept).
    The error peaks near x = d/2, where the terms cancel most.  There the
    last band does not hold at d = 64: within 0.05 of x = 32 the error
    reaches 1.39e-6 (7.2e-7 at d = 63).

    The sum stops at its last nonzero term: once the largest reflected
    argument is at most j, term j and all later ones are +0.0, and adding
    +0.0 to ``acc`` (which starts at +0.0) changes no bit.  The largest of
    an input holding a NaN is NaN, which fails ``<=``, so such an input
    runs every term, as does a wide grid box.

    It works element by element: each output double depends only on the
    input double at the same place, never on the other elements or on the
    array's shape, so volumes computed in pieces equal those computed at
    once, bit for bit.

    It works in place.  Past the input's conversion to floats it allocates
    five arrays of the input's shape, whatever d is: the clamped and the
    reflected arguments, the sum, one work array that every term reuses and
    one bool mask.  It runs the same float operations on the same doubles
    in the same order as a kernel that allocates each intermediate afresh,
    so its bits are that kernel's.  d must be a positive int of at most
    :data:`~hkcert.volume.MAX_CACHED_DIMENSION`, as for
    :func:`~hkcert.volume.nu_exact`.
    """
    _check_dimension(d)
    x = np.asarray(x, dtype=float)
    # Each array is made with np.empty: on a 0-d input a ufunc without out=
    # returns a numpy scalar, which a later out= cannot take.
    clamped = np.maximum(x, 0.0, out=np.empty(x.shape))
    np.minimum(clamped, float(d), out=clamped)
    refl = np.subtract(float(d), clamped, out=np.empty(x.shape))
    np.minimum(clamped, refl, out=refl)
    acc = np.zeros(x.shape)
    w = np.empty(x.shape)
    mask = np.empty(x.shape, dtype=bool)
    # NaN if any element is; the initial 0.0 lets an empty input stop at once.
    top = refl.max(initial=0.0)
    for j in range(d // 2 + 1):
        if top <= j:
            break
        np.subtract(refl, j, out=w)
        np.maximum(w, 0.0, out=w)
        # pow(0.0, d) is several times slower than pow on nonzero inputs, so
        # a zero w is left as it is: a zero term of either sign changes no
        # bit of acc, which is never -0.0.  NaN and +-inf still go through pow.
        np.not_equal(w, 0.0, out=mask)
        np.power(w, d, out=w, where=mask)
        w *= (-1) ** j / (_fact(j) * _fact(d - j))
        acc += w
    # The same test as 2.0 * clamped > d: d / 2 and 2.0 * clamped are exact.
    np.greater(clamped, d / 2, out=mask)
    return np.subtract(1.0, acc, out=acc, where=mask)


# Absolute error of nu_vector against nu_exact: (largest d, bound), d
# ascending; near x = 32 at d = 64 the error exceeds its band (see
# nu_vector).  No float decides a claim, so no soundness argument rests on it.
_ERROR_BANDS = ((12, 1e-14), (20, 1e-13), (32, 1e-11), (48, 1e-8), (64, 1e-6))


def _error_band(d: int) -> float:
    """The error band of nu_vector at d, for 1 <= d <= 64 (see nu_vector)."""
    return next(band for top, band in _ERROR_BANDS if d <= top)


def _density_root(level: float, d: int) -> tuple[float, float] | None:
    """(uL, nu(uL, d)) for the smaller root uL of nu'(u, d) = level, in
    floats, or None when level >= max nu' = nu'(d/2), where nu' is the
    Irwin-Hall density.

    nu' is 0 at u = 0 (d >= 2) and rises to its peak at d/2, so uL is the
    one root in [0, d/2].  A Newton iteration starts at d/4 inside the
    bracket [lo, hi], nu'(lo) < level <= nu'(hi); a step that would leave
    it, or a point where nu'' is not positive, bisects instead.  It stops
    once the bracket or a Newton step is at most 2**-40 d, or after 200
    steps.  nu, nu' and nu'' are the alternating sums of
    :func:`~hkcert.volume.nu_exact` and :func:`~hkcert.volume.nu_density`
    below d/2, their powers built by repeated squaring: only + and * run on
    floats past the sums' coefficients, so the result depends on level and
    d alone, and no state is kept between calls.  A level <= 0 gives uL = 0;
    at d = 1, nu' is the indicator of [0, 1) and uL = 0 below level 1.  The
    root is within 2**-30 of the exact one for d <= 32 at levels up to 9/10
    of the peak, 2**-22 for d <= 48 and 2**-12 for d <= 64, where the sums
    cancel near the peak (``tests/test_search.py``).
    """
    if d == 1:
        return (0.0, 0.0) if level < 1.0 else None
    if level <= 0.0:
        return 0.0, 0.0
    # nu'(u) = sum_j c_j (u - j)**(d-1) and nu''(u) = sum_j (d-1) c_j (u -
    # j)**(d-2) over j <= u, with c_j = (-1)**j d / (j! (d-j)!).
    coeffs = [(-1.0 if j & 1 else 1.0) * d / (_fact(j) * _fact(d - j)) for j in range(d // 2 + 1)]

    def density(u: float) -> tuple[float, float, float]:
        """(nu'(u), nu''(u), nu(u))."""
        value = slope = volume = 0.0
        for j, c in enumerate(coeffs):
            if j > u:
                break
            w = u - j
            power, base, n = 1.0, w, d - 2  # w**(d-2), by repeated squaring
            while n:
                if n & 1:
                    power *= base
                base *= base
                n >>= 1
            value += c * power * w
            slope += c * power
            volume += c * power * w * w
        return value, (d - 1) * slope, volume / d

    lo, hi = 0.0, d / 2
    if level >= density(hi)[0]:
        return None
    tol = d * 2.0**-40
    u = d / 4
    for _ in range(200):
        value, slope, _ = density(u)
        if value < level:
            lo = u
        else:
            hi = u
        if slope > 0.0 and lo <= (nxt := u - (value - level) / slope) <= hi:
            if abs(nxt - u) <= tol:
                break
        else:
            nxt = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        u = nxt
    return nxt, density(nxt)[2]


class Objective(Protocol):
    """What the optimizer needs from a bound expression."""

    @property
    def dimension(self) -> int: ...

    def exact(self, s: Fraction, t: Fraction) -> Fraction: ...

    def row_best(self, s: GridAxis, t_range: tuple) -> tuple[int, Fraction, float]:
        """What the optimizer scans with: (i, t, value) for the best node
        of the s axis, the first one (smallest s) among equals, with its
        best t in the exact range ``t_range`` = (ta, tb), an exact
        rational, and the float value there.  The axis's floats are
        read-only, and later scans may share an axis."""
        ...

    def descriptor(self) -> dict: ...


@dataclass(frozen=True)
class SearchParams:
    """Search configuration.

    ``s_range=None`` means [0, d+1] for the objective's dimension d.  The
    bounds are defined for s >= 0 and t in [0, 1], so an s range must start
    at 0 or above and a t range must lie in [0, 1].  All range endpoints
    are exact rationals; every s node of a range wider than one point has a
    denominator of at most ``max_denominator`` (see :class:`GridAxis`), and
    its float is the correctly rounded value of that exact node.  ``grid``
    is (ns, nt): the optimizer scans ns nodes of s and takes t in closed
    form from ``t_range``, so nt is read only by the float surface
    (:func:`hkcert.report.surface_grid`), which evaluates an ns x nt grid.
    The grid counts, ``refine_rounds``, ``shrink_factor`` and
    ``max_denominator`` must be plain ints (not bool).
    """

    s_range: tuple[Fraction, Fraction] | None = None
    t_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1))
    grid: tuple[int, int] = (200, 100)
    refine_rounds: int = 3
    shrink_factor: int = 5
    max_denominator: int = 10**6

    def __post_init__(self):
        if self.s_range is not None:
            lo, hi = (to_rational(v) for v in self.s_range)
            if lo > hi:
                raise ValueError("empty s range")
            if lo < 0:
                raise ValueError(f"s range must start at 0 or above, got {lo}:{hi}")
            object.__setattr__(self, "s_range", (lo, hi))
        lo, hi = (to_rational(v) for v in self.t_range)
        if lo > hi:
            raise ValueError("empty t range")
        if lo < 0 or hi > 1:
            raise ValueError(f"t range must lie in [0, 1], got {lo}:{hi}")
        object.__setattr__(self, "t_range", (lo, hi))
        if not isinstance(self.grid, (tuple, list)) or len(self.grid) != 2:
            raise ValueError(f"grid must be a pair of counts (ns, nt), got {self.grid!r}")
        ns, nt = self.grid
        for name, n in (
            ("grid[0]", ns),
            ("grid[1]", nt),
            ("refine_rounds", self.refine_rounds),
            ("shrink_factor", self.shrink_factor),
            ("max_denominator", self.max_denominator),
        ):
            if type(n) is not int:
                raise ValueError(f"{name} must be an integer, got {n!r}")
        if ns < 2 or nt < 2:
            raise ValueError("grid counts must be >= 2")
        # A list would leave the frozen dataclass unhashable.
        object.__setattr__(self, "grid", (ns, nt))
        if self.refine_rounds < 0 or self.shrink_factor < 2:
            raise ValueError("refine_rounds must be >= 0 and shrink_factor >= 2")
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")

    def resolved_s_range(self, dimension: int) -> tuple[Fraction | int, Fraction | int]:
        """The s range, by default [0, d + 1]: ints, exact without
        building a Fraction."""
        if self.s_range is not None:
            return self.s_range
        return (0, dimension + 1)


@dataclass(frozen=True)
class Candidate:
    """Best point found: float view plus the exact coordinates behind it.

    ``value`` is the float estimate of the objective's largest value over
    t at the node s_exact, as the objective's ``row_best`` computed it.  At
    a t strictly inside the t range it is the value at the float optimum
    s - uL, so the exact value at (s_exact, t_exact), where t_exact rounds
    that optimum (see :meth:`~hkcert.bounds.LinearBound.row_best`), may lie
    below it by the float error and by a term second order in that rounding.
    """

    s: float
    t: float
    value: float
    s_exact: Fraction
    t_exact: Fraction


def _over_one_denominator(lo, hi) -> tuple[int, int, int]:
    """Exact range ends (Fractions or ints) as integers (a, b, q): a/q to b/q."""
    q = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q


class GridAxis:
    """``n`` evenly spaced exact nodes from ``lo`` to ``hi``, and their floats.

    Node i is lo + i * (hi - lo) / (n - 1), held as the integer numerator
    ``first + i * delta`` over the common denominator D = lcm(denominators
    of lo and step).  ``floats[i]`` is bit for bit ``float(node(i))``, the
    correctly rounded quotient of the two integers: when D and every
    numerator lie below 2**53 they convert to doubles exactly, so numpy
    builds all of them with one correctly rounded division; otherwise
    Python's integer true division, also correctly rounded, builds them one
    by one.  No ``Fraction`` is built until :meth:`node` asks for one.  Only
    when D exceeds ``max_denominator`` is each node snapped to its closest
    fraction with a denominator of at most ``max_denominator``.  A
    degenerate axis (lo == hi) repeats lo as given.  The optimizer passes
    its boxes as integer ends over one denominator (:meth:`_over`), which
    give the same first, delta and D as the Fractions of the same ends.
    ``floats`` is read-only.  The constructor takes exact ends with lo <=
    hi, so that the nodes never decrease, and plain ints n >= 2 and
    max_denominator >= 1; anything else raises ValueError (a float end
    raises TypeError, as in :func:`~hkcert.volume.to_rational`).
    """

    def __init__(self, lo: Fraction, hi: Fraction, n: int, max_denominator: int):
        lo, hi = to_rational(lo), to_rational(hi)
        if lo > hi:
            raise ValueError(f"axis ends must satisfy lo <= hi, got {lo} > {hi}")
        if type(n) is not int or n < 2:
            raise ValueError(f"node count n must be an integer >= 2, got {n!r}")
        if type(max_denominator) is not int or max_denominator < 1:
            raise ValueError(f"max_denominator must be an integer >= 1, got {max_denominator!r}")
        self._build(*_over_one_denominator(lo, hi), n, max_denominator)

    @classmethod
    def _over(cls, lo: int, hi: int, q: int, n: int, max_denominator: int) -> "GridAxis":
        """The axis from lo/q to hi/q, for integers lo, hi and q > 0."""
        axis = cls.__new__(cls)
        axis._build(lo, hi, q, n, max_denominator)
        return axis

    def _build(self, lo: int, hi: int, q: int, n: int, max_denominator: int):
        # Over q(n - 1), lo is lo(n - 1) and the step hi - lo, so D, the
        # least denominator of both, is q(n - 1) over the gcd of all three.
        g = gcd(q * (n - 1), lo * (n - 1), hi - lo)
        first, delta, den = lo * (n - 1) // g, (hi - lo) // g, q * (n - 1) // g
        self._first, self._delta, self._den, self._n = first, delta, den, n
        self._snapped = None
        if delta and den > max_denominator:
            self._snapped = [
                Fraction(first + i * delta, den).limit_denominator(max_denominator)
                for i in range(n)
            ]
            self.floats = np.array([float(v) for v in self._snapped])
        elif max(abs(first), abs(first + (n - 1) * delta), den) < 2**53:
            numerators = np.arange(n, dtype=np.int64) * delta + first
            self.floats = numerators.astype(float) / float(den)
        else:
            self.floats = np.array([(first + i * delta) / den for i in range(n)])
        self.floats.flags.writeable = False

    def __len__(self) -> int:
        return self._n

    def _ratio(self, i: int) -> tuple[int, int]:
        """Node ``i`` as integers (p, q), q > 0, not always in lowest terms."""
        if self._snapped is not None:
            return self._snapped[i].as_integer_ratio()
        return self._first + i * self._delta, self._den

    def node(self, i: int) -> Fraction:
        """The exact coordinate of node ``i``."""
        if self._snapped is not None:
            return self._snapped[i]
        return Fraction(self._first + i * self._delta, self._den)

    def nodes(self) -> tuple[Fraction, ...]:
        return tuple(self.node(i) for i in range(len(self)))


# A covering optimizes one e after another: round 0 scans the same box at
# every e, and most round-1 boxes repeat the previous e's.  64 axes hold
# them; ``prove --dim 10 --k 5`` then builds 265 axes instead of 1,048.
_AXIS_CACHE_SIZE = 64


@lru_cache(maxsize=_AXIS_CACHE_SIZE)
def _axis(lo: int, hi: int, q: int, n: int, max_denominator: int) -> GridAxis:
    """``GridAxis._over``, kept for the last boxes scanned: a box scanned
    again reuses its axis."""
    return GridAxis._over(lo, hi, q, n, max_denominator)


def _box(a: int, b: int, q: int, p: int, r: int, scale: int) -> tuple[int, int, int]:
    """The box p/r +- (b - a)/(q scale) clipped to the range a/q to b/q, as
    integer ends over the denominator q r scale."""
    centre, half = p * q * scale, (b - a) * r
    return max(a * r * scale, centre - half), min(b * r * scale, centre + half), q * r * scale


def optimize_bound(objective: Objective, params: SearchParams | None = None) -> Candidate:
    """Scan ``objective`` over s and refine around the incumbent.

    Each round asks the objective for the best node of an s axis of
    ``grid[0]`` nodes, each with its best t in ``t_range``
    (:meth:`Objective.row_best`).  Each refinement round rescans an s box
    1/shrink_factor the size of the previous one, centered at the
    incumbent and clipped to the original range.  Returns the best point
    over all rounds.

    The boxes, the nodes and the incumbent s are integer numerators over
    integer denominators, compared by cross-multiplying; one ``Fraction``
    is built for the returned s, and the objective builds each round's t.
    """
    params = params or SearchParams()
    ns = params.grid[0]
    shrink, cap = params.shrink_factor, params.max_denominator
    s_range = _over_one_denominator(*params.resolved_s_range(objective.dimension))

    s_box = s_range
    for round_no in range(params.refine_rounds + 1):
        s_axis = _axis(*s_box, ns, cap)
        i, t, value = objective.row_best(s_axis, params.t_range)
        sp, sq = s_axis._ratio(i)
        if round_no == 0 or value > best[0]:
            best = value, sp, sq, t
        elif value == best[0]:
            # (s, t) < the incumbent's, in that order; denominators are > 0.
            ds = sp * best[2] - best[1] * sq
            if ds < 0 or (ds == 0 and t < best[3]):
                best = value, sp, sq, t
        s_box = _box(*s_range, best[1], best[2], 2 * shrink ** (round_no + 1))

    value, sp, sq, t = best
    s_best = Fraction(sp, sq)
    return Candidate(s=float(s_best), t=float(t), value=value, s_exact=s_best, t_exact=t)
