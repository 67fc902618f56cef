"""Deterministic grid search with local refinement, on a float fast path.

The optimizer scans a rectangular (s, t) grid, then repeatedly shrinks a box
around the incumbent by a fixed factor and rescans.  Each grid axis is held
as integer numerators over one common denominator (:class:`GridAxis`); its
floats are derived from those integers by correctly rounded division, never
the other way around.  The refinement boxes and the incumbent are integers
too, and only the point returned becomes a ``Fraction``.  So the best point
found can be certified afterwards with exact arithmetic at exactly the
coordinates the search visited.

Ties are broken by value (descending), then s, then t (ascending), so the
result is deterministic.  Within one scan the rule comes from two facts:
``np.argmax`` returns the first maximum in row-major order, and the axes
never decrease, so the first maximum has the smallest s and then the
smallest t.  A snapped axis may repeat a node, which changes neither.
Across refinement rounds the rule compares the exact incumbents.
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
    :func:`~hkcert.volume.nu_exact`: at most 1e-14 for d <= 12, 1e-13 for
    d <= 20, 1e-11 for d <= 32, 1e-8 for d <= 48 and 1e-6 for d <= 64 (the
    largest dimension the exact volumes accept).

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


class Objective(Protocol):
    """What the optimizer needs from a bound expression."""

    @property
    def dimension(self) -> int: ...

    def exact(self, s: Fraction, t: Fraction) -> Fraction: ...

    def vector(self, s: GridAxis, t: GridAxis) -> np.ndarray:
        """Values on the grid s.floats[:, None] x t.floats[None, :], shape
        (len(s), len(t)).  The axes' floats are read-only, and later scans
        may share an axis."""
        ...

    def descriptor(self) -> dict: ...


@dataclass(frozen=True)
class SearchParams:
    """Grid-search configuration.

    ``s_range=None`` means [0, d+1] for the objective's dimension d.  The
    bounds are defined for s >= 0 and t in [0, 1], so an s range must start
    at 0 or above and a t range must lie in [0, 1].  All range endpoints
    are exact rationals; every node of a range wider than
    one point has a denominator of at most ``max_denominator`` (see
    :class:`GridAxis`), and its float is the correctly rounded value of
    that exact node.  The grid counts, ``refine_rounds``, ``shrink_factor``
    and ``max_denominator`` must be plain ints (not bool).
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
    """Best grid point found: float view plus the exact coordinates behind it."""

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
    ``floats`` is read-only.

    ``lattice`` names the exact node set the axis lies on, as a hashable
    tuple of ints (n, D, delta, first mod delta, max_denominator if the
    nodes are snapped else None), and ``start`` = first // delta is the
    index of node 0 on it: node i is lattice node start + i.  D is the
    least common denominator of lo and the step, so every axis on one
    lattice has the same D and delta, and two axes with one ``lattice``
    hold bit for bit the same float at every node they share.  A
    degenerate axis has the lattice (n, D, 0, first, None) and start 0.
    The constructor takes exact ends with lo <= hi, so that the nodes never
    decrease, and plain ints n >= 2 and max_denominator >= 1; anything
    else raises ValueError (a float end raises TypeError, as in
    :func:`~hkcert.volume.to_rational`).
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
        snapped = delta and den > max_denominator
        self.start = first // delta if delta else 0
        offset = first - self.start * delta  # first mod delta, or first if delta = 0
        self.lattice = (n, den, delta, offset, max_denominator if snapped else None)
        if snapped:
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
# them; ``prove --dim 10 --k 5`` then builds 394 axes instead of 2,096.
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
    """Grid-scan ``objective`` and refine around the incumbent.

    Each refinement round rescans a box 1/shrink_factor the size of the
    previous one, centered at the incumbent and clipped to the original
    ranges.  Returns the best point over all rounds.

    The boxes, the nodes and the incumbent are integer numerators over
    integer denominators, compared by cross-multiplying; the one
    ``Fraction`` per axis is built for the returned :class:`Candidate`.
    """
    params = params or SearchParams()
    ns, nt = params.grid
    shrink, cap = params.shrink_factor, params.max_denominator
    s_range = _over_one_denominator(*params.resolved_s_range(objective.dimension))
    t_range = _over_one_denominator(*params.t_range)

    s_box, t_box = s_range, t_range
    for round_no in range(params.refine_rounds + 1):
        s_axis, t_axis = _axis(*s_box, ns, cap), _axis(*t_box, nt, cap)
        vals = objective.vector(s_axis, t_axis)
        i, j = divmod(int(vals.argmax()), vals.shape[1])
        value = vals.item(i, j)
        (sp, sq), (tp, tq) = s_axis._ratio(i), t_axis._ratio(j)
        if round_no == 0 or value > best[0]:
            best = value, sp, sq, tp, tq
        elif value == best[0]:
            # (s, t) < the incumbent's, in that order; denominators are > 0.
            ds = sp * best[2] - best[1] * sq
            if ds < 0 or (ds == 0 and tp * best[4] < best[3] * tq):
                best = value, sp, sq, tp, tq
        scale = 2 * shrink ** (round_no + 1)
        s_box = _box(*s_range, best[1], best[2], scale)
        t_box = _box(*t_range, best[3], best[4], scale)

    value, sp, sq, tp, tq = best
    s_best, t_best = Fraction(sp, sq), Fraction(tp, tq)
    return Candidate(
        s=float(s_best), t=float(t_best), value=value, s_exact=s_best, t_exact=t_best
    )
