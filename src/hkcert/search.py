"""Deterministic search over s with local refinement, on a float fast path.

Every bound the optimizer serves depends on t through a term whose
maximizer over a t range has a closed form (see
:meth:`~hkcert.bounds.LinearBound.rows_best`), so the search runs over s
alone: the optimizer scans an evenly spaced s axis, asks the objective for
the best t of each node, then repeatedly shrinks a box around the incumbent
s by a fixed factor and rescans.  Each axis is held as integer numerators
over one common denominator (:class:`GridAxis`); its floats are derived
from those integers by correctly rounded division, never the other way
around.  The refinement boxes and the incumbent s are integers too, and
the objective returns its t as an exact rational.  So the best point found
can be certified afterwards with exact arithmetic at exactly the
coordinates the search chose.

The optimizer runs a block of objectives at once (:func:`optimize_bounds`):
each round scans one s axis per member in a single call of the protocol's
float method, and the boxes, incumbents and tie rule stay per member.  A
member's candidate is the one it gets alone, bit for bit, as the float
method computes each member's values with the same operations on the same
doubles; :func:`optimize_bound` is the block of one.  A covering optimizes
runs of gap multiplicities this way (:func:`hkcert.certify.cover_range`).

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
from typing import Protocol, Sequence

import numpy as np

from .volume import _check_dimension, _fact, _pieces, to_rational

__all__ = [
    "SearchParams",
    "Candidate",
    "GridAxis",
    "nu_vector",
    "optimize_bound",
    "optimize_bounds",
]


@lru_cache(maxsize=None)
def _horner(d: int) -> tuple[tuple[np.ndarray, ...], tuple, tuple]:
    """nu's unit pieces in floats, each coefficient rounded once from the
    integers of :func:`~hkcert.volume._pieces` (c / d!, correctly rounded):
    ``volume[i]`` and ``slope[i]`` hold those of piece i of nu and of nu'
    (m c_m / d!), from the highest power down, and ``columns[k]`` holds
    entry k of every piece's ``volume``.  One table per d."""
    den, pieces = _fact(d), _pieces(d)
    volume = tuple(tuple(c / den for c in reversed(p)) for p in pieces)
    slope = tuple(tuple(m * p[m] / den for m in range(d, 0, -1)) for p in pieces)
    return tuple(np.array(col) for col in zip(*volume)), volume, slope


def nu_vector(x: np.ndarray, d: int) -> np.ndarray:
    """Float slice volume nu(x, d), element by element over an array.

    Each x is clamped to [0, d] (NaN stays NaN) and split into its piece
    i = min(floor(x), d - 1) and w = x - i in [0, 1], and Horner's rule
    runs the piece's polynomial in w (:func:`_horner`).  Past the clamp
    only IEEE * and + touch the doubles, so every CPU gives the same bits.
    The absolute error against :func:`~hkcert.volume.nu_exact` stays within
    one band at every d up to 64 (``tests/test_search.py``); no float
    decides a claim, so no soundness argument rests on that band.

    Each output double depends only on the input double at the same place,
    never on the other elements or on the array's shape, so volumes
    computed in pieces equal those computed at once, bit for bit.  Past the
    input's conversion to floats it allocates four arrays of the input's
    shape, whatever d is: w (the clamped x, reduced in place), the piece
    index, the sum and one work array.  d must be a positive int of at most
    :data:`~hkcert.volume.MAX_CACHED_DIMENSION`, as for
    :func:`~hkcert.volume.nu_exact`.
    """
    _check_dimension(d)
    columns = _horner(d)[0]
    x = np.asarray(x, dtype=float)
    # Each array is made with np.empty: on a 0-d input a ufunc without out=
    # returns a numpy scalar, which a later out= cannot take.
    w = np.maximum(x, 0.0, out=np.empty(x.shape))
    np.minimum(w, float(d), out=w)
    work = np.floor(w, out=np.empty(x.shape))
    # fmin sends a NaN to the last piece, so the index stays in range; w
    # keeps the NaN.
    np.fmin(work, d - 1.0, out=work)
    piece = work.astype(np.intp)
    w -= work
    acc = columns[0].take(piece, out=np.empty(x.shape), mode="clip")
    for col in columns[1:]:
        acc *= w
        acc += col.take(piece, out=work, mode="clip")
    return acc


def _density_root(level: float, d: int) -> tuple[float, float] | None:
    """(uL, nu(uL, d)) for the smaller root uL of nu'(u, d) = level, in
    floats, or None when level >= max nu' = nu'(d/2), where nu' is the
    Irwin-Hall density.

    nu' is 0 at u = 0 (d >= 2) and rises to its peak at d/2, so uL is the
    one root in [0, d/2].  A Newton iteration starts at d/4 inside the
    bracket [lo, hi], nu'(lo) < level <= nu'(hi); a step that would leave
    it, or a point where nu'' is not positive, bisects instead.  It stops
    once the bracket or a Newton step is at most 2**-40 d, or after 200
    steps.  nu' and nu'' come from one Horner pass over the slope pieces of
    :func:`_horner`, and nu(uL) from its volume pieces, bit for bit
    :func:`nu_vector` at uL: only + and * run on floats, so the result
    depends on level and d alone, and no state is kept between calls.  A
    level <= 0 gives uL = 0; at d = 1, nu' is the indicator of [0, 1) and
    uL = 0 below level 1.  At levels up to 9/10 of the peak the root is
    within 2**-30 of the exact one at every d (``tests/test_search.py``).
    """
    if d == 1:
        return (0.0, 0.0) if level < 1.0 else None
    if level <= 0.0:
        return 0.0, 0.0
    _, volume, slope = _horner(d)

    def density(u: float) -> tuple[float, float]:
        """(nu'(u), nu''(u)), Horner's rule with its derivative."""
        i = min(int(u), d - 1)
        w = u - i
        value = curve = 0.0
        for c in slope[i]:
            curve = curve * w + value
            value = value * w + c
        return value, curve

    lo, hi = 0.0, d / 2
    if level >= density(hi)[0]:
        return None
    tol = d * 2.0**-40
    u = d / 4
    for _ in range(200):
        value, curve = density(u)
        if value < level:
            lo = u
        else:
            hi = u
        if curve > 0.0 and lo <= (nxt := u - (value - level) / curve) <= hi:
            if abs(nxt - u) <= tol:
                break
        else:
            nxt = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        u = nxt
    i = min(int(nxt), d - 1)
    acc = 0.0
    for c in volume[i]:
        acc = acc * (nxt - i) + c
    return nxt, acc


class Objective(Protocol):
    """What the optimizer needs from a bound expression."""

    @property
    def dimension(self) -> int: ...

    def exact(self, s: Fraction, t: Fraction) -> Fraction: ...

    @staticmethod
    def rows_best(
        objectives: Sequence[Objective], s_axes: Sequence[GridAxis], t_range: tuple
    ) -> list[tuple[int, Fraction, float]]:
        """What the optimizer scans with, for a block of objectives of one
        kind: for member m, (i, t, value) for the best node of the s axis
        ``s_axes[m]``, the first one (smallest s) among equals, with its
        best t in the exact range ``t_range`` = (ta, tb), an exact
        rational, and the float value there.  Each member's result is the
        one a block of that member alone gives, bit for bit.  The optimizer
        calls it through the block's first member.  The axes' floats are
        read-only, several members may share an axis, and later scans may
        share one too."""
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
    t at the node s_exact, as the objective's ``rows_best`` computed it.  At
    a t strictly inside the t range it is the value at the float optimum
    s - uL, and t_exact rounds that optimum (see
    :meth:`~hkcert.bounds.LinearBound.rows_best`).  For a
    :class:`~hkcert.bounds.LinearBound`, the exact value at (s_exact,
    t_exact) is at most value + ``float_margin(s)``
    (:meth:`~hkcert.bounds.LinearBound.float_margin`), a sum of the float
    volume band, the rounding of the arguments and of the arithmetic, and
    a term second order in the root's accuracy.
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

    The nodes and floats never change.  The float volumes of the nodes
    (:meth:`volumes`) are computed on first use and then kept, read-only,
    for as long as the axis lives.
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
        self._volumes = {}
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

    def volumes(self, d: int, shifts: tuple[float, ...]) -> np.ndarray:
        """The read-only float volumes nu(s_i - a, d) of the nodes, one row
        per float shift a in ``shifts``: computed by one :func:`nu_vector`
        call the first time a (d, shifts) pair is asked for, and kept on
        the axis.  nu_vector works element by element, so the rows are the
        bits of any other call on the same doubles."""
        vols = self._volumes.get((d, shifts))
        if vols is None:
            vols = nu_vector(self.floats - np.array(shifts)[:, None], d)
            vols.flags.writeable = False
            self._volumes[d, shifts] = vols
        return vols


# A covering optimizes one e, or one block of e, after another: round 0
# scans the same box at every e, and most round-1 boxes repeat another
# e's.  64 axes hold the boxes of a block of 16 e at the default 3 rounds;
# an evicted axis takes its volumes with it.
_AXIS_CACHE_SIZE = 64


@lru_cache(maxsize=_AXIS_CACHE_SIZE)
def _axis(lo: int, hi: int, q: int, n: int, max_denominator: int) -> GridAxis:
    """``GridAxis._over``, kept for the last boxes scanned: a box scanned
    again reuses its axis and the volumes it holds."""
    return GridAxis._over(lo, hi, q, n, max_denominator)


def _box(a: int, b: int, q: int, p: int, r: int, scale: int) -> tuple[int, int, int]:
    """The box p/r +- (b - a)/(q scale) clipped to the range a/q to b/q, as
    integer ends over the denominator q r scale."""
    centre, half = p * q * scale, (b - a) * r
    return max(a * r * scale, centre - half), min(b * r * scale, centre + half), q * r * scale


def optimize_bound(objective: Objective, params: SearchParams | None = None) -> Candidate:
    """:func:`optimize_bounds` for the block of ``objective`` alone."""
    return optimize_bounds([objective], params)[0]


def optimize_bounds(
    objectives: Sequence[Objective], params: SearchParams | None = None
) -> list[Candidate]:
    """Scan each objective of a block over s and refine around its incumbent.

    Each round asks the block for the best node of one s axis of
    ``grid[0]`` nodes per member, each with its best t in ``t_range``, in
    one call (:meth:`Objective.rows_best`).  Each refinement round rescans,
    per member, an s box 1/shrink_factor the size of the previous one,
    centered at that member's incumbent and clipped to the original range.
    Returns each member's best point over all rounds, in block order.  The
    members share a dimension, and so the s range; the boxes and the tie
    rule are per member, so a member's candidate is the one it gets in a
    block of its own.

    The boxes, the nodes and the incumbent s are integer numerators over
    integer denominators, compared by cross-multiplying; one ``Fraction``
    is built per returned s, and the objective builds each round's t.
    """
    params = params or SearchParams()
    ns = params.grid[0]
    shrink, cap = params.shrink_factor, params.max_denominator
    s_range = _over_one_denominator(*params.resolved_s_range(objectives[0].dimension))

    boxes, best = [s_range] * len(objectives), [None] * len(objectives)
    for round_no in range(params.refine_rounds + 1):
        axes = [_axis(*box, ns, cap) for box in boxes]
        found = objectives[0].rows_best(objectives, axes, params.t_range)
        scale = 2 * shrink ** (round_no + 1)
        for m, ((i, t, value), axis) in enumerate(zip(found, axes)):
            sp, sq = axis._ratio(i)
            held = best[m]
            if held is None or value > held[0]:
                held = value, sp, sq, t
            elif value == held[0]:
                # (s, t) < the incumbent's, in that order; denominators are > 0.
                ds = sp * held[2] - held[1] * sq
                if ds < 0 or (ds == 0 and t < held[3]):
                    held = value, sp, sq, t
            best[m] = held
            boxes[m] = _box(*s_range, held[1], held[2], scale)

    out = []
    for value, sp, sq, t in best:
        s_best = Fraction(sp, sq)
        out.append(Candidate(s=float(s_best), t=float(t), value=value, s_exact=s_best, t_exact=t))
    return out
