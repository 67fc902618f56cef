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

The worst case mu = e - 2 gives, for each k, a family in e alone
(:func:`HBoundObjective`; k = 1 is H_e(s, t) of the dimension-7 search).
Every covering uses it; it is a downward parabola in e with apex at the
ratio exposed by :func:`e_max`.

Every one of these bounds has the shape

    c0 + ct*t + e * (sum_i w_i nu(s - a_i) - nu(s - t)),

so one class, :class:`LinearBound`, holds each of them as a term list and
derives both its exact and its float evaluator from that list.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable

import numpy as np

from .search import nu_vector
# _check_dimension is nu_exact's own check, run here when a bound is built.
from .volume import _check_dimension, nu_exact, to_rational

__all__ = [
    "LinearInEError",
    "BoundSpec",
    "LinearBound",
    "s_bound",
    "h_bound",
    "quadratic_in_e",
    "e_max",
    "range_min",
    "not_normal_bound",
    "HBoundObjective",
    "GeneralBoundObjective",
    "MuSmallObjective",
    "NoRootsObjective",
]

# A shared constant, so the constructors below build no Fractions of their own.
_HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def _worst_case_terms(k: int) -> tuple[tuple[int, int, Fraction | int], ...]:
    """The master family's inner sum at the worst case mu = e - 2, as
    (w, we, a) triples: nu(s) - (e - k - 3) nu(s - 1) - k nu(s - 1/2).
    k = 1 gives H_e."""
    return ((1, 0, 0), (k + 3, -1, 1), (-k, 0, _HALF))


@lru_cache(maxsize=None)
def _minus_half_power(k: int) -> Fraction:
    """ct = -1/2^k of the master family, built once per k."""
    return Fraction(-1, 2**k)


def _overlap(have: np.ndarray, want: np.ndarray) -> tuple[int, int, int]:
    """(i, j, n) with want[i:i + n] byte-equal to have[j:j + n], for the run
    from the first node of either axis; n = 0 if there is no such run."""
    if want[0] >= have[0]:
        i, j = 0, int(np.searchsorted(have, want[0]))
    else:
        i, j = int(np.searchsorted(want, have[0])), 0
    n = min(len(want) - i, len(have) - j)
    if n > 0 and want[i : i + n].tobytes() == have[j : j + n].tobytes():
        return i, j, n
    return 0, 0, 0


class _VolumeMemo:
    """Float slice volumes of recent grid boxes: read-only tiles of at most
    ``capacity`` floats in all, one tile per box shape.

    A shape is d, the lengths of s and t, and their widths rounded to 9
    decimals; for the 1-D volumes, the bytes of t (the shifts a_i) stand in
    for t's length and width.  The unclipped boxes of refinement round r
    are (d + 1)/5^r by 1/5^r wide, so they share a shape although their
    float widths differ in the last bits; a clipped box has a shape of its
    own, and a shape shared by chance costs one recomputation.  :meth:`get`
    reuses the shape's tile wherever the request's s and t doubles are
    byte-equal to the tile's, and computes the rest in one
    :func:`~hkcert.search.nu_vector` call, which works element by element,
    so every cell is the double a full recomputation gives.

    The new tile replaces its shape's tile, on a hit or a miss.  A new
    shape evicts, least recently used first, tiles untouched since the
    current optimization began, and is not kept if that frees too little
    room; so an optimization with more boxes than the memo holds keeps its
    first ones.  A request whose s axis is wider than the one before begins
    an optimization, as refinement rounds only narrow the box.  The memo
    takes no lock; no hkcert module starts a thread (``tests/test_layers.py``).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.cells = 0
        # The optimization count, and the width of the last s axis asked for.
        self._epoch = 0
        self._width = 0.0
        # shape -> (s, t, vols, the optimization count when a lookup last
        # touched the tile), least recently used first.
        self._tiles: OrderedDict = OrderedDict()

    def get(self, d: int, s: np.ndarray, t: np.ndarray, whole_t: bool) -> np.ndarray:
        """nu(s[:, None] - t[None, :], d); ``whole_t`` reuses a tile only
        if its t holds the very bytes of ``t``."""
        if not (len(s) and len(t)):
            return nu_vector(s[:, None] - t[None, :], d)
        width = float(s[-1]) - float(s[0])
        # Written so that a NaN width also begins an optimization.
        if not width <= self._width:
            self._epoch += 1
        self._width = width
        if whole_t:
            key = (d, len(s), round(width, 9), t.tobytes())
        else:
            t_width = round(float(t[-1]) - float(t[0]), 9)
            key = (d, len(s), round(width, 9), len(t), t_width)
        tile, m, n = self._tiles.get(key), 0, 0
        if tile is not None:
            have_s, have_t, have, _ = tile
            i, j, m = _overlap(have_s, s)
            k, l, n = (0, 0, len(t)) if whole_t else _overlap(have_t, t)
        if not m * n:
            vols = nu_vector(s[:, None] - t[None, :], d)
        elif m * n == len(s) * len(t):
            self._tiles[key] = (have_s, have_t, have, self._epoch)
            self._tiles.move_to_end(key)
            return have
        else:
            vols = np.empty((len(s), len(t)))
            vols[i : i + m, k : k + n] = have[j : j + m, l : l + n]
            # The tile has the request's shape, so the reused block reaches
            # one end of each axis, and the cells left form an L: whole rows
            # on one side of it, and columns on one side of it in its rows.
            rows = slice(0, i) if i else slice(m, len(s))
            cols = slice(0, k) if k else slice(n, len(t))
            side = s[rows, None] - t
            foot = s[i : i + m, None] - t[cols]
            fresh = nu_vector(np.concatenate([side.ravel(), foot.ravel()]), d)
            vols[rows] = fresh[: side.size].reshape(side.shape)
            vols[i : i + m, cols] = fresh[side.size :].reshape(foot.shape)
        vols.flags.writeable = False
        if vols.size > self.capacity:
            return vols
        # A shape's tiles are all of one size, so replacing one keeps
        # ``cells``; a new shape must make room.
        if self._tiles.pop(key, None) is None:
            if not self._make_room(vols.size):
                return vols
            self.cells += vols.size
        s, t = s.copy(), t.copy()
        s.flags.writeable = t.flags.writeable = False
        self._tiles[key] = (s, t, vols, self._epoch)
        return vols

    def _make_room(self, size: int) -> bool:
        need = self.cells + size - self.capacity
        victims = []
        for key, (_, _, vols, used) in self._tiles.items():
            if need <= 0:
                break
            if used < self._epoch:
                victims.append(key)
                need -= vols.size
        if need > 0:
            return False
        for key in victims:
            self.cells -= self._tiles.pop(key)[2].size
        return True


# 100,000 floats (800 KB) hold the volumes of the four boxes of the default
# 200 x 100 grid that an optimization with three refinement rounds scans.
_MEMO_CELLS = 100_000
_VOLUMES = _VolumeMemo(_MEMO_CELLS)


class _WitnessMemo:
    """Exact slice volumes of the last ``capacity`` witnesses, oldest
    evicted first.

    A covering certifies a run of multiplicities at one witness (s, t), and
    the volumes nu(s - a_i) and nu(s - t) do not depend on e.  An entry is
    keyed by d, s and t as integer pairs, with no t when nu(s - t) is not
    read, and holds the shifts a_i it was computed for and those volumes as
    integer numerators over one common denominator.  Only the integers are
    hashed, as hashing a Fraction shift costs as much as the lookup.  A
    lookup with other shifts replaces the entry, computing only the volumes
    it lacks; so a zero weight at e = k + 3 (:func:`HBoundObjective`)
    costs one volume more at that witness, not four.  A miss calls
    :func:`~hkcert.volume.nu_exact` once per volume computed; a hit calls
    nothing and returns the integers a miss computes from the same exact
    arguments, so no result depends on the memo.  It holds volumes only,
    never a bound's value.  The memo takes no lock; no hkcert module starts
    a thread (``tests/test_layers.py``).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: dict = {}

    def get(self, d: int, s: Fraction, shifts: list, t: Fraction | None):
        """(shifts, D, nums): nu(s - a, d) = nums[i]/D for the i-th shift
        a, and, unless t is None, nu(s - t, d) = nums[-1]/D.  The entry
        keeps ``shifts``, so callers pass a list they build per call."""
        if t is None:
            key = (d, s.numerator, s.denominator)
        else:
            key = (d, s.numerator, s.denominator, t.numerator, t.denominator)
        entry = self.entries.get(key)
        if entry is None:
            vols = [nu_exact(s - a if a else s, d).as_integer_ratio() for a in shifts]
            if t is not None:
                vols.append(nu_exact(s - t, d).as_integer_ratio())
        elif entry[0] == shifts:
            return entry
        else:
            # The witness with other shifts: its volumes are reused, over
            # its denominator, and only the shifts it lacks are computed.
            have, den, nums = entry
            old = dict(zip(have, nums))
            vols = [
                (old[a], den) if a in old else nu_exact(s - a if a else s, d).as_integer_ratio()
                for a in shifts
            ]
            if t is not None:
                vols.append((nums[-1], den))
        den = lcm(*[m for _, m in vols])
        entry = shifts, den, tuple([n * (den // m) for n, m in vols])
        self.entries[key] = entry
        if len(self.entries) > self.capacity:
            del self.entries[next(iter(self.entries))]
        return entry


# A covering's lo and hi certificates, its apex chase and its binary search
# all read the witness certified last.
_WITNESS_CAPACITY = 8
_WITNESSES = _WitnessMemo(_WITNESS_CAPACITY)


def _fold(num: int, den: int, n: int, m: int) -> tuple[int, int]:
    """num/den + n/m as one integer pair over lcm(den, m), unreduced."""
    g = gcd(den, m)
    return num * (m // g) + n * (den // g), den // g * m


class LinearInEError(ValueError):
    """The bound degenerates to a linear function of e (no parabola vertex)."""


def _check_offsets(offsets: Iterable) -> tuple[Fraction, ...]:
    out = tuple(to_rational(a) for a in offsets)
    for a in out:
        if not 0 <= a <= 1:
            raise ValueError(f"order value {a} outside [0, 1]")
    return out


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
        _check_dimension(dimension)
        e = to_rational(e)
        if e <= 0:
            raise ValueError(f"multiplicity e must be positive, got {e}")
        if type(mu) is not int or mu < 1:
            raise ValueError(f"generator count mu must be a positive integer, got {mu!r}")
        if type(k) is not int or k < 0:
            raise ValueError(f"root count k must be a nonnegative integer, got {k!r}")
        if k >= 1 and mu < k + 1:
            raise ValueError(f"root count k={k} requires mu >= k+1, got mu={mu}")
        norm = []
        for mult, a in extra:
            if type(mult) is not int or mult < 1:
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


@dataclass(frozen=True, init=False)
class LinearBound:
    """c0 + ct*t + e (sum_i (w_i + we_i*e) nu(s - a_i) + wt*nu(s - t)), nu in dimension d.

    ``terms`` holds the triples (w, we, a).  The coefficient ``we`` of e in a
    weight is nonzero only for the worst case (:func:`HBoundObjective`),
    whose generator count mu = e - 2 puts e into the weight of nu(s - 1);
    keeping it apart makes the float weight k + 3 - float(e), as in the
    written-out H_e formula, and the same double as the master family's
    integer weight at an integer e.  ``wt`` is -1 or 0,
    and t ranges over [0, t_hi].  Both evaluators loop over the one term
    list and skip zero weights, so a float cell is the same double as the
    bound's written-out formula would give.  The exact evaluator adds the
    integer numerators of its terms, e, c0 and ct*t over one common
    denominator and builds one Fraction, the value in lowest terms.  It
    reads the slice volumes of its nonzero-weight terms and nu(s - t) from
    a memo of the last few witnesses (``_WITNESSES``), as integer numerators
    over one denominator, so the certificates of a run of e at one (s, t)
    compute them once.  A hit returns the integers that recomputing
    :func:`~hkcert.volume.nu_exact` from the same exact s, t, a_i and d
    gives; it never reads a stored certificate value.  ``d``
    must be an integer from 1 to 64 in every family.  ``desc``, the
    descriptor a certificate stores, holds ``kind`` and the family
    constructor's arguments by parameter name; :func:`hkcert.certify.objective_from_descriptor`
    calls that constructor with them.
    """

    d: int
    e: Fraction
    c0: Fraction | int
    ct: Fraction | int
    terms: tuple[tuple[int, int, Fraction | int], ...]
    wt: int
    t_hi: Fraction | int
    desc: dict = field(compare=False, repr=False)

    def __init__(self, d, e, c0, ct, terms, wt, t_hi, desc):
        _check_dimension(d)
        # One dict update in place of eight frozen setattr calls: every
        # certificate written or re-verified builds one of these.
        self.__dict__.update(
            d=d, e=e, c0=c0, ct=ct, terms=terms, wt=wt, t_hi=t_hi, desc=desc
        )

    @property
    def dimension(self) -> int:
        return self.d

    def descriptor(self) -> dict:
        return self.desc

    def exact(self, s, t) -> Fraction:
        s, t = to_rational(s), to_rational(t)
        # Signs, and t <= t_hi, read off the integers: a Fraction comparison
        # costs as much as a Fraction operation.
        if s.numerator < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        tn, td, t_hi = t.numerator, t.denominator, self.t_hi
        if tn < 0 or tn * t_hi.denominator > t_hi.numerator * td:
            raise ValueError(f"t must lie in [0, {self.t_hi}], got {t}")
        en, ed = self.e.numerator, self.e.denominator
        # Each Fraction operation costs about a microsecond, so the value is
        # kept as one integer pair num/den, and one Fraction is built at the
        # end.  The weights w + we*e of the nonzero-weight terms, and wt,
        # are numerators over ed; the volumes are numerators over D.
        weights, shifts = [], []
        for w, we, a in self.terms:
            wn = w * ed + we * en
            if wn:
                weights.append(wn)
                shifts.append(a)
        if self.wt:
            weights.append(self.wt * ed)
        _, den, vols = _WITNESSES.get(self.d, s, shifts, t if self.wt else None)
        # e (sum of weights times volumes) = en * sum / (ed * ed * D).
        num, den = en * sum(map(mul, weights, vols)), ed * ed * den
        # c0 + ct*t over small integers first, then one fold into num/den.
        c0, ct = self.c0, self.ct
        if ct:
            c0n, c0d = _fold(c0.numerator, c0.denominator, ct.numerator * tn, ct.denominator * td)
        else:
            c0n, c0d = c0.numerator, c0.denominator
        if c0n:
            num, den = _fold(num, den, c0n, c0d)
        return Fraction(num, den)

    def vector(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Values on the grid s[:, None] x t[None, :], shape (len(s), len(t)).

        The slice volumes do not depend on e, so they come from the memo of
        recent grid boxes (``_VOLUMES``): the 1-D volumes nu(s - a_i) of the
        nonzero-weight terms as one tile whose t axis holds the shifts a_i,
        and the 2-D nu(s - t) as another.  A covering that optimizes one e
        after another scans the same and shifted boxes, and computes each
        volume once per grid node.  The weights and the rest of the
        arithmetic run on every call, in term order, so a cell is the same
        double with or without the memo, and the returned array is always
        new.
        """
        d, e = self.d, float(self.e)
        # As float64, equal bytes are equal axes.
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        weights, shifts = [], []
        for w, we, a in self.terms:
            # acc + (-w)*y is the same double as acc - w*y, and a zero
            # weight is skipped, as x - 0*y is x.
            weight = w + we * e
            if weight:
                weights.append(weight)
                shifts.append(float(a))
        acc = np.zeros(len(s))
        if weights:
            vols = _VOLUMES.get(d, s, np.array(shifts), whole_t=True)
            for i, weight in enumerate(weights):
                acc = acc + weight * vols[:, i]
        if self.wt:
            inner = acc[:, None] - _VOLUMES.get(d, s, t, whole_t=False)
        else:
            inner = np.repeat(acc[:, None], len(t), axis=1)
        inner *= e
        if self.c0 or self.ct:
            inner += float(self.c0) + float(self.ct) * t
        return inner


# --------------------------------------------------------------------------
# The four bound families, as term lists.


def HBoundObjective(e, d: int = 7, k: int = 1) -> LinearBound:
    """The worst case mu = e - 2 of the master family with k square roots,

        1 - t/2^k + e (nu(s) - (e-k-3) nu(s-1) - k nu(s-1/2) - nu(s-t)),

    whose k = 1 instance is H_e(s, t) = 1 - t/2 + e (nu(s) - (e-4) nu(s-1)
    - nu(s-1/2) - nu(s-t)).  e may be any rational >= k + 3 (the parabola
    analysis treats it continuously).  The descriptor states k only when
    it is not 1, so H_e descriptors, which never state k, read back as
    they were written.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"root count k must be a nonnegative integer, got {k!r}")
    e = to_rational(e)
    # e < k + 3, compared on integers: a Fraction comparison is several
    # times slower, and every certificate of a covering builds one of these.
    if e.numerator < (k + 3) * e.denominator:
        raise ValueError(
            f"the worst case needs e >= k + 3 so that mu = e - 2 >= k + 1, got e={e}, k={k}"
        )
    desc = {"kind": "h", "e": str(e), "d": d}
    if k != 1:
        desc["k"] = k
    return LinearBound(d, e, 1, _minus_half_power(k), _worst_case_terms(k), -1, 1, desc)


def GeneralBoundObjective(spec: BoundSpec) -> LinearBound:
    """The master family G for a full BoundSpec."""
    k = spec.k
    terms = ((1, 0, 0), (k + 1 - spec.mu, 0, 1), (-k, 0, _HALF))
    if spec.extra:
        terms += tuple((-mult, 0, a) for mult, a in spec.extra)
    desc = {
        "kind": "general",
        "d": spec.dimension,
        "e": str(spec.e),
        "mu": spec.mu,
        "k": k,
        "extra": [[m, str(a)] for m, a in spec.extra],
    }
    return LinearBound(spec.dimension, spec.e, 1, _minus_half_power(k), terms, -1, 1, desc)


def MuSmallObjective(e, mu: int, d: int = 7) -> LinearBound:
    """Root-free bound e (nu(s) - mu nu(s-1)); constant in t."""
    e = BoundSpec(d, e, mu).e  # d, e and mu as the master bound checks them
    terms = ((1, 0, 0), (-mu, 0, 1))
    desc = {"kind": "mu-small", "e": str(e), "mu": mu, "d": d}
    return LinearBound(d, e, 0, 0, terms, 0, 1, desc)


def NoRootsObjective(e, offsets, d: int, t) -> LinearBound:
    """phi bound with the grid's t-axis read as t0, at a fixed argument t:

        exact(s, t0) = t - t0 + e (nu(s) - sum_i nu(s - a_i) - nu(s - t0))

    for s >= 0 and 0 <= t0 <= t.  ``offsets`` holds the order values a_i of
    the generators other than the distinguished one, so a ring with mu
    generators passes mu - 1 of them.  With t = 1 this bounds the
    Hilbert-Kunz multiplicity itself.  The argument is named ``t``, as the
    descriptor key that stores it.
    """
    e, t = to_rational(e), to_rational(t)
    if e <= 0:
        raise ValueError(f"multiplicity e must be positive, got {e}")
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    offsets = _check_offsets(offsets)
    terms = ((1, 0, 0),) + tuple((-1, 0, a) for a in offsets)
    desc = {
        "kind": "noroots",
        "e": str(e),
        "offsets": [str(a) for a in offsets],
        "d": d,
        "t": str(t),
    }
    return LinearBound(d, e, t, -1, terms, -1, t, desc)


# --------------------------------------------------------------------------
# Exact values at one point.


def s_bound(spec: BoundSpec, s, t) -> Fraction:
    """Pre-rescaling bound 1 - t + 2^k e (...): what the k-th extension satisfies.

    Related to the master family G by G = 1 + (s_bound - 1) / 2^k.
    """
    if spec.k == 0:
        raise ValueError("the pre-rescaling bound requires k >= 1")
    return 1 + 2**spec.k * (GeneralBoundObjective(spec).exact(s, t) - 1)


def h_bound(e, s, t, d: int = 7) -> Fraction:
    """Worst-generator-count family H_e(s,t): mu = e - 2 with one square root.

        H_e(s, t) = 1 - t/2 + e (nu(s) - (e-4) nu(s-1) - nu(s-1/2) - nu(s-t))

    e may be any rational >= 4 (the parabola analysis treats it continuously).
    """
    return HBoundObjective(e, d).exact(s, t)


def quadratic_in_e(s, t, d: int = 7, k: int = 1) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) of the worst case mu = e - 2 as a e^2 + b e + c.

    Read off the terms of :func:`HBoundObjective`, which do not depend on e,
    so it is built at its least e, k + 3, and checks d and k.  a sums the
    e-parts we of the term weights, b the rest and wt nu(s-t), and c is
    c0 + ct*t; so a = -nu(s-1) <= 0, the family is concave in e and interval
    minima sit at the endpoints.
    """
    worst = HBoundObjective(k + 3, d, k)
    s, t = to_rational(s), to_rational(t)
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    # The volumes come from the witness memo, as exact reads them: above
    # e = k + 3 exact's nonzero-weight terms are these, so the apex of a
    # just-certified witness computes no volume.
    terms = [term for term in worst.terms if term[0] or term[1]]
    _, den, vols = _WITNESSES.get(d, s, [x for *_, x in terms], t)
    a = sum(we * v for (_, we, _), v in zip(terms, vols))
    b = sum(w * v for (w, _, _), v in zip(terms, vols)) + worst.wt * vols[-1]
    return Fraction(a, den), Fraction(b, den), worst.c0 + worst.ct * t


def e_max(s0, t0, d: int = 7, k: int = 1) -> Fraction:
    """Vertex -b/(2a) of the parabola e -> bound(e, mu = e - 2) at (s0, t0).

    Raises :class:`LinearInEError` when s0 <= 1 (then nu(s0 - 1) = 0 and the
    family is linear in e).
    """
    a, b, _ = quadratic_in_e(s0, t0, d, k)
    if a == 0:
        raise LinearInEError(
            f"the bound is linear in e at s0={s0} (nu(s0-1) = 0); no vertex exists"
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


def not_normal_bound(k: int) -> Fraction:
    """Escape-hatch bound 1 + 1/2^k when the k-th quadratic extension is not normal."""
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return 1 + Fraction(1, 2**k)
