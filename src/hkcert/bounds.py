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
generators; phi(1) is the Hilbert-Kunz multiplicity itself.  At t = 1, with
t0 read as the grid's t and a_i = 1 for the mu - 1 other generators, it is
G at k = 0, so it has no family of its own.

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
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

import numpy as np

from .search import _error_band, nu_vector
# _check_dimension is nu_exact's own check, run here when a bound is built.
from .volume import _check_dimension, nu_exact, to_rational

__all__ = [
    "BoundSpec",
    "LinearBound",
    "s_bound",
    "h_bound",
    "quadratic_in_e",
    "last_above",
    "e_max",
    "range_min",
    "not_normal_bound",
    "HBoundObjective",
    "GeneralBoundObjective",
    "MuSmallObjective",
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


class _VolumeMemo:
    """Float slice volumes of recent grid boxes: read-only tiles of at most
    ``capacity`` floats in all, one tile per pair of node lattices.

    A tile holds the starts of its s and t axes and two C-contiguous
    blocks: nu(s_i - a_j) for the shifts a_j of a bound's terms, len(s) by
    len(shifts), and nu(s_i - t_j), len(s) by len(t), which has no columns
    for a bound constant in t.  Its key is d, the bytes of the shifts and
    the ``lattice`` of the s and of the t :class:`~hkcert.search.GridAxis`
    (None for a bound constant in t).  Axes on one lattice hold the same
    double at every lattice node they share, so the starts alone say which
    cells a request shares with its key's tile: equal starts are a full
    hit, and :meth:`get` returns the tile's blocks.  Otherwise node i of
    the request is node i + (its start - the tile's start) of the tile, and
    it reuses the tile in the shared s rows: all of their shift columns,
    and their shared t columns.  It writes the arguments of the rest (s - a_j and
    s - t in the new rows, and s - t in the reused rows' new t columns)
    straight into one flat array and computes them in one
    :func:`~hkcert.search.nu_vector` call, which works element by element,
    so every cell is the double a full recomputation gives.

    The new tile replaces its key's tile on a partial hit or a miss; a new
    key evicts tiles, least recently used first, until it fits.  The memo
    takes no lock; no hkcert module starts a thread
    (``tests/test_layers.py``).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.cells = 0
        # key -> (s start, t start, (shift block, t block)), least recently
        # used first.
        self._tiles: OrderedDict = OrderedDict()

    def get(self, d: int, s, shifts: np.ndarray, t):
        """The read-only blocks (nu(s.floats[:, None] - shifts, d),
        nu(s.floats[:, None] - t.floats, d)) for the grid axes s and t, or
        t = None for no t columns."""
        key = (d, shifts.tobytes(), s.lattice, None if t is None else t.lattice)
        s_start, s = s.start, s.floats
        t_start, t = (0, _NO_T) if t is None else (t.start, t.floats)
        a, ns, nt = len(shifts), len(s), len(t)
        tile = self._tiles.get(key)
        i = j = m = k = l = n = 0
        if tile is not None:
            s0, t0, blocks = tile
            if s_start == s0 and t_start == t0:
                self._tiles.move_to_end(key)
                return blocks
            # Request rows i : i + m are tile rows j : j + m, and request
            # columns k : k + n tile columns l : l + n.
            ds, dt = s_start - s0, t_start - t0
            i, j, m = max(0, -ds), max(0, ds), max(0, ns - abs(ds))
            k, l, n = max(0, -dt), max(0, dt), max(0, nt - abs(dt))
        # The tile has the request's shape, so the reused s rows reach one
        # end of s and the reused t columns one end of t, and the cells
        # left form an L: whole rows on one side of the reused ones, and in
        # those rows the t columns on one side of the reused ones.  On a
        # miss (m = 0) the rows are all of s and the L has no foot.
        rows = slice(0, i) if i else slice(m, ns)
        cols = slice(0, k) if k else slice(n, nt)
        side = s[rows, None]
        pairs = ((side, shifts), (side, t), (s[i : i + m, None], t[cols]))
        spans, end = [], 0
        for u, v in pairs:
            start, end = end, end + len(u) * len(v)
            spans.append((slice(start, end), (len(u), len(v))))
        args = np.empty(end)
        for (u, v), (span, shape) in zip(pairs, spans):
            np.subtract(u, v, out=args[span].reshape(shape))
        fresh = nu_vector(args, d)
        pieces = [fresh[span].reshape(shape) for span, shape in spans]
        if m:
            have_shift, have_t_vols = blocks
            shift_vols, t_vols = np.empty((ns, a)), np.empty((ns, nt))
            shift_vols[i : i + m] = have_shift[j : j + m]
            t_vols[i : i + m, k : k + n] = have_t_vols[j : j + m, l : l + n]
            shift_vols[rows], t_vols[rows], t_vols[i : i + m, cols] = pieces
        else:
            shift_vols, t_vols, _ = pieces
        shift_vols.flags.writeable = t_vols.flags.writeable = False
        blocks = shift_vols, t_vols
        size = shift_vols.size + t_vols.size
        if size > self.capacity:
            return blocks
        # A key's tiles are all of one size, so replacing one keeps
        # ``cells``; a new key evicts the oldest tiles until it fits.
        if self._tiles.pop(key, None) is None:
            self.cells += size
            while self.cells > self.capacity:
                old_shift, old_t = self._tiles.popitem(last=False)[1][2]
                self.cells -= old_shift.size + old_t.size
        self._tiles[key] = (s_start, t_start, blocks)
        return blocks


# 170,000 floats (1.4 MB) hold the volumes of the eight boxes of the default
# 200 x 100 grid that an optimization with seven refinement rounds scans,
# each a tile of a 200 x 3 shift block and a 200 x 100 t block:
# 8 x 200 x 103 = 164,800 cells.  As measured, the next e then computes no
# volume.
_MEMO_CELLS = 170_000
_VOLUMES = _VolumeMemo(_MEMO_CELLS)
# The t floats of a bound constant in t: its tiles have an empty t block.
_NO_T = np.empty(0)


class _WitnessMemo:
    """Exact slice volumes of the last ``capacity`` witnesses, oldest
    evicted first.

    A covering certifies a run of multiplicities at one witness (s, t), and
    the volumes nu(s - a_i) and nu(s - t) do not depend on e.  An entry is
    keyed by d, s and t as integer pairs, with no t when nu(s - t) is not
    read, and holds the shifts a_i it was computed for and those volumes as
    integer numerators over one common denominator.  Only the integers are
    hashed, as hashing a Fraction shift costs as much as the lookup.  Each
    family asks for one shift list at every e, so every e certified at a
    witness hits its entry; a lookup with other shifts is a miss and
    replaces the entry.  A miss calls :func:`~hkcert.volume.nu_exact` once
    per volume; a hit calls nothing and returns the integers a miss
    computes from the same exact arguments, so no result depends on the
    memo.  It holds volumes only, never a bound's value.  The memo takes no
    lock; no hkcert module starts a thread (``tests/test_layers.py``).
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
        if entry is not None and entry[0] == shifts:
            return entry
        vols = [nu_exact(s - a if a else s, d).as_integer_ratio() for a in shifts]
        if t is not None:
            vols.append(nu_exact(s - t, d).as_integer_ratio())
        den = lcm(*[m for _, m in vols])
        entry = shifts, den, tuple([n * (den // m) for n, m in vols])
        self.entries[key] = entry
        if len(self.entries) > self.capacity:
            del self.entries[next(iter(self.entries))]
        return entry


# A covering's lo certificate, its apex chase, the quadratic that ends its
# run and the certificate at that end all read the witness certified last.
_WITNESS_CAPACITY = 8
_WITNESSES = _WitnessMemo(_WITNESS_CAPACITY)


def _fold(num: int, den: int, n: int, m: int) -> tuple[int, int]:
    """num/den + n/m as one integer pair over lcm(den, m), unreduced."""
    g = gcd(den, m)
    return num * (m // g) + n * (den // g), den // g * m


def _check_point(s: Fraction, t: Fraction) -> None:
    """Raise unless s >= 0 and 0 <= t <= 1, read off the integers: a
    Fraction comparison costs as much as a Fraction operation."""
    if s.numerator < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if not 0 <= t.numerator <= t.denominator:
        raise ValueError(f"t must lie in [0, 1], got {t}")


@dataclass(frozen=True)
class BoundSpec:
    """Ring parameters feeding the master bound family."""

    dimension: int
    e: Fraction
    mu: int
    k: int = 0

    def __init__(self, dimension, e, mu, k=0):
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
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True, init=False)
class LinearBound:
    """c0 + ct*t + e (sum_i (w_i + we_i*e) nu(s - a_i) + wt*nu(s - t)), nu in dimension d.

    ``terms`` holds the triples (w, we, a).  The coefficient ``we`` of e in a
    weight is nonzero only for the worst case (:func:`HBoundObjective`),
    whose generator count mu = e - 2 puts e into the weight of nu(s - 1);
    keeping it apart makes the float weight k + 3 - float(e), as in the
    written-out H_e formula, and the same double as the master family's
    integer weight at an integer e.  ``wt`` is -1 or 0, and t ranges over
    [0, 1].  Both evaluators loop over the one term list.  The float
    evaluator skips zero weights, so a cell is the same double as the
    bound's written-out formula would give.  The exact evaluator keeps
    them, as 0 * nu changes no exact value, so a family asks for one list
    of shifts at every e.  It adds the integer numerators of its terms, e,
    c0 and ct*t over one common denominator and builds one Fraction, the
    value in lowest terms.  It reads the slice volumes of its terms and
    nu(s - t) from a memo of the last few witnesses (``_WITNESSES``), as
    integer numerators over one denominator, so the certificates of a run
    of e at one (s, t) compute them once.  A hit returns the integers that
    recomputing :func:`~hkcert.volume.nu_exact` from the same exact s, t,
    a_i and d gives; it never reads a stored certificate value.  ``d``
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
    desc: dict = field(compare=False, repr=False)

    def __init__(self, d, e, c0, ct, terms, wt, desc):
        _check_dimension(d)
        # One dict update in place of seven frozen setattr calls: every
        # certificate written or re-verified builds one of these.
        self.__dict__.update(d=d, e=e, c0=c0, ct=ct, terms=terms, wt=wt, desc=desc)

    @property
    def dimension(self) -> int:
        return self.d

    def descriptor(self) -> dict:
        return self.desc

    def exact(self, s, t) -> Fraction:
        s, t = to_rational(s), to_rational(t)
        _check_point(s, t)
        en, ed = self.e.numerator, self.e.denominator
        # Each Fraction operation costs about a microsecond, so the value is
        # kept as one integer pair num/den, and one Fraction is built at the
        # end.  The weights w + we*e of the terms, and wt, are numerators
        # over ed; the volumes are numerators over D.
        weights, shifts = [], []
        for w, we, a in self.terms:
            weights.append(w * ed + we * en)
            shifts.append(a)
        if self.wt:
            weights.append(self.wt * ed)
        _, den, vols = _WITNESSES.get(self.d, s, shifts, t if self.wt else None)
        # e (sum of weights times volumes) = en * sum / (ed * ed * D).
        num, den = en * sum(map(mul, weights, vols)), ed * ed * den
        # c0 + ct*t over small integers first, then one fold into num/den.
        c0, ct = self.c0, self.ct
        if ct:
            tn, td = t.numerator, t.denominator
            c0n, c0d = _fold(c0.numerator, c0.denominator, ct.numerator * tn, ct.denominator * td)
        else:
            c0n, c0d = c0.numerator, c0.denominator
        if c0n:
            num, den = _fold(num, den, c0n, c0d)
        return Fraction(num, den)

    @cached_property
    def _float_form(self):
        """e, the weights w + we*e and the shifts a_i of the terms whose
        weight is not zero at every e, c0 and ct (None when both are 0),
        as floats, and the slack of the row bounds (see :meth:`argmax`);
        built once per bound, for :meth:`_scan`."""
        e = float(self.e)
        live = [(w + we * e, float(a)) for w, we, a in self.terms if w or we]
        weights = [w for w, _ in live]
        shifts = np.array([a for _, a in live], dtype=float)
        shifts.flags.writeable = False
        c0, ct = float(self.c0), float(self.ct)
        offset = (c0, ct) if self.c0 or self.ct else None
        slack = 0.0
        if self.wt:
            size = e * (sum(map(abs, weights)) + 2) + abs(c0) + abs(ct)
            slack = 2 * e * _error_band(self.d) + 2.0**-49 * size
        return e, weights, shifts, offset, slack

    def _scan(self, s, t):
        """The float parts of a scan on the grid axes s and t: e, the rows'
        weighted shift volumes ``acc``, the t block nu(s_i - t_j), the
        offsets c0 + ct*t_j (None when c0 and ct are 0) and len(t).

        The slice volumes do not depend on e, so they come from the memo of
        recent grid boxes (``_VOLUMES``), one tile per pair of node
        lattices: the 1-D volumes nu(s - a_i) in its shift block and,
        unless wt = 0, the 2-D nu(s - t) in its t block.  The shifts are
        those of the terms whose weight w + we*e is not zero at every e, so
        one family asks for the same columns at every e.  A covering that
        optimizes one e after another scans the same and shifted boxes, and
        computes each volume once per grid node.  The float weights are
        built once per bound; the arithmetic on the volumes runs on every
        scan, in term order, skipping the weights that are zero at this e,
        so a cell is the same double with or without the memo.
        """
        e, weights, shifts, offset, _ = self._float_form
        shift_vols, t_vols = _VOLUMES.get(self.d, s, shifts, t if self.wt else None)
        acc = np.zeros(len(s))
        for i, weight in enumerate(weights):
            # acc + (-w)*y is the same double as acc - w*y, and a zero
            # weight is skipped, as x - 0*y is x.
            if weight:
                acc = acc + weight * shift_vols[:, i]
        off = None if offset is None else offset[0] + offset[1] * t.floats
        return e, acc, t_vols, off, len(t)

    def _cells(self, scan, rows=slice(None)) -> np.ndarray:
        """The values of the scan's ``rows``, a new array: the one cell
        formula of :meth:`vector` and :meth:`argmax`."""
        e, acc, t_vols, off, nt = scan
        if self.wt:
            inner = acc[rows, None] - t_vols[rows]
        else:
            inner = np.repeat(acc[rows, None], nt, axis=1)
        inner *= e
        if off is not None:
            inner += off
        return inner

    def _row_bounds(self, scan):
        """(ub, slack): no cell of row i exceeds ub[i] + slack (see
        :meth:`argmax`).  ub puts each t-dependent term at the end of the t
        axis that its weight favours."""
        e, acc, t_vols, off, _ = scan
        # wt < 0 favours the smallest nu(s - t), at the last t node.
        ub = e * (acc - t_vols[:, -1]) if self.wt else e * acc
        if off is not None:
            # c0 + ct*t is monotone on the nondecreasing t axis.
            ub += max(off[0], off[-1])
        return ub, self._float_form[-1]

    def vector(self, s, t) -> np.ndarray:
        """Values on the grid s.floats[:, None] x t.floats[None, :] of two
        :class:`~hkcert.search.GridAxis`, shape (len(s), len(t)), in a new
        array; its volumes come from :meth:`_scan`."""
        return self._cells(self._scan(s, t))

    def argmax(self, s, t) -> tuple[int, int, float]:
        """(i, j, value) of the first maximum of ``vector(s, t)`` in
        row-major order, value bit for bit that cell, computing only the
        rows that can hold it.

        One memo lookup and one ``acc`` serve the scan.  The row with the
        highest bound (:meth:`_row_bounds`) gives ``best``, its largest
        value; then only the rows from the first to the last whose bound is
        not below ``best - slack`` are computed, by :meth:`vector`'s
        formula.  Every cell of a row outside them is below ``best``, at
        most the grid's maximum, so the first maximum lies among them, in
        the grid's row-major order.  A NaN bound keeps its row, and a NaN
        ``best`` every row.

        Why no pruned row holds a cell of ``best`` or more.  Write eps =
        2**-53, a = acc_i, T_j the t volume nu(s_i - t_j) of column j, L
        the last column, off_j = c0 + ct*t_j and M the larger of off_0 and
        off_L, the largest off_j.  A cell is fl(fl(e fl(a - T_j)) + off_j);
        rounding is monotone, e > 0 and the t axis never decreases.

        - wt = 0: the cell is fl(fl(e a) + off_j) <= fl(fl(e a) + M) = ub,
          which the row attains, so slack = 0 and a row is pruned only
          when ub < ``best``.
        - wt = -1: the arguments fl(s_i - t_j) never increase with j and
          the exact nu never decreases, so with E = E(d), the absolute
          error band of :func:`~hkcert.search.nu_vector` against
          :func:`~hkcert.volume.nu_exact`, T_j >= T_L - 2E.  The 2E is
          needed: nu_vector is not monotone in floats, and at d = 64 a t
          volume on t steps of 1e-6 falls below its row's last column by up
          to 1.5e-6.  This step holds wherever the band does, which is
          every tested x at d <= 63; at d = 64 within 0.05 of x = 32 the
          error exceeds E = 1e-6 (up to 1.39e-6), and there the slack
          covers every fall measured but is not proven.  With y = fl(a -
          T_L) and ub = fl(fl(e y) + M), one rounding per operation gives
          fl(a - T_j) <= y + 2E + 3 eps (|y| + 2E), then fl(e fl(a - T_j))
          <= fl(e y) + 2eE + 5 eps e (|y| + 2E), and the cell <= ub + 2eE + 6 eps e (|y| + 1) + 3 eps |ub|,
          to first order in eps, as 2E < 1.  The volumes lie in [-E, 1 +
          E], so with W the sum of |w_i + we_i e| and S = e (W + 2) + |c0|
          + |ct|, both |ub| and |best| are at most S and e (|y| + 1) about
          e (W + 2), and the cell <= ub + 2eE + 9 eps S.  slack = 2eE +
          16 eps S, so a row pruned for ub < fl(``best`` - slack) <=
          ``best`` - slack + eps (S + slack) has every cell below ``best``.
          The spare eps S also covers the second-order terms, and the
          underflow of the two products while float(e) >= 2**-1000.
        """
        scan = self._scan(s, t)
        ub, slack = self._row_bounds(scan)
        top = int(ub.argmax())
        best = self._cells(scan, slice(top, top + 1)).max()
        # The band holds row top, which is computed again: one row of
        # arithmetic costs less than a second _cells call for the rows
        # past it and merging three first maxima in row-major order.
        band = np.flatnonzero(~(ub < best - slack))
        lo = int(band[0])
        vals = self._cells(scan, slice(lo, int(band[-1]) + 1))
        i, j = divmod(int(vals.argmax()), vals.shape[1])
        return lo + i, j, vals.item(i, j)


# --------------------------------------------------------------------------
# The three bound families, as term lists.


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
    return LinearBound(d, e, 1, _minus_half_power(k), _worst_case_terms(k), -1, desc)


def GeneralBoundObjective(spec: BoundSpec) -> LinearBound:
    """The master family G for a full BoundSpec.  The descriptor's empty
    ``extra`` is kept, so every ``general`` descriptor reads as written."""
    k = spec.k
    terms = ((1, 0, 0), (k + 1 - spec.mu, 0, 1), (-k, 0, _HALF))
    desc = {
        "kind": "general",
        "d": spec.dimension,
        "e": str(spec.e),
        "mu": spec.mu,
        "k": k,
        "extra": [],
    }
    return LinearBound(spec.dimension, spec.e, 1, _minus_half_power(k), terms, -1, desc)


def MuSmallObjective(e, mu: int, d: int = 7) -> LinearBound:
    """Root-free bound e (nu(s) - mu nu(s-1)); constant in t."""
    e = BoundSpec(d, e, mu).e  # d, e and mu as the master bound checks them
    terms = ((1, 0, 0), (-mu, 0, 1))
    desc = {"kind": "mu-small", "e": str(e), "mu": mu, "d": d}
    return LinearBound(d, e, 0, 0, terms, 0, desc)


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
    _check_point(s, t)
    # The volumes come from the witness memo, as exact reads them, with the
    # same shifts, so the apex of a just-certified witness computes no volume.
    _, den, vols = _WITNESSES.get(d, s, [x for *_, x in worst.terms], t)
    a = sum(we * v for (_, we, _), v in zip(worst.terms, vols))
    b = sum(w * v for (w, _, _), v in zip(worst.terms, vols)) + worst.wt * vols[-1]
    return Fraction(a, den), Fraction(b, den), worst.c0 + worst.ct * t


def last_above(a, b, c, target, lo: int, hi: int) -> int:
    """The largest integer e in [lo, hi] with a e^2 + b e + c > target, for
    exact a <= 0, given that it holds at lo: an integer root by math.isqrt
    (a floor division when a = 0), then one exact step."""
    a, b, c = (to_rational(x) for x in (a, b, to_rational(c) - to_rational(target)))
    den = lcm(a.denominator, b.denominator, c.denominator)
    qa, qb, qc = (int(x * den) for x in (a, b, c))
    def above(e: int) -> bool:
        return (qa * e + qb) * e + qc > 0
    if qa > 0 or lo > hi or not above(lo):
        raise ValueError(f"need a <= 0, lo <= hi and the inequality at lo = {lo}")
    e = qc // -qb if qb < 0 else hi  # a = 0: the run ends below -c/b, or never
    if qa:  # the larger root, to within one
        e = (qb + isqrt(qb * qb - 4 * qa * qc)) // (-2 * qa)
    e = min(max(e, lo), hi)
    if e < hi and above(e + 1):
        return e + 1
    return e if above(e) else e - 1


def e_max(s0, t0, d: int = 7, k: int = 1) -> Fraction:
    """Vertex -b/(2a) of the parabola e -> bound(e, mu = e - 2) at (s0, t0).

    Raises ValueError when s0 <= 1 (then nu(s0 - 1) = 0 and the family is
    linear in e).
    """
    a, b, _ = quadratic_in_e(s0, t0, d, k)
    if a == 0:
        raise ValueError(
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
