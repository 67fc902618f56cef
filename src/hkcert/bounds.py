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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

import numpy as np

from .search import _density_root, nu_vector
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


# The s axes of the last boxes scanned: a covering scans one round-0 box at
# every e, and the next e repeats most of the later boxes.
_COLUMN_CACHE_SIZE = 64


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _columns(d: int, shifts: tuple[float, ...], s: bytes) -> np.ndarray:
    """The read-only float volumes nu(s_i - a_j, d), len(shifts) by len(s),
    for the doubles s_i packed in ``s``: keyed by all they depend on, as
    :func:`~hkcert.search.nu_vector` works element by element."""
    vols = nu_vector(np.frombuffer(s) - np.array(shifts)[:, None], d)
    vols.flags.writeable = False
    return vols


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
    [0, 1].  All evaluators loop over the one term list.  The float
    evaluators, :meth:`vector` for surfaces and :meth:`rows_best` for the
    optimizer, skip zero weights or add them as 0 * nu, which changes no
    bit, so a surface cell is the same double as the bound's written-out
    formula would give.  The exact evaluator keeps
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
        weight is not zero at every e, c0 and ct, as floats; built once per
        bound."""
        e = float(self.e)
        live = [(w + we * e, float(a)) for w, we, a in self.terms if w or we]
        weights = [w for w, _ in live]
        return e, weights, tuple(a for _, a in live), float(self.c0), float(self.ct)

    def _weighted(self, vols: np.ndarray, cols: tuple) -> np.ndarray:
        """sum_i w_i nu(s - a_i) over the float weights, in term order, the
        volume of shift a in column cols.index(a) of vols; a zero weight is
        skipped, as x - 0*y is x, and acc + (-w)*y is the same double as
        acc - w*y."""
        _, weights, shifts, *_ = self._float_form
        acc = np.zeros(len(vols))
        for weight, a in zip(weights, shifts):
            if weight:
                acc = acc + weight * vols[:, cols.index(a)]
        return acc

    def vector(self, s, t) -> np.ndarray:
        """Values on the grid s.floats[:, None] x t.floats[None, :] of two
        :class:`~hkcert.search.GridAxis`, shape (len(s), len(t)), in a new
        array, for the float surface; each cell is the bound's written-out
        float formula, and its volumes are computed here."""
        e, _, shifts, c0, ct = self._float_form
        s_col = s.floats[:, None]
        acc = self._weighted(nu_vector(s_col - np.array(shifts), self.d), shifts)
        if self.wt:
            inner = acc[:, None] - nu_vector(s_col - t.floats, self.d)
        else:
            inner = np.repeat(acc[:, None], len(t), axis=1)
        inner *= e
        if self.c0 or self.ct:
            inner += c0 + ct * t.floats
        return inner

    @cached_property
    def _interior(self) -> tuple[float, float] | None:
        """(uL, nu(uL)) in floats when a t inside the range can beat its
        lower end (see :meth:`rows_best`), else None."""
        if self.wt not in (0, -1) or self.ct > 0 or self.e <= 0:
            raise ValueError(
                "the closed form in t needs wt in {0, -1}, ct <= 0 and e > 0, "
                f"got wt={self.wt}, ct={self.ct}, e={self.e}"
            )
        if not self.wt:
            return None
        e, *_, ct = self._float_form
        return _density_root(-ct / e, self.d)

    @staticmethod
    def rows_best(bounds, s_axes, t_range) -> list[tuple[int, Fraction, float]]:
        """For each bound of a block, (i, t, value): the first node s_i of
        its :class:`~hkcert.search.GridAxis` in ``s_axes`` with the largest
        float value over t in the exact range t_range = (ta, tb), its exact
        t and that value.

        t enters the bound only through f(t) = ct*t + wt*e*nu(s - t), and
        the closed form needs wt in {0, -1}, ct <= 0 and e > 0, which every
        family has; any other bound is refused with ValueError.  At wt = 0,
        f never rises, so t = ta.  At wt = -1, f'(t) = ct + e nu'(s - t) >
        0 exactly when s - t lies between the two roots of nu'(u) = -ct/e,
        as nu' (the Irwin-Hall density) is unimodal.  So f is largest at t =
        ta or at t = clamp(s - uL, ta, tb), uL the smaller root
        (:func:`~hkcert.search._density_root`); if -ct/e >= max nu', f never
        rises and t = ta.  On the interior branch s - t = uL, so nu(s - t)
        is the one float nu(uL), which the root finder returns.  A tie
        prefers ta.

        The block shares d, the float shifts of its terms, c0, ct and wt,
        or is refused with ValueError; e, the weights and uL are per bound,
        and a bound with no root never takes the interior branch.  The
        block is scanned as one array of a row per bound: each cell goes
        through the same float operations in the same order as in a block
        of its bound alone, so a bound's result does not depend on the
        rest of the block.  A zero weight adds 0 * nu to a sum that is
        never -0.0, which changes no bit.  The volumes, nu(s_i - a_j) for
        the shifts and nu(s_i - ta) and nu(s_i - tb) when they are read,
        each column once, are read once per distinct axis of the block,
        from a small cache of recent axes keyed by d, the float shifts and
        the axis's doubles.  The exact t of the interior branch sits on
        s_i's denominator q: t = clamp(s_i - u, ta, tb), clamped exactly,
        with u = round(uL 256 q) / (256 q), so certificates keep small
        denominators.  ``value`` is the float estimate at the branch chosen.
        """
        first = bounds[0]
        d, wt = first.d, first.wt
        _, _, shifts, c0, ct = first._float_form
        # One row per bound: e, uL, c0 - e nu(uL) and the weights.  A bound
        # with no root holds NaN for uL; NaN > fa is False, so its rows
        # never take the interior branch.
        per, interiors = [], []
        for bound in bounds:
            e, weights, *shape = bound._float_form
            if bound.d != d or bound.wt != wt or shape != [shifts, c0, ct]:
                raise ValueError("a block's bounds must share d, shifts, c0, ct and wt")
            interior = bound._interior
            interiors.append(interior)
            root, nu_root = interior or (np.nan, 0.0)
            per.append((e, root, c0 - e * nu_root, *weights))
        # Each column of the rows as a (bound, 1) array; a block of one
        # holds floats, which numpy applies to an array faster, to the
        # same bits.
        e, root, offset, *weights = per[0] if len(per) == 1 else np.array(per).T[:, :, None]
        rooted = [x is not None for x in interiors]
        ta, tb = t_range
        fa, fb = float(ta), float(tb)
        ends = (fa, fb) if any(rooted) else (fa,) if wt else ()
        cols = tuple(dict.fromkeys(shifts + ends))
        # The volumes of each distinct axis are read once; a block of one
        # axis broadcasts them over its rows.
        read = {}
        for s in s_axes:
            if id(s) not in read:
                read[id(s)] = _columns(d, cols, s.floats.tobytes())
        if len(read) == 1:
            (vols,), floats = read.values(), s_axes[0].floats
        else:
            vols = np.stack([read[id(s)] for s in s_axes], axis=1)
            floats = np.stack([s.floats for s in s_axes])
        col = dict(zip(cols, vols))
        acc = np.zeros((len(bounds), floats.shape[-1]))
        for w, a in zip(weights, shifts):  # sum_i w_i nu(s - a_i), in term order
            acc += w * col[a]
        base = e * acc
        vals = base - e * col[fa] if wt else base
        vals = vals + (c0 + ct * fa)
        if any(rooted):
            x = floats - root  # the t of the interior branch
            inside = base + (ct * x + offset)
            upper = base - e * col[fb] + (c0 + ct * fb)
            better = np.where(x < fb, inside, upper)
            take = (x > fa) & (better > vals)
            vals = np.where(take, better, vals)
        out = []
        for m, i in enumerate(vals.argmax(axis=1).tolist()):
            t = ta
            if rooted[m] and take[m, i]:
                p, q = s_axes[m]._ratio(i)
                g = gcd(p, q)
                p, q = p // g, q // g  # s_i = p/q in lowest terms
                num, den = interiors[m][0].as_integer_ratio()
                # u = round(uL 256 q), half up, and s_i - u/(256 q) = n/w,
                # clamped to [ta, tb] on integers.
                u = (num * 512 * q + den) // (2 * den)
                n, w = 256 * p - u, 256 * q
                if n * ta.denominator <= ta.numerator * w:
                    t = ta
                elif n * tb.denominator >= tb.numerator * w:
                    t = tb
                else:
                    t = Fraction(n, w)
            out.append((i, t, vals.item(m, i)))
        return out


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
