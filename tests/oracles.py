"""Independent oracles the test suite checks the engine against.

Nothing here may import from hkcert: the volume oracle integrates the
d = 1 ramp repeatedly with its own little polynomial helpers (the density
oracle differentiates its pieces), the Fraction-sum oracle adds the
alternating volume formula one rational term at a time, the series oracle
divides truncated power series, and the approximation oracle enumerates
denominators.  The grid-node reference is the plain Fraction-per-node form
of the search fast path, the vector volume runs Horner's rule on the
integration oracle's pieces, rounded once, one Python float at a time, the
refinement reference is the optimizer's loop on Fraction boxes, and the
three bound-vector references are each bound's float formula written out
by hand; the fast path must match all of them bit for bit.  The
bound-exact references are the same formulas in Fractions, over the
Fraction-sum volume oracle, and the paper's phi bound, which the master
family at k = 0 must equal.  They are deliberately slow and simple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor

import numpy as np

# ---------------------------------------------------------------------------
# Polynomials as plain coefficient lists (index = degree).


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_integrate(coeffs):
    """Antiderivative with zero constant term."""
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]


def poly_shift(coeffs, delta):
    """Coefficients of p(x + delta)."""
    out = [Fraction(0)] * len(coeffs)
    for i, c in enumerate(coeffs):
        for m in range(i + 1):
            out[m] += c * comb(i, m) * Fraction(delta) ** (i - m)
    return out


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


# ---------------------------------------------------------------------------
# Slice volume by repeated integration of the unit ramp.


@lru_cache(maxsize=None)
def unit_pieces(d: int):
    """Pieces of the volume function on [j, j+1] for j = 0..d-1, each as a
    polynomial in w = s - j on [0, 1]."""
    if d == 1:
        return ([Fraction(0), Fraction(1)],)  # the ramp F(w) = w on [0, 1]
    # Continuous antiderivative A of the previous volume function, with
    # A = 0 left of 0: piece j of A is A(j) plus the integral of piece j of
    # the previous volume from 0 to w.  Beyond d - 1 the previous volume is
    # 1, so A continues linearly.
    anti, start = [], Fraction(0)
    for piece in unit_pieces(d - 1) + ([Fraction(1)],):
        a = poly_integrate(piece)
        a[0] += start
        anti.append(a)
        start = poly_eval(a, Fraction(1))
    # Volume = A(s) - A(s - 1); on [j, j+1] the shifted argument is
    # j - 1 + w, where A is 0 for j = 0.
    return (anti[0],) + tuple(poly_sub(anti[j], anti[j - 1]) for j in range(1, d))


@lru_cache(maxsize=None)
def volume_pieces(d: int):
    """Pieces of the volume function on [j, j+1] for j = 0..d-1, in s."""
    return tuple(poly_shift(piece, -j) for j, piece in enumerate(unit_pieces(d)))


def volume_oracle(s, d: int) -> Fraction:
    """Volume of the slice of [0,1]^d with coordinate sum <= s, by integration."""
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    if s >= d:
        return Fraction(1)
    return poly_eval(volume_pieces(d)[floor(s)], s)


def nu_exact_oracle(s, d: int) -> Fraction:
    """The alternating sum term by term in Fractions: (-1)^j / (j! (d-j)!)
    times (s - j)^d for j = 0..floor(s), clamped to [0, 1] outside [0, d]."""
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    if s >= d:
        return Fraction(1)
    total = Fraction(0)
    for j in range(floor(s) + 1):
        term = Fraction((-1) ** j, factorial(j) * factorial(d - j)) * (s - j) ** d
        total += term
    return total


def density_oracle(s, d: int) -> Fraction:
    """Slope of the volume: the derivative of the piece on [j, j+1) holding s,
    so the right-hand piece at a breakpoint, and 0 outside [0, d)."""
    s = Fraction(s)
    if s < 0 or s >= d:
        return Fraction(0)
    return poly_eval(poly_derivative(volume_pieces(d)[floor(s)]), s)


# ---------------------------------------------------------------------------
# Series coefficients of (1 + sin x)/cos x by truncated long division.


def sec_tan_series_oracle(n: int) -> list[Fraction]:
    """Coefficients c_0..c_n with sec x + tan x = sum c_k x^k + O(x^{n+1})."""
    num = [Fraction(0)] * (n + 1)
    den = [Fraction(0)] * (n + 1)
    num[0] = Fraction(1)
    for k in range(1, n + 1, 2):
        num[k] = Fraction((-1) ** ((k - 1) // 2), factorial(k))
    den[0] = Fraction(1)
    for k in range(2, n + 1, 2):
        den[k] = Fraction((-1) ** (k // 2), factorial(k))
    quot = [Fraction(0)] * (n + 1)
    rem = list(num)
    for i in range(n + 1):
        quot[i] = rem[i]  # leading denominator coefficient is 1
        for j in range(i, n + 1):
            rem[j] -= quot[i] * den[j - i]
    return quot


# ---------------------------------------------------------------------------
# Search fast-path references.


def grid_nodes_oracle(lo, hi, n: int, max_denominator: int) -> list[Fraction]:
    """n evenly spaced nodes on [lo, hi], each one a Fraction snapped with
    limit_denominator; a degenerate range repeats lo unsnapped."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return [lo] * n
    step = (hi - lo) / (n - 1)
    return [(lo + i * step).limit_denominator(max_denominator) for i in range(n)]


def refinement_oracle(row, s_range, t_range, ns, rounds, shrink, max_denominator):
    """The optimizer's refinement loop on Fraction boxes: each round scans
    the grid_nodes_oracle nodes of its s box through ``row`` (the nodes and
    t_range in; each node's float value and exact t out), keeps the best
    (value, s, t) by value and then by exact (s, t), and shrinks the s box
    around it by ``shrink``, clipped to s_range.  Returns the nodes of
    every scan and the best point."""
    s_lo, s_hi = s_range
    box, width = (s_lo, s_hi), s_hi - s_lo
    scans, best = [], None
    for _ in range(rounds + 1):
        nodes = grid_nodes_oracle(*box, ns, max_denominator)
        scans.append(nodes)
        values, ts = row(nodes, t_range)
        i = int(np.argmax(values))
        point = (float(values[i]), nodes[i], ts[i])
        if best is None or point[0] > best[0] or (point[0] == best[0] and point[1:] < best[1:]):
            best = point
        width /= shrink
        box = (max(s_lo, best[1] - width / 2), min(s_hi, best[1] + width / 2))
    return scans, best


@lru_cache(maxsize=None)
def _float_pieces(d: int):
    """Each unit piece's coefficients, highest power first, each Fraction
    rounded once to the nearest float."""
    return tuple([float(c) for c in reversed(piece)] for piece in unit_pieces(d))


def nu_horner_oracle(x, d: int) -> np.ndarray:
    """The slice volume by Horner's rule on the unit pieces, element by
    element in Python floats: x clamped to [0, d] (NaN stays NaN), piece
    j = min(floor(x), d - 1) (the last one for NaN), w = x - j."""
    x = np.asarray(x, dtype=float)
    pieces = _float_pieces(d)
    out = []
    for v in x.ravel().tolist():
        v = min(max(v, 0.0), float(d))
        j = d - 1 if v != v else min(floor(v), d - 1)
        w = v - j
        coeffs = pieces[j]
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = acc * w + c
        out.append(acc)
    return np.array(out, dtype=float).reshape(x.shape)


# ---------------------------------------------------------------------------
# Each bound's float formula, written out by hand on the grid
# s[:, None] x t[None, :].  Parameters are floats (order values included).


def h_vector_oracle(e, d, s, t):
    """H_e: 1 - t/2 + e (nu(s) - (e-4) nu(s-1) - nu(s-1/2) - nu(s-t))."""
    nu = nu_horner_oracle
    base = nu(s, d) - (e - 4.0) * nu(s - 1.0, d) - nu(s - 0.5, d)
    return 1.0 - t[None, :] / 2.0 + e * (base[:, None] - nu(s[:, None] - t[None, :], d))


def general_vector_oracle(e, d, mu, k, s, t):
    """1 - t/2^k + e (nu(s) - (mu-k-1) nu(s-1) - k nu(s-1/2) - nu(s-t))."""
    nu = nu_horner_oracle
    base = nu(s, d) - (mu - k - 1) * nu(s - 1.0, d) - k * nu(s - 0.5, d)
    return 1.0 - t[None, :] / 2.0**k + e * (base[:, None] - nu(s[:, None] - t[None, :], d))


def mu_small_vector_oracle(e, mu, d, s, t):
    """e (nu(s) - mu nu(s-1)), the same in every t column."""
    nu = nu_horner_oracle
    col = e * (nu(s, d) - mu * nu(s - 1.0, d))
    return np.broadcast_to(col[:, None], (len(s), len(t))).copy()


# ---------------------------------------------------------------------------
# Each bound's exact formula, written out by hand in Fractions at one point.
# Parameters are Fractions or integers (order values included).


def h_exact_oracle(e, d, s, t):
    """H_e: 1 - t/2 + e (nu(s) - (e-4) nu(s-1) - nu(s-1/2) - nu(s-t))."""
    nu = nu_exact_oracle
    e, s, t = Fraction(e), Fraction(s), Fraction(t)
    inner = nu(s, d) - (e - 4) * nu(s - 1, d) - nu(s - Fraction(1, 2), d) - nu(s - t, d)
    return 1 - t / 2 + e * inner


def general_exact_oracle(e, d, mu, k, s, t):
    """1 - t/2^k + e (nu(s) - (mu-k-1) nu(s-1) - k nu(s-1/2) - nu(s-t))."""
    nu = nu_exact_oracle
    e, s, t = Fraction(e), Fraction(s), Fraction(t)
    inner = nu(s, d) - (mu - k - 1) * nu(s - 1, d) - k * nu(s - Fraction(1, 2), d)
    return 1 - t / 2**k + e * (inner - nu(s - t, d))


def mu_small_exact_oracle(e, mu, d, s):
    """e (nu(s) - mu nu(s-1))."""
    nu = nu_exact_oracle
    e, s = Fraction(e), Fraction(s)
    return e * (nu(s, d) - mu * nu(s - 1, d))


def noroots_exact_oracle(e, offsets, d, t_arg, s, t0):
    """The paper's phi bound t_arg - t0 + e (nu(s) - sum nu(s-a) - nu(s-t0)),
    which the master family at k = 0 equals with t_arg = 1, t0 = t and
    a = 1 for mu - 1 generators."""
    nu = nu_exact_oracle
    e, s, t0 = Fraction(e), Fraction(s), Fraction(t0)
    inner = nu(s, d)
    for a in offsets:
        inner -= nu(s - Fraction(a), d)
    return Fraction(t_arg) - t0 + e * (inner - nu(s - t0, d))
