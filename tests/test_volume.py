import functools
import random
from fractions import Fraction
from math import factorial, floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcert.search import nu_vector
from hkcert.volume import (
    MAX_CACHED_DIMENSION,
    _canonical,
    _pieces,
    nu_density,
    nu_exact,
    to_rational,
)

from oracles import (
    density_oracle,
    nu_exact_oracle,
    poly_derivative,
    poly_eval,
    volume_oracle,
    volume_pieces,
)

F = Fraction


def fraction_sum_points(d: int) -> list[Fraction]:
    """Points in and around [0, d]: every integer from -1 to d + 1; both
    sides of the midpoint d/2, where nu_exact switches to summing at d - s,
    and just below d; and s with denominators 1, <= 997, <= 10^6, <= 10^12
    (a witness s minus a witness t, as the bounds evaluate it) and 2^200."""
    rng = random.Random(4099 * d)

    def draw(den):
        return F(rng.randint(-den, (d + 1) * den), den)

    points = [F(n) for n in range(-1, d + 2)]
    eps = F(1, 10**6)
    points += [F(d, 2), F(d, 2) - eps, F(d, 2) + eps, d - eps]
    for _ in range(4):
        points.append(draw(rng.randint(1, 997)))
        points.append(draw(rng.randint(1, 10**6)))
        t = F(rng.randint(0, 10**6), rng.randint(1, 10**6))
        points.append(draw(rng.randint(1, 10**6)) - t)
        points.append(draw(2**200))
    return points


class TestNuExact:
    def test_unit_simplex(self):
        assert nu_exact(1, 7) == F(1, 5040)

    def test_symmetry_midpoint(self):
        assert nu_exact(F(7, 2), 7) == F(1, 2)

    def test_corner_complement(self):
        # 1 - (1/2)^2 / 2 by cutting the corner triangle off the square.
        assert nu_exact(F(3, 2), 2) == F(7, 8)

    def test_empty_slice(self):
        assert nu_exact(-1, 5) == 0
        assert nu_exact(0, 3) == 0

    def test_full_cube(self):
        assert nu_exact(7, 7) == 1
        assert nu_exact(F(15, 2), 7) == 1

    def test_against_integration_oracle(self):
        # Value fixed by the repeated-integration oracle.
        expected = F(62837, 645120)
        assert volume_oracle(F(5, 2), 7) == expected
        assert nu_exact(F(5, 2), 7) == expected

    def test_oracle_equivalence_random(self):
        rng = random.Random(20240817)
        for d in range(1, 10):
            for _ in range(25):
                s = F(rng.randint(-500, 1000 * d), rng.randint(1, 997))
                assert nu_exact(s, d) == volume_oracle(s, d)

    @pytest.mark.parametrize("d", range(1, 65))
    def test_matches_fraction_sum_oracle(self, d):
        for s in fraction_sum_points(d):
            assert nu_exact(s, d) == nu_exact_oracle(s, d), s

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            nu_exact(2.5, 7)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            nu_exact(F(1, 2), 0)


@settings(max_examples=60, deadline=None)
@given(
    s=st.fractions(min_value=-2, max_value=10, max_denominator=500),
    d=st.integers(min_value=1, max_value=9),
)
def test_range_property(s, d):
    v = nu_exact(s, d)
    assert 0 <= v <= 1


@settings(max_examples=60, deadline=None)
@given(
    s=st.fractions(min_value=-2, max_value=11, max_denominator=500),
    d=st.integers(min_value=1, max_value=9),
)
def test_symmetry_property(s, d):
    assert nu_exact(s, d) + nu_exact(d - s, d) == 1


@settings(max_examples=60, deadline=None)
@given(
    s1=st.fractions(min_value=-1, max_value=10, max_denominator=300),
    s2=st.fractions(min_value=-1, max_value=10, max_denominator=300),
    d=st.integers(min_value=1, max_value=8),
)
def test_monotonicity_property(s1, s2, d):
    if s1 > s2:
        s1, s2 = s2, s1
    v1, v2 = nu_exact(s1, d), nu_exact(s2, d)
    assert v1 <= v2
    if 0 <= s1 < s2 <= d:
        assert v1 < v2


def nu_point(s: float, d: int) -> float:
    """The search's float volume at one point."""
    return float(nu_vector(np.array(s), d))


class TestNuFloat:
    """The float volume :func:`hkcert.search.nu_vector`, one point at a time."""

    def test_clamps(self):
        assert nu_point(7.0, 7) == 1.0
        assert nu_point(-0.5, 4) == 0.0

    def test_midpoint(self):
        assert abs(nu_point(3.5, 7) - 0.5) <= 1e-12

    def test_against_exact_path(self):
        want = float(nu_exact(F(2741180, 1000000), 7))
        assert abs(nu_point(2.74118, 7) - want) <= 1e-12

    def test_near_top_no_cancellation(self):
        # The dangerous region is s close to d, where naive summation loses
        # most of its digits.
        for d in range(2, 13):
            for num in (4 * d - 1, 4 * d - 2, 4 * d - 3):
                s = F(num, 4)
                assert abs(nu_point(float(s), d) - float(nu_exact(s, d))) <= 1e-12

    def test_random_agreement(self):
        rng = random.Random(99)
        for _ in range(200):
            d = rng.randint(1, 12)
            s = rng.uniform(-1, d + 1)
            exact = nu_exact(F(s), d)
            assert abs(nu_point(s, d) - float(exact)) <= 1e-12

    def test_monte_carlo_sanity(self):
        rng = random.Random(5151)
        npr = np.random.default_rng(5151)
        n = 10**6
        for _ in range(10):
            d = rng.randint(1, 9)
            s = rng.uniform(0.2, d - 0.2)
            hits = 0
            for _ in range(10):
                block = npr.random((n // 10, d)).sum(axis=1)
                hits += int((block <= s).sum())
            assert abs(nu_point(s, d) - hits / n) <= 4 * 0.5 / 1000


class TestPiecewise:
    """The volume and its density are piecewise polynomials with breakpoints
    0, 1, ..., d.  These tests pin that structure through nu_exact and
    nu_density, against the pieces of the integration oracle."""

    def test_dimension_one_structure(self):
        assert volume_pieces(1) == ([0, 1],)  # the ramp s on [0, 1]
        for s in (F(-1), F(0), F(1, 3), F(1), F(2)):
            assert nu_exact(s, 1) == min(max(s, 0), 1)
            assert nu_density(s, 1) == (1 if 0 <= s < 1 else 0)

    def test_dimension_two_pieces(self):
        assert volume_pieces(2) == ([0, 0, F(1, 2)], [-1, 2, F(-1, 2)])
        for s in (F(1, 3), F(1, 2), F(1), F(4, 3), F(7, 4)):
            if s < 1:
                assert nu_exact(s, 2) == s * s / 2
                assert nu_density(s, 2) == s
            else:
                assert nu_exact(s, 2) == -1 + 2 * s - s * s / 2
                assert nu_density(s, 2) == 2 - s

    def test_dimension_seven_structure(self):
        pieces = volume_pieces(7)
        assert len(pieces) == 7
        assert all(len(p) == 8 and p[-1] != 0 for p in pieces)  # degree 7
        for j, piece in enumerate(pieces):
            for s in (F(j), j + F(1, 3), j + F(5, 7)):
                assert nu_exact(s, 7) == poly_eval(piece, s)
                assert nu_density(s, 7) == poly_eval(poly_derivative(piece), s)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_continuity_exact(self, d):
        pieces = volume_pieces(d)
        assert poly_eval(pieces[0], 0) == nu_exact(0, d) == 0
        assert poly_eval(pieces[-1], d) == nu_exact(d, d) == 1
        for j in range(d - 1):
            # nu_exact evaluates the right-hand piece at b = j + 1.
            assert poly_eval(pieces[j], j + 1) == nu_exact(j + 1, d)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_derivative_continuity_exact(self, d):
        slopes = [poly_derivative(p) for p in volume_pieces(d)]
        assert poly_eval(slopes[0], 0) == nu_density(0, d) == 0
        assert poly_eval(slopes[-1], d) == nu_density(d, d) == 0
        for j in range(d - 1):
            # nu_density takes the right-hand piece at b = j + 1.
            assert poly_eval(slopes[j], j + 1) == nu_density(j + 1, d)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_nu_exact_everywhere(self, d):
        rng = random.Random(31 + d)
        for _ in range(60):
            s = F(rng.randint(-300, 300 + 100 * d), rng.randint(1, 100))
            assert volume_oracle(s, d) == nu_exact(s, d)


_cached_pieces = functools.cache(_pieces)


@st.composite
def _piece_points(draw):
    """A dimension in 1..64 and a rational s in [0, d], integers and both
    ends included."""
    d = draw(st.integers(1, MAX_CACHED_DIMENSION))
    s = draw(st.one_of(st.integers(0, d).map(Fraction),
                       st.fractions(0, d, max_denominator=10**6)))
    return d, s


class TestIntegerPieces:
    """volume._pieces, the integers the float volume is rounded from, is
    nu_exact piece by piece."""

    @settings(max_examples=200, deadline=None)
    @given(_piece_points())
    def test_each_piece_is_nu_exact(self, point):
        d, s = point
        i = min(floor(s), d - 1)
        w = s - i
        total = sum(c * w**m for m, c in enumerate(_cached_pieces(d)[i]))
        assert total / factorial(d) == nu_exact(s, d)

    def test_shape_and_dimension_one(self):
        assert _pieces(1) == ((0, 1),)
        assert all(len(p) == 11 for p in _pieces(10)) and len(_pieces(10)) == 10
        with pytest.raises(ValueError, match="dimension must be"):
            _pieces(MAX_CACHED_DIMENSION + 1)


class TestDensity:
    def test_ramp_slope(self):
        assert nu_density(F(1, 2), 1) == 1

    def test_triangle_peak(self):
        assert nu_density(1, 2) == 1

    def test_middle_piece_slope(self):
        v = nu_density(F(7, 2), 7)
        assert v > 0
        middle = poly_derivative(volume_pieces(7)[3])
        assert v == poly_eval(middle, F(7, 2))

    @pytest.mark.parametrize("d", range(1, 12))
    def test_matches_density_oracle(self, d):
        for s in range(-1, d + 2):
            assert nu_density(s, d) == density_oracle(s, d)
        rng = random.Random(7 + d)
        for _ in range(40):
            s = F(rng.randint(-100, 100 * (d + 1)), rng.randint(1, 97))
            assert nu_density(s, d) == density_oracle(s, d)

    @pytest.mark.parametrize("d", range(2, 65))
    def test_matches_fraction_sum_oracle_difference(self, d):
        for s in fraction_sum_points(d)[::2]:
            want = nu_exact_oracle(s, d - 1) - nu_exact_oracle(s - 1, d - 1)
            assert nu_density(s, d) == want, s

    def test_outside_support(self):
        assert nu_density(-1, 5) == 0
        assert nu_density(5, 5) == 0
        assert nu_density(8, 5) == 0

    def test_nonnegative_random(self):
        rng = random.Random(11)
        for _ in range(200):
            d = rng.randint(1, 9)
            s = F(rng.randint(-100, 100 * d), rng.randint(1, 50))
            assert nu_density(s, d) >= 0


def test_to_rational_accepts_strings_and_ints():
    assert to_rational("2.74118") == F(274118, 100000)
    assert to_rational("71/67") == F(71, 67)
    assert to_rational(5) == 5


# Strings Fraction(str) reads that str(Fraction) never writes (decimals,
# signs, spaces, underscores, padding, unreduced or signed denominators),
# next to the written forms.
READ_STRINGS = ["2.74118", "14/2", " 7/2", "7/2 ", "+3", "-0", "00", "3/06", "1_000",
                "1e3", "-2.5e-3", ".5", "0", "-5/7", "71/67", "1", str(10**40 + 1),
                f"-{3**50}/{2**70}"]
# Strings both reject, with the same exception.
BAD_STRINGS = ["7/0", "7/-2", "", "/", "1/2/3", "a", "1/ 2", "2..5", "inf", "nan"]


@pytest.mark.parametrize("text", READ_STRINGS)
def test_to_rational_reads_every_string_as_fraction_does(text):
    value = to_rational(text)
    assert type(value) is Fraction and value == Fraction(text)


@pytest.mark.parametrize("text", BAD_STRINGS)
def test_to_rational_rejects_what_fraction_rejects(text):
    with pytest.raises(Exception) as want:
        Fraction(text)
    with pytest.raises(want.type):
        to_rational(text)


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=10**30))
def test_written_fractions_take_the_fast_read(value):
    text = str(value)
    assert _canonical(text) == value and to_rational(text) == value
    padded = text.replace("/", "/0") if "/" in text else text + "/1"
    assert _canonical(padded) is None and to_rational(padded) == value


def test_to_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        to_rational(0.1)
    with pytest.raises(TypeError):
        to_rational(True)
