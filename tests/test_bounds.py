import functools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcert import bounds, certify, search
from hkcert.bounds import (
    BoundSpec,
    GeneralBoundObjective,
    HBoundObjective,
    LinearBound,
    MuSmallObjective,
    e_max,
    h_bound,
    last_above,
    not_normal_bound,
    quadratic_in_e,
    range_min,
    s_bound,
)
from hkcert.certify import certify_point, cover_range, prove_dimension, reverify_certificate
from hkcert.search import GridAxis, SearchParams
from hkcert.targets import wy_target
from hkcert.volume import nu_exact

from oracles import (
    general_exact_oracle,
    general_vector_oracle,
    h_exact_oracle,
    h_vector_oracle,
    mu_small_exact_oracle,
    mu_small_vector_oracle,
    noroots_exact_oracle,
    nu_exact_oracle,
)

F = Fraction
DIM7_TARGET = F(71, 67)
DIM8_TARGET = F(8341, 8064)


class TestBoundSpec:
    def test_requires_mu_above_k(self):
        with pytest.raises(ValueError):
            BoundSpec(8, 6, 4, 4)
        BoundSpec(8, 7, 5, 4)  # mu = k + 1 is fine

    def test_rejects_nonpositive_e(self):
        with pytest.raises(ValueError):
            BoundSpec(7, 0, 3)

    @pytest.mark.parametrize(
        "args,message",
        [((7, 7, True), "generator count mu"),
         ((7, 7, 5.0), "generator count mu"),
         ((7, 7, 5, True), "root count k"),
         ((7, 7, 5, 1.0), "root count k")],
    )
    def test_rejects_counts_that_are_not_plain_integers(self, args, message):
        # True is an int equal to 1, so it would build a count-1 bound.
        with pytest.raises(ValueError, match=message):
            BoundSpec(*args)


class TestGeneralBound:
    def test_table_row_e6(self):
        spec = BoundSpec(7, 6, 4, 1)
        v = GeneralBoundObjective(spec).exact(F("2.84243"), F("0.8"))
        assert abs(float(v) - 1.06447) < 1e-4
        assert v > DIM7_TARGET

    def test_figure_dim8_point(self):
        spec = BoundSpec(8, 21, 19, 4)
        v = GeneralBoundObjective(spec).exact(F("2.17991"), F("0.706957"))
        assert abs(float(v) - 1.03545) < 1e-4
        assert v > DIM8_TARGET

    def test_single_generator_value(self):
        # mu = 1, k = 0 at t = 1: 6 (nu(4) - nu(3)) in dimension 7.
        v = GeneralBoundObjective(BoundSpec(7, 6, 1, 0)).exact(4, 1)
        assert v == 6 * (nu_exact(4, 7) - nu_exact(3, 7)) == F(302, 105)
        assert abs(float(v) - 2.87619) < 1e-4

    def test_dimension_one_unit(self):
        assert GeneralBoundObjective(BoundSpec(1, 1, 1, 0)).exact(1, 1) == 1

    def test_two_generators_value(self):
        v = GeneralBoundObjective(BoundSpec(7, 6, 2, 0)).exact(F("3.56745"), 1)
        assert abs(float(v) - 1.84215) < 1e-4

    def test_origin_is_one(self):
        for spec in (BoundSpec(7, 6, 4, 1), BoundSpec(5, 3, 2), BoundSpec(8, 21, 19, 4)):
            assert GeneralBoundObjective(spec).exact(0, 0) == 1

    def test_k0_matches_the_phi_bound(self):
        rng = random.Random(2)
        for _ in range(40):
            d = rng.randint(1, 8)
            e = F(rng.randint(1, 40), rng.randint(1, 4))
            mu = rng.randint(1, 6)
            s = F(rng.randint(0, 10 * d), 10)
            t = F(rng.randint(0, 10), 10)
            spec = BoundSpec(d, e, mu, 0)
            expected = noroots_exact_oracle(e, (1,) * (mu - 1), d, 1, s, t)
            assert GeneralBoundObjective(spec).exact(s, t) == expected


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=8),
    e=st.integers(min_value=1, max_value=60),
    mu=st.integers(min_value=2, max_value=10),
    k=st.integers(min_value=1, max_value=4),
    s=st.fractions(min_value=0, max_value=9, max_denominator=60),
    t=st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_rescaling_identity(d, e, mu, k, s, t):
    if mu < k + 1:
        mu = k + 1
    spec = BoundSpec(d, e, mu, k)
    assert GeneralBoundObjective(spec).exact(s, t) == 1 + (s_bound(spec, s, t) - 1) / 2**k


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=8),
    e=st.integers(min_value=1, max_value=60),
    mu=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=0, max_value=3),
    s=st.fractions(min_value=0, max_value=9, max_denominator=60),
    t=st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_mu_monotone(d, e, mu, k, s, t):
    if mu < k + 1:
        mu = k + 1
    lo = GeneralBoundObjective(BoundSpec(d, e, mu, k)).exact(s, t)
    hi = GeneralBoundObjective(BoundSpec(d, e, mu + 1, k)).exact(s, t)
    assert hi <= lo


class TestSBound:
    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            s_bound(BoundSpec(7, 6, 4, 0), 1, 1)

    def test_origin(self):
        assert s_bound(BoundSpec(7, 6, 4, 1), 0, 0) == 1

    def test_table_row_rescaling(self):
        spec = BoundSpec(7, 6, 4, 1)
        s, t = F("2.84243"), F("0.8")
        assert s_bound(spec, s, t) == 1 + 2 * (GeneralBoundObjective(spec).exact(s, t) - 1)

    def test_figure_dim8_rescaling(self):
        spec = BoundSpec(8, 21, 19, 4)
        s, t = F("2.17991"), F("0.706957")
        assert s_bound(spec, s, t) == 1 + 16 * (GeneralBoundObjective(spec).exact(s, t) - 1)


class TestHBound:
    @pytest.mark.parametrize(
        "e,s,t,reference",
        [
            (6, "2.84243", "0.8", "1.06447"),
            (7, "2.74118", "0.779643", "1.06056"),
            (12, "2.43609", "0.658519", "1.07073"),
        ],
    )
    def test_table_rows(self, e, s, t, reference):
        v = h_bound(e, F(s), F(t))
        assert abs(float(v) - float(reference)) < 1e-4

    def test_origin(self):
        assert h_bound(6, 0, 0) == 1

    def test_matches_the_master_family(self):
        rng = random.Random(4)
        for _ in range(30):
            e = rng.randint(4, 200)
            s = F(rng.randint(0, 80), 10)
            t = F(rng.randint(0, 10), 10)
            master = GeneralBoundObjective(BoundSpec(7, e, e - 2, 1))
            assert h_bound(e, s, t) == master.exact(s, t)

    def test_rejects_small_e(self):
        with pytest.raises(ValueError):
            h_bound(3, 1, 1)


class TestQuadraticInE:
    def test_identity_small_e(self):
        s, t = F("2.34"), F("0.62")
        a, b, c = quadratic_in_e(s, t)
        for e in range(6, 13):
            assert a * e**2 + b * e + c == h_bound(e, s, t)

    def test_identity_rational_e(self):
        rng = random.Random(6)
        s, t = F("1.9"), F("0.55")
        a, b, c = quadratic_in_e(s, t)
        for _ in range(5):
            e = F(rng.randint(16, 4000), rng.randint(1, 4))
            assert a * e**2 + b * e + c == h_bound(e, s, t)

    @pytest.mark.parametrize("d,k", [(8, 0), (8, 4), (10, 5)])
    def test_identity_worst_case_any_k(self, d, k):
        s, t = F("2.61"), F("0.43")
        a, b, c = quadratic_in_e(s, t, d, k)
        for e in range(k + 3, k + 40, 7):
            master = GeneralBoundObjective(BoundSpec(d, e, e - 2, k))
            assert a * e**2 + b * e + c == master.exact(s, t)
        assert e_max(s, t, d, k) == -b / (2 * a)

    def test_linear_when_s_at_most_one(self):
        a, _, _ = quadratic_in_e(F(1, 2), F(1, 2))
        assert a == 0

    def test_concavity_coefficient(self):
        rng = random.Random(8)
        for _ in range(100):
            s = F(rng.randint(0, 80), 10)
            t = F(rng.randint(0, 10), 10)
            a, _, _ = quadratic_in_e(s, t)
            assert a <= 0
            assert a == -nu_exact(s - 1, 7)


    @pytest.mark.parametrize("k", [-1, True, 1.5], ids=["negative", "bool", "float"])
    def test_rejects_a_root_count_the_worst_case_rejects(self, k):
        # At k = 1.5 the coefficients would be floats, and e_max's vertex too.
        for coefficients_or_vertex in (quadratic_in_e, e_max):
            with pytest.raises(ValueError, match="root count k must be a nonnegative integer"):
                coefficients_or_vertex(F("2.34"), F("0.62"), 7, k)


class TestEMax:
    def test_first_reference_row(self):
        assert abs(float(e_max(F("2.34"), F("0.62"))) - 15.973) < 1e-3

    def test_second_reference_row(self):
        assert abs(float(e_max(F("2.12"), F("0.6"))) - 31.2399) < 1e-3

    def test_linear_signal(self):
        with pytest.raises(ValueError, match="linear in e"):
            e_max(1, F(1, 2))


def _last_above_scan(a, b, c, target, lo, hi):
    """last_above by its definition: every e in [lo, hi], evaluated exactly."""
    return max(e for e in range(lo, hi + 1) if a * e * e + b * e + c > target)


class TestLastAbove:
    @settings(max_examples=150, deadline=None)
    @given(
        a=st.one_of(st.just(F(0)), st.fractions(max_value=0, min_value=-5, max_denominator=30)),
        b=st.fractions(min_value=-200, max_value=200, max_denominator=30),
        c=st.fractions(min_value=-1000, max_value=1000, max_denominator=30),
        slack=st.fractions(min_value=0, max_value=100, max_denominator=30).filter(bool),
        lo=st.integers(min_value=-50, max_value=50),
        span=st.integers(min_value=0, max_value=40),
    )
    def test_matches_an_exact_scan(self, a, b, c, slack, lo, span):
        # The target sits slack below the value at lo, so the inequality
        # holds there, as last_above requires.
        target = a * lo * lo + b * lo + c - slack
        hi = lo + span
        assert last_above(a, b, c, target, lo, hi) == _last_above_scan(a, b, c, target, lo, hi)

    @settings(max_examples=150, deadline=None)
    @given(
        linear=st.booleans(),
        r1=st.integers(min_value=-40, max_value=40),
        gap=st.integers(min_value=2, max_value=30),
        data=st.data(),
        scale=st.fractions(min_value=0, max_value=50, max_denominator=30).filter(bool),
        target=st.fractions(min_value=-100, max_value=100, max_denominator=30),
        beyond=st.integers(min_value=0, max_value=10),
    )
    def test_a_run_that_ends_at_an_exact_root(self, linear, r1, gap, data, scale, target, beyond):
        # q - target is -scale (e - r1)(e - r2), or scale (r2 - e) when
        # linear, so q(r2) == target and the run from lo ends at r2 - 1.
        # Random coefficients almost never put a root on an integer.
        r2 = r1 + gap
        lo = data.draw(st.integers(min_value=r1 + 1, max_value=r2 - 1))
        if linear:
            a, b, c = F(0), -scale, target + scale * r2
        else:
            a, b, c = -scale, scale * (r1 + r2), target - scale * r1 * r2
        assert a * r2 * r2 + b * r2 + c == target
        hi = r2 + beyond
        got = last_above(a, b, c, target, lo, hi)
        assert got == r2 - 1 == _last_above_scan(a, b, c, target, lo, hi)

    def test_ends_the_first_run_of_the_table2_covering(self):
        # The witness of the interval [13, 20] of `table2` (d = 7, k = 1).
        s, t = F(58172, 24875), F(15589, 24750)
        assert last_above(*quadratic_in_e(s, t), DIM7_TARGET, 13, 5340) == 20
        assert h_bound(20, s, t) > DIM7_TARGET >= h_bound(21, s, t)

    @pytest.mark.parametrize(
        "a,b,c,target,lo,hi",
        [
            (F(1, 3), 0, 2, 1, 0, 5),  # convex
            (-1, 0, 2, 1, 1, 0),  # empty range
            (-1, 0, 2, 1, 1, 5),  # fails at lo: q(1) = 1 is not above 1
            (0, -1, 0, 0, 0, 3),  # fails at lo, linear
        ],
    )
    def test_rejects_a_call_outside_its_contract(self, a, b, c, target, lo, hi):
        with pytest.raises(ValueError, match="need a <= 0"):
            last_above(a, b, c, target, lo, hi)

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="refusing to coerce"):
            last_above(-0.5, 1, 1, 0, 0, 3)


class TestRangeMin:
    def test_reference_rows(self):
        assert abs(float(range_min(13, 19, F("2.34"), F("0.62"))) - 1.06843) < 1e-4
        assert abs(float(range_min(1601, 5340, F("1.375"), F("0.41"))) - 2.84311) < 1e-4

    def test_degenerate_interval(self):
        s, t = F("2.74118"), F("0.779643")
        assert range_min(7, 7, s, t) == h_bound(7, s, t)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            range_min(8, 7, F(2), F(1, 2))

    def test_endpoint_minimum_under_concavity(self):
        # Dense e-sampling never dips below min of the endpoints.
        rng = random.Random(10)
        for _ in range(20):
            s0 = F(rng.randint(11, 60), 10)
            t0 = F(rng.randint(1, 10), 10)
            e1, e2 = sorted(rng.sample(range(4, 300), 2))
            floor_val = range_min(e1, e2, s0, t0)
            for e in range(e1, e2 + 1, max(1, (e2 - e1) // 17)):
                assert h_bound(e, s0, t0) >= floor_val


class TestMuSmall:
    @pytest.mark.parametrize(
        "mu,s,reference",
        [(1, "4", "2.87619"), (2, "3.56745", "1.84215"), (3, "3.32317", "1.33532")],
    )
    def test_reference_values(self, mu, s, reference):
        v = MuSmallObjective(6, mu).exact(F(s), 0)
        assert abs(float(v) - float(reference)) < 1e-4

    def test_full_cube_suboptimal(self):
        v = MuSmallObjective(6, 2).exact(7, 0)
        assert v == 6 * (1 - 2 * nu_exact(6, 7))
        assert v < 6
        assert v < MuSmallObjective(6, 2).exact(F("3.56745"), 0)

    @pytest.mark.parametrize(
        "e,mu,message",
        [(7, -3, "generator count mu must be a positive integer, got -3"),
         (7, 0, "generator count mu must be a positive integer, got 0"),
         (-7, 3, "multiplicity e must be positive, got -7"),
         (0, 3, "multiplicity e must be positive, got 0")],
    )
    def test_rejects_what_bound_spec_rejects(self, e, mu, message):
        with pytest.raises(ValueError, match=message):
            MuSmallObjective(e, mu, 7)
        with pytest.raises(ValueError, match=message):
            BoundSpec(7, e, mu)


class TestNotNormal:
    def test_values(self):
        assert not_normal_bound(1) == F(3, 2)
        assert not_normal_bound(2) == F(5, 4)
        assert not_normal_bound(4) == F(17, 16)

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            not_normal_bound(0)

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_rejects_k_not_a_plain_integer(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            not_normal_bound(k)


# Default search grids: s over [0, d + 1] with 200 nodes, t over [0, 1]
# with 100 nodes.
def _default_axes(d):
    return GridAxis(F(0), F(d + 1), 200, 10**6), GridAxis(F(0), F(1), 100, 10**6)


# Each case is a bound and its written-out float formula, both on two axes.
def _general_case(d, e, mu, k):
    spec = BoundSpec(d, e, mu, k)
    return GeneralBoundObjective(spec), lambda s, t: general_vector_oracle(
        float(spec.e), d, float(mu), k, s.floats, t.floats
    )


def _h_case(e, d):
    return HBoundObjective(e, d), lambda s, t: h_vector_oracle(
        float(F(e)), d, s.floats, t.floats
    )


def _mu_small_case(e, mu, d):
    return MuSmallObjective(e, mu, d), lambda s, t: mu_small_vector_oracle(
        float(F(e)), mu, d, s.floats, t.floats
    )


VECTOR_CASES = {
    "h-e6": _h_case(6, 7),
    "h-e13/3": _h_case(F(13, 3), 7),
    "h-e13/2": _h_case(F(13, 2), 7),
    "h-e5340": _h_case(5340, 7),
    "h-d10": _h_case(7, 10),
    "general-dim8": _general_case(8, 21, 19, 4),
    "general-k0": _general_case(7, 6, 3, 0),
    "general-zero-weight": _general_case(8, 8, 6, 5),
    "general-e13/3": _general_case(8, F(13, 3), 5, 1),
    "general-e13/2": _general_case(7, F(13, 2), 4, 2),
    "general-k0-e13/3": _general_case(7, F(13, 3), 1, 0),
    "general-k0-e13/2": _general_case(9, F(13, 2), 3, 0),
    "mu-small": _mu_small_case(6, 3, 7),
    "mu-small-e13/3": _mu_small_case(F(13, 3), 1, 7),
    "mu-small-e13/2": _mu_small_case(F(13, 2), 2, 8),
}


def _exact_cases(d):
    """Each family at an integer and a rational e, with its written-out
    Fraction formula; the master family at k = 0 is also the phi bound."""
    return [
        (HBoundObjective(7, d), lambda s, t: h_exact_oracle(7, d, s, t)),
        (HBoundObjective(F(13, 3), d), lambda s, t: h_exact_oracle(F(13, 3), d, s, t)),
        (
            GeneralBoundObjective(BoundSpec(d, 21, 19, 4)),
            lambda s, t: general_exact_oracle(21, d, 19, 4, s, t),
        ),
        (
            GeneralBoundObjective(BoundSpec(d, F(13, 3), 5, 2)),
            lambda s, t: general_exact_oracle(F(13, 3), d, 5, 2, s, t),
        ),
        (
            GeneralBoundObjective(BoundSpec(d, F(13, 3), 3, 0)),
            lambda s, t: noroots_exact_oracle(F(13, 3), (1, 1), d, 1, s, t),
        ),
        (MuSmallObjective(6, 3, d), lambda s, t: mu_small_exact_oracle(6, 3, d, s)),
        (
            MuSmallObjective(F(13, 3), 1, d),
            lambda s, t: mu_small_exact_oracle(F(13, 3), 1, d, s),
        ),
    ]


def _exact_points(d, rng):
    """(s, t) pairs: s at two integers, two half-integers and two random
    points with denominators up to 10^6 in [0, d + 1], and t at 0, 1 and
    a random point of [0, 1]."""
    s_points = [F(rng.randint(0, d + 1)) for _ in range(2)]
    s_points += [F(2 * rng.randint(0, d) + 1, 2) for _ in range(2)]
    for _ in range(2):
        q = rng.randint(1, 10**6)
        s_points.append(F(rng.randint(0, (d + 1) * q), q))
    q = rng.randint(1, 10**6)
    t_points = [F(0), F(1), F(rng.randint(0, q), q)]
    return [(s, t) for s in s_points for t in t_points]


class TestLinearBound:
    @pytest.mark.parametrize("d", [*range(1, 13), 30, 64])
    def test_exact_matches_hand_formula(self, d):
        rng = random.Random(7919 * d)
        for objective, formula in _exact_cases(d):
            for s, t in _exact_points(d, rng):
                got, want = objective.exact(s, t), formula(s, t)
                assert type(got) is F
                assert got == want, (objective.descriptor(), s, t)

    @pytest.mark.parametrize("d", [0, -3, True, 7.0])
    def test_every_family_rejects_a_bad_dimension(self, d):
        builders = [
            lambda: HBoundObjective(7, d),
            lambda: GeneralBoundObjective(BoundSpec(d, 7, 5, 1)),
            lambda: MuSmallObjective(7, 3, d),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                build()

    @pytest.mark.parametrize(
        "point,message",
        [((F(-1), F(1, 2)), "s must be >= 0"),
         ((F(2), F(-1, 3)), r"t must lie in \[0, 1\]"),
         ((F(2), F(3, 2)), r"t must lie in \[0, 1\]"),
         ((F(2), F(10**6 + 1, 10**6)), r"t must lie in \[0, 1\]")],
        ids=["s-negative", "t-negative", "t-above-1", "t-just-above-1"],
    )
    def test_exact_rejects_points_outside_the_domain(self, point, message):
        # quadratic_in_e runs the same check as every exact evaluator.
        for evaluate in [o.exact for o, _ in VECTOR_CASES.values()] + [quadratic_in_e]:
            with pytest.raises(ValueError, match=message):
                evaluate(*point)

    @pytest.mark.parametrize("case", VECTOR_CASES.values(), ids=VECTOR_CASES.keys())
    def test_vector_matches_hand_formula_bit_for_bit(self, case):
        objective, formula = case
        s, t = _default_axes(objective.dimension)
        got, want = objective.vector(s, t), formula(s, t)
        assert got.shape == want.shape == (len(s), len(t))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_every_kind_is_one_linear_bound(self):
        for objective, _ in VECTOR_CASES.values():
            assert type(objective) is LinearBound

    def test_descriptors(self):
        assert HBoundObjective(F(13, 2), 7).descriptor() == {
            "kind": "h", "e": "13/2", "d": 7,
        }
        assert GeneralBoundObjective(BoundSpec(8, 21, 19, 4)).descriptor() == {
            "kind": "general", "d": 8, "e": "21", "mu": 19, "k": 4, "extra": [],
        }
        assert MuSmallObjective(6, 3, 7).descriptor() == {
            "kind": "mu-small", "e": "6", "mu": 3, "d": 7,
        }

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 12),
        k=st.integers(0, 5),
        above=st.integers(0, 50_000),
        s=st.tuples(
            st.fractions(0, 13, max_denominator=10**6),
            st.fractions(0, 13, max_denominator=10**6),
            st.integers(2, 12),
        ),
        t=st.tuples(
            st.fractions(0, 1, max_denominator=10**6),
            st.fractions(0, 1, max_denominator=10**6),
            st.integers(2, 8),
        ),
        point=st.tuples(
            st.fractions(0, 13, max_denominator=10**6),
            st.fractions(0, 1, max_denominator=10**6),
        ),
    )
    def test_worst_case_is_the_master_family_at_mu_e_minus_2(self, d, k, above, s, t, point):
        # On grid axes, the only input vector takes.
        e = k + 3 + above
        worst = HBoundObjective(e, d, k)
        master = GeneralBoundObjective(BoundSpec(d, e, e - 2, k))
        (s_a, s_b, ns), (t_a, t_b, nt) = s, t
        s = GridAxis(min(s_a, s_b), max(s_a, s_b), ns, 10**6)
        t = GridAxis(min(t_a, t_b), max(t_a, t_b), nt, 10**6)
        assert worst.vector(s, t).tobytes() == master.vector(s, t).tobytes()
        assert worst.exact(*point) == master.exact(*point)

    @pytest.mark.parametrize(
        "e, k, message",
        [(5, 3, "the worst case needs e >= k"), (F(5, 2), 0, "the worst case needs e >= k"),
         (21, -1, "nonnegative integer"), (21, 4.0, "nonnegative integer"),
         (21, True, "nonnegative integer")],
        ids=["e-below-k+3", "e-below-3", "k-negative", "k-float", "k-bool"],
    )
    def test_worst_case_rejects_bad_e_or_k(self, e, k, message):
        with pytest.raises(ValueError, match=message):
            HBoundObjective(e, 8, k)

    def test_zero_weight_adds_nothing_exactly(self):
        # mu - k - 1 = 0: the nu(s - 1) term adds nothing to either evaluator.
        objective = GeneralBoundObjective(BoundSpec(8, 8, 6, 5))
        s, t = F(5, 2), F(1, 3)
        inner = (
            nu_exact(s, 8) - 5 * nu_exact(s - F(1, 2), 8) - nu_exact(s - t, 8)
        )
        assert objective.exact(s, t) == 1 - t / 32 + 8 * inner


@pytest.fixture
def witness_memo(monkeypatch):
    """A fresh exact-volume memo for LinearBound.exact, of the fixed capacity."""
    fresh = bounds._WitnessMemo(bounds._WITNESS_CAPACITY)
    monkeypatch.setattr(bounds, "_WITNESSES", fresh)
    return fresh


@pytest.fixture
def nu_exact_calls(monkeypatch):
    """The arguments (x, d) of every nu_exact call the bounds make."""
    calls = []
    real = bounds.nu_exact

    def counted(x, d):
        calls.append((x, d))
        return real(x, d)

    monkeypatch.setattr(bounds, "nu_exact", counted)
    return calls


def _cold_exact(objective, s, t):
    """objective.exact(s, t) on an empty witness memo."""
    warm = bounds._WITNESSES
    bounds._WITNESSES = bounds._WitnessMemo(bounds._WITNESS_CAPACITY)
    try:
        return objective.exact(s, t)
    finally:
        bounds._WITNESSES = warm


def _quadratic_oracle(s, t, d, k):
    """(a, b, c) of the worst case mu = e - 2, written out in Fractions."""
    nu = lambda x: nu_exact_oracle(x, d)
    return (
        -nu(s - 1),
        nu(s) + (k + 3) * nu(s - 1) - k * nu(s - F(1, 2)) - nu(s - t),
        1 - t / 2**k,
    )


_E_ABOVE = [0, 1, F(1, 2), F(7, 3), 40]


def _family(kind, d, p):
    """One objective of ``kind`` picked by the integer p, and its
    written-out exact formula (s, t) -> value."""
    k, e_above = p % 3, _E_ABOVE[p % len(_E_ABOVE)]
    if kind == "h":  # e = k + 3 puts a zero weight on nu(s - 1)
        e = k + 3 + e_above
        return HBoundObjective(e, d, k), lambda s, t: general_exact_oracle(
            e, d, e - 2, k, s, t
        )
    if kind == "general":  # mu = k + 1 puts a zero weight on nu(s - 1)
        e, mu = 5 + e_above, k + 1 + p % 2
        return GeneralBoundObjective(BoundSpec(d, e, mu, k)), (
            lambda s, t: general_exact_oracle(e, d, mu, k, s, t)
        )
    # mu-small reads no t
    e, mu = 2 + e_above, 1 + p % 3
    return MuSmallObjective(e, mu, d), lambda s, t: mu_small_exact_oracle(e, mu, d, s)


_DENOMINATORS = st.sampled_from([1, 2, 3, 8, 999_983])


@st.composite
def _rationals(draw, hi):
    q = draw(_DENOMINATORS)
    return F(draw(st.integers(0, hi * q)), q)


class TestWitnessMemo:
    """LinearBound.exact and quadratic_in_e read their exact slice volumes
    from a memo of the last few witnesses: no value may differ from the
    bound's written-out formula or from an evaluation on an empty memo."""

    @settings(max_examples=60, deadline=None)
    @given(
        s_pool=st.lists(_rationals(9), min_size=1, max_size=5),
        t_pool=st.lists(_rationals(1), min_size=1, max_size=3),
        calls=st.lists(
            st.tuples(
                st.sampled_from(["h", "general", "mu-small", "quadratic"]),
                st.sampled_from([3, 7]),
                st.integers(0, 4),
                st.integers(0, 2),
                st.integers(0, 59),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_interleaved_calls_match_the_formulas_and_a_cold_memo(self, s_pool, t_pool, calls):
        # Small pools make calls share s, (s, t) or d; a memo of three
        # witnesses is outgrown by the pools, so entries are evicted.
        small = bounds._WitnessMemo(3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_WITNESSES", small)
            for kind, d, i, j, p in calls:
                s, t = s_pool[i % len(s_pool)], t_pool[j % len(t_pool)]
                if kind == "quadratic":
                    k = p % 3
                    got = quadratic_in_e(s, t, d, k)
                    assert got == _quadratic_oracle(s, t, d, k), (s, t, d, k)
                    assert all(type(x) is F for x in got)
                    continue
                objective, formula = _family(kind, d, p)
                got = objective.exact(s, t)
                assert type(got) is F
                assert got == formula(s, t), (objective.descriptor(), s, t)
                assert got == _cold_exact(objective, s, t)
                assert len(small.entries) <= small.capacity

    def test_second_certificate_at_a_witness_computes_no_volume(
        self, witness_memo, nu_exact_calls
    ):
        s, t = F(37, 7), F(3, 11)
        lo = certify_point(HBoundObjective(13, 7), s, t, DIM7_TARGET)
        assert len(nu_exact_calls) == 4  # nu(s), nu(s - 1), nu(s - 1/2), nu(s - t)
        hi = certify_point(HBoundObjective(5340, 7), s, t, DIM7_TARGET)
        vertex = e_max(s, t, 7)
        assert reverify_certificate(hi) and reverify_certificate(lo)
        assert len(nu_exact_calls) == 4
        assert hi.value == h_exact_oracle(5340, 7, s, t)
        a, b, _ = _quadratic_oracle(s, t, 7, 1)
        assert vertex == -b / (2 * a)

    def test_zero_weights_share_the_witness_volumes(self, witness_memo, nu_exact_calls):
        # exact keeps zero weights, so the worst case at e = k + 3 and
        # above, its parabola and the master family at mu = k + 1 (a zero
        # weight on nu(s - 1)) read one shift list at the witness.
        s, t, d, k = F(9, 2), F(1, 3), 8, 2
        HBoundObjective(k + 3, d, k).exact(s, t)
        assert [x for x, _ in nu_exact_calls] == [s, s - 1, s - F(1, 2), s - t]
        assert HBoundObjective(k + 4, d, k).exact(s, t) == general_exact_oracle(
            k + 4, d, k + 2, k, s, t
        )
        assert quadratic_in_e(s, t, d, k) == _quadratic_oracle(s, t, d, k)
        general = GeneralBoundObjective(BoundSpec(d, 7, k + 1, k))
        assert general.exact(s, t) == general_exact_oracle(7, d, k + 1, k, s, t)
        assert len(nu_exact_calls) == 4

    def test_other_shifts_at_a_witness_read_their_own_volumes(self, witness_memo):
        # A hand-built term list whose shifts differ from the worst case's
        # in one value only: the memo must not hand it nu(s - 1).
        s, t, d = F(9, 2), F(1, 3), 8
        worst = HBoundObjective(6, d, 2)
        terms = ((1, 0, 0), (-2, 0, F(1, 3)), (-2, 0, F(1, 2)))
        other = LinearBound(d, F(6), 1, F(-1, 4), terms, -1, {})
        want = worst.exact(s, t)
        assert other.exact(s, t) == _cold_exact(other, s, t)
        assert worst.exact(s, t) == want == _cold_exact(worst, s, t)

    def test_oldest_witness_is_evicted_first(self, witness_memo, nu_exact_calls):
        capacity = witness_memo.capacity
        witnesses = [(F(i, 3), F(1, 2)) for i in range(1, 2 * capacity + 1)]
        for s, t in witnesses:
            HBoundObjective(7, 7).exact(s, t)
            assert len(witness_memo.entries) <= capacity
        calls = len(nu_exact_calls)
        for s, t in witnesses[capacity:]:
            HBoundObjective(8, 7).exact(s, t)
        assert len(nu_exact_calls) == calls
        HBoundObjective(8, 7).exact(*witnesses[0])
        assert len(nu_exact_calls) == calls + 4

    def test_prove_dimension_seven_volume_count(self, witness_memo, nu_exact_calls):
        # Each covering interval's certificates, apex chase and the
        # quadratic that ends its run share their witness's volumes (718
        # calls without the memo).
        assert prove_dimension(7, 1).verdict == "proved"
        assert len(nu_exact_calls) == 98


@pytest.fixture
def axis_cache():
    """An empty cache of grid axes, and so of the float volumes the axes
    keep, for LinearBound.rows_best; emptied again afterwards."""
    search._axis.cache_clear()
    yield search._axis
    search._axis.cache_clear()


def _small_axis_cache(monkeypatch, size):
    """search._axis with room for ``size`` axes, empty."""
    small = functools.lru_cache(maxsize=size)(search._axis.__wrapped__)
    monkeypatch.setattr(search, "_axis", small)
    return small


def _cached_axis(lo, hi, n, max_denominator=10**6):
    """The axis of the box from lo to hi, through the optimizer's cache."""
    return search._axis(*search._over_one_denominator(F(lo), F(hi)), n, max_denominator)


def _scan(objective, s, t_range):
    """(i, t, value) of the scan of ``objective`` alone: its block of one."""
    return LinearBound.rows_best([objective], [s], t_range)[0]


def _fresh(s):
    """A new axis of the nodes of s, built from its exact ends: it holds
    no volumes yet."""
    fresh = GridAxis(s.node(0), s.node(len(s) - 1), len(s), 10**12)
    assert fresh.floats.tobytes() == s.floats.tobytes()
    return fresh


def _cold(objective, s, t_range):
    """_scan(objective, s, t_range) on a freshly built axis of the same box."""
    return _scan(objective, _fresh(s), t_range)


def _assert_cold(objective, s, t_range=(F(0), F(1))):
    """A scan on an axis that holds volumes is a scan on a new one, bit
    for bit."""
    i, t, value = _scan(objective, s, t_range)
    j, u, cold = _cold(objective, s, t_range)
    assert (i, t) == (j, u)
    assert np.float64(value).tobytes() == np.float64(cold).tobytes()
    return i, t, value


def _default_s(d):
    return _default_axes(d)[0]


class TestVolumeMemo:
    """The axis volume memo: LinearBound.rows_best reads the float volume
    rows nu(s_i - a) of an s axis from that axis (``GridAxis.volumes``),
    which keeps one array per d and shift list; the optimizer's cache
    ``search._axis`` keeps the axes of recent boxes, and with them their
    volumes.  No result may depend on either."""

    def test_every_result_bit_for_bit_through_evictions(self, monkeypatch, nu_calls):
        # e after e on one default axis, as a covering scans it, between
        # other axes and dimensions, on an axis cache of four entries:
        # axes are evicted with their volumes, which are later computed
        # again.
        small = _small_axis_cache(monkeypatch, 4)
        narrow = (F(5, 2), F(13, 5), 200)
        for e in range(6, 13):
            calls = [
                (HBoundObjective(e, 7), _cached_axis(0, 8, 200), (F(0), F(1))),
                (GeneralBoundObjective(BoundSpec(7, e, e - 2, 1)), _cached_axis(0, 8, 200), (F(0), F(1))),
                (HBoundObjective(e, 7), _cached_axis(*narrow), (F(3, 5), F(7, 10))),
                (GeneralBoundObjective(BoundSpec(8, e + 10, e + 8, 4)), _cached_axis(0, 9, 200), (F(0), F(1))),
                (MuSmallObjective(e, 3, 7), _cached_axis(0, 8, 200), (F(1), F(1))),
                (GeneralBoundObjective(BoundSpec(8, e, 3, 0)), _cached_axis(0, 9, 80), (F(0), F(1, 2))),
                (HBoundObjective(e + 240, 10, 5), _cached_axis(0, 11, 200), (F(0), F(1))),
                (GeneralBoundObjective(BoundSpec(8, e, 4, 1)), _cached_axis(*narrow), (F(3, 5), F(7, 10))),
                (HBoundObjective(e, 9), _cached_axis(0, 10, 200), (F(0), F(1))),
                (HBoundObjective(e, 12, 3), _cached_axis(0, 13, 200), (F(1, 3), F(1))),
            ]
            for objective, s, t_range in calls:
                _assert_cold(objective, s, t_range)
        # Seven boxes, each built again after an eviction; the master
        # family reads the axis, and the volumes, of the worst case just
        # before it.  The default d = 7 axis computes two shift lists per
        # build, and the narrow box one per dimension, as the cache evicts
        # it between its two uses; 70 more calls are the cold scans.
        info = small.cache_info()
        assert info.currsize == 4 and info.misses > 8 and info.hits == 20
        assert len(nu_calls) == 133

    def test_same_box_for_every_e_is_computed_once(self, axis_cache, nu_calls):
        s = _default_s(10)
        objectives = [GeneralBoundObjective(BoundSpec(10, e, e - 2, 5)) for e in range(240, 250)]
        found = [_scan(objective, s, (F(0), F(1))) for objective in objectives]
        # One row each of nu(s), nu(s - 1) and nu(s - 1/2); the t range
        # ends 0 and 1 read the first two.
        assert nu_calls == [3 * len(s)]
        assert found == [_cold(objective, s, (F(0), F(1))) for objective in objectives]

    def test_a_repeated_box_is_a_full_hit(self, axis_cache, nu_calls):
        # The same box through the axis cache is the same axis, so its
        # volumes are read whole: no nu_vector call.
        for family in (
            [GeneralBoundObjective(BoundSpec(10, e, e - 2, 5)) for e in (245, 246, 247)],
            [MuSmallObjective(e, 3, 10) for e in (9, 10, 11)],
        ):
            _scan(family[0], _cached_axis(0, 11, 200), (F(0), F(1)))
            nu_calls.clear()
            for objective in family[1:]:
                _scan(objective, _cached_axis(0, 11, 200), (F(0), F(1)))
            assert nu_calls == []
        # A box one node over shares 199 doubles, but is an axis of its
        # own; so is an axis of the same box built outside the cache.
        step = F(11, 199)
        objective = HBoundObjective(248, 10, 5)
        _scan(objective, _cached_axis(step, 11 + step, 200), (F(0), F(1)))
        assert nu_calls == [3 * 200]
        _scan(objective, GridAxis(F(0), F(11), 200, 10**6), (F(0), F(1)))
        assert nu_calls == [3 * 200] * 2

    def test_mutating_results_and_inputs_changes_no_later_result(self, axis_cache):
        for (objective, formula), shifts in ((_h_case(7, 7), (0.0, 1.0, 0.5)),
                                             (_mu_small_case(6, 3, 7), (0.0, 1.0))):
            s, t = _default_axes(7)
            first = objective.vector(s, t)
            first[...] = np.nan
            assert np.array_equal(objective.vector(s, t).view(np.int64),
                                  formula(s, t).view(np.int64))
            _assert_cold(objective, s)
            # The volumes an axis keeps, and the floats they were
            # computed from, cannot change under a later scan.
            assert s.volumes(7, shifts) is s.volumes(7, shifts)
            for block in (s.volumes(7, shifts), t.floats, s.floats):
                with pytest.raises(ValueError, match="read-only"):
                    block[-3:] = 0.5

    def test_random_calls_on_a_small_memo(self, monkeypatch, nu_calls):
        # Six seeded callers take turns, 60 calls each, on an axis cache
        # that holds three of these six boxes: a stale or torn entry would
        # show as a result that differs from a cold one.
        small = _small_axis_cache(monkeypatch, 3)
        boxes, jobs = [], []
        for i in range(6):
            lo = F(i, 10) if i < 3 else F(i, 3)
            boxes.append((lo, lo + (F(39, 10) if i < 3 else i - 1)))
            objective = HBoundObjective(6 + i % 3, 7)
            jobs.append((objective, i, _cold(objective, GridAxis(*boxes[-1], 40, 10**6), (F(0), F(1)))))
        nu_calls.clear()
        callers = [random.Random(seed) for seed in range(6)]
        failures = []
        for n in range(60):
            for seed, rng in enumerate(callers):
                objective, i, want = rng.choice(jobs)
                if _scan(objective, _cached_axis(*boxes[i], 40), (F(0), F(1))) != want:
                    failures.append((seed, n))
        assert failures == []
        # One nu_vector call per axis built; some scans hit and some missed.
        assert 6 < len(nu_calls) == small.cache_info().misses < 6 * 60

    def test_one_lookup_and_one_nu_vector_call_per_scan(self, monkeypatch, axis_cache, nu_calls):
        # A proof scans the worst case and the mu-small rungs (a bound
        # constant in t) in blocks of one, and a gap sweep scans blocks of
        # e: a block of one axis reads its volumes once, any other block
        # once per member, and every scan makes at most one nu_vector
        # call per distinct axis of its block.
        lookups, per_scan = [], []
        rows_best, volumes = LinearBound.rows_best, GridAxis.volumes

        def counted_lookup(axis, d, shifts):
            lookups.append(shifts)
            return volumes(axis, d, shifts)

        def counted_rows_best(block, s_axes, t_range):
            before = len(lookups), len(nu_calls)
            out = rows_best(block, s_axes, t_range)
            per_scan.append((len(block), len({id(s) for s in s_axes}),
                             len(lookups) - before[0], len(nu_calls) - before[1]))
            return out

        monkeypatch.setattr(GridAxis, "volumes", counted_lookup)
        monkeypatch.setattr(LinearBound, "rows_best", staticmethod(counted_rows_best))
        prove_dimension(7, 1)
        assert len(lookups) == len(per_scan) > 100
        assert {(size, axes, found) for size, axes, found, _ in per_scan} == {(1, 1, 1)}
        assert {calls for *_, calls in per_scan} == {0, 1}
        # The sweep's 50 gaps and one interval scan 244 members in 28
        # scans and 145 reads, most of them of volumes a member before it
        # in the block computed; one scan per e would make 244 of each.
        per_scan.clear()
        lookups.clear()
        cover_range(10, 5, 200, 260, wy_target(10).value)
        assert all(found == (1 if axes == 1 else size) and calls <= axes
                   for size, axes, found, calls in per_scan)
        assert (sum(size for size, *_ in per_scan), len(per_scan), len(lookups)) == (244, 28, 145)


def _lattice_axis(first, n: int, step: Fraction) -> GridAxis:
    """The axis of the nodes first*step ... (first + n - 1)*step, through
    the optimizer's cache."""
    return _cached_axis(first * step, (first + n - 1) * step, n)


class TestVolumeTiles:
    """The axis volume memo's keys: an s axis that overlaps a cached one,
    shifted, nested or on another node lattice, is an axis of its own,
    with volumes of its own: an axis reuses its own volumes or none, and
    each result is a cold one."""

    S_STEP, T_STEP = F(11, 199), F(1, 99)

    def box(self, s_first, t_first, ns=60, nt=30):
        """An s axis and a t range (ta, tb) of nt - 1 t steps."""
        ta = t_first * self.T_STEP
        return _lattice_axis(s_first, ns, self.S_STEP), (ta, ta + (nt - 1) * self.T_STEP)

    @pytest.mark.parametrize("ds", (-7, -1, 0, 1, 7))
    @pytest.mark.parametrize("dt", (-5, -1, 0, 1, 5))
    def test_shifted_boxes(self, axis_cache, nu_calls, ds, dt):
        objective = GeneralBoundObjective(BoundSpec(10, 245, 243, 5))
        _scan(objective, *self.box(20, 40))
        nu_calls.clear()
        _scan(objective, *self.box(20 + ds, 40 + dt))
        # The shift rows of nu(s), nu(s - 1/2) and nu(s - 1), and the two
        # t range ends: all of them unless both boxes are the same.
        assert nu_calls == ([] if ds == dt == 0 else [60 * 5])
        _assert_cold(objective, *self.box(20 + ds, 40 + dt))

    def test_chain_of_shifts_bit_for_bit(self, axis_cache, nu_calls):
        # A box that walks away node by node, as refinement boxes do from
        # one e to the next, and comes back.
        moves = [(0, 0), (2, 1), (5, -3), (59, 0), (0, 29), (-4, 0), (0, 0)]
        for e, (ds, dt) in enumerate(moves):
            _assert_cold(HBoundObjective(8 + e, 7), *self.box(30 + ds, 40 + dt))
        # Six distinct boxes, each once through the cache and once cold.
        assert sum(nu_calls) == (6 + 7) * 60 * 5

    @pytest.mark.parametrize(
        "shape",
        [(10, 20, 40, 10), (0, 0, 60, 30), (5, 0, 50, 30), (0, 5, 60, 25)],
        ids=["inner", "same", "rows", "cols"],
    )
    def test_sub_boxes(self, axis_cache, shape):
        ds, dt, ns, nt = shape
        _assert_cold(HBoundObjective(7, 8), *self.box(20, 40))
        _assert_cold(HBoundObjective(7, 8), *self.box(20 + ds, 40 + dt, ns, nt))

    def test_super_boxes(self, axis_cache):
        _assert_cold(MuSmallObjective(9, 2, 8), *self.box(20, 40, 30, 15))
        _assert_cold(HBoundObjective(7, 8), *self.box(20, 40, 30, 15))
        _assert_cold(HBoundObjective(7, 8), *self.box(10, 30))
        _assert_cold(HBoundObjective(7, 8), *self.box(20, 40, 30, 15))

    def test_other_lattice_is_not_reused(self, axis_cache, nu_calls):
        objective = HBoundObjective(7, 7)
        _, t_range = self.box(20, 40)
        _scan(objective, *self.box(20, 40))
        nu_calls.clear()
        # Half the step: every other node coincides, no run of nodes does.
        s = _cached_axis(20 * self.S_STEP, 20 * self.S_STEP + 59 * self.S_STEP / 2, 60)
        _scan(objective, s, t_range)
        assert nu_calls == [60 * 5]
        _assert_cold(objective, s, t_range)

    def test_degenerate_t_axis(self, axis_cache, nu_calls):
        # The mu-small rungs take t = 1 only, the degenerate range (1, 1).
        t_range = (F(1), F(1))
        for objective in (
            MuSmallObjective(6, 3, 10), HBoundObjective(6, 10), GeneralBoundObjective(BoundSpec(10, 9, 7, 5))
        ):
            for s_first in (0, 3, 0):
                s, _ = self.box(s_first, 0)
                assert _assert_cold(objective, s, t_range)[1] == 1
        # Mu-small reads the shifts (0, 1) and no t end; H_e and this
        # general bound read the shifts (0, 1, 1/2), where t = 1 is the
        # shift 1, and share their volumes.  Two axes each, and every
        # result once more cold.
        mu_small, h = 60 * 2, 60 * 3
        assert sum(nu_calls) == 2 * mu_small + 2 * h + 3 * (mu_small + 2 * h)

    def test_half_node_boxes_keep_a_tile_each(self, axis_cache, nu_calls):
        # Box a, then box b half a node off, as boxes centred on a new and
        # an older incumbent lie; then a again, which is still kept.
        objective = HBoundObjective(7, 7)
        _scan(objective, *self.box(20, 40))
        _scan(objective, *self.box(F(41, 2), 40))
        assert nu_calls == [60 * 5] * 2
        assert axis_cache.cache_info().currsize == 2
        nu_calls.clear()
        _scan(objective, *self.box(20, 40))
        assert nu_calls == []

    def test_a_weight_zero_at_one_e_keeps_its_column(self, axis_cache, nu_calls):
        # At e = 4 the weight e - 4 of nu(s - 1) in H_e is zero, and the
        # sum skips it; its row is read all the same, so e = 4 and e = 5
        # share one entry.
        s = _default_s(7)
        for e in (4, 5, 4):
            _scan(HBoundObjective(e, 7), s, (F(0), F(1)))
        assert nu_calls == [200 * 3]

    def test_an_optimization_at_seven_rounds_fits(self, axis_cache, nu_calls):
        # The eight nested s boxes of one optimization at --rounds 7,
        # scanned e after e as a covering does: the axis cache holds all
        # of them, so the second e computes no volume.
        def nested():
            yield _cached_axis(0, 8, 200)
            for r in range(1, 8):
                width = F(8, 5**r)
                yield _cached_axis(F(3) - width / 2, F(3) + width / 2, 200)

        for e in (7, 8):
            for s in nested():
                _scan(HBoundObjective(e, 7), s, (F(0), F(1)))
            if e == 7:
                assert nu_calls == [200 * 3] * 8
                nu_calls.clear()
        assert nu_calls == []


class TestMemoInCoverings:
    """The axis volume memo in proofs and coverings: how many float
    volumes their axes compute, and that none of their results depends on
    the axis cache."""

    def test_cover_range_same_on_a_cold_and_a_warm_memo(self, axis_cache):
        target = wy_target(10).value
        cold = cover_range(10, 5, 240, 260, target)
        axis_cache.cache_clear()
        cover_range(8, 4, 6, 60, DIM8_TARGET)
        cover_range(9, 2, 30, 40, wy_target(9).value)
        assert axis_cache.cache_info().currsize > 0
        assert cover_range(10, 5, 240, 260, target) == cold

    def test_default_rounds_prove(self, axis_cache, nu_calls):
        # The d = 7 proof at default rounds, on an empty cache.
        prove_dimension(7, 1)
        assert sum(nu_calls) <= 45_400

    def test_gap_sweep(self, axis_cache, nu_calls):
        # Forty d = 10 gaps, one four-round optimization each, 2,400 points
        # each with no cache.
        target = wy_target(10).value
        plan = cover_range(10, 5, 200, 239, target)
        assert [(g.e_lo, g.e_hi) for g in plan.gaps] == [(200, 239)]
        assert sum(nu_calls) <= 16_800

    def test_default_rounds_cover(self, monkeypatch, nu_calls):
        # One d = 10 covering optimizes 15 e of the gap run 240..249 in
        # blocks of 1, 2, 4 and 8, the last of which finds the interval
        # from 250, and one e in its apex chase.  With no axis cache every
        # member builds its own axis in every round: 16 optimizations of
        # four boxes of 600 points.  The cache shares the round-0 box of
        # every block, and most round-1 boxes.
        counts = []
        for size in (0, search._AXIS_CACHE_SIZE):
            _small_axis_cache(monkeypatch, size)
            nu_calls.clear()
            cover_range(10, 5, 240, 260, wy_target(10).value)
            counts.append(sum(nu_calls))
        assert counts[0] == 16 * 4 * 200 * 3
        assert counts[1] <= 8_400

    def test_more_rounds_cover(self, axis_cache, nu_calls):
        # Six boxes per optimization, on an empty cache.  The block of 8
        # that reaches the interval from 250 also optimizes 251..254, whose
        # boxes a sweep of single optimizations never scans (21,600 points).
        cover_range(10, 5, 240, 260, wy_target(10).value, SearchParams(refine_rounds=5))
        assert sum(nu_calls) <= 27_600

    @pytest.mark.parametrize("rounds, points", [(5, 75_400), (7, 105_400)])
    def test_more_rounds_prove(self, axis_cache, nu_calls, rounds, points):
        # Six and eight boxes per optimization: the cache holds every box
        # of one optimization, so the next e reuses them.
        prove_dimension(7, 1, SearchParams(refine_rounds=rounds))
        assert sum(nu_calls) <= points

    def test_one_optimization_computes_each_column_once_per_round(self, axis_cache, nu_calls):
        # At --rounds 8 one optimization scans nine boxes per member, the
        # first one shared; no eviction may make it compute a box twice: at
        # most (1 + 8 x members) x ns x rows points.  The gap sweep's
        # blocks reach 16 members, 129 boxes, which the cache cannot hold
        # at once; each box is read once, in its round.
        blocks = []
        real = certify.optimize_bounds

        def counted(objectives, params):
            before = sum(nu_calls)
            out = real(objectives, params)
            blocks.append((len(objectives), sum(nu_calls) - before))
            return out

        rounds = SearchParams(refine_rounds=8)
        with mock.patch.object(certify, "optimize_bounds", counted):
            prove_dimension(7, 1, rounds)
            cover_range(10, 5, 200, 260, wy_target(10).value, rounds)
        assert len(blocks) > 20 and max(size for size, _ in blocks) == 16
        assert all(points <= (1 + 8 * size) * 200 * 3 for size, points in blocks)


@st.composite
def _closed_form_cases(draw):
    """A bound of any family at d <= 12 and e up to 10^4, an s axis with
    snapped or unsnapped nodes and s past d + 1, and a t range in [0, 1],
    the degenerate [1, 1] included."""
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("h", "general", "mu-small")))
    k = draw(st.integers(0, 5))
    if kind == "h":
        objective = HBoundObjective(draw(st.fractions(k + 3, 10**4, max_denominator=9)), d, k)
    elif kind == "general":
        e = draw(st.fractions(F(1, 9), 10**4, max_denominator=9))
        objective = GeneralBoundObjective(BoundSpec(d, e, draw(st.integers(k + 1, 60)), k))
    else:
        e = draw(st.fractions(F(1, 9), 10**4, max_denominator=9))
        objective = MuSmallObjective(e, draw(st.integers(1, 60)), d)
    cap = draw(st.sampled_from((7, 1000, 10**6)))
    s_a, s_b = (draw(st.fractions(0, d + 3, max_denominator=10**4)) for _ in "ab")
    s = GridAxis(min(s_a, s_b), max(s_a, s_b), draw(st.integers(2, 40)), cap)
    if draw(st.booleans()):
        t_range = (F(1), F(1))
    else:
        t_a, t_b = (draw(st.fractions(0, 1, max_denominator=10**4)) for _ in "ab")
        t_range = (min(t_a, t_b), max(t_a, t_b))
    return objective, s, t_range


class TestPrunedScan:
    """The closed-form scan: LinearBound.rows_best scans one s axis per
    bound and takes t in closed form, one value per s node, which no t of
    a 2-D grid beats.  (No grid is pruned any more.)"""

    @settings(max_examples=300, deadline=None)
    @given(_closed_form_cases())
    def test_no_t_beats_the_closed_form(self, case):
        objective, s, (ta, tb) = case
        i, t, value = _scan(objective, s, (ta, tb))
        assert type(value) is float and ta <= t <= tb
        t_axis = GridAxis(ta, tb, 1000, 10**12)
        grid = objective.vector(s, t_axis)
        at_t = objective.vector(s, GridAxis(t, t, 2, 10**12))[:, 0]
        # t rounds s_i - uL to the denominator 256 q of s_i = p/q, and the
        # bound's second derivative in t is e nu'' with |nu''| <= 1 for
        # d >= 2 (uL = 0 needs no rounding at d = 1), so the rounding can
        # lose up to e (1/(512 q))**2 / 2 against the best t.
        e, q = float(objective.e), s.node(i).denominator
        rounding = e / (2 * (512 * q) ** 2)
        # vector and rows_best round their sums differently: allow a few
        # ulps of the largest term, e (sum_i |w_i| + 2) + |c0| + |ct|.
        size = e * (sum(abs(w + we * e) for w, we, _ in objective.terms) + 2)
        tol = 1e-9 + 2.0**-48 * (size + abs(float(objective.c0)) + abs(float(objective.ct)))
        assert grid[i].max() <= at_t[i] + tol + rounding
        assert abs(value - at_t[i]) <= tol + rounding
        # No node's t axis beats the value of the node chosen, which is
        # the first of the best.
        assert grid.max() <= value + tol

    @pytest.mark.parametrize(
        "objective",
        [HBoundObjective(7, 7), HBoundObjective(50, 10, 5),
         GeneralBoundObjective(BoundSpec(10, 9, 5, 2)), MuSmallObjective(7, 3, 7)],
        ids=["h", "h-k5", "general", "mu-small"],
    )
    def test_tied_rows_give_row_zero(self, objective):
        # For s >= d + 1 every volume is 1, so every node ties.
        d = objective.dimension
        s = GridAxis(F(d + 1), F(d + 3), 200, 10**6)
        i, t, value = _scan(objective, s, (F(0), F(1)))
        assert i == 0
        # In t the bound is c0 + ct t - e, largest at t = 0.
        grid = objective.vector(s, GridAxis(F(0), F(1), 100, 10**6))
        assert t == 0 and value == pytest.approx(grid[0].max(), rel=1e-12, abs=1e-12)

    def test_a_repeated_shift_reads_one_column(self):
        # Two terms on nu(s - 1) read the one column of that shift, and
        # weigh it as one term of their summed weight does.
        desc = {"kind": "test"}
        split = LinearBound(7, F(9), 1, F(-1, 2), ((1, 0, 0), (-1, 0, 1), (-4, 0, 1)), -1, desc)
        merged = LinearBound(7, F(9), 1, F(-1, 2), ((1, 0, 0), (-5, 0, 1)), -1, desc)
        s = _default_s(7)
        (i, t, value), (j, u, other) = (_scan(b, s, (F(0), F(1))) for b in (split, merged))
        assert (i, t) == (j, u) and value == pytest.approx(other, abs=1e-12)

    @pytest.mark.parametrize(
        "wt, ct", [(1, F(-1, 2)), (-2, F(-1, 2)), (-1, F(1, 2)), (0, F(1, 4))],
        ids=["wt-plus-1", "wt-minus-2", "ct-positive", "wt-0-ct-positive"],
    )
    def test_refuses_a_family_outside_the_closed_form(self, wt, ct):
        bound = LinearBound(7, F(7), 1, ct, ((1, 0, 0),), wt, {"kind": "test"})
        with pytest.raises(ValueError, match="closed form in t needs wt in"):
            _scan(bound, _default_s(7), (F(0), F(1)))
        # The exact evaluator serves any term list.
        assert type(bound.exact(F(5, 2), F(1, 2))) is F


@st.composite
def _worst_case_bounds(draw):
    """The worst case at d in 2..64 and k in 0..6, with e log-uniform from
    k + 3 to 2*10^4, an integer or a third."""
    d, k = draw(st.integers(2, 64)), draw(st.integers(0, 6))
    x = draw(st.floats(math.log(k + 3), math.log(2 * 10**4)))
    q = draw(st.sampled_from((1, 1, 3)))
    return HBoundObjective(max(F(round(math.exp(x) * q), q), F(k + 3)), d, k)


def _level_is_tested(bound):
    lo, hi, _ = bounds._root_levels(bound.d)
    return bound.d >= 2 and lo <= -float(bound.ct) / float(bound.e) <= hi


def _assert_within_margin(bound, s, t, value):
    """exact(s, t) - value <= float_margin(float(s)), exactly; a bound whose
    margin is None must be one the margin is not derived for."""
    margin = bound.float_margin(float(s))
    if margin is None:
        assert bound.wt and not _level_is_tested(bound)
        return
    assert bound.exact(s, t) - F(value) <= margin


class TestFloatMargin:
    """LinearBound.float_margin bounds how far the exact value at a result
    of rows_best lies above its float value."""

    # A reduced search: few nodes, one refinement round.
    SMALL = SearchParams(grid=(24, 2), refine_rounds=1)

    @settings(max_examples=120, deadline=None)
    @given(_worst_case_bounds())
    def test_bounds_the_exact_value_at_the_candidate(self, bound):
        cand = search.optimize_bound(bound, self.SMALL)
        _assert_within_margin(bound, cand.s_exact, cand.t_exact, cand.value)

    @settings(max_examples=150, deadline=None)
    @given(_closed_form_cases())
    def test_bounds_every_family_on_any_axis_and_t_range(self, case):
        objective, s, t_range = case
        i, t, value = _scan(objective, s, t_range)
        _assert_within_margin(objective, s.node(i), t, value)

    @settings(max_examples=150, deadline=None)
    @given(_worst_case_bounds(), st.fractions(0, 1, max_denominator=10**4),
           st.fractions(0, 1, max_denominator=10**4), st.integers(2, 40))
    def test_bounds_the_interior_branch_at_every_d(self, bound, t_a, t_b, n):
        # Nodes s in uL + [ta, tb], whose x = s - uL lies in the t range;
        # at d above 10 no candidate takes the interior branch.
        root = bound._interior
        if root is None:
            return
        ta, tb = min(t_a, t_b), max(t_a, t_b)
        uL = F(root[0]).limit_denominator(10**6)
        s = GridAxis(uL + ta, uL + tb, n, 10**6)
        i, t, value = _scan(bound, s, (ta, tb))
        _assert_within_margin(bound, s.node(i), t, value)

    @pytest.mark.parametrize("d,k,e", [(7, 1, 7), (8, 4, 15), (10, 5, 240), (10, 1, 13798),
                                       (9, 1, 1000), (6, 2, 30), (2, 6, 9), (3, 1, 100)])
    def test_interior_t_clamped_to_either_end(self, d, k, e):
        # The interior t of the unconstrained candidate, t*, taken as an
        # end of the t range: x = s - uL and the exact t rounded from it may
        # fall on opposite sides of that end.  Ranges strictly below or
        # above t* clamp to their upper or lower end.
        bound = HBoundObjective(e, d, k)
        cand = search.optimize_bound(bound)
        star = cand.t_exact
        assert 0 < star < 1
        s = GridAxis(cand.s_exact - F(1, 50), cand.s_exact + F(1, 50), 41, 10**6)
        ts = []
        for t_range in [(F(0), star), (star, F(1)), (F(0), star / 2), ((star + 1) / 2, F(1)),
                        (star - F(1, 10**9), star + F(1, 10**9))]:
            i, t, value = _scan(bound, s, t_range)
            _assert_within_margin(bound, s.node(i), t, value)
            ts.append(t)
        # The range below t* ends at its clamped upper end.
        assert ts[2] == star / 2

    def test_every_level_of_the_worst_case_at_k_1_or_more_is_tested(self):
        # -ct/e = 1/(2^k e) <= 1/8 at k >= 1, as e >= k + 3, and 1/8 lies
        # below 9/10 of max nu' at every d up to 64; the least level at e
        # up to 10^6 and k up to 6 lies above 10^-12 of it.
        for d in range(2, 65):
            lo, hi, peak = bounds._root_levels(d)
            assert 1 / 8 < hi < peak
            assert lo < 1 / (2**6 * 10**6)
            for k in range(1, 7):
                for e in (k + 3, 10**6):
                    assert HBoundObjective(e, d, k).float_margin(d / 2) is not None

    def test_none_where_the_root_is_not_tested(self):
        # d = 1, where nu' is not continuous, and a level above 9/10 of the
        # peak: 1/3 at d = 64, where max nu' is about 0.17.
        assert HBoundObjective(10, 1, 1).float_margin(0.5) is None
        assert HBoundObjective(3, 64, 0).float_margin(30.0) is None
        # wt = 0 reads no root.
        assert MuSmallObjective(6, 3, 1).float_margin(0.5) is not None

    def test_refuses_what_rows_best_refuses(self):
        bound = LinearBound(7, F(7), 1, F(1, 2), ((1, 0, 0),), -1, {"kind": "test"})
        with pytest.raises(ValueError, match="closed form in t needs wt in"):
            bound.float_margin(2.5)

    def test_small_against_the_gaps_it_settles(self):
        # The least distance below the target of a gap candidate was 2.4e-6,
        # at e = 13,798 of `prove --dim 10 --k 1`, near s = 3.
        assert HBoundObjective(13798, 10, 1).float_margin(3.5) < 1e-6
