import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcert.bounds import (
    GeneralBoundObjective,
    BoundSpec,
    HBoundObjective,
    MuSmallObjective,
)
from hkcert.search import (
    GridAxis,
    SearchParams,
    nu_vector,
    optimize_bound,
    rationalize,
)
from hkcert.volume import MAX_CACHED_DIMENSION, nu_exact

from oracles import best_rational_oracle, grid_nodes_oracle, nu_vector_oracle

F = Fraction

# Absolute error of nu_vector against nu_exact: (largest d, bound).  The
# nu_vector docstring states the same bands.
ERROR_BANDS = ((12, 1e-14), (20, 1e-13), (32, 1e-11), (48, 1e-8), (64, 1e-6))


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestRationalize:
    def test_half(self):
        assert rationalize(0.5, 10**6) == F(1, 2)

    def test_printed_decimal_roundtrip(self):
        assert rationalize(0.779643, 10**6) == F(779643, 1000000)

    def test_pi_against_enumeration_oracle(self):
        x = 3.14159265
        got = rationalize(x, 100)
        assert got == best_rational_oracle(x, 100) == F(311, 99)

    def test_small_denominator_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            x = rng.uniform(-5, 5)
            got = rationalize(x, 40)
            best = best_rational_oracle(x, 40)
            assert abs(got - F(x)) == abs(best - F(x))

    def test_error_bound(self):
        rng = random.Random(5)
        for _ in range(50):
            x = rng.uniform(-100, 100)
            assert abs(rationalize(x, 1000) - F(x)) <= F(1, 1000)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rationalize(float("nan"))
        with pytest.raises(ValueError):
            rationalize(float("inf"))

    def test_integers_pass_through(self):
        assert rationalize(4, 10) == 4


class TestNuVector:
    def test_exact_agreement(self):
        xs = np.array([0.0, 0.5, 3.5, 6.5, 7.0, -1.0, 8.0])
        got = nu_vector(xs, 7)
        want = [float(nu_exact(F(x), 7)) for x in xs]
        assert np.max(np.abs(got - np.array(want))) <= 1e-13

    @pytest.mark.parametrize("d", range(1, MAX_CACHED_DIMENSION + 1))
    def test_bit_identical_to_unmasked_reference(self, d):
        rng = np.random.default_rng(d)
        xs = np.concatenate(
            [
                rng.uniform(-1, d + 1, 400),
                np.arange(-2, d + 3, dtype=float),
                [np.nan, np.inf, -np.inf, -0.0, 0.0, d / 2, 1e-300, -1e-300],
            ]
        )
        for x in [xs] + [x for x, _ in _narrow_bands(d, rng)]:
            assert np.array_equal(bits(nu_vector(x, d)), bits(nu_vector_oracle(x, d)))

    @pytest.mark.parametrize("d", range(1, MAX_CACHED_DIMENSION + 1))
    def test_stops_at_last_nonzero_term(self, d, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr("hkcert.search.np", counting)
        for x, terms in _narrow_bands(d, np.random.default_rng(d)):
            counting.powers = 0
            nu_vector(x, d)
            assert counting.powers == terms

    @pytest.mark.parametrize("d", range(1, MAX_CACHED_DIMENSION + 1))
    def test_error_bound_every_dimension(self, d):
        bound = next(b for top, b in ERROR_BANDS if d <= top)
        rng = random.Random(d)
        points = [F(rng.randint(-100, 1000 * d + 100), 1000) for _ in range(60)]
        xs = np.array([float(p) for p in points])
        want = np.array([float(nu_exact(p, d)) for p in points])
        assert np.max(np.abs(nu_vector(xs, d) - want)) <= bound


def _narrow_bands(d, rng):
    """For each j, inputs whose reflected values fill [0, j] (values in
    [0, j] and in [d - j, d], with +-inf and -0.0 mixed in), alone and with
    a NaN, each with the number of terms of the alternating sum that are not
    +0.0 (all of them once a NaN is in)."""
    for j in range(d // 2 + 1):
        band = np.concatenate([[0.0, float(j)], rng.uniform(0, j, 20)])
        x = np.concatenate([band, d - band, [np.inf, -np.inf, -0.0]])
        yield x, j
        yield np.append(x, np.nan), d // 2 + 1


class _CountingNumpy:
    """numpy, counting the calls of ``power`` made through it."""

    def __init__(self):
        self.powers = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def power(self, *args, **kwargs):
        self.powers += 1
        return np.power(*args, **kwargs)


def _refinement_boxes(lo, hi, n, rng, rounds=3, shrink=5):
    """The ranges one axis scans in an optimizer run: the full range, then
    boxes 1/shrink as wide around a node of the previous axis (an end node
    or a random one), clipped to the full range."""
    boxes = [(lo, hi)]
    width = hi - lo
    for _ in range(rounds):
        nodes = grid_nodes_oracle(*boxes[-1], n, 10**6)
        center = rng.choice([nodes[0], nodes[-1], rng.choice(nodes)])
        width /= shrink
        boxes.append((max(lo, center - width / 2), min(hi, center + width / 2)))
    return boxes


class TestGridAxis:
    @staticmethod
    def assert_matches_reference(lo, hi, n, max_denominator):
        axis = GridAxis(lo, hi, n, max_denominator)
        want = grid_nodes_oracle(lo, hi, n, max_denominator)
        assert len(axis) == n
        assert list(axis.nodes()) == want
        assert [axis.node(i) for i in range(n)] == want
        assert np.array_equal(bits(axis.floats), bits([float(v) for v in want]))
        return axis

    def test_default_refinement_boxes(self):
        rng = random.Random(2)
        for d in (7, 8, 9, 10):
            for lo, hi, n in ((F(0), F(d + 1), 200), (F(0), F(1), 100)):
                for _ in range(10):
                    for box in _refinement_boxes(lo, hi, n, rng):
                        self.assert_matches_reference(*box, n, 10**6)

    def test_snapping(self):
        axis = self.assert_matches_reference(F(0), F(11), 200, 7)
        assert all(v.denominator <= 7 for v in axis.nodes())

    def test_degenerate_axis_is_not_snapped(self):
        for lo in (F(1, 3), F(10**7 + 1, 10**7 + 3)):
            axis = self.assert_matches_reference(lo, lo, 5, 10**6)
            assert axis.nodes() == (lo,) * 5

    def test_max_denominator_beyond_float_precision(self):
        lo, hi = F(1, 3**40), F(2**61 + 1, 2**61)
        axis = self.assert_matches_reference(lo, hi, 97, 2**200)
        assert axis.node(0) == lo and axis.node(96) == hi
        # Denominators above 2**53 but below the cap of 2**100 snap.
        self.assert_matches_reference(lo, hi, 97, 2**100)


    @pytest.mark.parametrize("hi", (2**53 - 1, 2**53, 2**53 + 1, 2**60 + 3))
    def test_numerators_around_two_to_the_53(self, hi):
        # Numerators below 2**53 are divided by numpy, larger ones by
        # Python; both give the correctly rounded quotient.
        for lo in (F(0), F(hi - 7), F(hi - 7, 3), F(1, 3)):
            self.assert_matches_reference(lo, F(hi), 8, 10**6)

    @pytest.mark.parametrize("den", (2**52 + 1, 2**53 - 1, 2**53 + 1, 3**40))
    def test_denominators_around_two_to_the_53(self, den):
        for lo, hi in ((F(1, den), F(2, den)), (F(den - 1, den), F(1)), (F(0), F(5, den))):
            self.assert_matches_reference(lo, hi, 6, 2**200)
        # The same axes snapped to small denominators.
        self.assert_matches_reference(F(1, den), F(1), 6, 1000)

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=2**60, max_denominator=10**12),
        st.fractions(min_value=0, max_value=1, max_denominator=10**12),
        st.integers(2, 40),
        st.sampled_from((10**6, 2**53, 2**200)),
    )
    def test_random_axes(self, lo, width, n, max_denominator):
        self.assert_matches_reference(lo, lo + width, n, max_denominator)


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert p.resolved_s_range(7) == (F(0), F(8))
        assert p.grid == (200, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(grid=(1, 10))
        with pytest.raises(ValueError):
            SearchParams(grid=(10, 1))
        with pytest.raises(ValueError):
            SearchParams(s_range=(F(3), F(2)))
        with pytest.raises(ValueError):
            SearchParams(t_range=(F(1), F(0)))
        with pytest.raises(ValueError):
            SearchParams(refine_rounds=-1)
        with pytest.raises(ValueError):
            SearchParams(max_denominator=0)

    @pytest.mark.parametrize(
        "ranges, message",
        [
            ({"t_range": (F(1), F(2))}, "t range"),
            ({"t_range": (F(0), F(3))}, "t range"),
            ({"t_range": (F(-1), F(1, 2))}, "t range"),
            ({"s_range": (F(-1), F(2))}, "s range"),
            ({"s_range": (F(-1, 10**6), F(0))}, "s range"),
        ],
        ids=["t-above", "t-wide", "t-below", "s-below", "s-just-below"],
    )
    def test_rejects_ranges_outside_domain(self, ranges, message):
        with pytest.raises(ValueError, match=message):
            SearchParams(**ranges)


class _Plateau:
    """min(s, 1), constant in t: every node with s >= 1 ties at the top."""

    dimension = 1

    def exact(self, s, t):
        return min(s, F(1))

    def vector(self, s, t):
        return np.repeat(np.minimum(s, 1.0)[:, None], len(t), axis=1)

    def descriptor(self):
        return {"kind": "plateau"}


class TestOptimizer:
    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_plateau_tie_break_through_refinement(self, rounds):
        # s = 1 is a node of round 0 but of no later round: each refinement
        # box is centred on it and has an even node count, so its first
        # plateau node lies above 1 and ties with the incumbent.
        params = SearchParams(s_range=(F(0), F(9, 4)), t_range=(F(1, 4), F(3, 4)),
                              grid=(10, 4), refine_rounds=rounds)
        cand = optimize_bound(_Plateau(), params)
        assert (cand.value, cand.s_exact, cand.t_exact) == (1.0, F(1), F(1, 4))
        # The round-1 box alone, scanned once: its first plateau node.
        box = SearchParams(s_range=(F(31, 40), F(49, 40)), grid=(10, 4), refine_rounds=0)
        assert optimize_bound(_Plateau(), box).s_exact == F(41, 40)

    def test_plateau_tie_break_on_a_snapped_grid(self):
        # Denominators capped at 7: several nodes of each s box snap to 1,
        # and each refined t box starts with t_lo = 1/4 repeated.
        params = SearchParams(s_range=(F(0), F(2)), t_range=(F(1, 4), F(3, 4)),
                              grid=(50, 5), max_denominator=7)
        s_nodes = GridAxis(F(0), F(2), 50, 7).nodes()
        assert s_nodes.count(F(1)) > 1 and min(v for v in s_nodes if v >= 1) == 1
        cand = optimize_bound(_Plateau(), params)
        assert (cand.value, cand.s_exact, cand.t_exact) == (1.0, F(1), F(1, 4))

    def test_constant_objective_tie_break(self):
        # In dimension 1, nu(s) = nu(s - 1) = 1 for s in [2, 3], so the
        # mu-small bound with mu = 1 is 0 on the whole box: every cell ties.
        objective = MuSmallObjective(6, 1, 1)
        params = SearchParams(s_range=(F(2), F(3)), grid=(10, 10))
        cand = optimize_bound(objective, params)
        assert cand.value == 0.0
        assert cand.s_exact == F(2)
        assert cand.t_exact == F(0)
        assert objective.exact(cand.s_exact, cand.t_exact) == 0

    def test_reaches_reference_single_e(self):
        for e, reference in ((6, "1.06437"), (7, "1.06046")):
            cand = optimize_bound(HBoundObjective(e, 7))
            assert cand.value >= float(reference)

    def test_deterministic_repeat(self):
        params = SearchParams()
        a = optimize_bound(HBoundObjective(9, 7), params)
        b = optimize_bound(HBoundObjective(9, 7), params)
        assert a == b

    def test_deterministic_repeat_on_an_odd_grid(self):
        params = SearchParams(grid=(97, 41))
        runs = [optimize_bound(HBoundObjective(8, 7), params) for _ in range(3)]
        assert all(r == runs[0] for r in runs)

    def test_snapped_grid_deterministic_repeat(self):
        params = SearchParams(s_range=(F(0), F(11)), grid=(200, 9), max_denominator=7)
        runs = [optimize_bound(HBoundObjective(7, 10), params) for _ in range(2)]
        assert runs[0] == runs[1]
        cand = runs[0]
        assert cand.s_exact.denominator <= 7 and cand.t_exact.denominator <= 7
        assert cand.s == float(cand.s_exact) and cand.t == float(cand.t_exact)

    def test_witness_coordinates_are_grid_exact(self):
        cand = optimize_bound(HBoundObjective(7, 7))
        assert cand.s == float(cand.s_exact)
        assert cand.t == float(cand.t_exact)
        assert cand.s_exact.denominator <= 10**6
        assert cand.t_exact.denominator <= 10**6

    @pytest.mark.parametrize(
        "objective",
        [
            HBoundObjective(6, 7),
            HBoundObjective(5340, 7),
            GeneralBoundObjective(BoundSpec(8, 21, 19, 4)),
            MuSmallObjective(6, 3, 7),
        ],
    )
    def test_float_exact_agreement_at_witness(self, objective):
        cand = optimize_bound(objective, SearchParams(grid=(60, 30), refine_rounds=2))
        exact = objective.exact(cand.s_exact, cand.t_exact)
        assert cand.value <= float(exact) + 1e-9
        assert abs(cand.value - float(exact)) <= 1e-9

    def test_candidate_inside_ranges(self):
        params = SearchParams(s_range=(F(2), F(3)), t_range=(F(1, 4), F(1, 2)))
        cand = optimize_bound(HBoundObjective(7, 7), params)
        assert F(2) <= cand.s_exact <= F(3)
        assert F(1, 4) <= cand.t_exact <= F(1, 2)

    def test_degenerate_t_range(self):
        params = SearchParams(t_range=(F(1), F(1)), grid=(50, 2))
        cand = optimize_bound(MuSmallObjective(6, 1, 7), params)
        assert cand.t_exact == 1
        assert abs(float(nu_exact(cand.s_exact, 7)) * 6
                   - 6 * float(nu_exact(cand.s_exact - 1, 7))
                   - cand.value) < 1e-9

    def test_refinement_improves_or_keeps(self):
        coarse = optimize_bound(
            HBoundObjective(7, 7), SearchParams(refine_rounds=0)
        )
        refined = optimize_bound(
            HBoundObjective(7, 7), SearchParams(refine_rounds=3)
        )
        assert refined.value >= coarse.value
