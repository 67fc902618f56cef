import functools
import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

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
from hkcert import bounds, certify, search
from hkcert.certify import cover_range, prove_dimension
from hkcert.search import (
    GridAxis,
    SearchParams,
    nu_vector,
    optimize_bound,
    optimize_bounds,
)
from hkcert.targets import wy_target
from hkcert.volume import MAX_CACHED_DIMENSION, nu_density, nu_exact

from oracles import grid_nodes_oracle, nu_horner_oracle, refinement_oracle

F = Fraction

# Absolute error of nu_vector against nu_exact, at every d from 1 to 64.
ERROR_BAND = 1e-15


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


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
        for x in [xs, *_narrow_bands(d, rng)]:
            assert np.array_equal(bits(nu_vector(x, d)), bits(nu_horner_oracle(x, d)))

    @pytest.mark.parametrize("d", range(1, MAX_CACHED_DIMENSION + 1))
    def test_byte_equal_to_the_clip_kernel(self, d):
        rng = np.random.default_rng(1000 + d)
        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                   2.2250738585072014e-308, d - tiny, d + tiny, d - 1e-310]
        integers = np.arange(-3, d + 4, dtype=float)
        uniform = rng.uniform(-2, d + 2, 300)
        for x in (
            np.array(special),
            integers,
            uniform,
            np.concatenate([special, integers, uniform]),
            np.append(uniform, np.nan),
            np.array([np.nan]),
            np.array([-0.0]),
            np.empty(0),
            rng.uniform(0, d, (7, 5)),
        ):
            got = nu_vector(x, d)
            assert got.shape == x.shape
            assert got.tobytes() == nu_horner_oracle(x, d).tobytes()

    @pytest.mark.parametrize("d", range(1, MAX_CACHED_DIMENSION + 1))
    def test_error_bound_every_dimension(self, d):
        rng = random.Random(d)
        points = [F(rng.randint(-100, 1000 * d + 100), 1000) for _ in range(60)]
        xs = np.array([float(p) for p in points])
        want = np.array([float(nu_exact(p, d)) for p in points])
        assert np.max(np.abs(nu_vector(xs, d) - want)) <= ERROR_BAND

    @pytest.mark.parametrize("d", range(1, MAX_CACHED_DIMENSION + 1))
    def test_error_bound_near_the_middle(self, d):
        # Points near x = d/2, where the volume is steepest, which the
        # spread-out points of test_error_bound_every_dimension rarely come
        # near.
        rng = random.Random(d)
        points = [F(rng.randint(-10**5, 10**5), 10**6) + F(d, 2) for _ in range(400)]
        xs = np.array([float(p) for p in points])
        want = np.array([float(nu_exact(p, d)) for p in points])
        assert np.max(np.abs(nu_vector(xs, d) - want)) <= ERROR_BAND

    @pytest.mark.parametrize(
        "d", [0, -1, True, 65, 7.0], ids=["zero", "negative", "bool", "65", "float"]
    )
    def test_rejects_a_dimension_outside_1_to_64(self, d):
        # As nu_exact does: no zeros for d <= 0, no d = 1 for True, no run
        # past the tested error band, no TypeError for a float.
        with pytest.raises(ValueError, match="^dimension must be a positive integer at most 64"):
            nu_vector(np.array([0.5, 1.5]), d)

    @pytest.mark.parametrize("d", [1, 2, 7, 10, 63, 64])
    def test_input_forms(self, d):
        rng = np.random.default_rng(2000 + d)
        grid = rng.uniform(-1, d + 1, (9, 12))
        read_only = rng.uniform(-1, d + 1, 50)
        read_only.flags.writeable = False
        before = read_only.tobytes()
        for x in (
            d / 3,
            np.array(d / 3),
            np.empty(0),
            np.arange(-2, d + 3),
            grid,
            grid[::2, 1::3],
            grid.T,
            read_only,
        ):
            got = nu_vector(x, d)
            assert isinstance(got, np.ndarray) and got.dtype == float
            assert not np.shares_memory(got, x)
            # The reference agrees, on the 0-d inputs (d / 3 twice) too.
            want = nu_horner_oracle(x, d)
            assert got.shape == want.shape == np.shape(x)
            assert np.array_equal(bits(got), bits(want))
        assert read_only.tobytes() == before

    def test_peak_memory_of_one_call(self):
        # The volumes of a default surface grid: 200 s rows by 3 shift and
        # 100 t columns.
        # The kernel holds four arrays of the input's shape at its peak, three
        # of floats and one of indices: 4 times the input's bytes, and a
        # little more.
        x = np.random.default_rng(0).uniform(-1, 11, (200, 103))
        nu_vector(x, 10)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nu_vector(x, 10)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * x.nbytes


def _narrow_bands(d, rng):
    """For each j, inputs that fill [0, j] and [d - j, d], with +-inf and
    -0.0 mixed in, alone and with a NaN."""
    for j in range(d // 2 + 1):
        band = np.concatenate([[0.0, float(j)], rng.uniform(0, j, 20)])
        x = np.concatenate([band, d - band, [np.inf, -np.inf, -0.0]])
        yield x
        yield np.append(x, np.nan)


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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((F(0), F(1), 1, 10**6), "node count n"),
            ((F(0), F(1), 0, 10**6), "node count n"),
            ((F(0), F(1), -3, 10**6), "node count n"),
            ((F(0), F(1), True, 10**6), "node count n"),
            ((F(0), F(1), 2.0, 10**6), "node count n"),
            ((F(1), F(0), 10, 10**6), "lo <= hi"),
            ((F(1, 3), F(1, 4), 2, 10**6), "lo <= hi"),
            ((F(0), F(1), 10, 0), "max_denominator"),
            ((F(0), F(1), 10, 10.0**6), "max_denominator"),
        ],
    )
    def test_rejects_bad_arguments(self, args, message):
        # One node had no step (ZeroDivisionError), none built an empty
        # axis, and lo > hi a decreasing one, against the tie rule.
        with pytest.raises(ValueError, match=message):
            GridAxis(*args)

    def test_ends_are_exact(self):
        with pytest.raises(TypeError):
            GridAxis(0.5, F(1), 10, 10**6)
        assert GridAxis("1/4", 1, 4, 10**6).nodes() == (F(1, 4), F(1, 2), F(3, 4), F(1))


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=20, max_denominator=1000),
        st.fractions(min_value=F(1, 1000), max_value=2, max_denominator=1000),
        st.integers(2, 30),
        st.integers(-40, 40),
        st.tuples(*[st.sampled_from((7, 100, 10**6))] * 2),
    )
    def test_one_lattice_one_float_per_node(self, lo, step, n, shift, caps):
        # Two axes on one node lattice, shifted by whole nodes, hold the
        # same double at every exact node they share: a node's float is
        # that of its exact value, whichever axis holds it.
        a = GridAxis(lo, lo + (n - 1) * step, n, caps[0])
        b_lo = lo + shift * step
        b = GridAxis(b_lo, b_lo + (n - 1) * step, n, caps[1])
        assert not a.floats.flags.writeable and not b.floats.flags.writeable
        for i in range(max(0, shift), min(n, n + shift)):
            if a.node(i) == b.node(i - shift):
                assert a.floats[i].tobytes() == b.floats[i - shift].tobytes()


class TestAxisCache:
    """optimize_bound reads its axes from a bounded cache of recent boxes."""

    @pytest.fixture
    def over_calls(self, monkeypatch):
        """The boxes GridAxis._over builds, from an empty axis cache."""
        calls, real = [], GridAxis._over.__func__

        def counted(cls, *args):
            calls.append(args)
            return real(cls, *args)

        monkeypatch.setattr(GridAxis, "_over", classmethod(counted))
        search._axis.cache_clear()
        yield calls
        search._axis.cache_clear()

    def test_prove_dimension_ten_builds_few_axes(self, over_calls, monkeypatch):
        # 274 optimizations of four rounds, 1,096 member scans, in 152 block
        # scans and 270 distinct boxes: round 0 is one box for every e, and
        # most round-1 boxes repeat another e's.  Each box is built once.
        scans = []
        real = bounds.LinearBound.rows_best

        def counted(block, s_axes, t_range):
            scans.append(len(block))
            return real(block, s_axes, t_range)

        monkeypatch.setattr(bounds.LinearBound, "rows_best", staticmethod(counted))
        prove_dimension(10, 5)
        assert (len(scans), sum(scans)) == (152, 1096)
        assert len(set(over_calls)) == 270
        assert len(over_calls) == 270

    def test_a_repeated_box_reuses_its_read_only_axis(self, over_calls):
        box = (0, 11, 1, 200, 10**6)
        axis = search._axis(*box)
        assert search._axis(*box) is axis
        assert over_calls == [box]
        assert not axis.floats.flags.writeable

    def test_the_key_holds_max_denominator(self, over_calls):
        # The same integer box snaps to denominators <= 7 only under the
        # second cap, so the cache must not hand it the first axis.
        objective = HBoundObjective(7, 7)
        for cap in (10**6, 7):
            cand = optimize_bound(objective, SearchParams(refine_rounds=0, max_denominator=cap))
        q = cand.s_exact.denominator
        assert q <= 7 and (256 * q) % cand.t_exact.denominator == 0
        assert len(over_calls) == 2


class TestAxisVolumes:
    """GridAxis.volumes: the float volumes nu(s_i - a, d) of an axis's
    nodes, one read-only row per shift, computed once per d and shift
    list and kept on the axis, so an axis the optimizer's cache keeps
    keeps its volumes too."""

    @pytest.mark.parametrize(
        "ends, n, cap, d",
        [((F(0), F(8)), 200, 10**6, 7), ((F(1, 3), F(29, 7)), 37, 50, 10),
         ((F(5, 2), F(5, 2)), 2, 10**6, 1), ((F(0), F(66)), 91, 10**6, 64)],
        ids=["default", "snapped", "degenerate", "d64"],
    )
    def test_rows_are_nu_vector_bit_for_bit(self, ends, n, cap, d):
        axis = GridAxis(*ends, n, cap)
        shifts = (0.0, 1.0, 0.5, 0.2, 1.0)
        vols = axis.volumes(d, shifts)
        assert vols.shape == (len(shifts), n)
        for row, a in zip(vols, shifts):
            assert row.tobytes() == nu_vector(axis.floats - a, d).tobytes()
        assert axis.volumes(d, shifts) is vols
        with pytest.raises(ValueError, match="read-only"):
            vols[0, 0] = 0.5
        # An axis of the same box built on its own computes its own
        # volumes, to the same bytes.
        again = GridAxis(*ends, n, cap)
        assert again.volumes(d, shifts) is not vols
        assert again.volumes(d, shifts).tobytes() == vols.tobytes()

    def test_one_nu_vector_call_per_d_and_shift_list(self, nu_calls):
        axis = GridAxis(F(0), F(8), 200, 10**6)
        for d, shifts in [(7, (0.0, 1.0)), (7, (0.0, 1.0)), (8, (0.0, 1.0)),
                          (7, (0.0, 1.0, 0.5)), (8, (0.0, 1.0)), (7, (0.0, 1.0, 0.5))]:
            axis.volumes(d, shifts)
        assert nu_calls == [2 * 200, 2 * 200, 3 * 200]

    def test_an_evicted_axis_takes_its_volumes_with_it(self, monkeypatch, nu_calls):
        small = functools.lru_cache(maxsize=1)(search._axis.__wrapped__)
        monkeypatch.setattr(search, "_axis", small)
        box = (0, 8, 1, 200, 10**6)
        kept = weakref.ref(search._axis(*box).volumes(7, (0.0, 1.0)))
        search._axis(*box).volumes(7, (0.0, 1.0))
        assert kept() is not None and nu_calls == [400]
        search._axis(0, 9, 1, 200, 10**6)
        gc.collect()
        assert kept() is None
        search._axis(*box).volumes(7, (0.0, 1.0))
        assert nu_calls == [400, 400]

    @pytest.mark.parametrize(
        "d, k, calls, points", [(10, 5, 271, 160_600), (9, 1, 66, 37_600)]
    )
    def test_a_proof_computes_each_volume_row_once(self, nu_calls, d, k, calls, points):
        # A whole proof from an empty axis cache, pinned: a change that
        # computes a row of volumes twice, or one no scan reads, shows here.
        search._axis.cache_clear()
        prove_dimension(d, k)
        assert (len(nu_calls), sum(nu_calls)) == (calls, points)


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

    @pytest.mark.parametrize(
        "counts, field",
        [
            ({"grid": (50.0, 20)}, r"grid\[0\]"),
            ({"grid": (50, np.int64(20))}, r"grid\[1\]"),
            ({"refine_rounds": 2.5}, "refine_rounds"),
            ({"refine_rounds": True}, "refine_rounds"),
            ({"shrink_factor": 2.5}, "shrink_factor"),
            ({"max_denominator": 1e6}, "max_denominator"),
            ({"max_denominator": "1000"}, "max_denominator"),
        ],
        ids=["grid-float", "grid-numpy", "rounds-float", "rounds-bool", "shrink-float",
             "denominator-float", "denominator-str"],
    )
    def test_rejects_non_integer_counts(self, counts, field):
        # Each fails here, naming its field, not later inside the optimizer
        # or GridAxis, and none is quietly read as an int.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchParams(**counts)

    def test_a_grid_list_is_stored_as_a_tuple(self):
        # A list would leave the frozen dataclass unhashable and unequal to
        # the same counts given as a tuple.
        p = SearchParams(grid=[20, 10])
        assert p.grid == (20, 10) and type(p.grid) is tuple
        assert p == SearchParams(grid=(20, 10))
        assert hash(p) == hash(SearchParams(grid=(20, 10)))

    @pytest.mark.parametrize("grid", [(200,), None, (200, 100, 5)],
                             ids=["one-count", "none", "three-counts"])
    def test_rejects_a_grid_that_is_not_a_pair(self, grid):
        with pytest.raises(ValueError, match=r"^grid must be a pair"):
            SearchParams(grid=grid)


class _Plateau:
    """min(s, 1), constant in t: every node with s >= 1 ties at the top,
    each at the lower end of the t range."""

    dimension = 1

    def exact(self, s, t):
        return min(s, F(1))

    @staticmethod
    def rows_best(objectives, s_axes, t_range):
        found = []
        for s in s_axes:
            vals = np.minimum(s.floats, 1.0)
            i = int(vals.argmax())
            found.append((i, t_range[0], vals.item(i)))
        return found

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
        # and each takes t = 1/4, the lower end of the t range.
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
        # s is a node of the grid; t, unless it is an end of the t range,
        # rounds s - uL to the denominator 256 q of s = p/q.
        cand = optimize_bound(HBoundObjective(7, 7))
        assert cand.s == float(cand.s_exact)
        assert cand.t == float(cand.t_exact)
        assert cand.s_exact.denominator <= 10**6
        assert 0 < cand.t_exact < 1
        assert (256 * cand.s_exact.denominator) % cand.t_exact.denominator == 0

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

    @settings(max_examples=150, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=12, max_denominator=60),
        st.fractions(min_value=0, max_value=12, max_denominator=60),
        st.fractions(min_value=0, max_value=1, max_denominator=60),
        st.fractions(min_value=0, max_value=1, max_denominator=60),
        st.integers(2, 14),
        st.integers(0, 6),
        st.integers(2, 7),
        st.sampled_from((7, 60, 1000, 10**6)),
        st.sampled_from(("peak", "steps")),
        st.fractions(min_value=0, max_value=12, max_denominator=9),
    )
    def test_integer_boxes_match_the_fraction_loop(
        self, s_a, s_b, t_a, t_b, ns, rounds, shrink, max_denominator, kind, peak
    ):
        # Random rational ranges, degenerate ones included; a small
        # max_denominator snaps.  "steps" ties many nodes, and a snapped
        # axis repeats nodes, each taking one end of the t range by its
        # index, so the exact (s, t) order picks the incumbent.
        s_range, t_range = (min(s_a, s_b), max(s_a, s_b)), (min(t_a, t_b), max(t_a, t_b))
        p = float(peak)

        def row(s, ta, tb):
            ts = [tb if i % 3 else ta for i in range(len(s))]
            v = -np.abs(s - p) - np.abs(np.array([float(t) for t in ts]) - 0.3)
            return (np.floor(4 * v) if kind == "steps" else v), ts

        class Recorder:
            dimension = 7

            def __init__(self):
                self.scans = []

            def rows_best(self, objectives, s_axes, t_range):
                # Called through the block's first member, this one.
                (s,) = s_axes
                self.scans.append(s.floats.tobytes())
                values, ts = row(s.floats, *t_range)
                i = int(values.argmax())
                return [(i, ts[i], values.item(i))]

        params = SearchParams(s_range=s_range, t_range=t_range, grid=(ns, 2),
                              refine_rounds=rounds, shrink_factor=shrink,
                              max_denominator=max_denominator)
        # Recorded where optimize_bound takes its axes, so an axis read
        # from the cache of recent boxes is checked as a new one is.
        axes, real = [], search._axis

        def recording(*args):
            axes.append(real(*args))
            return axes[-1]

        objective = Recorder()
        with mock.patch.object(search, "_axis", recording):
            cand = optimize_bound(objective, params)
        scans, (value, s_best, t_best) = refinement_oracle(
            lambda nodes, tr: row(np.array([float(v) for v in nodes]), *tr),
            s_range, t_range, ns, rounds, shrink, max_denominator,
        )
        assert [axis.nodes() for axis in axes] == [tuple(nodes) for nodes in scans]
        assert objective.scans == [bits([float(v) for v in nodes]).tobytes() for nodes in scans]
        assert (cand.value, cand.s_exact, cand.t_exact) == (value, s_best, t_best)
        assert (cand.s, cand.t) == (float(s_best), float(t_best))

    def test_builds_one_fraction_per_coordinate(self, monkeypatch):
        # The boxes, the nodes and the incumbent s are integers.  The search
        # builds the returned s alone, and the objective at most one t per
        # scan, from the integers of its node; no Fraction per node or per
        # cell.
        built = {search: [], bounds: []}

        def counting(module):
            def build(*args):
                built[module].append(args)
                return Fraction(*args)
            return build

        for module in built:
            monkeypatch.setattr(module, "Fraction", counting(module))
        cand = optimize_bound(HBoundObjective(7, 7))
        assert [Fraction(*args) for args in built[search]] == [cand.s_exact]
        assert 0 < len(built[bounds]) <= SearchParams().refine_rounds + 1
        assert type(cand.t_exact) is Fraction
        assert cand.t_exact in [Fraction(*args) for args in built[bounds]]

    def test_refinement_improves_or_keeps(self):
        coarse = optimize_bound(
            HBoundObjective(7, 7), SearchParams(refine_rounds=0)
        )
        refined = optimize_bound(
            HBoundObjective(7, 7), SearchParams(refine_rounds=3)
        )
        assert refined.value >= coarse.value

    def test_cold_caches_give_the_sweeps_candidates(self, monkeypatch):
        # An optimization reads no state a covering leaves behind, and a
        # block member none of the rest of its block: each e of a gap
        # sweep, optimized in a block, gets the Candidate it gets alone on
        # cold caches.
        found, sizes = [], []
        real = certify.optimize_bounds

        def recording(objectives, params):
            cands = real(objectives, params)
            sizes.append(len(objectives))
            for objective, cand in zip(objectives, cands):
                k = objective.descriptor().get("k", 1)
                found.append(((objective.e, objective.dimension, k), cand))
            return cands

        monkeypatch.setattr(certify, "optimize_bounds", recording)
        cover_range(10, 5, 200, 239, wy_target(10).value)
        cover_range(7, 1, 13, 60, F(71, 67))
        assert len(found) > 40 and max(sizes) == 16
        for args, cand in found:
            _assert_same(_alone([HBoundObjective(*args)], SearchParams()), [cand])


def _assert_same(found, want):
    """Candidates equal field by field, ``value`` as int64 bits."""
    assert len(found) == len(want)
    for cand, other in zip(found, want):
        assert (cand.s_exact, cand.t_exact, cand.s, cand.t) == (
            other.s_exact, other.t_exact, other.s, other.t)
        assert bits(cand.value) == bits(other.value)


def _alone(objectives, params):
    """Each objective optimized in a block of its own, on cold caches."""
    out = []
    for objective in objectives:
        search._axis.cache_clear()
        out.append(optimize_bound(objective, params))
    return out


@st.composite
def _blocks(draw):
    """Blocks of 1 to 20 consecutive e of the worst case at a d the CLI
    accepts, k 0..5, with 0 to 5 refinement rounds, a snapping
    max_denominator or not, and the full, a sub- or the degenerate t range
    (1, 1)."""
    d = draw(st.sampled_from((1, 2, 7, 10, 12, 33, 64)))
    k = draw(st.integers(0, 5))
    e_lo = draw(st.integers(k + 3, 5000))
    size = draw(st.integers(1, 20))
    t_kind = draw(st.sampled_from(("full", "sub", "one")))
    if t_kind == "full":
        t_range = (F(0), F(1))
    elif t_kind == "one":
        t_range = (F(1), F(1))
    else:
        t_a, t_b = (draw(st.fractions(0, 1, max_denominator=100)) for _ in "ab")
        t_range = (min(t_a, t_b), max(t_a, t_b))
    params = SearchParams(
        t_range=t_range,
        grid=(draw(st.sampled_from((2, 17, 60, 200))), 2),
        refine_rounds=draw(st.integers(0, 5)),
        max_denominator=draw(st.sampled_from((7, 50, 10**6))),
    )
    return [HBoundObjective(e, d, k) for e in range(e_lo, e_lo + size)], params


class TestBlocks:
    """optimize_bounds scans a block of objectives in one pass per round;
    each member's candidate is the one it gets alone, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(_blocks())
    def test_a_block_gives_each_member_its_own_candidate(self, case):
        objectives, params = case
        search._axis.cache_clear()
        _assert_same(optimize_bounds(objectives, params), _alone(objectives, params))

    def test_a_block_where_some_members_have_no_root(self):
        # At d = 64, k = 0, -ct/e = 1/e is above the peak of nu' for e <=
        # 5, so those members never take the interior branch; the others do.
        objectives = [HBoundObjective(e, 64, 0) for e in range(3, 9)]
        assert [o._interior is None for o in objectives] == [True] * 3 + [False] * 3
        params = SearchParams()
        found = optimize_bounds(objectives, params)
        _assert_same(found, _alone(objectives, params))
        assert [c.t_exact == 0 for c in found[:3]] == [True] * 3

    def test_a_member_with_no_root_keeps_the_lower_end(self):
        # At d = 2, max nu' = 1: -ct/e = 3/2 has no root at e = 1, and 3/4
        # has one at e = 2.  An interior t at e = 1 would read as larger
        # near s = 0.6 were it taken with a made-up root, so the block must
        # keep e = 1 at t = ta on every node.
        desc = {"kind": "test"}
        block = [bounds.LinearBound(2, F(e), 1, F(-3, 2), ((1, 0, 0),), -1, desc) for e in (1, 2)]
        assert [b._interior is None for b in block] == [True, False]
        s = GridAxis(F(0), F(3), 61, 10**6)
        found = bounds.LinearBound.rows_best(block, [s, s], (F(0), F(1)))
        assert found == [bounds.LinearBound.rows_best([b], [s], (F(0), F(1)))[0] for b in block]
        assert found[0][1] == 0
        params = SearchParams(refine_rounds=2)
        _assert_same(optimize_bounds(block, params), _alone(block, params))

    def test_a_block_of_other_families_of_one_shape(self):
        # The master family at mu = e - 2 has H_e's shifts, c0, ct and wt.
        objectives = [HBoundObjective(9, 7), GeneralBoundObjective(BoundSpec(7, 12, 5, 1)),
                      HBoundObjective(10, 7)]
        params = SearchParams(refine_rounds=2)
        _assert_same(optimize_bounds(objectives, params), _alone(objectives, params))

    @pytest.mark.parametrize(
        "block",
        [
            [HBoundObjective(9, 7), HBoundObjective(9, 10)],
            [HBoundObjective(9, 7, 1), HBoundObjective(9, 7, 2)],
            [MuSmallObjective(9, 3, 7), HBoundObjective(9, 7)],
            [bounds.LinearBound(7, F(9), 1, F(-1, 2), ((1, 0, 0), (-5, 0, 1)), -1, {}),
             bounds.LinearBound(7, F(9), 1, F(-1, 2), ((1, 0, 0), (-5, 0, F(1, 2))), -1, {})],
            [bounds.LinearBound(7, F(9), 1, F(-1, 2), ((1, 0, 0), (-5, 0, 1)), -1, {}),
             bounds.LinearBound(7, F(9), 2, F(-1, 2), ((1, 0, 0), (-5, 0, 1)), -1, {})],
            [bounds.LinearBound(7, F(9), 0, 0, ((1, 0, 0), (-5, 0, 1)), -1, {}),
             bounds.LinearBound(7, F(9), 0, 0, ((1, 0, 0), (-5, 0, 1)), 0, {})],
        ],
        ids=["d", "ct", "family", "shifts", "c0", "wt"],
    )
    def test_refuses_a_mixed_block(self, block):
        with pytest.raises(ValueError, match="a block's bounds must share"):
            optimize_bounds(block, SearchParams(refine_rounds=0))


# The dyadic delta within which _density_root's root brackets the exact
# one, at every d from 1 to 64.
ROOT_DELTA = F(1, 2**30)


class TestDensityRoot:
    @pytest.mark.parametrize("d", range(1, MAX_CACHED_DIMENSION + 1))
    def test_brackets_the_exact_root(self, d):
        # nu'(u - delta) <= level < nu'(u + delta) in exact arithmetic, at
        # levels from 10^-12 of the peak nu'(d/2) to 9/10 of it; and nu(uL)
        # is within nu_vector's error band of the exact volume.
        # bounds.LinearBound.float_margin rests on both within that range.
        peak = nu_density(F(d, 2), d)
        for share in (F(1, 10**12), F(1, 10**6), F(1, 1000), F(1, 10), F(1, 2), F(9, 10)):
            level = float(peak * share)
            u, volume = search._density_root(level, d)
            assert 0 <= u <= d / 2
            u = F(u)
            assert nu_density(u - ROOT_DELTA, d) <= F(level) < nu_density(u + ROOT_DELTA, d)
            assert abs(F(volume) - nu_exact(u, d)) <= ERROR_BAND

    @pytest.mark.parametrize("d", [2, 3, 7, 10, 33, 64])
    def test_the_volume_is_nu_vectors(self, d):
        # nu(uL) runs the same pieces in the same order as nu_vector.
        peak = float(nu_density(F(d, 2), d))
        for share in (1e-6, 1e-3, 0.1, 0.5, 0.9):
            u, volume = search._density_root(peak * share, d)
            assert bits(volume) == bits(nu_vector(u, d))

    @pytest.mark.parametrize("d", [1, 2, 7, 10, 64])
    def test_no_root_at_or_above_the_peak(self, d):
        peak = float(nu_density(F(d, 2), d))
        for level in (peak * (1 + 1e-9), 1.5 * peak, 2.0):
            assert search._density_root(level, d) is None
        assert search._density_root(0.0, d) == search._density_root(-1.0, d) == (0.0, 0.0)

    def test_dimension_one(self):
        # nu' is the indicator of [0, 1): uL = 0 below level 1.
        assert search._density_root(0.999, 1) == (0.0, 0.0)
        assert search._density_root(1.0, 1) is None

    def test_the_same_root_whatever_ran_before(self):
        # No state between calls: one level gives one result in any order.
        levels = [(1 / (e * 2**k), d) for e in (6, 40, 5000) for k in (1, 5) for d in (7, 10, 33)]
        first = [search._density_root(*args) for args in levels]
        assert [search._density_root(*args) for args in reversed(levels)] == first[::-1]
