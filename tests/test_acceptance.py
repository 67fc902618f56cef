"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints its own pass line (visible with -s); the terminal summary
collects one line per criterion either way.  Runtime budgets are asserted
where the criterion states one.
"""

import random
import time
from fractions import Fraction

from hkcert.bounds import (
    BoundSpec,
    GeneralBoundObjective,
    HBoundObjective,
    MuSmallObjective,
    e_max,
    h_bound,
    quadratic_in_e,
    range_min,
    s_bound,
)
from hkcert.certify import cover_range, prove_dimension, reverify_certificate
from hkcert.search import SearchParams, optimize_bound
from hkcert.targets import (
    ehk_quadric_dim7,
    large_e_threshold,
    m_coeffs,
    verify_quadric_identities,
)
from hkcert.volume import _fact, nu_exact

from oracles import noroots_exact_oracle, sec_tan_series_oracle, volume_oracle

F = Fraction
DIM7_TARGET = F(71, 67)
DIM8_TARGET = F(8341, 8064)

TABLE1_ROWS = (
    (6, "2.84243", "0.8", "1.06447"),
    (7, "2.74118", "0.779643", "1.06056"),
    (8, "2.65255", "0.739206", "1.06024"),
    (9, "2.58286", "0.710503", "1.06183"),
    (10, "2.52575", "0.688955", "1.06438"),
    (11, "2.47759", "0.672106", "1.06742"),
    (12, "2.43609", "0.658519", "1.07073"),
)

TABLE2_ROWS = (
    (13, 19, "2.34", "0.62", "15.973", "1.06843"),
    (20, 40, "2.12", "0.6", "31.2399", "1.07266"),
    (41, 105, "1.9", "0.55", "72.3972", "1.12153"),
    (106, 227, "1.75", "0.5", "151.062", "1.20165"),
    (228, 650, "1.6", "0.475", "402.416", "1.32149"),
    (651, 1600, "1.5", "0.45", "937.946", "1.45925"),
    (1601, 5340, "1.375", "0.41", "3891.82", "2.84311"),
)


class _budget:
    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label}: {self.elapsed:.1f}s exceeds {self.seconds}s budget"
            )
            print(f"{self.label}: PASS [{self.elapsed:.1f}s]")
        return False


def _ulp_tolerance(reference: str) -> Fraction:
    """Half a unit in the last decimal place of the reference string."""
    decimals = len(reference.split(".")[1]) if "." in reference else 0
    return F(1, 2 * 10**decimals)


def test_criterion_01_volume_oracle_equivalence():
    with _budget("criterion 01 (volume oracle equivalence)", 30):
        rng = random.Random(16180339)
        for d in range(1, 10):
            for _ in range(200):
                s = F(rng.randint(-1000, 1000 * (d + 1)), rng.randint(1, 1000))
                assert nu_exact(s, d) == volume_oracle(s, d)


def test_criterion_02_volume_symmetry_and_boundary():
    with _budget("criterion 02 (volume symmetry/boundary)", 30):
        rng = random.Random(27182818)
        for d in range(1, 10):
            assert nu_exact(1, d) == F(1, _fact(d))
            for _ in range(200):
                s = F(rng.randint(-2000, 2000 + 1000 * d), rng.randint(1, 1000))
                assert nu_exact(s, d) + nu_exact(d - s, d) == 1
            # Exact clamps outside [0, d].
            assert nu_exact(F(-1, 3), d) == 0
            assert nu_exact(d + F(1, 7), d) == 1
            assert nu_exact(-10 * d, d) == 0
            assert nu_exact(10 * d, d) == 1


def test_criterion_03_single_e_table_reproduction():
    with _budget("criterion 03 (single-e table)", 60):
        params = SearchParams()
        for e, s_txt, t_txt, reference in TABLE1_ROWS:
            value = h_bound(e, F(s_txt), F(t_txt))
            assert abs(float(value) - float(reference)) <= 1e-4, f"row e={e}"
            cand = optimize_bound(HBoundObjective(e, 7), params)
            assert cand.value >= float(reference) - 1e-4, f"search row e={e}"


def test_criterion_04_range_table_reproduction():
    with _budget("criterion 04 (range table + covering)", 120):
        for e1, e2, s_txt, t_txt, ref_apex, ref_min in TABLE2_ROWS:
            s0, t0 = F(s_txt), F(t_txt)
            apex = e_max(s0, t0)
            # The reference apex strings carry between 2 and 4 decimals, so
            # agreement is checked both scale-aware and against their own
            # granularity (half an ulp of the last digit).
            assert abs(apex - F(ref_apex)) <= F(1, 1000) * max(
                1, int(float(ref_apex)) + 1
            ), f"apex row [{e1},{e2}]"
            assert abs(apex - F(ref_apex)) <= _ulp_tolerance(
                ref_apex
            ), f"apex granularity row [{e1},{e2}]"
            low = range_min(e1, e2, s0, t0)
            assert abs(float(low) - float(ref_min)) <= 1e-4, f"min row [{e1},{e2}]"
            assert low > DIM7_TARGET
        plan = cover_range(7, 1, 13, 5340, DIM7_TARGET)
        assert plan.complete
        assert plan.covered_or_gapped()
        assert all(iv.certified_min > DIM7_TARGET for iv in plan.intervals)


def test_criterion_05_dimension_seven_proof():
    with _budget("criterion 05 (dimension-7 proof)", 120):
        for mu, s_txt, reference in (
            (1, "4", "2.87619"),
            (2, "3.56745", "1.84215"),
            (3, "3.32317", "1.33532"),
        ):
            value = MuSmallObjective(6, mu).exact(F(s_txt), 0)
            assert abs(float(value) - float(reference)) <= 1e-4, f"mu={mu}"

        assert large_e_threshold(7, DIM7_TARGET) == 5340

        report = prove_dimension(7, 1)
        assert report.verdict == "proved"
        plan = next(c for c in report.cases if c.kind == "coverage").plan
        assert (plan.e_lo, plan.e_hi) == (6, 5340)
        assert plan.complete and plan.covered_or_gapped()
        certificates = [
            c.certificate for c in report.cases if c.certificate is not None
        ]
        for iv in plan.intervals:
            certificates.extend((iv.lo_cert, iv.hi_cert))
        assert certificates
        for cert in certificates:
            assert cert.verdict
            assert reverify_certificate(cert)


def test_criterion_06_series_targets():
    with _budget("criterion 06 (series targets)", 30):
        oracle = sec_tan_series_oracle(10)[1:]
        computed = m_coeffs(10)
        assert computed == oracle
        assert 1 + computed[6] == F(332, 315)
        assert 1 + computed[7] == F(8341, 8064)


def test_criterion_07_quadric_identities():
    with _budget("criterion 07 (quadric identities)", 30):
        assert ehk_quadric_dim7(3) == F(71, 67)
        outcome = verify_quadric_identities(199)
        assert outcome.decomposition_identity
        assert outcome.derivative_identity
        assert outcome.derivative_negative
        assert outcome.strictly_decreasing
        assert abs(float(ehk_quadric_dim7(10**4) - F(332, 315))) <= 1e-6


def test_criterion_08_figure_values():
    with _budget("criterion 08 (figure point values)", 30):
        v7 = h_bound(7, F("2.74118"), F("0.779643"))
        assert abs(float(v7) - 1.06056) <= 1e-4

        dim8 = GeneralBoundObjective(BoundSpec(8, 21, 19, 4))
        v8 = dim8.exact(F("2.17991"), F("0.706957"))
        assert abs(float(v8) - 1.03545) <= 1e-4
        assert v8 > DIM8_TARGET


def test_criterion_09_dimension_eight_partial():
    with _budget("criterion 09 (dimension-8 partial result)", 600):
        e_hi = large_e_threshold(8, DIM8_TARGET)
        assert e_hi == 41705
        plan = cover_range(8, 4, 6, e_hi, DIM8_TARGET)
        assert [e for g in plan.gaps for e in range(g.e_lo, g.e_hi + 1)] == list(range(6, 21))
        assert plan.covered_or_gapped()
        assert plan.intervals[0].e_lo == 21
        assert plan.intervals[-1].e_hi == e_hi
        for prev, nxt in zip(plan.intervals, plan.intervals[1:]):
            assert nxt.e_lo == prev.e_hi + 1
        for iv in plan.intervals:
            assert iv.certified_min > DIM8_TARGET
            assert reverify_certificate(iv.lo_cert)
            assert reverify_certificate(iv.hi_cert)


def test_criterion_10_property_suites():
    with _budget("criterion 10 (property suites)", 120):
        rng = random.Random(14142135)

        # Rescaling identity, exactly, across random specs with k >= 1.
        for _ in range(30):
            d = rng.randint(2, 9)
            k = rng.randint(1, 4)
            mu = rng.randint(k + 1, k + 8)
            spec = BoundSpec(d, rng.randint(1, 500), mu, k)
            s = F(rng.randint(0, 10 * d), 10)
            t = F(rng.randint(0, 100), 100)
            value = GeneralBoundObjective(spec).exact(s, t)
            assert value == 1 + (s_bound(spec, s, t) - 1) / 2**k

        # k = 0 reduction to the root-free form, the paper's phi bound.
        for _ in range(30):
            d = rng.randint(1, 9)
            mu = rng.randint(1, 8)
            e = F(rng.randint(1, 300), rng.randint(1, 3))
            spec = BoundSpec(d, e, mu, 0)
            s = F(rng.randint(0, 10 * d), 10)
            t = F(rng.randint(0, 100), 100)
            expected = noroots_exact_oracle(e, (1,) * (mu - 1), d, 1, s, t)
            assert GeneralBoundObjective(spec).exact(s, t) == expected

        # Monotone in the generator count.
        for _ in range(30):
            d = rng.randint(2, 9)
            k = rng.randint(0, 3)
            mu = rng.randint(k + 1, k + 6)
            e = rng.randint(1, 200)
            s = F(rng.randint(0, 10 * d), 10)
            t = F(rng.randint(0, 100), 100)
            more = GeneralBoundObjective(BoundSpec(d, e, mu + 1, k))
            assert more.exact(s, t) <= GeneralBoundObjective(BoundSpec(d, e, mu, k)).exact(s, t)

        # Parabola identity at five random rational e.
        s, t = F(rng.randint(11, 70), 10), F(rng.randint(0, 100), 100)
        a, b, c = quadratic_in_e(s, t)
        for _ in range(5):
            e = F(rng.randint(16, 20000), rng.randint(1, 5))
            assert a * e * e + b * e + c == h_bound(e, s, t)

        # Concavity: the e^2 coefficient is never positive, so interval
        # minima sit at the endpoints; confirm with dense e sampling.
        for _ in range(50):
            s = F(rng.randint(0, 80), 10)
            t = F(rng.randint(0, 100), 100)
            a, _, _ = quadratic_in_e(s, t)
            assert a <= 0
        s0, t0 = F("2.12"), F("0.6")
        floor_val = range_min(20, 40, s0, t0)
        assert all(h_bound(e, s0, t0) >= floor_val for e in range(20, 41))

        # Determinism on rerun.
        params = SearchParams(grid=(90, 45))
        runs = [optimize_bound(HBoundObjective(9, 7), params) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        plans = [cover_range(7, 1, 13, 120, DIM7_TARGET, params) for _ in range(2)]
        assert plans[0] == plans[1]
