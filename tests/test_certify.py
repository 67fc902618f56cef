import inspect
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hkcert.bounds import (
    BoundSpec,
    GeneralBoundObjective,
    HBoundObjective,
    MuSmallObjective,
    h_bound,
)
from hkcert.cli import TABLE2_RANGE
from hkcert.certify import (
    _FAMILIES,
    CoveragePlan,
    GapRun,
    certify_point,
    cover_range,
    objective_from_descriptor,
    prove_dimension,
    reverify_certificate,
)
from hkcert.report import loads
from hkcert.search import SearchParams
from hkcert.targets import TargetValue, wy_target

F = Fraction
DIM7_TARGET = F(71, 67)
DIM8_TARGET = F(8341, 8064)

FAST = SearchParams(grid=(80, 40), refine_rounds=2)
NO_CERTIFICATE = "no certificate found at optimized witness"


def assert_maximal(gaps):
    """No two gap runs could merge: each is nonempty, and runs that touch
    differ in reason."""
    for run in gaps:
        assert run.e_lo <= run.e_hi
    for prev, nxt in zip(gaps, gaps[1:]):
        assert nxt.e_lo > prev.e_hi
        if nxt.e_lo == prev.e_hi + 1:
            assert nxt.reason != prev.reason


# One certificate of each objective kind, as written (schema "1") by the code
# from before the bound families shared one term list.
SCHEMA1_CERTIFICATES = [
    '{"command": "certify", "params": {}, "payload": {"objective": {"d": 7, "e": "7", "kind": "h"}, "payload_kind": "certificate", "s": {"exact": "137059/50000", "float": 2.74118}, "t": {"exact": "779643/1000000", "float": 0.779643}, "target": {"exact": "71/67", "float": 1.0597014925373134}, "value": {"exact": "381800066261026924586216888900712127991204899/360000000000000000000000000000000000000000000", "float": 1.0605557396139638}, "verdict": true}, "schema_version": "1", "timestamp": null, "verdict": null}',
    '{"command": "certify", "params": {}, "payload": {"objective": {"d": 7, "e": "13/2", "kind": "h"}, "payload_kind": "certificate", "s": {"exact": "5/2", "float": 2.5}, "t": {"exact": "3/4", "float": 0.75}, "target": {"exact": "71/67", "float": 1.0597014925373134}, "value": {"exact": "81216047/82575360", "float": 0.9835385156056238}, "verdict": false}, "schema_version": "1", "timestamp": null, "verdict": null}',
    '{"command": "certify", "params": {}, "payload": {"objective": {"d": 8, "e": "21", "extra": [], "k": 4, "kind": "general", "mu": 19}, "payload_kind": "certificate", "s": {"exact": "8/3", "float": 2.6666666666666665}, "t": {"exact": "2/3", "float": 0.6666666666666666}, "target": {"exact": "71/67", "float": 1.0597014925373134}, "value": {"exact": "424910411/806215680", "float": 0.5270430996827052}, "verdict": false}, "schema_version": "1", "timestamp": null, "verdict": null}',
    '{"command": "certify", "params": {}, "payload": {"objective": {"d": 7, "e": "6", "kind": "mu-small", "mu": 3}, "payload_kind": "certificate", "s": {"exact": "9/4", "float": 2.25}, "t": {"exact": "1", "float": 1.0}, "target": {"exact": "71/67", "float": 1.0597014925373134}, "value": {"exact": "4001761/13762560", "float": 0.2907715570359003}, "verdict": false}, "schema_version": "1", "timestamp": null, "verdict": null}',
]

# Certificates of the kinds the reader no longer builds, written (schema "1")
# by the library API of that code: the phi bound, and a general bound with
# an extra order value.
REMOVED_KIND_CERTIFICATES = {
    "noroots": (
        '{"command": "certify", "params": {}, "payload": {"objective": {"d": 7, "e": "6", "kind": "noroots", "offsets": ["1", "1/2"], "t": "3/4"}, "payload_kind": "certificate", "s": {"exact": "5/2", "float": 2.5}, "t": {"exact": "1/2", "float": 0.5}, "target": {"exact": "71/67", "float": 1.0597014925373134}, "value": {"exact": "56561/107520", "float": 0.5260509672619048}, "verdict": false}, "schema_version": "1", "timestamp": null, "verdict": null}',
        "'noroots'",
    ),
    "general-extra": (
        '{"command": "certify", "params": {}, "payload": {"objective": {"d": 8, "e": "21", "extra": [[2, "1/3"]], "k": 4, "kind": "general", "mu": 19}, "payload_kind": "certificate", "s": {"exact": "8/3", "float": 2.6666666666666665}, "t": {"exact": "2/3", "float": 0.6666666666666666}, "target": {"exact": "71/67", "float": 1.0597014925373134}, "value": {"exact": "-245878837/806215680", "float": -0.304978981554911}, "verdict": false}, "schema_version": "1", "timestamp": null, "verdict": null}',
        "extra",
    ),
}


# The report of `cover --dim 8 --k 4 --e-lo 21 --e-hi 41 --target 8341/8064
# --no-timestamp` (schema "1") as written when coverings at k != 1 stored the
# worst case as a `general` descriptor with mu = e - 2.
GENERAL_WORST_CASE_COVER = (
    '{"command": "cover", "params": {"dim": 8, "e_hi": 41, "e_lo": 21, "k": 4, "search": {"gr'
    'id": [200, 100], "max_denominator": 1000000, "refine_rounds": 3, "s_range": null, "shrin'
    'k_factor": 5, "t_range": ["0", "1"]}, "target": "8341/8064"}, "payload": {"dimension": 8'
    ', "e_hi": 41, "e_lo": 21, "gaps": [], "intervals": [{"certified_min": {"exact": "2367362'
    '4406926208902379924343764083480434660351/22875294827635440358526506264715021808000000000'
    '", "float": 1.0348992039362184}, "e_hi": 41, "e_lo": 21, "hi_cert": {"objective": {"d": '
    '8, "e": "41", "extra": [], "k": 4, "kind": "general", "mu": 39}, "s": {"exact": "2169/99'
    '5", "float": 2.1798994974874373}, "t": {"exact": "70/99", "float": 0.7070707070707071}, '
    '"target": {"exact": "8341/8064", "float": 1.0343501984126984}, "value": {"exact": "23673'
    '624406926208902379924343764083480434660351/228752948276354403585265062647150218080000000'
    '00", "float": 1.0348992039362184}, "verdict": true}, "lo_cert": {"objective": {"d": 8, "'
    'e": "21", "extra": [], "k": 4, "kind": "general", "mu": 19}, "s": {"exact": "2169/995", '
    '"float": 2.1798994974874373}, "t": {"exact": "70/99", "float": 0.7070707070707071}, "tar'
    'get": {"exact": "8341/8064", "float": 1.0343501984126984}, "value": {"exact": "112791127'
    '8799110868987604780966807542529048551/1089299753696925731358405060224524848000000000", "'
    'float": 1.0354461891422846}, "verdict": true}, "s0": {"exact": "2169/995", "float": 2.17'
    '98994974874373}, "t0": {"exact": "70/99", "float": 0.7070707070707071}}], "k": 4, "paylo'
    'ad_kind": "coverage-plan", "target": {"exact": "8341/8064", "float": 1.0343501984126984}'
    '}, "schema_version": "1", "timestamp": null, "verdict": "complete"}'
)


# One objective of each descriptor kind.
ONE_OF_EACH_FAMILY = [
    HBoundObjective(F(13, 2), 7),
    GeneralBoundObjective(BoundSpec(8, 21, 19, 4)),
    MuSmallObjective(6, 3, 7),
    HBoundObjective(21, 8, 4),
    GeneralBoundObjective(BoundSpec(7, 6, 3, 0)),
]


def tampered_descriptors(desc):
    """(label, descriptor) pairs, each changing one field of ``desc`` to a
    form its family's constructor never writes."""
    e = F(desc["e"])
    out = [
        ("float-e", {**desc, "e": float(e)}),
        ("decimal-e", {**desc, "e": f"{float(e):.4f}"}),
        ("unreduced-e", {**desc, "e": f"{2 * e.numerator}/{2 * e.denominator}"}),
        ("unknown-key", {**desc, "z": 1}),
    ]
    out += [
        (f"missing-{key}", {k: v for k, v in desc.items() if k != key})
        for key in sorted(desc.keys() - {"kind"})
    ]
    for key in ("mu", "k"):
        if key in desc:
            out += [(f"float-{key}", {**desc, key: float(desc[key])}),
                    (f"bool-{key}", {**desc, key: True})]
    return out


# Every certificate written before LinearBound: the schema-1 certificates,
# and the general lo certificate of the k = 4 covering.
OLD_CERTIFICATES = [loads(text).payload for text in SCHEMA1_CERTIFICATES] + [
    loads(GENERAL_WORST_CASE_COVER).payload.intervals[0].lo_cert
]

TAMPERED = [
    pytest.param(cert, desc, id=f"cert{i}-{label}")
    for i, cert in enumerate(OLD_CERTIFICATES)
    for label, desc in tampered_descriptors(cert.objective)
]


class TestCertificates:
    def test_reference_point_certifies(self):
        cert = certify_point(
            HBoundObjective(6, 7), F("2.84243"), F("0.8"), DIM7_TARGET
        )
        assert cert.verdict
        assert abs(float(cert.value) - 1.06447) < 1e-4
        assert cert.value > cert.target

    def test_origin_fails(self):
        cert = certify_point(HBoundObjective(6, 7), 0, 0, DIM7_TARGET)
        assert not cert.verdict
        assert cert.value == 1

    def test_dim8_figure_point(self):
        objective = GeneralBoundObjective(BoundSpec(8, 21, 19, 4))
        cert = certify_point(
            objective, F("2.17991"), F("0.706957"), DIM8_TARGET
        )
        assert cert.verdict

    def test_reverify_bit_for_bit(self):
        cert = certify_point(
            HBoundObjective(7, 7), F("2.74118"), F("0.779643"), DIM7_TARGET
        )
        assert reverify_certificate(cert)

    def test_reverify_detects_tampering(self):
        cert = certify_point(
            HBoundObjective(7, 7), F("2.74118"), F("0.779643"), DIM7_TARGET
        )
        forged = replace(cert, value=cert.value + F(1, 10**30))
        assert not reverify_certificate(forged)
        flipped = replace(cert, target=cert.value + 1, verdict=True)
        assert not reverify_certificate(flipped)

    @pytest.mark.parametrize("objective", ONE_OF_EACH_FAMILY)
    def test_descriptor_roundtrip(self, objective):
        rebuilt = objective_from_descriptor(objective.descriptor())
        assert rebuilt == objective
        s, t = F(5, 2), F(1, 2)
        assert rebuilt.exact(s, t) == objective.exact(s, t)

    @pytest.mark.parametrize("cert", OLD_CERTIFICATES)
    def test_reverifies_certificates_written_before_linear_bound(self, cert):
        assert reverify_certificate(cert)
        objective = objective_from_descriptor(cert.objective)
        assert objective.exact(cert.s, cert.t) == cert.value
        assert objective.descriptor() == cert.objective
        assert certify_point(objective, cert.s, cert.t, cert.target) == cert

    @pytest.mark.parametrize("d", ["0", -3, 7.9, 7.5, True])
    @pytest.mark.parametrize("cert", OLD_CERTIFICATES)
    def test_reverify_rejects_a_tampered_dimension(self, cert, d):
        tampered = replace(cert, objective={**cert.objective, "d": d})
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            reverify_certificate(tampered)

    @pytest.mark.parametrize("cert,desc", TAMPERED)
    def test_reverify_rejects_a_tampered_descriptor(self, cert, desc):
        # The stored value is the untampered objective's, so a reader that
        # coerced the field back would re-verify the certificate.
        cert = replace(cert, objective=desc)
        try:
            assert not reverify_certificate(cert)
        except (TypeError, ValueError):
            pass

    def test_every_family_has_a_descriptor_to_test(self):
        assert {o.descriptor()["kind"] for o in ONE_OF_EACH_FAMILY} == _FAMILIES.keys()
        assert {cert.objective["kind"] for cert in OLD_CERTIFICATES} == _FAMILIES.keys()

    @pytest.mark.parametrize("objective", ONE_OF_EACH_FAMILY)
    def test_descriptor_keys_are_the_constructor_parameters(self, objective):
        desc = objective.descriptor()
        keys = inspect.signature(_FAMILIES[desc["kind"]]).parameters.keys()
        if desc["kind"] == "h" and objective.ct == F(-1, 2):
            # The worst case (ct = -1/2^k) leaves out k exactly when k = 1,
            # as every H_e descriptor was written.
            keys -= {"k"}
        assert desc.keys() - {"kind"} == keys

    def test_reverifies_general_worst_case_certificates(self):
        plan = loads(GENERAL_WORST_CASE_COVER).payload
        (iv,) = plan.intervals
        for cert in (iv.lo_cert, iv.hi_cert):
            desc = cert.objective
            assert desc["kind"] == "general" and F(desc["e"]) == desc["mu"] + 2
            assert reverify_certificate(cert)
            worst = HBoundObjective(desc["e"], 8, 4)
            assert worst.exact(cert.s, cert.t) == cert.value
        # Today's covering finds the same interval at the same s0; its t0
        # now comes from the closed form in t, not from a t grid.
        now = cover_range(8, 4, 21, 41, plan.target)
        assert [(v.e_lo, v.e_hi, v.s0) for v in now.intervals] == [(iv.e_lo, iv.e_hi, iv.s0)]

    def test_an_h_descriptor_stating_k_1_fails_reverification(self):
        # HBoundObjective leaves out k = 1, so it writes such a descriptor back
        # without it.
        cert = loads(SCHEMA1_CERTIFICATES[0]).payload
        stated = replace(cert, objective={**cert.objective, "k": 1})
        assert objective_from_descriptor(stated.objective) == objective_from_descriptor(
            cert.objective
        )
        assert reverify_certificate(cert)
        assert not reverify_certificate(stated)

    def test_unknown_descriptor_kind(self):
        with pytest.raises(ValueError):
            objective_from_descriptor({"kind": "mystery"})

    @pytest.mark.parametrize(
        "extra",
        [[[2, "1/3"]], [[0, "1"]], [[1, "1/2"], [1, "1/2"]], None, "[]", {}],
        ids=["one-value", "zero-multiplicity", "two-values", "null", "string", "object"],
    )
    def test_general_descriptor_takes_only_an_empty_extra(self, extra):
        desc = GeneralBoundObjective(BoundSpec(8, 21, 19, 4)).descriptor()
        assert objective_from_descriptor(desc).exact(F(8, 3), F(2, 3)) == F(424910411, 806215680)
        with pytest.raises(ValueError, match="extra"):
            objective_from_descriptor({**desc, "extra": extra})

    @pytest.mark.parametrize(
        "text,message", REMOVED_KIND_CERTIFICATES.values(), ids=REMOVED_KIND_CERTIFICATES.keys()
    )
    def test_rejects_the_descriptors_of_removed_kinds(self, text, message):
        cert = loads(text).payload
        with pytest.raises(ValueError, match=message):
            objective_from_descriptor(cert.objective)
        with pytest.raises(ValueError, match=message):
            reverify_certificate(cert)


class TestCoverRange:
    def test_single_multiplicity(self):
        plan = cover_range(7, 1, 7, 7, DIM7_TARGET, FAST)
        assert plan.complete
        assert len(plan.intervals) == 1
        iv = plan.intervals[0]
        assert (iv.e_lo, iv.e_hi) == (7, 7)
        assert abs(float(iv.certified_min) - 1.06056) < 2e-4
        assert reverify_certificate(iv.lo_cert)
        assert reverify_certificate(iv.hi_cert)

    def test_reference_range(self):
        plan = cover_range(7, 1, 13, 5340, DIM7_TARGET, FAST)
        assert plan.complete
        assert len(plan.intervals) <= 12
        assert plan.covered_or_gapped()
        assert all(iv.certified_min > DIM7_TARGET for iv in plan.intervals)

    def test_interval_soundness_spot_check(self):
        plan = cover_range(7, 1, 13, 5340, DIM7_TARGET, FAST)
        rng = random.Random(77)
        for iv in plan.intervals:
            if iv.e_hi - iv.e_lo <= 50:
                samples = range(iv.e_lo, iv.e_hi + 1)
            else:
                samples = [rng.randint(iv.e_lo, iv.e_hi) for _ in range(20)]
            for e in samples:
                assert h_bound(e, iv.s0, iv.t0) >= iv.certified_min

    def test_dim8_gap_reporting(self):
        plan = cover_range(8, 4, 6, 25, DIM8_TARGET, FAST)
        assert not plan.complete
        assert [e for g in plan.gaps for e in range(g.e_lo, g.e_hi + 1)] == list(range(6, 21))
        assert plan.intervals[0].e_lo == 21
        assert plan.covered_or_gapped()

    def test_gap_runs_of_the_dim8_covering(self):
        # The runs of `cover --dim 8 --k 4 --e-lo 6 --e-hi 41705` at the
        # default search.
        plan = cover_range(8, 4, 6, 41705, DIM8_TARGET)
        assert plan.gaps == (
            GapRun(6, 6, "generator count e - 2 below k + 1 = 5"),
            GapRun(7, 20, NO_CERTIFICATE),
        )
        assert_maximal(plan.gaps)
        assert plan.covered_or_gapped()

    def test_no_point_is_certified_twice(self, monkeypatch):
        # The covering keeps each certificate it computes: the one at e1 and
        # the one at e2 are those that decided the witness and the run.
        from hkcert import certify

        seen = []

        def counting(objective, s, t, target):
            seen.append((repr(objective.descriptor()), s, t))
            return certify_point(objective, s, t, target)

        monkeypatch.setattr(certify, "certify_point", counting)
        plan = cover_range(8, 4, 6, 41705, DIM8_TARGET)
        assert len(seen) == len(set(seen))

        def at(e, iv):
            return certify_point(HBoundObjective(e, 8, 4), iv.s0, iv.t0, DIM8_TARGET)

        for iv in plan.intervals:
            assert (iv.lo_cert, iv.hi_cert) == (at(iv.e_lo, iv), at(iv.e_hi, iv))

    @pytest.mark.parametrize(
        "run,certificates",
        [
            (lambda certify: certify.cover_range(7, 1, *TABLE2_RANGE, DIM7_TARGET), 23),
            (lambda certify: certify.prove_dimension(7, 1), 33),
            (lambda certify: certify.cover_range(8, 4, 6, 41705, DIM8_TARGET), 33),
            (lambda certify: certify.prove_dimension(10, 5), 268),
        ],
        ids=["table2", "prove-d7-k1", "cover-d8-k4", "prove-d10-k5"],
    )
    def test_no_e_is_optimized_twice(self, monkeypatch, run, certificates):
        # The apex chase stops when the apex rounds to the e whose witness
        # it holds: the optimizer is deterministic, so that e would return
        # the same witness.  Each run's end is read off the exact quadratic
        # at its witness, so a covering certifies e1 at each new witness and
        # e2 once per interval of more than one e; prove_dimension also
        # certifies its three mu-small rungs.
        from hkcert import certify

        real_cover, real_optimize = certify.cover_range, certify.optimize_bounds
        real_certify, certified = certify.certify_point, []
        # The e optimized by each finished covering, and by the open one,
        # each member of a block of e counted; prove_dimension also
        # optimizes the mu-small rungs, outside them.  A block member the
        # sweep passes over is kept, and never optimized again.
        coverings, open_ = [], []

        def cover(*args):
            open_.append([])
            try:
                return real_cover(*args)
            finally:
                coverings.append(open_.pop())

        def optimize(objectives, params):
            if open_:
                open_[-1].extend(objective.e for objective in objectives)
            return real_optimize(objectives, params)

        def certify_point(*args):
            certified.append(args)
            return real_certify(*args)

        monkeypatch.setattr(certify, "cover_range", cover)
        monkeypatch.setattr(certify, "optimize_bounds", optimize)
        monkeypatch.setattr(certify, "certify_point", certify_point)
        run(certify)
        assert coverings and all(coverings)
        for es in coverings:
            assert len(es) == len(set(es))
        assert len(certified) == certificates

    def test_a_gap_sweep_gallops_in_blocks(self, monkeypatch):
        # The d = 10 gap run 200..249 ends in the interval from 250.  The
        # sweep optimizes it in blocks of 1, 2, 4, 8, 16, 16, ..., and a
        # block that reaches past the run's end optimizes at most 15 e that
        # a sweep of single optimizations (blocks of at most 1) does not.
        from hkcert import certify

        real, blocks = certify.optimize_bounds, []

        def optimize(objectives, params):
            blocks.append(len(objectives))
            return real(objectives, params)

        monkeypatch.setattr(certify, "optimize_bounds", optimize)
        target = wy_target(10).value
        plan = cover_range(10, 5, 200, 260, target)
        galloped, blocks[:] = list(blocks), []
        monkeypatch.setattr(certify, "_GAP_BLOCK", 1)
        assert cover_range(10, 5, 200, 260, target) == plan
        single = list(blocks)
        gaps = sum(g.e_hi - g.e_lo + 1 for g in plan.gaps)
        assert (gaps, set(single)) == (50, {1})
        assert galloped[:6] == [1, 2, 4, 8, 16, 16]
        assert max(galloped) == 16
        assert len(single) - gaps >= 1  # the interval's own optimizations
        assert sum(galloped) <= len(single) + 15

    def test_a_run_end_that_does_not_certify_raises(self, monkeypatch):
        # Soundness rests on the certificates at both ends of each interval,
        # never on the e2 that last_above reads off the quadratic.
        from hkcert import certify

        real = certify.last_above
        monkeypatch.setattr(certify, "last_above", lambda *args: real(*args) + 1)
        with pytest.raises(AssertionError, match="does not certify"):
            cover_range(7, 1, 13, 5340, DIM7_TARGET)

    @pytest.mark.parametrize("d", [0, 65, 7.5, True])
    def test_rejects_a_bad_dimension(self, d):
        # [2, 3] lies inside the generator-count gap at k = 2, so the
        # covering builds no bound that would check d.
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            cover_range(d, 2, 2, 3, 2)

    def test_gap_run_of_the_dim10_covering(self):
        plan = cover_range(10, 5, 240, 400, wy_target(10).value)
        assert plan.gaps == (GapRun(240, 249, NO_CERTIFICATE),)
        assert plan.intervals[0].e_lo == 250
        assert plan.covered_or_gapped()

    @pytest.mark.parametrize(
        "e_lo,e_hi,run",
        [(2, 5, (2, 5)), (2, 4, (2, 4)), (3, 6, (3, 6)), (6, 6, (6, 6))],
    )
    def test_generator_count_gap_is_one_run(self, e_lo, e_hi, run):
        # With k = 4 every e <= k + 2 = 6 has too few generators; no search runs.
        plan = cover_range(7, 4, e_lo, e_hi, DIM7_TARGET, FAST)
        assert plan.gaps == (GapRun(*run, "generator count e - 2 below k + 1 = 5"),)
        assert plan.intervals == ()
        assert plan.covered_or_gapped()

    def test_tiling_with_runs(self):
        def plan(*gaps):
            return CoveragePlan(7, 1, DIM7_TARGET, 6, 9, (), gaps)

        assert plan(GapRun(6, 7, "x"), GapRun(8, 9, "y")).covered_or_gapped()
        assert plan(GapRun(6, 9, "x")).covered_or_gapped()
        assert not plan(GapRun(6, 7, "x"), GapRun(9, 9, "x")).covered_or_gapped()
        assert not plan(GapRun(6, 8, "x"), GapRun(8, 9, "x")).covered_or_gapped()
        assert not plan(GapRun(6, 10, "x")).covered_or_gapped()

    def test_dim8_interval_soundness(self):
        plan = cover_range(8, 4, 21, 60, DIM8_TARGET, FAST)
        assert plan.complete
        for iv in plan.intervals:
            for e in range(iv.e_lo, iv.e_hi + 1):
                master = GeneralBoundObjective(BoundSpec(8, e, e - 2, 4))
                value = master.exact(iv.s0, iv.t0)
                assert value >= iv.certified_min

    def test_determinism(self):
        a = cover_range(7, 1, 13, 200, DIM7_TARGET, FAST)
        b = cover_range(7, 1, 13, 200, DIM7_TARGET, FAST)
        assert a == b

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            cover_range(7, 1, 10, 9, DIM7_TARGET, FAST)

    @pytest.mark.parametrize("target", [F(-1), F(0), F(1)])
    def test_rejects_target_not_above_one(self, target):
        # Every bound is 1 at (0, 0), so such a target is met trivially.
        with pytest.raises(ValueError, match="target must exceed 1"):
            cover_range(7, 1, 13, 14, target, FAST)

    @pytest.mark.parametrize("e_lo", [-5, 0, 1])
    def test_rejects_multiplicity_below_two(self, e_lo):
        # A non-regular ring has multiplicity at least 2.
        with pytest.raises(ValueError, match="multiplicities start at 2"):
            cover_range(7, 1, e_lo, 14, DIM7_TARGET, FAST)

    @pytest.mark.parametrize("side", ["e_lo", "e_hi"])
    @pytest.mark.parametrize("e", [2.0, F(13, 2), True, "6"], ids=["float", "fraction", "bool", "str"])
    def test_rejects_a_non_integer_range(self, side, e):
        ends = {"e_lo": 6, "e_hi": 9, side: e}
        with pytest.raises(ValueError, match=f"{side} must be an integer"):
            cover_range(7, 1, ends["e_lo"], ends["e_hi"], DIM7_TARGET, FAST)

    @pytest.mark.parametrize("k", [-1, F(1, 2), 1.0, True])
    def test_rejects_k_not_a_nonnegative_integer(self, k):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            cover_range(7, k, 13, 14, DIM7_TARGET, FAST)

    def test_plan_bookkeeping(self):
        plan = CoveragePlan(
            dimension=7,
            k=1,
            target=DIM7_TARGET,
            e_lo=6,
            e_hi=8,
            intervals=(),
            gaps=(),
        )
        assert not plan.covered_or_gapped()


class TestProveDimension:
    def test_dimension7(self):
        report = prove_dimension(7, 1, FAST)
        assert report.verdict == "proved"
        assert report.target.value == DIM7_TARGET
        assert report.target.provenance == "closed-form-d7"
        kinds = [c.kind for c in report.cases]
        assert kinds.count("mu-small") == 3
        assert "threshold" in kinds and "coverage" in kinds and "not-normal" in kinds
        thr = next(c for c in report.cases if c.kind == "threshold")
        assert thr.parameters["threshold"] == 5340
        for case in report.cases:
            if case.certificate is not None:
                assert case.certificate.verdict
                assert reverify_certificate(case.certificate)

    def test_dimension7_mu_small_values(self):
        report = prove_dimension(7, 1, FAST)
        values = {
            c.parameters["mu"]: float(c.certificate.value)
            for c in report.cases
            if c.kind == "mu-small"
        }
        assert abs(values[1] - 2.87619) < 1e-3
        assert abs(values[2] - 1.84215) < 1e-3
        assert abs(values[3] - 1.33532) < 1e-3

    def test_dimension2_needs_no_search(self):
        report = prove_dimension(2, 1, FAST)
        assert report.verdict == "proved"
        assert {c.kind for c in report.cases} == {"cited", "threshold"}
        assert report.target.value == F(3, 2)

    def test_dimension8_open(self):
        report = prove_dimension(8, 4, FAST)
        assert report.verdict == "open"
        plan = next(c for c in report.cases if c.kind == "coverage").plan
        assert [e for g in plan.gaps for e in range(g.e_lo, g.e_hi + 1)] == list(range(6, 21))
        assert plan.intervals[0].e_lo == 21
        assert plan.e_hi == 41705
        assert plan.covered_or_gapped()
        mu_gap = [c for c in report.cases if c.kind == "gap" and "mu_lo" in c.parameters]
        assert len(mu_gap) == 1
        # The plan states its gap runs once: no gap case repeats one.
        assert not [c for c in report.cases if c.kind == "gap" and "e_lo" in c.parameters]
        assert_maximal(plan.gaps)

    def test_user_supplied_target(self):
        target = TargetValue(7, None, F(101, 100), "user-supplied")
        report = prove_dimension(7, 1, FAST, target=target)
        assert report.target.provenance == "user-supplied"
        thr = next(c for c in report.cases if c.kind == "threshold")
        assert thr.parameters["threshold"] == 5090

    def test_rejects_a_target_of_another_dimension(self):
        target = TargetValue(8, None, F(71, 67), "user-supplied")
        with pytest.raises(ValueError, match="dimension 8, the proof for 7"):
            prove_dimension(7, 1, FAST, target=target)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            prove_dimension(1, 1, FAST)

    @pytest.mark.parametrize(
        "d, k", [(7.0, 1), (7.5, 1), (7, 1.0), (7, True)],
        ids=["d-float", "d-fraction", "k-float", "k-bool"],
    )
    def test_rejects_counts_that_are_not_plain_integers(self, d, k):
        with pytest.raises(ValueError, match=f"must be integers, got d={d!r}, k={k!r}"):
            prove_dimension(d, k, FAST)
