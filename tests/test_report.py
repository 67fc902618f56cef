import contextlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcert.bounds import BoundSpec, GeneralBoundObjective, HBoundObjective
from hkcert.certify import GapRun, certify_point, cover_range, prove_dimension
from hkcert import report
from hkcert.cli import main
from hkcert.report import (
    ReportDocument,
    ScalarResult,
    SeriesResult,
    TableResult,
    dumps,
    loads,
    parse,
    serialize,
    surface_csv,
    surface_grid,
    surface_svg,
)
from hkcert.search import SearchParams, optimize_bound
from hkcert.targets import verify_quadric_identities

F = Fraction
FAST = SearchParams(grid=(60, 30), refine_rounds=1)
H77 = HBoundObjective(7, 7)


def _roundtrip(payload, verdict=None):
    doc = ReportDocument.build("test", {"alpha": "1/3", "n": 4}, payload, verdict)
    text = dumps(doc)
    again = loads(text)
    assert again == doc
    # Reports were once written indented; that form still reads the same.
    assert loads(json.dumps(json.loads(text), indent=2, sort_keys=True)) == again
    return again


class TestRoundTrip:
    def test_scalar(self):
        back = _roundtrip(ScalarResult("nu", F(7, 8)))
        assert back.payload.value == F(7, 8)

    def test_scalar_reduces_to_lowest_terms(self):
        doc = ReportDocument.build("test", {}, ScalarResult("x", F(2, 4)))
        data = serialize(doc)
        assert data["payload"]["value"]["exact"] == "1/2"

    def test_table(self):
        payload = TableResult(
            name="rows",
            columns=("e", "value", "ok"),
            rows=({"e": 6, "value": F(71, 67), "ok": True},
                  {"e": 7, "value": F(1, 3), "ok": False}),
        )
        back = _roundtrip(payload)
        assert back.payload.rows[0]["value"] == F(71, 67)

    def test_series(self):
        _roundtrip(SeriesResult((F(1), F(1, 2), F(1, 3))))

    def test_candidate(self):
        cand = optimize_bound(HBoundObjective(7, 7), FAST)
        _roundtrip(cand)

    def test_certificate(self):
        cert = certify_point(HBoundObjective(6, 7), F("2.84243"), F("0.8"), F(71, 67))
        _roundtrip(cert)

    def test_certificate_general(self):
        cert = certify_point(
            GeneralBoundObjective(BoundSpec(8, 21, 19, 4)),
            F("2.17991"), F("0.706957"), F(8341, 8064),
        )
        _roundtrip(cert)

    def test_coverage_plan(self):
        plan = cover_range(7, 1, 13, 40, F(71, 67), FAST)
        back = _roundtrip(plan, verdict="complete")
        assert back.payload == plan

    def test_coverage_plan_with_gaps(self):
        plan = cover_range(8, 4, 6, 7, F(8341, 8064), FAST)
        assert [e for g in plan.gaps for e in range(g.e_lo, g.e_hi + 1)] == [6, 7]
        back = _roundtrip(plan)
        assert back.payload.gaps == plan.gaps

    def test_proof_report(self):
        report = prove_dimension(2, 1, FAST)
        back = _roundtrip(report, verdict=report.verdict)
        assert back.payload == report

    def test_proof_report_dim7(self):
        report = prove_dimension(7, 1, FAST)
        back = _roundtrip(report, verdict="proved")
        assert back.payload == report

    def test_identity_report(self):
        _roundtrip(verify_quadric_identities(19))

    def test_surface(self):
        grid = surface_grid(H77, SearchParams(grid=(8, 6)))
        back = _roundtrip(grid)
        assert back.payload == grid

    def test_timestamp_survives(self):
        doc = ReportDocument.build("test", {}, ScalarResult("x", F(1, 2)))
        assert doc.timestamp is not None
        assert loads(dumps(doc)).timestamp == doc.timestamp

    def test_no_timestamp(self):
        doc = ReportDocument.build("test", {}, ScalarResult("x", F(1, 2)),
                                   timestamp=False)
        assert doc.timestamp is None

    def test_unknown_payload_rejected(self):
        with pytest.raises(TypeError):
            serialize(ReportDocument.build("test", {}, object()))
        with pytest.raises(ValueError):
            parse({"schema_version": "1", "command": "x", "params": {},
                   "payload": {"payload_kind": "mystery"},
                   "verdict": None, "timestamp": None})


# Reports written before gaps became runs: one gap record {"e", "reason"} per
# multiplicity in a plan, and one gap case {"e": n} per multiplicity in a proof.
SINGLE_E_PLAN = (
    '{"command": "cover", "params": {}, "payload": {"dimension": 8, "e_hi": 8, "e_lo": 6, '
    '"gaps": [{"e": 6, "reason": "generator count e - 2 = 4 below k + 1 = 5"}, '
    '{"e": 7, "reason": "no certificate found at optimized witness"}, '
    '{"e": 8, "reason": "no certificate found at optimized witness"}], "intervals": [], '
    '"k": 4, "payload_kind": "coverage-plan", '
    '"target": {"exact": "8341/8064", "float": 1.0343501984126984}}, '
    '"schema_version": "1", "timestamp": null, "verdict": "gaps"}'
)
SINGLE_E_PROOF = (
    '{"command": "prove", "params": {}, "payload": {"cases": [{"certificate": null, '
    '"citation": null, "kind": "coverage", "parameters": {"e_hi": 8, "e_lo": 6}, '
    '"plan": {"dimension": 8, "e_hi": 8, "e_lo": 6, "gaps": [{"e": 6, "reason": '
    '"generator count e - 2 = 4 below k + 1 = 5"}, {"e": 7, "reason": "no certificate '
    'found at optimized witness"}, {"e": 8, "reason": "no certificate found at optimized '
    'witness"}], "intervals": [], "k": 4, "target": {"exact": "8341/8064", "float": '
    '1.0343501984126984}}}, {"certificate": null, "citation": "generator count e - 2 = 4 '
    'below k + 1 = 5", "kind": "gap", "parameters": {"e": 6}, "plan": null}, '
    '{"certificate": null, "citation": "no certificate found at optimized witness", '
    '"kind": "gap", "parameters": {"e": 7}, "plan": null}, {"certificate": null, '
    '"citation": "no certificate found at optimized witness", "kind": "gap", '
    '"parameters": {"e": 8}, "plan": null}], "dimension": 8, "hypotheses": [], "k": 4, '
    '"payload_kind": "proof-report", "target": {"characteristic": null, "dimension": 8, '
    '"provenance": "user-supplied", "value": {"exact": "8341/8064", "float": '
    '1.0343501984126984}}, "verdict": "open"}, "schema_version": "1", "timestamp": null, '
    '"verdict": "open"}'
)
SINGLE_E_RUNS = (
    GapRun(6, 6, "generator count e - 2 = 4 below k + 1 = 5"),
    GapRun(7, 7, "no certificate found at optimized witness"),
    GapRun(8, 8, "no certificate found at optimized witness"),
)


class TestSingleEGapReports:
    def test_plan_gaps_read_as_runs_of_one(self):
        plan = loads(SINGLE_E_PLAN).payload
        assert plan.gaps == SINGLE_E_RUNS
        assert plan.covered_or_gapped()
        # Written back, the gaps take the run form.
        again = json.loads(dumps(loads(SINGLE_E_PLAN)))["payload"]["gaps"]
        assert again[0] == {"e_lo": 6, "e_hi": 6,
                            "reason": "generator count e - 2 = 4 below k + 1 = 5"}

    def test_proof_gap_cases_read_as_they_are(self):
        proof = loads(SINGLE_E_PROOF).payload
        assert proof.verdict == "open"
        (plan,) = [c.plan for c in proof.cases if c.kind == "coverage"]
        assert plan.gaps == SINGLE_E_RUNS
        assert [c.parameters for c in proof.cases if c.kind == "gap"] == [
            {"e": 6}, {"e": 7}, {"e": 8}
        ]


# Strings that Fraction(str) reads but str(Fraction) never writes, a zero
# denominator and a signed one.
NOT_WRITTEN = ["2.5", "14/2", " 7/2", "+3", "1_000", "7/0", "7/-2", "1e3"]


@pytest.mark.parametrize("field", ["payload", "params"])
@pytest.mark.parametrize("text", NOT_WRITTEN)
def test_reader_takes_only_the_written_fraction_form(text, field):
    doc = ReportDocument.build("test", {"x": F(7, 2)}, ScalarResult("x", F(7, 2)),
                               timestamp=False)
    data = serialize(doc)
    (data["payload"]["value"] if field == "payload" else data["params"]["x"])["exact"] = text
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        loads(json.dumps(data))


# Fraction fields that hold no {"exact": text} object: a bare string, an
# object without "exact", and an "exact" that is not a string.
NOT_ENCODED = ["7/2", 3.5, {"float": 3.5}, {"exact": ["7/2"], "float": 3.5},
               {"exact": 7, "float": 7.0}]


@pytest.mark.parametrize("value", NOT_ENCODED, ids=repr)
def test_a_fraction_field_takes_only_the_encoded_form(value):
    data = serialize(ReportDocument.build("test", {}, ScalarResult("x", F(7, 2))))
    data["payload"]["value"] = value
    with pytest.raises(ValueError, match="not an exact fraction"):
        parse(data)
    data = serialize(ReportDocument.build("test", {"x": F(7, 2)}, ScalarResult("x", F(7, 2))))
    data["params"]["x"]["exact"] = ["7/2"]
    with pytest.raises(ValueError, match="not an exact fraction"):
        parse(data)


@pytest.mark.parametrize("text, kind", [("[]", "list"), ('"{}"', "str"), ("3", "int"),
                                        ("null", "NoneType")])
def test_a_report_is_an_object(text, kind):
    with pytest.raises(ValueError, match=f"a report is a JSON object, not {kind}$"):
        loads(text)


# Edits of a certificate's report, (keys, new value or None to delete), and
# the error each gives.
MALFORMED = {
    "no payload": (("payload",), None, "ReportDocument without field 'payload'"),
    "no verdict": (("verdict",), None, "ReportDocument without field 'verdict'"),
    "no witness": (("payload", "s"), None, "Certificate without field 's'"),
    "no payload kind": (("payload", "payload_kind"), None, "unknown payload kind None"),
    "schema 2": (("schema_version",), "2", "schema_version '2' is not '1'"),
    "schema as int": (("schema_version",), 1, "schema_version 1 is not '1'"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_documents_raise_value_error(case):
    (*parents, key), value, message = MALFORMED[case]
    cert = certify_point(HBoundObjective(6, 7), F("2.84243"), F("0.8"), F(71, 67))
    data = serialize(ReportDocument.build("certify", {}, cert, timestamp=False))
    edited = data
    for p in parents:
        edited = edited[p]
    if value is None:
        del edited[key]
    else:
        edited[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        loads(json.dumps(data))
    assert report._READ == {}


# Huge, tiny, negative and integer-valued rationals, all within float range.
FRACTIONS = st.one_of(
    st.integers(-(10**300), 10**300).map(F),
    st.builds(F, st.integers(-(10**300), 10**300), st.integers(1, 10**330)),
    st.fractions(-(10**300), 10**300, max_denominator=10**6),
)


def _written_fractions(data):
    """(exact, float) of every encoded Fraction in a JSON document."""
    if isinstance(data, dict):
        if set(data) == {"exact", "float"}:
            yield F(data["exact"]), data["float"]
        else:
            for v in data.values():
                yield from _written_fractions(v)
    elif isinstance(data, list):
        for v in data:
            yield from _written_fractions(v)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(FRACTIONS, min_size=1, max_size=6))
    def test_exact_round_trip_and_correctly_rounded_floats(self, values):
        payloads = [
            ScalarResult("x", values[0]),
            SeriesResult(tuple(values)),
            TableResult("rows", ("i", "x"),
                        tuple({"i": i, "x": v} for i, v in enumerate(values))),
        ]
        for payload, count in zip(payloads, (1, len(values), len(values))):
            doc = ReportDocument.build("test", {"x": values[-1]}, payload,
                                       timestamp=False)
            text = dumps(doc)
            assert loads(text) == doc
            written = list(_written_fractions(json.loads(text)))
            assert len(written) == count + 1  # the payload's and the params'
            for exact, as_float in written:
                assert as_float.hex() == float(exact).hex()


class TestSurfaceGrid:
    def test_reference_max_dim7(self):
        grid = surface_grid(H77, SearchParams())
        assert max(map(max, grid.values)) >= 1.06046

    def test_reference_max_dim8(self):
        objective = GeneralBoundObjective(BoundSpec(8, 21, 19, 4))
        grid = surface_grid(objective, SearchParams())
        assert max(map(max, grid.values)) >= 1.03535

    def test_degenerate_box_all_ones(self):
        grid = surface_grid(H77, SearchParams(grid=(2, 2), s_range=(0, 0), t_range=(0, 0)))
        assert all(v == 1.0 for row in grid.values for v in row)

    def test_worst_case_at_any_k(self, tmp_path):
        # Without --mu, surface scans the worst case mu = e - 2 at any --k.
        grids = []
        for mu in ([], ["--mu", "19"]):
            path = tmp_path / f"surface{len(grids)}.json"
            argv = ["surface", "--dim", "8", "--e", "21", "--k", "4", *mu, "--json", str(path)]
            assert main(argv) == 0
            grids.append(loads(path.read_text()).payload)
        worst, general = grids
        assert worst.objective == {"kind": "h", "e": "21", "d": 8, "k": 4}
        assert (worst.s_axis, worst.t_axis) == (general.s_axis, general.t_axis)
        assert worst.values == general.values


class TestRenderings:
    def test_csv_shape(self):
        grid = surface_grid(H77, SearchParams(grid=(5, 4)))
        text = surface_csv(grid)
        lines = text.strip().splitlines()
        assert lines[0] == "s,t,value"
        assert len(lines) == 1 + 5 * 4
        s, t, v = lines[1].split(",")
        assert float(s) == 0.0 and float(t) == 0.0 and float(v) == 1.0

    def test_csv_values_are_lossless(self):
        grid = surface_grid(H77, SearchParams(grid=(4, 3)))
        for line in surface_csv(grid).strip().splitlines()[1:]:
            _, _, v = line.split(",")
            assert float(v) in {x for row in grid.values for x in row}

    def test_svg_deterministic_and_marked(self):
        grid = surface_grid(H77, SearchParams(grid=(40, 30)))
        a = surface_svg(grid, F(1))
        b = surface_svg(grid, F(1))
        assert a == b
        assert a.startswith("<svg")
        assert a.count("<rect") == 40 * 30
        assert "stroke" in a  # some cell exceeds the target level
        above = sum(1 for row in grid.values for v in row if v > 1.0)
        assert a.count("stroke-width") == above

    def test_svg_without_target(self):
        grid = surface_grid(H77, SearchParams(grid=(6, 5)))
        assert "stroke" not in surface_svg(grid, None)


def test_json_is_sorted_and_stable():
    doc = ReportDocument.build("test", {"b": 1, "a": 2},
                               ScalarResult("x", F(3, 4)), timestamp=False)
    text = dumps(doc)
    assert text == dumps(doc)
    assert "\n" not in text
    data = json.loads(text)
    assert list(data) == sorted(data)


class TestOneReadPerString:
    """``parse`` reads each distinct exact string once per document."""

    @pytest.fixture(scope="class")
    def plan_doc(self):
        plan = cover_range(7, 1, 13, 40, F(71, 67), FAST)
        # Each interval's certificates repeat its witness, and every
        # certificate repeats the target.
        assert len(plan.intervals) > 1
        return ReportDocument.build("cover", {"target": F(71, 67)}, plan, timestamp=False)

    def test_equal_values_are_one_object(self, plan_doc):
        back = loads(dumps(plan_doc))
        assert back == plan_doc
        plan = back.payload
        for iv in plan.intervals:
            assert iv.lo_cert.s is iv.s0 and iv.hi_cert.t is iv.t0
            assert plan.target is iv.lo_cert.target is iv.hi_cert.target
        assert back.params["target"] is plan.target

    def test_documents_share_no_fraction(self, plan_doc):
        text = dumps(plan_doc)
        a, b = loads(text).payload, loads(text).payload
        assert a == b
        assert a.target is not b.target
        assert a.intervals[0].s0 is not b.intervals[0].s0

    def test_nothing_is_kept_after_a_parse(self, plan_doc):
        loads(dumps(plan_doc))
        assert report._READ == {}
        data = serialize(plan_doc)
        data["payload"]["intervals"][-1]["hi_cert"]["value"]["exact"] = "14/2"
        with pytest.raises(ValueError, match="'14/2'"):
            parse(data)
        assert report._READ == {}

    def test_a_repeated_non_canonical_string_is_refused(self):
        doc = ReportDocument.build("test", {"x": F(7)}, SeriesResult((F(7), F(7))),
                                   timestamp=False)
        text = dumps(doc).replace('"7"', '"14/2"')
        assert text.count('"14/2"') == 3
        with pytest.raises(ValueError, match="'14/2'"):
            loads(text)

    def test_one_decode_per_distinct_string(self, monkeypatch, tmp_path):
        path = tmp_path / "prove.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["prove", "--dim", "7", "--k", "1", "--json", str(path),
                         "--no-timestamp"]) == 0
        text = path.read_text()
        decoded = []
        canonical = report._canonical
        monkeypatch.setattr(report, "_canonical",
                            lambda s: decoded.append(s) or canonical(s))
        strings = re.findall(r'"exact": "([^"]*)"', text)
        assert (len(strings), len(set(strings))) == (137, 50)
        loads(text)
        assert sorted(decoded) == sorted(set(strings))
        # The next parse reads every string again.
        loads(text)
        assert len(decoded) == 100 and set(decoded[50:]) == set(strings)
