"""Machine-readable reports: JSON documents, CSV surfaces, SVG heatmaps.

Exact rationals serialize as ``{"exact": "71/67", "float": 1.0597...}``;
the string is authoritative and always in lowest terms, the float is a
human-reading aid.  ``parse(serialize(doc))`` reproduces the document
exactly for every payload kind.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

from .certify import (
    CaseEntry,
    Certificate,
    CoverageInterval,
    CoveragePlan,
    GapEntry,
    ProofReport,
)
from .search import Candidate, GridAxis, Objective, SearchParams
from .targets import QuadricIdentityReport, TargetValue

__all__ = [
    "SCHEMA_VERSION",
    "ReportDocument",
    "ScalarResult",
    "TableResult",
    "SeriesResult",
    "SurfaceGrid",
    "surface_grid",
    "serialize",
    "parse",
    "dumps",
    "loads",
    "surface_csv",
    "surface_svg",
]

SCHEMA_VERSION = "1"


def _enc(value):
    """Recursively encode a payload value for JSON."""
    if isinstance(value, Fraction):
        return {"exact": str(value), "float": float(value)}
    if isinstance(value, dict):
        return {k: _enc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_enc(v) for v in value]
    return value


def _dec(value):
    """Inverse of :func:`_enc`; tuples come back as tuples."""
    if isinstance(value, dict):
        if set(value) == {"exact", "float"}:
            return Fraction(value["exact"])
        return {k: _dec(v) for k, v in value.items()}
    if isinstance(value, list):
        return tuple(_dec(v) for v in value)
    return value


def _dec_dict(value):
    # Parameter dicts keep dict shape but decode exact values inside.
    return {k: _dec(v) for k, v in value.items()}


# --------------------------------------------------------------------------
# Payload kinds.


@dataclass(frozen=True)
class ScalarResult:
    name: str
    value: Fraction


@dataclass(frozen=True)
class TableResult:
    name: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]


@dataclass(frozen=True)
class SeriesResult:
    """Coefficients m_1..m_n of the zigzag series."""

    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class SurfaceGrid:
    """Row-major bound values on an (s, t) grid; rows follow the s axis."""

    objective: dict
    s_axis: tuple[Fraction, ...]
    t_axis: tuple[Fraction, ...]
    values: tuple[tuple[float, ...], ...]

    def max_cell(self) -> tuple[float, Fraction, Fraction]:
        best = None
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                if best is None or v > best[0]:
                    best = (v, self.s_axis[i], self.t_axis[j])
        return best


def surface_grid(
    objective: Objective,
    grid: tuple[int, int] = (120, 120),
    s_range=None,
    t_range=(0, 1),
    max_denominator: int = 10**6,
) -> SurfaceGrid:
    """Evaluate ``objective`` on a rectangular grid (float fast path).

    ``s_range=None`` means [0, d+1].  The ranges and the grid are checked
    as :class:`~hkcert.search.SearchParams` checks them, and the grid nodes
    are exact rationals, the same construction the optimizer scans, so a
    grid maximum matches an unrefined optimizer run at the same resolution.
    """
    params = SearchParams(
        s_range=s_range, t_range=t_range, grid=grid, max_denominator=max_denominator
    )
    s_lo, s_hi = params.resolved_s_range(objective.dimension)
    t_lo, t_hi = params.t_range
    ns, nt = params.grid
    s_axis = GridAxis(s_lo, s_hi, ns, max_denominator)
    t_axis = GridAxis(t_lo, t_hi, nt, max_denominator)
    vals = objective.vector(s_axis.floats, t_axis.floats)
    return SurfaceGrid(
        objective=objective.descriptor(),
        s_axis=s_axis.nodes(),
        t_axis=t_axis.nodes(),
        values=tuple(tuple(float(v) for v in row) for row in vals),
    )


# --------------------------------------------------------------------------
# Per-kind JSON forms.


def _certificate_json(c: Certificate) -> dict:
    return {
        "objective": c.objective,
        "s": _enc(c.s),
        "t": _enc(c.t),
        "value": _enc(c.value),
        "target": _enc(c.target),
        "verdict": c.verdict,
    }


def _certificate_from(data: dict) -> Certificate:
    return Certificate(
        objective=dict(data["objective"]),
        s=_dec(data["s"]),
        t=_dec(data["t"]),
        value=_dec(data["value"]),
        target=_dec(data["target"]),
        verdict=data["verdict"],
    )


def _plan_json(plan: CoveragePlan) -> dict:
    return {
        "dimension": plan.dimension,
        "k": plan.k,
        "target": _enc(plan.target),
        "e_lo": plan.e_lo,
        "e_hi": plan.e_hi,
        "intervals": [
            {
                "e_lo": iv.e_lo,
                "e_hi": iv.e_hi,
                "s0": _enc(iv.s0),
                "t0": _enc(iv.t0),
                "certified_min": _enc(iv.certified_min),
                "lo_cert": _certificate_json(iv.lo_cert),
                "hi_cert": _certificate_json(iv.hi_cert),
            }
            for iv in plan.intervals
        ],
        "gaps": [{"e": g.e, "reason": g.reason} for g in plan.gaps],
    }


def _plan_from(data: dict) -> CoveragePlan:
    return CoveragePlan(
        dimension=data["dimension"],
        k=data["k"],
        target=_dec(data["target"]),
        e_lo=data["e_lo"],
        e_hi=data["e_hi"],
        intervals=tuple(
            CoverageInterval(
                e_lo=iv["e_lo"],
                e_hi=iv["e_hi"],
                s0=_dec(iv["s0"]),
                t0=_dec(iv["t0"]),
                certified_min=_dec(iv["certified_min"]),
                lo_cert=_certificate_from(iv["lo_cert"]),
                hi_cert=_certificate_from(iv["hi_cert"]),
            )
            for iv in data["intervals"]
        ),
        gaps=tuple(GapEntry(e=g["e"], reason=g["reason"]) for g in data["gaps"]),
    )


def _target_json(t: TargetValue) -> dict:
    return {
        "dimension": t.dimension,
        "characteristic": t.characteristic,
        "value": _enc(t.value),
        "provenance": t.provenance,
    }


def _target_from(data: dict) -> TargetValue:
    return TargetValue(
        dimension=data["dimension"],
        characteristic=data["characteristic"],
        value=_dec(data["value"]),
        provenance=data["provenance"],
    )


def _proof_json(r: ProofReport) -> dict:
    return {
        "dimension": r.dimension,
        "k": r.k,
        "target": _target_json(r.target),
        "hypotheses": list(r.hypotheses),
        "cases": [
            {
                "kind": c.kind,
                "parameters": _enc(c.parameters),
                "certificate": None
                if c.certificate is None
                else _certificate_json(c.certificate),
                "citation": c.citation,
                "plan": None if c.plan is None else _plan_json(c.plan),
            }
            for c in r.cases
        ],
        "verdict": r.verdict,
    }


def _proof_from(data: dict) -> ProofReport:
    return ProofReport(
        dimension=data["dimension"],
        k=data["k"],
        target=_target_from(data["target"]),
        hypotheses=tuple(data["hypotheses"]),
        cases=tuple(
            CaseEntry(
                kind=c["kind"],
                parameters=_dec_dict(c["parameters"]),
                certificate=None
                if c["certificate"] is None
                else _certificate_from(c["certificate"]),
                citation=c["citation"],
                plan=None if c["plan"] is None else _plan_from(c["plan"]),
            )
            for c in data["cases"]
        ),
        verdict=data["verdict"],
    )


def _payload_json(payload) -> dict:
    if isinstance(payload, ScalarResult):
        return {"payload_kind": "scalar", "name": payload.name, "value": _enc(payload.value)}
    if isinstance(payload, TableResult):
        return {
            "payload_kind": "table",
            "name": payload.name,
            "columns": list(payload.columns),
            "rows": [_enc(r) for r in payload.rows],
        }
    if isinstance(payload, SeriesResult):
        return {
            "payload_kind": "series",
            "coefficients": [_enc(c) for c in payload.coefficients],
        }
    if isinstance(payload, Candidate):
        return {
            "payload_kind": "candidate",
            "s": payload.s,
            "t": payload.t,
            "value": payload.value,
            "s_exact": _enc(payload.s_exact),
            "t_exact": _enc(payload.t_exact),
        }
    if isinstance(payload, Certificate):
        return {"payload_kind": "certificate", **_certificate_json(payload)}
    if isinstance(payload, CoveragePlan):
        return {"payload_kind": "coverage-plan", **_plan_json(payload)}
    if isinstance(payload, ProofReport):
        return {"payload_kind": "proof-report", **_proof_json(payload)}
    if isinstance(payload, QuadricIdentityReport):
        return {
            "payload_kind": "quadric-identities",
            "decomposition_identity": payload.decomposition_identity,
            "derivative_identity": payload.derivative_identity,
            "derivative_negative": payload.derivative_negative,
            "strictly_decreasing": payload.strictly_decreasing,
            "sampled_parameters": list(payload.sampled_parameters),
        }
    if isinstance(payload, SurfaceGrid):
        return {
            "payload_kind": "surface",
            "objective": payload.objective,
            "s_axis": [_enc(v) for v in payload.s_axis],
            "t_axis": [_enc(v) for v in payload.t_axis],
            "values": [list(row) for row in payload.values],
        }
    raise TypeError(f"cannot serialize payload of type {type(payload).__name__}")


def _payload_from(data: dict):
    kind = data["payload_kind"]
    if kind == "scalar":
        return ScalarResult(name=data["name"], value=_dec(data["value"]))
    if kind == "table":
        return TableResult(
            name=data["name"],
            columns=tuple(data["columns"]),
            rows=tuple(_dec_dict(r) for r in data["rows"]),
        )
    if kind == "series":
        return SeriesResult(coefficients=tuple(_dec(c) for c in data["coefficients"]))
    if kind == "candidate":
        return Candidate(
            s=data["s"],
            t=data["t"],
            value=data["value"],
            s_exact=_dec(data["s_exact"]),
            t_exact=_dec(data["t_exact"]),
        )
    if kind == "certificate":
        return _certificate_from(data)
    if kind == "coverage-plan":
        return _plan_from(data)
    if kind == "proof-report":
        return _proof_from(data)
    if kind == "quadric-identities":
        return QuadricIdentityReport(
            decomposition_identity=data["decomposition_identity"],
            derivative_identity=data["derivative_identity"],
            derivative_negative=data["derivative_negative"],
            strictly_decreasing=data["strictly_decreasing"],
            sampled_parameters=tuple(data["sampled_parameters"]),
        )
    if kind == "surface":
        return SurfaceGrid(
            objective=dict(data["objective"]),
            s_axis=tuple(_dec(v) for v in data["s_axis"]),
            t_axis=tuple(_dec(v) for v in data["t_axis"]),
            values=tuple(tuple(row) for row in data["values"]),
        )
    raise ValueError(f"unknown payload kind {kind!r}")


# --------------------------------------------------------------------------
# Documents.


@dataclass(frozen=True)
class ReportDocument:
    schema_version: str
    command: str
    params: dict
    payload: object
    verdict: str | None = None
    timestamp: str | None = None

    @staticmethod
    def build(command: str, params: dict, payload, verdict=None, timestamp=True):
        return ReportDocument(
            schema_version=SCHEMA_VERSION,
            command=command,
            params=params,
            payload=payload,
            verdict=verdict,
            timestamp=datetime.now(timezone.utc).isoformat() if timestamp else None,
        )


def serialize(doc: ReportDocument) -> dict:
    return {
        "schema_version": doc.schema_version,
        "command": doc.command,
        "params": _enc(doc.params),
        "payload": _payload_json(doc.payload),
        "verdict": doc.verdict,
        "timestamp": doc.timestamp,
    }


def parse(data: dict) -> ReportDocument:
    return ReportDocument(
        schema_version=data["schema_version"],
        command=data["command"],
        params=_dec_dict(data["params"]),
        payload=_payload_from(data["payload"]),
        verdict=data["verdict"],
        timestamp=data["timestamp"],
    )


def dumps(doc: ReportDocument) -> str:
    return json.dumps(serialize(doc), indent=2, sort_keys=True)


def loads(text: str) -> ReportDocument:
    return parse(json.loads(text))


# --------------------------------------------------------------------------
# CSV / SVG renderings of surfaces.


def surface_csv(grid: SurfaceGrid) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["s", "t", "value"])
    for i, s in enumerate(grid.s_axis):
        for j, t in enumerate(grid.t_axis):
            writer.writerow(
                [repr(float(s)), repr(float(t)), repr(grid.values[i][j])]
            )
    return buf.getvalue()


def _color(u: float) -> str:
    # Dark blue -> yellow, two linear segments through teal.
    u = min(max(u, 0.0), 1.0)
    if u < 0.5:
        f = u / 0.5
        r, g, b = int(30 + 20 * f), int(40 + 140 * f), int(120 + 40 * f)
    else:
        f = (u - 0.5) / 0.5
        r, g, b = int(50 + 195 * f), int(180 + 50 * f), int(160 - 120 * f)
    return f"#{r:02x}{g:02x}{b:02x}"


def surface_svg(grid: SurfaceGrid, target: Fraction | None = None, cell: int = 5) -> str:
    """Filled heatmap of the surface; cells at or above the target get a
    contrasting outline so the target level set is visible."""
    ns, nt = len(grid.s_axis), len(grid.t_axis)
    lo = min(min(row) for row in grid.values)
    hi = max(max(row) for row in grid.values)
    span = (hi - lo) or 1.0
    width, height = nt * cell, ns * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- rows: s in [{float(grid.s_axis[0])}, {float(grid.s_axis[-1])}], "
        f"cols: t in [{float(grid.t_axis[0])}, {float(grid.t_axis[-1])}] -->",
    ]
    tgt = None if target is None else float(target)
    for i in range(ns):
        for j in range(nt):
            v = grid.values[i][j]
            fill = _color((v - lo) / span)
            # y axis points down; draw increasing s bottom-up.
            y = (ns - 1 - i) * cell
            rect = f'<rect x="{j * cell}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"'
            if tgt is not None and v > tgt:
                rect += ' stroke="#ff3333" stroke-width="0.5"'
            parts.append(rect + "/>")
    parts.append("</svg>")
    return "\n".join(parts)
