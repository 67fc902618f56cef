"""Machine-readable reports: JSON documents, CSV surfaces, SVG heatmaps.

One rule writes every payload and reads it back.  A payload is a frozen
dataclass, written as ``{"payload_kind": tag, **fields}``: the tag comes
from ``_PAYLOAD_KINDS``, each field name is a JSON key, and the field's
declared type picks the value's form.  Each class's fields become one
list of (field, writer, reader), built once; writing loops over it, and
reading loops over it and calls the class's constructor with the fields.

- ``Fraction``: ``{"exact": "71/67", "float": 1.0597...}``.  The string is
  authoritative, the float is a human-reading aid.  The reader accepts only
  the lowest-terms string that ``str(Fraction)`` writes ("7/2", "-3", "0"),
  and rejects "2.5", "14/2", "+3" and the like with a ``ValueError``.
- ``dict``: value by value, Fractions as above and tuples as lists.
- A nested dataclass is written by the same rule, ``tuple[X, ...]`` as a
  list, and ``X | None`` as ``null`` or X's form.
- ``int``, ``str``, ``bool`` and ``float`` pass through.
- An ``objective`` field holds a bound descriptor and is kept verbatim.
- A gap run also reads the single-e gap ``{"e": n, "reason": r}`` of
  reports written before gaps became runs, as the run [n, n].

A :class:`ReportDocument` is written by the same rule; its ``payload`` field,
declared ``object``, holds any payload kind together with its tag.
``parse(serialize(doc))`` reproduces the document exactly for every payload
kind, and a field added to a payload dataclass needs no change here.
:func:`dumps` writes a document as one line of JSON with sorted keys.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .certify import Certificate, CoveragePlan, GapEntry, GapRun, ProofReport
from .search import Candidate, GridAxis, Objective, SearchParams
from .targets import QuadricIdentityReport
# _canonical is to_rational's read of the strings str(Fraction) writes.
from .volume import _canonical

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


def _fraction_json(value: Fraction) -> dict:
    # numerator / denominator is the correctly rounded quotient that
    # float(value) returns, without the method call.
    return {"exact": str(value), "float": value.numerator / value.denominator}


def _enc(value):
    """Recursively encode a value of a ``dict`` field for JSON."""
    # Fraction is an ABC, so isinstance would call __instancecheck__ for
    # every other value; no hkcert code subclasses it.
    if type(value) is Fraction:
        return _fraction_json(value)
    if isinstance(value, dict):
        return {k: _enc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_enc(v) for v in value]
    return value


def _fraction(text: str) -> Fraction:
    """The Fraction whose ``str`` is ``text``, read as
    :func:`~hkcert.volume.to_rational` reads such strings."""
    value = _canonical(text) if type(text) is str else None
    if value is None:
        raise ValueError(f"not an exact fraction in lowest terms: {text!r}")
    return value


_FRACTION_KEYS = frozenset(("exact", "float"))


def _dec(value):
    """Inverse of :func:`_enc`; tuples come back as tuples."""
    if isinstance(value, dict):
        if value.keys() == _FRACTION_KEYS:
            return _fraction(value["exact"])
        return {k: _dec(v) for k, v in value.items()}
    if isinstance(value, list):
        return tuple(_dec(v) for v in value)
    return value


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


def surface_grid(objective: Objective, params: SearchParams) -> SurfaceGrid:
    """Evaluate ``objective`` on the grid of ``params`` (float fast path).

    The grid nodes are exact rationals, the same construction the optimizer
    scans, so a grid maximum matches an unrefined optimizer run with the
    same ``params``.
    """
    s_lo, s_hi = params.resolved_s_range(objective.dimension)
    t_lo, t_hi = params.t_range
    ns, nt = params.grid
    s_axis = GridAxis(s_lo, s_hi, ns, params.max_denominator)
    t_axis = GridAxis(t_lo, t_hi, nt, params.max_denominator)
    vals = objective.vector(s_axis, t_axis)
    return SurfaceGrid(
        objective=objective.descriptor(),
        s_axis=s_axis.nodes(),
        t_axis=t_axis.nodes(),
        values=tuple(tuple(float(v) for v in row) for row in vals),
    )


# --------------------------------------------------------------------------
# The one JSON rule.

_PAYLOAD_KINDS = {
    "scalar": ScalarResult,
    "table": TableResult,
    "series": SeriesResult,
    "candidate": Candidate,
    "certificate": Certificate,
    "coverage-plan": CoveragePlan,
    "proof-report": ProofReport,
    "quadric-identities": QuadricIdentityReport,
    "surface": SurfaceGrid,
}
_KIND_OF = {cls: kind for kind, cls in _PAYLOAD_KINDS.items()}


def _write_payload(payload) -> dict:
    kind = _KIND_OF.get(type(payload))
    if kind is None:
        raise TypeError(f"cannot serialize payload of type {type(payload).__name__}")
    return {"payload_kind": kind, **_codec(type(payload))[0](payload)}


def _read_payload(data: dict):
    cls = _PAYLOAD_KINDS.get(data["payload_kind"])
    if cls is None:
        raise ValueError(f"unknown payload kind {data['payload_kind']!r}")
    return _codec(cls)[1](data)


def _dataclass_codec(cls):
    """The writer and the reader of ``cls``, each one loop over its fields."""
    hints = get_type_hints(cls)
    plan = []  # (name, writer, reader); None for a value kept as it is
    for f in fields(cls):
        hint = hints[f.name]
        if get_origin(hint) is UnionType and NoneType in get_args(hint):
            # X | None takes X's form: every field writes None as null.
            (hint,) = [a for a in get_args(hint) if a is not NoneType]
        codec = None if f.name == "objective" else _codec(hint)
        plan.append((f.name, *(codec or (None, None))))

    def write(value) -> dict:
        out = {}
        for name, writer, _ in plan:
            v = getattr(value, name)
            out[name] = v if v is None or writer is None else writer(v)
        return out

    def read(data: dict):
        kwargs = {}
        for name, _, reader in plan:
            v = data[name]
            kwargs[name] = v if v is None or reader is None else reader(v)
        return cls(**kwargs)

    return write, read


@cache
def _codec(tp):
    """The (writer, reader) pair for values of the declared type ``tp``, or
    None for values that JSON holds as they are."""
    if tp in (int, str, bool, float, NoneType):
        return None
    if tp is Fraction:
        return _fraction_json, lambda data: _fraction(data["exact"])
    if tp is dict:
        return _enc, _dec
    if tp is object:  # ReportDocument.payload: any payload kind, tagged
        return _write_payload, _read_payload
    if tp is GapRun:  # reports written before gap runs hold {"e", "reason"}
        write, read = _dataclass_codec(tp)
        return write, lambda data: GapEntry(**data) if "e" in data else read(data)
    if is_dataclass(tp):
        return _dataclass_codec(tp)
    args = get_args(tp)
    if get_origin(tp) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _codec(args[0])
        if item is None:
            return list, tuple
        write, read = item
        return (lambda v: [write(x) for x in v]), (lambda v: tuple([read(x) for x in v]))
    raise TypeError(f"no JSON form for type {tp!r}")


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
    return _codec(ReportDocument)[0](doc)


def parse(data: dict) -> ReportDocument:
    return _codec(ReportDocument)[1](data)


def dumps(doc: ReportDocument) -> str:
    return json.dumps(serialize(doc), sort_keys=True)


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
