"""In-memory spans around hkcert's layers, recorded from outside the program.

:meth:`Tracer.install` wraps every public function of ``hkcert.volume``,
``bounds``, ``search``, ``certify``, ``targets``, ``report`` and ``cli``,
plus the ``exact`` and ``vector`` methods of the bound objectives.  Each
wrapper is bound wherever the original is looked up: in the defining module,
in every ``hkcert`` module that imported it by name (``nu_exact`` lives in
``hkcert.bounds`` and ``hkcert.certify`` too) and in the package namespace.
Nothing inside the program changes.

A span records its name, start, end, parent span and the id of the operation
(one CLI command or one certificate) it belongs to.  Several functions share
one span name when they are one layer: a call made inside an open span of the
same name folds into it instead of opening a child, so ``Objective.exact``
calling ``h_bound`` is one ``bounds.exact`` span.  The tracer is for one
thread; the benchmark runs with ``workers=1``.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("volume", "bounds", "search", "certify", "targets", "report", "cli")

# Public functions left unwrapped, with the reason.
UNTRACED = {
    # Scalar coercion called inside nearly every other layer function; a span
    # around it would cost more than the work it does.
    "volume.to_rational": "scalar coercion inside every layer",
}

# Span names that differ from "<layer>.<function>".
SPAN_NAMES = {
    "bounds.noroots_bound": "bounds.exact",
    "bounds.general_bound": "bounds.exact",
    "bounds.s_bound": "bounds.exact",
    "bounds.h_bound": "bounds.exact",
    "bounds.quadratic_in_e": "bounds.exact",
    "bounds.e_max": "bounds.exact",
    "bounds.range_min": "bounds.exact",
    "bounds.mu_small_bound": "bounds.exact",
    "bounds.not_normal_bound": "bounds.exact",
    "certify.objective_from_descriptor": "certify.reverify_certificate",
    "report.serialize": "report.dumps",
    "report.parse": "report.loads",
}

# Every public function of these layers is one span name.
LAYER_SPAN_NAMES = {"targets": "targets", "cli": "cli.main"}

# Methods of the bound objective classes in hkcert.bounds.
METHOD_SPAN_NAMES = {"exact": "bounds.exact", "vector": "bounds.vector"}


def _count_points(counts, args, out):
    counts["search.nu_vector.points"] += getattr(args[0], "size", 1)


def _count_cells(counts, args, out):
    counts["bounds.vector.cells"] += len(args[1]) * len(args[2])


def _count_bytes(counts, args, out):
    counts["report.dumps.bytes"] += len(out)


def _count_verdict(counts, args, out):
    counts["certify.certify_point.true"] += bool(out.verdict)


def gap_values(gap) -> range:
    """Multiplicities one gap record stands for (a single e, or a run)."""
    if hasattr(gap, "e"):
        return range(gap.e, gap.e + 1)
    return range(gap.e_lo, gap.e_hi + 1)


def _count_outcomes(counts, args, out):
    counts["certify.intervals"] += len(out.intervals)
    counts["certify.gaps"] += sum(len(gap_values(g)) for g in out.gaps)


# Counters read from a recorded span's arguments and result, keyed by
# "<layer>.<function>" (or the span name, for the objective methods).
COUNTERS = {
    "search.nu_vector": _count_points,
    "bounds.vector": _count_cells,
    "report.dumps": _count_bytes,
    "certify.certify_point": _count_verdict,
    "certify.cover_range": _count_outcomes,
}


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def span_name(layer: str, function: str) -> str | None:
    """Span name for ``hkcert.<layer>.<function>``; None if left untraced."""
    key = f"{layer}.{function}"
    if key in UNTRACED:
        return None
    return SPAN_NAMES.get(key) or LAYER_SPAN_NAMES.get(layer) or key


def objective_classes():
    """Classes of hkcert.bounds that carry traced methods."""
    bounds = importlib.import_module("hkcert.bounds")
    for obj in vars(bounds).values():
        if isinstance(obj, type) and obj.__module__ == bounds.__name__:
            if any(m in vars(obj) for m in METHOD_SPAN_NAMES):
                yield obj


class Tracer:
    """Spans kept in parallel lists; one tracer per process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[str] = []
        self.counts: Counter = Counter()
        self.op = ""
        self.wrapped: dict = {}  # original function -> wrapper
        self._open: list[tuple[int, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: str) -> None:
        """Tag the spans that follow with the operation id ``op_id``."""
        self.op = op_id

    def checkpoint(self) -> tuple[int, Counter]:
        return len(self.names), Counter(self.counts)

    def rewind(self, checkpoint: tuple[int, Counter]) -> None:
        """Forget the spans and counts recorded since ``checkpoint``."""
        n, counts = checkpoint
        for series in (self.names, self.starts, self.ends, self.parents, self.ops):
            del series[n:]
        self.counts = counts

    def self_times_since(self, checkpoint, to_time) -> dict[str, float]:
        """Self times of the spans recorded since ``checkpoint``, on the time
        line ``to_time`` maps ``perf_counter()`` times to."""
        n = checkpoint[0]
        starts = to_time(self.starts[n:]).tolist()
        ends = to_time(self.ends[n:]).tolist()
        return self_times(self.names[n:], starts, ends, [p - n for p in self.parents[n:]])

    def wrap(self, name: str, fn, counter=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, open_spans = self.parents, self.ops, self._open

        def traced(*args, **kwargs):
            if open_spans and open_spans[-1][1] == name:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(open_spans[-1][0] if open_spans else -1)
            ops.append(self.op)
            ends.append(0.0)
            open_spans.append((index, name))
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_spans.pop()
            if counter is not None:
                counter(self.counts, args, out)
            return out

        functools.update_wrapper(traced, fn)
        self.wrapped[fn] = traced
        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind them wherever they are bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"hkcert.{layer}")
            for function, fn in public_functions(module):
                name = span_name(layer, function)
                if name is not None and fn not in self.wrapped:
                    self.wrap(name, fn, COUNTERS.get(f"{layer}.{function}"))
        for cls in objective_classes():
            for method, name in METHOD_SPAN_NAMES.items():
                fn = vars(cls).get(method)
                if fn is not None:
                    self._restore.append((cls, method, fn))
                    setattr(cls, method, self.wrap(name, fn, COUNTERS.get(name)))
        for module in hkcert_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapper_for(value)
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrapper_for(self, value):
        try:
            return self.wrapped.get(value)
        except TypeError:  # unhashable module global
            return None

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [i, name, f"{self.starts[i] - origin:.9f}",
                     f"{self.ends[i] - origin:.9f}", self.parents[i], self.ops[i]]
                )


def hkcert_modules():
    """Every loaded module of the hkcert package, the package included."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "hkcert" or name.startswith("hkcert."))
    ]


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover.

    Children may overlap each other or stick out of their parent; only the
    part of the parent's interval covered by at least one child is removed.
    """
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    totals: dict[str, float] = defaultdict(float)
    for index, name in enumerate(names):
        lo, hi = starts[index], ends[index]
        covered, cursor = 0.0, lo
        for a, b in sorted((starts[c], ends[c]) for c in children.get(index, ())):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        totals[name] += (hi - lo) - covered
    return dict(totals)
