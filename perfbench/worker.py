"""Run one workload in this fresh process and print its result as JSON.

    python3 -m perfbench.worker --workload paper --seed 1 --seconds 10 --trace 0

``perfbench/run.py`` starts this module in new processes, with ``src`` on
``PYTHONPATH`` and the BLAS/OpenMP thread counts set to 1.  Set-up
(importing hkcert, generating inputs, warm-up) is timed from the first line
of this file.  The timed phase then runs rounds of the workload until
``--seconds`` of round time have passed; outputs are checked between
rounds, outside the timed phase.  With ``--trace 1`` the rounds alternate
between untraced and traced.  Times are reported in reference seconds
(see ``perfbench/calibration.py``).
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import calibration  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Timing:
    """One round's times with the kernel runs left out: as measured and in
    reference seconds."""

    write_s: float
    read_s: float
    write_ref_s: float
    read_ref_s: float
    read_in_wall: bool  # whether a user of the workload waits for the read side
    certs: int
    checked: int
    latencies: np.ndarray  # reverify calls, reference seconds

    @classmethod
    def of(cls, rnd, clock) -> "Timing":
        sides = [*rnd.write, *rnd.read]
        work, ref = clock.work(sides), clock.ref(sides)
        calls = clock.ref(np.reshape(rnd.calls, (-1, 2)))
        return cls(work[1] - work[0], work[3] - work[2], ref[1] - ref[0], ref[3] - ref[2],
                   rnd.read_in_wall, rnd.certs, rnd.checked, calls[:, 1] - calls[:, 0])

    def wall_s(self) -> float:
        """Time to solution, in reference seconds."""
        return self.write_ref_s + self.read_in_wall * self.read_ref_s


class Phase:
    """Rounds of one workload, each timed on a :class:`calibration.Clock`
    and checked as soon as it ends.

    Every round's outputs must equal those of ``reference`` (another phase's
    first round) or, without one, this phase's own first round.  ``own``
    sums the self times of the traced spans, in reference seconds.
    """

    def __init__(self, workload, tracer=None, reference=None):
        from perfbench.workloads import NO_TRACE

        self.workload = workload
        self.tracer = tracer or NO_TRACE
        self.reference = reference
        self.first = None  # the first round, kept for its outputs
        self.rounds: list[Timing] = []
        self.own: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float, min_rounds: int = 1) -> "Phase":
        spent = 0.0
        while len(self.rounds) < min_rounds or spent < seconds:
            spent += self.step()
        return self

    def step(self) -> float:
        """Run, check and keep one round; return its measured time."""
        mark = self.tracer.checkpoint()
        with calibration.Clock() as clock:
            rnd = self.workload.run_round(self.tracer, len(self.rounds))
        judged = self.tracer.checkpoint()
        self._judge(rnd)
        self.tracer.rewind(judged)  # the checks are not part of the trace
        self.own.update(self.tracer.self_times_since(mark, clock.ref))
        self.first = self.first or rnd
        timing = Timing.of(rnd, clock)
        self.rounds.append(timing)
        return timing.write_s + timing.read_s

    def _judge(self, rnd) -> None:
        per_op = self.workload.check(rnd, self.reference or self.first)
        self.attempted += len(per_op)
        for problems in per_op:
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append("; ".join(problems))

    def median(self, values) -> float:
        """Median over rounds of ``values(timing)``."""
        return statistics.median(map(values, self.rounds))

    def wall_s(self) -> float:
        """Median time to solution, in reference seconds."""
        return self.median(Timing.wall_s)

    def latencies(self) -> np.ndarray:
        """Every re-verification latency, in reference seconds."""
        return np.concatenate([r.latencies for r in self.rounds])

    def raw(self) -> dict:
        """Median time to solution as measured, and the median scale factor."""
        return {
            "wall_s": self.median(lambda r: r.write_s + r.read_in_wall * r.read_s),
            "scale": self.median(lambda r: (r.write_ref_s + r.read_ref_s) / (r.write_s + r.read_s)),
        }


def end_to_end(phase: Phase, setup_s: float) -> dict:
    lat = phase.latencies()
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (phase.wall_s(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "certs_written_per_s": (phase.median(lambda r: r.certs / r.write_ref_s), "1/s"),
        "certs_checked_per_s": (phase.median(lambda r: r.checked / r.read_ref_s), "1/s"),
        "verify_p50_us": (float(np.median(lat)) * 1e6, "us"),
    }


TIMED_LAYERS = (
    "volume.nu_exact", "search.nu_vector", "bounds.vector", "bounds.exact",
    "search.optimize_bound", "certify.certify_point", "certify.reverify_certificate",
    "report.dumps", "report.loads",
)
SELF_TIME_ONLY = ("certify.cover_range", "certify.prove_dimension", "targets", "cli.main")
PER_ROUND_COUNTS = {
    "search.nu_vector.points": "count",
    "bounds.vector.cells": "count",
    "certify.intervals": "count",
    "certify.gaps": "count",
    "report.dumps.bytes": "bytes",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-round calls, self times and counts from the traced phase."""
    n = len(traced.rounds)
    own = traced.own
    calls, counts = Counter(tracer.names), tracer.counts
    m = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / n, "count")
        m[f"{layer}.self_s"] = (own[layer] / n, "s")
    for layer in SELF_TIME_ONLY:
        m[f"{layer}.self_s"] = (own[layer] / n, "s")
    for name, unit in PER_ROUND_COUNTS.items():
        m[name] = (counts[name] / n, unit)
    m["certify.certified_ratio"] = (
        _ratio(counts["certify.certify_point.true"], calls["certify.certify_point"]), "ratio")
    m["certify.optimize_per_outcome"] = (
        _ratio(calls["search.optimize_bound"],
               counts["certify.intervals"] + counts["certify.gaps"]), "ratio")
    m["trace.overhead_frac"] = (statistics.median(
        t.wall_s() / u.wall_s() for t, u in zip(traced.rounds, untraced.rounds)
    ) - 1, "ratio")
    return m


def paired_phases(workload, tracer, seconds: float) -> tuple[Phase, Phase]:
    """Untraced and traced rounds in turn until ``seconds`` have passed.

    The tracer is installed around every traced round only.  Each traced
    round runs right after its untraced partner, so a slow drift of the
    machine's speed touches both alike; ``trace.overhead_frac`` is the
    median of the pairs' ratios.
    """
    untraced = Phase(workload)
    traced = None
    spent = 0.0
    while traced is None or spent < seconds:
        spent += untraced.step()
        traced = traced or Phase(workload, tracer, untraced.first)
        tracer.install()
        try:
            spent += traced.step()
        finally:
            tracer.uninstall()
    return untraced, traced


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            spans_path: Path | None = None) -> dict:
    """Set up, run and check one workload in this process."""
    from perfbench import workloads
    from perfbench.tracing import Tracer

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        workload = workloads.make(name, seed, size, scratch)
        workload.warm_up()
        raw_setup_s = perf_counter() - STARTED
        setup_s = raw_setup_s * calibration.scale()
        if not trace:
            # Two rounds at least: the second holds the first one's outputs
            # for comparison, so peak memory does not depend on the speed.
            phase = Phase(workload).run(seconds, min_rounds=2)
            metrics = end_to_end(phase, setup_s)
            phases = [phase]
        else:
            tracer = Tracer()
            untraced, traced = paired_phases(workload, tracer, seconds)
            metrics = per_layer(tracer, traced, untraced)
            if spans_path is not None:
                tracer.write(spans_path)
            phases = [untraced, traced]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": [len(p.rounds) for p in phases],
        "raw": {"setup_s": raw_setup_s, "phases": [p.raw() for p in phases]},
        "verify_samples": sum(len(p.latencies()) for p in phases),
        # Mean traced time to solution per round, on the self times' scale.
        "traced_wall_s": statistics.mean(map(Timing.wall_s, phases[-1].rounds)) if trace else None,
        "problems": [x for p in phases for x in p.problems],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import hkcert

    src = (Path.cwd() / "src").resolve()
    if Path(hkcert.__file__).resolve().parent.parent != src:
        print(f"error: hkcert imported from {hkcert.__file__}, not {src}", file=sys.stderr)
        return 2
    spans = OUT_DIR / f"spans-{args.workload}.csv" if args.trace else None
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
