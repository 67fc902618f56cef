"""The benchmark's workloads: inputs, one round of operations, output checks.

Every workload is a closed loop of one client in one process: an operation
starts when the previous one has returned, with ``workers=1`` and the
default ``SearchParams``.  A round has a write side, where the program
produces certificates, and a read side, where ``report.loads`` and
``reverify_certificate`` check every certificate written.

* ``paper`` and ``gaps_d10`` run CLI commands through ``hkcert.cli.main``.
  Their write side is the commands; their read side re-verifies the JSON
  reports the commands wrote, ``read_passes`` times over so that the
  re-verification latency has enough samples.  The commands are fixed by
  the paper, so these workloads ignore the seed.
* ``check`` certifies random rational witnesses drawn from the seed, writes
  them as coverage-plan documents and reads them back.  There is no search.

The program is called through module attributes (``certify.certify_point``,
never a name imported from it), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from hkcert import bounds, certify, cli, report, targets

from .tracing import gap_values

D7_TARGET = Fraction(71, 67)
D8_TARGET = Fraction(8341, 8064)
D10_TARGET = Fraction(3679321, 3628800)  # 1 + m_10


@dataclass
class Round:
    """What one round produced, and when its parts ran: ``perf_counter()``
    times at the start and end of each."""

    outputs: list  # one comparable output per operation
    errors: list  # per operation: "" or why it failed while running
    write: tuple  # the write side
    read: tuple  # the read side
    read_in_wall: bool  # whether a user of the workload waits for the read side
    certs: int  # certificates written
    checked: int  # certificate re-verifications
    calls: list  # every reverify_certificate call


class _NoTrace:
    """Stands in for a Tracer in untraced rounds."""

    def begin_op(self, op_id: str) -> None:
        pass

    def checkpoint(self) -> None:
        return None

    def rewind(self, checkpoint) -> None:
        pass

    def self_times_since(self, checkpoint, to_time) -> dict:
        return {}


NO_TRACE = _NoTrace()


# --------------------------------------------------------------------------
# Output checks shared by the CLI workloads.


def tiling_problems(plan) -> list[str]:
    """Intervals plus gaps must cover [e_lo, e_hi], each integer once."""
    marks = sorted(
        [(iv.e_lo, iv.e_hi) for iv in plan.intervals]
        + [(v, v) for g in plan.gaps for v in gap_values(g)]
    )
    cursor = plan.e_lo
    for lo, hi in marks:
        if lo != cursor or hi < lo:
            return [f"intervals and gaps do not tile [{plan.e_lo}, {plan.e_hi}] at e={cursor}"]
        cursor = hi + 1
    if cursor != plan.e_hi + 1:
        return [f"intervals and gaps stop at e={cursor - 1}, not {plan.e_hi}"]
    return []


def plan_problems(plan, gaps: set[int]) -> list[str]:
    """Tiling, certified intervals, and the expected gap multiplicities."""
    problems = tiling_problems(plan)
    for iv in plan.intervals:
        if not (iv.lo_cert.verdict and iv.hi_cert.verdict):
            problems.append(f"interval [{iv.e_lo}, {iv.e_hi}] has a false verdict")
        if iv.certified_min != min(iv.lo_cert.value, iv.hi_cert.value):
            problems.append(f"interval [{iv.e_lo}, {iv.e_hi}] misstates its minimum")
    found = {v for g in plan.gaps for v in gap_values(g)}
    if found != gaps:
        problems.append(f"gap set {_runs(found)} != expected {_runs(gaps)}")
    return problems


def _runs(values) -> str:
    runs: list[list[int]] = []
    for v in sorted(values):
        if runs and runs[-1][1] == v - 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return "{" + ", ".join(f"{a}..{b}" if a != b else f"{a}" for a, b in runs) + "}"


def certificates_of(payload) -> list:
    """Every certificate inside a report payload."""
    if isinstance(payload, certify.CoveragePlan):
        return [c for iv in payload.intervals for c in (iv.lo_cert, iv.hi_cert)]
    if isinstance(payload, certify.ProofReport):
        out = []
        for case in payload.cases:
            if case.certificate is not None:
                out.append(case.certificate)
            if case.plan is not None:
                out.extend(certificates_of(case.plan))
        return out
    return []


def expect_table1(doc) -> list[str]:
    rows = doc.payload.rows
    problems = []
    if [r["e"] for r in rows] != list(range(6, 13)):
        problems.append("table1 rows are not e = 6..12")
    for r in rows:
        found = bounds.h_bound(r["e"], r["s_found"], r["t_found"], 7)
        if found != r["value_found"]:
            problems.append(f"table1 e={r['e']}: value_found does not re-evaluate")
        if not r["exceeds_target"] or not found > D7_TARGET:
            problems.append(f"table1 e={r['e']}: search value does not exceed 71/67")
    return problems


def expect_plan(verdict: str, gaps=()) -> Callable:
    def check(doc) -> list[str]:
        problems = plan_problems(doc.payload, set(gaps))
        if doc.verdict != verdict:
            problems.append(f"verdict {doc.verdict!r} != {verdict!r}")
        return problems

    return check


def expect_proof(verdict: str, gaps=(), ladder_gaps=()) -> Callable:
    """``gaps``: uncovered multiplicities; ``ladder_gaps``: the other gap
    cases, by their parameters."""

    def check(doc) -> list[str]:
        proof = doc.payload
        problems = []
        if doc.verdict != verdict or proof.verdict != verdict:
            problems.append(f"verdict {doc.verdict!r} != {verdict!r}")
        plans = [c.plan for c in proof.cases if c.kind == "coverage"]
        if len(plans) != 1:
            return problems + [f"{len(plans)} coverage cases, expected 1"]
        problems += plan_problems(plans[0], set(gaps))
        covered = {v for g in plans[0].gaps for v in gap_values(g)}
        ladder = sorted(
            sorted(c.parameters.items())
            for c in proof.cases
            if c.kind == "gap" and not set(_case_values(c)) <= covered
        )
        expected = sorted(sorted(p.items()) for p in ladder_gaps)
        if ladder != expected:
            problems.append(f"ladder gaps {ladder} != expected {expected}")
        return problems

    return check


def _case_values(case) -> list[int]:
    p = case.parameters
    if set(p) == {"e"}:
        return [p["e"]]
    if set(p) == {"e_lo", "e_hi"}:
        return list(range(p["e_lo"], p["e_hi"] + 1))
    return [-1]  # not a coverage gap


# --------------------------------------------------------------------------
# CLI workloads.


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expect: Callable  # ReportDocument -> list of problems


PAPER_OPS = (
    CliOp(("table1",), expect_table1),
    CliOp(("table2",), expect_plan("complete")),
    CliOp(("prove", "--dim", "7", "--k", "1"), expect_proof("proved")),
    CliOp(
        ("cover", "--dim", "8", "--k", "4", "--e-lo", "6", "--e-hi", "41705",
         "--target", str(D8_TARGET)),
        expect_plan("gaps", gaps=range(6, 21)),
    ),
)

GAPS_D10_OPS = (
    CliOp(
        ("prove", "--dim", "10", "--k", "5"),
        expect_proof(
            "open",
            gaps=range(6, 250),
            ladder_gaps=({"e": 6, "mu": 3}, {"mu_lo": 4, "mu_hi": 5}),
        ),
    ),
)

# Reduced runs for the benchmark's own tests, with their recorded results.
TINY_OPS = {
    "paper": PAPER_OPS[:2],
    "gaps_d10": (
        CliOp(
            ("cover", "--dim", "10", "--k", "5", "--e-lo", "240", "--e-hi", "400",
             "--target", str(D10_TARGET)),
            expect_plan("gaps", gaps=range(240, 250)),
        ),
    ),
}

WARM_UP_ARGV = ("optimize", "--e", "7", "--grid", "20x10", "--rounds", "1")


class CliWorkload:
    """CLI commands run in turn; each writes a JSON report to ``scratch``."""

    def __init__(self, name: str, ops, read_passes: int, scratch: Path):
        self.name = name
        self.ops = tuple(ops)
        self.read_passes = read_passes
        self.scratch = scratch
        self.paths = [scratch / f"{name}-{i}.json" for i in range(len(self.ops))]

    def warm_up(self) -> None:
        path = self.scratch / "warm-up.json"
        _run_cli(WARM_UP_ARGV, path)
        report.loads(path.read_text())

    def run_round(self, tracer=NO_TRACE, round_no: int = 0) -> Round:
        results = []
        start = perf_counter()
        for i, (op, path) in enumerate(zip(self.ops, self.paths)):
            tracer.begin_op(f"{round_no}:{i}")
            results.append(_run_cli(op.argv, path))
        write = (start, perf_counter())
        outputs, errors = [], []
        for (code, stdout, stderr), path in zip(results, self.paths):
            body = path.read_text() if path.exists() else ""
            path.unlink(missing_ok=True)
            if code != 0:
                errors.append(f"exit {code}: {stderr.strip()}")
            else:
                errors.append("" if body else "no JSON report written")
            outputs.append((code, stdout, body))

        # The read side is the benchmark re-checking the reports; it is not
        # part of wall_s, so it is left out of the trace as well.
        mark = tracer.checkpoint()
        verified: list = [[] for _ in self.ops]
        calls = []
        start = perf_counter()
        for n in range(self.read_passes):
            for i, (_, _, body) in enumerate(outputs):
                if errors[i]:
                    continue
                doc = report.loads(body)
                for cert in certificates_of(doc.payload):
                    t0 = perf_counter()
                    ok = certify.reverify_certificate(cert)
                    calls.append((t0, perf_counter()))
                    if n == 0:
                        verified[i].append(ok)
        read = (start, perf_counter())
        tracer.rewind(mark)
        certs = sum(len(v) for v in verified)
        outputs = [out + (tuple(v),) for out, v in zip(outputs, verified)]
        return Round(outputs, errors, write, read, False, certs,
                     certs * self.read_passes, calls)

    def check(self, rnd: Round, reference: Round | None) -> list[list[str]]:
        """Problems per operation; outputs must also equal ``reference``'s."""
        problems = []
        for i, (op, error, out) in enumerate(zip(self.ops, rnd.errors, rnd.outputs)):
            if error:
                problems.append([error])
                continue
            try:
                found = op.expect(report.loads(out[2]))
            except Exception as exc:  # a malformed report fails its check
                found = [f"report does not check: {type(exc).__name__}: {exc}"]
            if not all(out[3]):
                found.append(f"{out[3].count(False)} certificate(s) fail to re-verify")
            if reference is not None and out != reference.outputs[i]:
                found.append("output differs from the reference round")
            problems.append(found)
        return problems


def _run_cli(argv, path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--json", str(path), "--no-timestamp"])
        except Exception as exc:  # an operation that raises has failed
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# The check workload.

CHECK_DIMENSIONS = range(7, 13)
CHECK_ROOTS = range(1, 5)
CHECK_MAX_DENOMINATOR = 10**6
CHECK_MAX_RUN = 80  # multiplicities per interval, at most


@dataclass(frozen=True)
class CheckInterval:
    d: int
    k: int
    e_lo: int
    e_hi: int
    s: Fraction
    t: Fraction


def _stratified(rng: random.Random, n: int, hi: int) -> list[Fraction]:
    """n random rationals in [0, hi], one in each of n equal slices, shuffled.

    Denominators are at most 10^6.  One value per slice keeps the spread of
    values, and so the amount of work, the same from seed to seed.
    """
    out = []
    for m in range(n):
        q = rng.randint(1, CHECK_MAX_DENOMINATOR)
        top = (m + 1) * hi * q // n
        out.append(Fraction(rng.randint(min(-(-m * hi * q // n), top), top), q))
    rng.shuffle(out)
    return out


def check_inputs(seed: int, per_group: int) -> list[CheckInterval]:
    """``per_group`` intervals for each (d, k), tiling e upward from 6.

    Witnesses are random rationals with denominators up to 10^6: s in
    [0, d + 1] and t in [0, 1], each stratified over its range.
    """
    rng = random.Random(seed)
    out = []
    for d in CHECK_DIMENSIONS:
        for k in CHECK_ROOTS:
            e = max(6, k + 3)  # the bound family needs mu = e - 2 >= k + 1
            witnesses = zip(_stratified(rng, per_group, d + 1), _stratified(rng, per_group, 1))
            for s, t in witnesses:
                run = rng.randint(1, CHECK_MAX_RUN)
                out.append(CheckInterval(d, k, e, e + run - 1, s, t))
                e += run
    return out


def _objective(d: int, e: int, k: int):
    # The worst generator count mu = e - 2, as the covering uses it.
    if k == 1:
        return bounds.HBoundObjective(e, d)
    return bounds.GeneralBoundObjective(bounds.BoundSpec(d, e, e - 2, k))


class CheckWorkload:
    """Certify, write, read and re-verify coverage plans; no search."""

    def __init__(self, seed: int, per_group: int):
        self.intervals = check_inputs(seed, per_group)
        self.targets = {d: targets.wy_target(d).value for d in CHECK_DIMENSIONS}
        groups: dict[tuple[int, int], list[int]] = {}
        for i, iv in enumerate(self.intervals):
            groups.setdefault((iv.d, iv.k), []).append(i)
        self.groups = list(groups.items())

    def warm_up(self) -> None:
        CheckWorkload(seed=0, per_group=1).run_round()

    def run_round(self, tracer=NO_TRACE, round_no: int = 0) -> Round:
        # Certificate j = 2 i (lower end) or 2 i + 1 (upper end) of interval i;
        # its certify and reverify spans share the operation id "c<j>".
        n = len(self.intervals)
        errors = [""] * (2 * n)
        written: list = [None] * n
        start = perf_counter()
        for i, iv in enumerate(self.intervals):
            target = self.targets[iv.d]
            try:
                tracer.begin_op(f"{round_no}:c{2 * i}")
                lo = certify.certify_point(_objective(iv.d, iv.e_lo, iv.k), iv.s, iv.t, target)
                tracer.begin_op(f"{round_no}:c{2 * i + 1}")
                hi = certify.certify_point(_objective(iv.d, iv.e_hi, iv.k), iv.s, iv.t, target)
            except Exception as exc:  # an operation that raises has failed
                errors[2 * i] = errors[2 * i + 1] = f"{type(exc).__name__}: {exc}"
                continue
            written[i] = certify.CoverageInterval(
                iv.e_lo, iv.e_hi, iv.s, iv.t, min(lo.value, hi.value), lo, hi
            )
        docs, texts, members = [], [], []
        for g, ((d, k), idx) in enumerate(self.groups):
            tracer.begin_op(f"{round_no}:doc{g}")
            kept = [i for i in idx if written[i] is not None]
            plan = certify.CoveragePlan(
                dimension=d, k=k, target=self.targets[d],
                e_lo=self.intervals[idx[0]].e_lo, e_hi=self.intervals[idx[-1]].e_hi,
                intervals=tuple(written[i] for i in kept), gaps=(),
            )
            docs.append(report.ReportDocument.build("cover", {"dim": d, "k": k}, plan,
                                                    timestamp=False))
            texts.append(report.dumps(docs[-1]))
            members.append(kept)
        write = (start, perf_counter())

        loaded, calls = [], []
        verified = [False] * (2 * n)
        start = perf_counter()
        for g, text in enumerate(texts):
            tracer.begin_op(f"{round_no}:doc{g}")
            loaded.append(report.loads(text))
            for i, iv in zip(members[g], loaded[-1].payload.intervals):
                for j, cert in ((2 * i, iv.lo_cert), (2 * i + 1, iv.hi_cert)):
                    tracer.begin_op(f"{round_no}:c{j}")
                    t0 = perf_counter()
                    verified[j] = certify.reverify_certificate(cert)
                    calls.append((t0, perf_counter()))
        read = (start, perf_counter())

        # Outside the timed sides: what came back must be what was written.
        for kept, doc, back in zip(members, docs, loaded):
            same = back == doc
            for j in (j for i in kept for j in (2 * i, 2 * i + 1)):
                if not verified[j]:
                    errors[j] = errors[j] or "certificate fails to re-verify"
                elif not same:
                    errors[j] = errors[j] or "loads(dumps(doc)) != doc"
        return Round(texts, errors, write, read, True, 2 * n, len(calls), calls)

    def check(self, rnd: Round, reference: Round | None) -> list[list[str]]:
        """Problems per certificate; a document that differs from
        ``reference``'s marks every certificate in it."""
        problems = [[e] if e else [] for e in rnd.errors]
        if reference is not None:
            for g, (_, idx) in enumerate(self.groups):
                if rnd.outputs[g] != reference.outputs[g]:
                    for i in idx:
                        problems[2 * i].append("output differs from the reference round")
                        problems[2 * i + 1].append("output differs from the reference round")
        return problems


# --------------------------------------------------------------------------

SIZES = ("full", "tiny")
WORKLOADS = ("paper", "gaps_d10", "check")
CLI_OPS = {"paper": PAPER_OPS, "gaps_d10": GAPS_D10_OPS}

CHECK_PER_GROUP = {"full": 125, "tiny": 2}  # 24 (d, k) groups
READ_PASSES = {"paper": 20, "gaps_d10": 40}


def make(name: str, seed: int, size: str, scratch: Path):
    """Build workload ``name``; inputs depend only on ``seed`` and ``size``."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if name == "check":
        return CheckWorkload(seed, CHECK_PER_GROUP[size])
    if name in CLI_OPS:
        ops = TINY_OPS[name] if size == "tiny" else CLI_OPS[name]
        return CliWorkload(name, ops, READ_PASSES[name], scratch)
    raise ValueError(f"unknown workload {name!r}")
