"""Exact certification of bound inequalities and per-dimension proof reports.

A Certificate pins a strict inequality ``bound(s, t) > target`` at an exact
rational witness: anyone can re-evaluate the stored objective at the stored
point and reproduce the stored value bit for bit.  CoveragePlan strings
certificates together to cover whole integer ranges of the multiplicity e
(sound because the bound family is concave in e), and ProofReport assembles
the full case ladder for one dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf, nextafter
from typing import Mapping

from .bounds import (
    BoundSpec,
    GeneralBoundObjective,
    HBoundObjective,
    LinearBound,
    MuSmallObjective,
    last_above,
    not_normal_bound,
    quadratic_in_e,
)
from .search import Candidate, Objective, SearchParams, optimize_bound, optimize_bounds
from .targets import TargetValue, dimension_target, large_e_threshold
# nu_exact is imported by name for perfbench, whose tracer test checks that
# the tracer rebinds it in this module too.
from .volume import _check_dimension, _fact, nu_exact, to_rational  # noqa: F401

__all__ = [
    "Certificate",
    "certify_point",
    "reverify_certificate",
    "objective_from_descriptor",
    "CoverageInterval",
    "GapRun",
    "CoveragePlan",
    "cover_range",
    "CaseEntry",
    "ProofReport",
    "prove_dimension",
    "CITED_E_MAX",
]

# Largest Hilbert-Samuel multiplicity settled by prior published results;
# everything above enters the numeric pipeline.
CITED_E_MAX = 5


def _general(d, e, mu, k, extra) -> Objective:
    # Every general descriptor holds an empty ``extra``; no bound reads any
    # other.
    if extra != []:
        raise ValueError(f"a general bound takes no extra order values, got extra={extra!r}")
    return GeneralBoundObjective(BoundSpec(d, e, mu, k))


# The constructor of each descriptor kind; the other keys are its arguments.
_FAMILIES = {
    "h": HBoundObjective,
    "general": _general,
    "mu-small": MuSmallObjective,
}


def objective_from_descriptor(desc: Mapping) -> Objective:
    """Rebuild a search objective by calling its family's constructor with
    the descriptor's keys other than ``kind``."""
    params = dict(desc)
    kind = params.pop("kind", None)
    if kind not in _FAMILIES:
        raise ValueError(f"unknown objective kind {kind!r}")
    return _FAMILIES[kind](**params)


@dataclass(frozen=True)
class Certificate:
    """Exact witness for a strict inequality against a rational target."""

    objective: dict
    s: Fraction
    t: Fraction
    value: Fraction
    target: Fraction
    verdict: bool


def certify_point(objective: Objective, s, t, target) -> Certificate:
    """Evaluate ``objective`` exactly at rational (s, t) and compare to target."""
    s, t, target = to_rational(s), to_rational(t), to_rational(target)
    value = objective.exact(s, t)
    return Certificate(
        objective=objective.descriptor(),
        s=s,
        t=t,
        value=value,
        target=target,
        verdict=value > target,
    )


def reverify_certificate(cert: Certificate) -> bool:
    """Recompute the certificate from its serialized objective alone.

    True iff the rebuilt objective writes the stored descriptor back (so a
    default filled in or ``"e": "14/2"`` fails), its exact re-evaluation
    reproduces the stored value bit for bit, and the stored verdict matches
    the exact comparison.  The re-evaluation may take its slice volumes
    from the bounds' memo of recent witnesses; a hit there returns what
    recomputing :func:`~hkcert.volume.nu_exact` from the same exact
    integers gives, and never reads a stored certificate value.
    """
    objective = objective_from_descriptor(cert.objective)
    if objective.descriptor() != cert.objective:
        return False
    value = objective.exact(cert.s, cert.t)
    return value == cert.value and cert.verdict == (value > cert.target)


# --------------------------------------------------------------------------
# Range coverage.

def _float_floor(x: Fraction) -> float:
    """The largest double at most x: float(x) rounds to nearest, which may
    lie above x."""
    f = float(x)
    return f if f <= x else nextafter(f, -inf)


# The largest block of multiplicities a covering optimizes at once while
# it finds only gaps (see cover_range); a block's scan arrays, and the axes
# its boxes keep cached with their volumes, grow with it.
_GAP_BLOCK = 16


@dataclass(frozen=True)
class CoverageInterval:
    """One certified run of integer multiplicities [e_lo, e_hi].

    Both endpoint bounds at the shared witness (s0, t0) exceed the target;
    concavity in e extends that to every integer in between.
    """

    e_lo: int
    e_hi: int
    s0: Fraction
    t0: Fraction
    certified_min: Fraction
    lo_cert: Certificate
    hi_cert: Certificate


@dataclass(frozen=True)
class GapRun:
    """A maximal run [e_lo, e_hi] of uncertified multiplicities, and why."""

    e_lo: int
    e_hi: int
    reason: str


def GapEntry(e: int, reason: str) -> GapRun:
    """The run of the single multiplicity e, as older reports stored gaps."""
    return GapRun(e, e, reason)


@dataclass(frozen=True)
class CoveragePlan:
    dimension: int
    k: int
    target: Fraction
    e_lo: int
    e_hi: int
    intervals: tuple[CoverageInterval, ...]
    gaps: tuple[GapRun, ...]

    @property
    def complete(self) -> bool:
        return not self.gaps

    def covered_or_gapped(self) -> bool:
        """Every integer in [e_lo, e_hi] is in exactly one interval or gap."""
        marks = sorted(
            [(iv.e_lo, iv.e_hi) for iv in self.intervals]
            + [(g.e_lo, g.e_hi) for g in self.gaps]
        )
        cursor = self.e_lo
        for lo, hi in marks:
            if lo != cursor or hi < lo:
                return False
            cursor = hi + 1
        return cursor == self.e_hi + 1


def cover_range(
    d: int,
    k: int,
    e_lo: int,
    e_hi: int,
    target,
    params: SearchParams | None = None,
) -> CoveragePlan:
    """Greedily cover the integer range [e_lo, e_hi] with certified intervals.

    At the current left endpoint e1: optimize the bound for a mid-range e
    (chosen by chasing the parabola apex), then certify the largest e2 whose
    bound at that witness exceeds the target, read off its exact quadratic.
    Multiplicities that admit no certificate become gap runs rather than
    failures, so callers can report unresolved cases.  The target must
    exceed 1, as every :class:`~hkcert.targets.TargetValue` does, e_lo and
    e_hi must be integers, the range must start at 2 or above (a non-regular
    ring has multiplicity at least 2), and k must be a nonnegative integer.
    Every e is bounded by the worst case mu = e - 2,
    :func:`~hkcert.bounds.HBoundObjective` at k.

    Gaps come in long runs, so the sweep gallops over them.  When no
    witness of e1 is held, it optimizes the block [e1, e1 + b - 1] in one
    :func:`~hkcert.search.optimize_bounds` call, then certifies the
    members in order, each at its own witness.  The first member that
    certifies starts the apex chase, whose optimizations are blocks of
    one; the witnesses of the members after it are kept, so a later e1 or
    apex among them is not optimized again.  b is 1 at the start and after
    every interval, and doubles after each block whose members were all
    gaps, up to ``_GAP_BLOCK``.  Each candidate is the one its e gets
    alone, so the plan is the one a sweep of single optimizations gives.

    A gap e whose certificate is doomed is settled in floats: when the
    candidate's float value plus its
    :meth:`~hkcert.bounds.LinearBound.float_margin` lies below the largest
    double at most the target, the exact value at the witness lies below
    the target too, so e joins the gap run with no certificate computed.
    A gap claims nothing, and the certificate skipped would have failed,
    so the plan is the one full certification gives.
    """
    _check_dimension(d)
    for name, e in (("e_lo", e_lo), ("e_hi", e_hi)):
        if type(e) is not int:
            raise ValueError(f"{name} must be an integer, got {e!r}")
    if e_lo > e_hi:
        raise ValueError(f"empty multiplicity range [{e_lo}, {e_hi}]")
    if e_lo < 2:
        raise ValueError(f"multiplicities start at 2, got e_lo = {e_lo}")
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    target = to_rational(target)
    if target <= 1:
        raise ValueError(f"target must exceed 1, got {target}")
    params = params or SearchParams()

    # Candidates optimized ahead of e1, by e, with their bounds, and the
    # size of the next block.
    held: dict[int, tuple[LinearBound, Candidate]] = {}
    block = 1
    floor = _float_floor(target)

    def witness_for(e_at: int) -> tuple[Fraction, Fraction]:
        if e_at not in held:
            bound = HBoundObjective(e_at, d, k)
            held[e_at] = bound, optimize_bounds([bound], params)[0]
        cand = held[e_at][1]
        return cand.s_exact, cand.t_exact

    def certified(e_at: int, s0: Fraction, t0: Fraction) -> Certificate:
        return certify_point(HBoundObjective(e_at, d, k), s0, t0, target)

    intervals: list[CoverageInterval] = []
    gaps: list[GapRun] = []
    e1 = e_lo
    if e1 <= k + 2:
        # mu = e - 2 generators cannot include the k + 1 the bound needs.
        reason = f"generator count e - 2 below k + 1 = {k + 1}"
        gaps.append(GapRun(e1, min(k + 2, e_hi), reason))
        e1 = k + 3
    while e1 <= e_hi:
        if e1 not in held:
            es = range(e1, min(e1 + block, e_hi + 1))
            members = [HBoundObjective(e, d, k) for e in es]
            held = dict(zip(es, zip(members, optimize_bounds(members, params))))
            block = min(2 * block, _GAP_BLOCK)
        # Pick the shared witness: start from the point optimal for e1, then
        # chase the apex twice so one interval swallows as many e as possible.
        bound, cand = held[e1]
        s0, t0 = cand.s_exact, cand.t_exact
        # A candidate whose float value lies below the target by more than
        # its margin would fail its certificate: it is a gap, unchecked.
        margin = bound.float_margin(cand.s)
        doomed = margin is not None and cand.value + margin < floor
        lo_cert = None if doomed else certify_point(bound, s0, t0, target)
        if doomed or not lo_cert.verdict:
            reason = "no certificate found at optimized witness"
            if gaps and (gaps[-1].e_hi, gaps[-1].reason) == (e1 - 1, reason):
                gaps[-1] = replace(gaps[-1], e_hi=e1)  # extend the run
            else:
                gaps.append(GapRun(e1, e1, reason))
            e1 += 1
            continue
        block = 1
        # lo_cert is always the certificate at e1 for the current witness,
        # and e_opt the e whose optimization found that witness.
        e_opt = e1
        for _ in range(2):
            a, b, _ = quadratic_in_e(s0, t0, d, k)
            if a == 0:  # linear in e: no apex
                break
            e_mid = min(max(round(-b / (2 * a)), e1), e_hi)
            # The optimizer is deterministic: optimizing e_opt again would
            # return the witness held, so the chase is at its fixed point.
            if e_mid == e_opt:
                break
            trial = witness_for(e_mid)
            trial_cert = lo_cert if trial == (s0, t0) else certified(e1, *trial)
            if not trial_cert.verdict:
                break
            (s0, t0), lo_cert, e_opt = trial, trial_cert, e_mid

        # The bound at the witness is concave in e, so lo_cert and hi_cert
        # cover [e1, e2]; the exact quadratic only picks e2, the largest e.
        e2 = last_above(*quadratic_in_e(s0, t0, d, k), target, e1, e_hi)
        hi_cert = lo_cert if e2 == e1 else certified(e2, s0, t0)
        if not hi_cert.verdict:
            raise AssertionError(f"the run end e2 = {e2} does not certify")
        intervals.append(
            CoverageInterval(
                e_lo=e1,
                e_hi=e2,
                s0=s0,
                t0=t0,
                certified_min=min(lo_cert.value, hi_cert.value),
                lo_cert=lo_cert,
                hi_cert=hi_cert,
            )
        )
        e1 = e2 + 1

    return CoveragePlan(
        dimension=d,
        k=k,
        target=target,
        e_lo=e_lo,
        e_hi=e_hi,
        intervals=tuple(intervals),
        gaps=tuple(gaps),
    )


# --------------------------------------------------------------------------
# Full per-dimension case ladder.


@dataclass(frozen=True)
class CaseEntry:
    """One rung of the case ladder.

    kind is "cited", "threshold", "mu-small", "not-normal", "coverage" or
    "gap"; computed rungs carry a certificate, cited rungs a citation anchor,
    the coverage rung the full plan, whose gap runs no gap case repeats.
    """

    kind: str
    parameters: dict
    certificate: Certificate | None = None
    citation: str | None = None
    plan: CoveragePlan | None = None


@dataclass(frozen=True)
class ProofReport:
    dimension: int
    k: int
    target: TargetValue
    hypotheses: tuple[str, ...]
    cases: tuple[CaseEntry, ...]
    verdict: str  # "proved" | "open"


_STANDING_HYPOTHESES = (
    "ring is formally unmixed, non-regular, of characteristic p > 2; "
    "reduction to a complete normal local domain with algebraically closed "
    "residue field preserves the inequality",
    "complete intersections satisfy the conjectured bound (cited)",
    "multiplicity at most {cited} satisfies the conjectured bound (cited)",
    "non-regular rings have multiplicity at least 2",
    "a minimal reduction exists whose generators realize the generic order "
    "values used by the bound family",
)


def prove_dimension(
    d: int,
    k: int,
    params: SearchParams | None = None,
    target: TargetValue | None = None,
) -> ProofReport:
    """Assemble the case ladder for dimension d with k adjoined square roots.

    Cases, in order: cited multiplicities e <= 5; the large-e factorial
    threshold; root-free optimization for generator counts mu <= 3; the
    non-normal escape hatch 1 + 1/2^k; certified coverage of the remaining
    multiplicity range with the worst case mu = e - 2, whose plan holds the
    runs of uncovered multiplicities.  Verdict is "proved" exactly when no
    gap case remains and the coverage is complete; gaps are data, not
    failures.
    """
    if type(d) is not int or type(k) is not int:
        raise ValueError(f"dimension and k must be integers, got d={d!r}, k={k!r}")
    _check_dimension(d)
    if d < 2:
        raise ValueError("the pipeline needs dimension >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    params = params or SearchParams()
    target = target or dimension_target(d)
    if target.dimension != d:
        raise ValueError(f"the target is for dimension {target.dimension}, the proof for {d}")
    tgt = target.value

    hypotheses = tuple(h.format(cited=CITED_E_MAX) for h in _STANDING_HYPOTHESES)
    cases: list[CaseEntry] = []

    cases.append(
        CaseEntry(
            kind="cited",
            parameters={"e_lo": 2, "e_hi": CITED_E_MAX},
            citation="published results settle multiplicity 2 through "
            f"{CITED_E_MAX} in every dimension",
        )
    )

    threshold = large_e_threshold(d, tgt)
    ratio = Fraction(threshold + 1, _fact(d))
    if ratio <= tgt:
        raise AssertionError("factorial threshold must be strict by construction")
    cases.append(
        CaseEntry(
            kind="threshold",
            parameters={
                "threshold": threshold,
                "first_settled_ratio": ratio,
            },
            citation="e_HK >= e/d! settles every multiplicity above the threshold",
        )
    )

    e_start = CITED_E_MAX + 1
    if e_start <= threshold:
        # Generator counts 1..3: root-free bound, optimized over s alone at
        # the worst multiplicity e_start (the bound increases with e).
        for mu in (1, 2, 3):
            objective = MuSmallObjective(e_start, mu, d)
            cand = optimize_bound(objective, replace(params, t_range=(Fraction(1), Fraction(1))))
            cert = certify_point(objective, cand.s_exact, cand.t_exact, tgt)
            cases.append(
                CaseEntry(
                    kind="mu-small",
                    parameters={"mu": mu, "e": e_start},
                    certificate=cert,
                )
            )
            if not cert.verdict:
                cases.append(
                    CaseEntry(
                        kind="gap",
                        parameters={"mu": mu, "e": e_start},
                        citation="root-free bound too weak at this generator count",
                    )
                )

        if k > 3:
            # Coverage quantifies over mu >= k + 1 and the root-free branch
            # over mu <= 3, so intermediate generator counts are uncovered.
            cases.append(
                CaseEntry(
                    kind="gap",
                    parameters={"mu_lo": 4, "mu_hi": k},
                    citation="generator counts between 4 and k need a smaller k",
                )
            )

        escape = not_normal_bound(k)
        cases.append(
            CaseEntry(
                kind="not-normal",
                parameters={"k": k, "bound": escape, "exceeds_target": escape > tgt},
                citation="non-normal quadratic extension forces e_HK >= 1 + 1/2^k",
            )
        )
        if not escape > tgt:
            cases.append(
                CaseEntry(
                    kind="gap",
                    parameters={"k": k},
                    citation="escape-hatch bound does not exceed the target",
                )
            )

        plan = cover_range(d, k, e_start, threshold, tgt, params)
        cases.append(
            CaseEntry(
                kind="coverage",
                parameters={"e_lo": e_start, "e_hi": threshold},
                plan=plan,
            )
        )

    proved = all(c.kind != "gap" and (c.plan is None or c.plan.complete) for c in cases)
    verdict = "proved" if proved else "open"
    return ProofReport(
        dimension=d,
        k=k,
        target=target,
        hypotheses=hypotheses,
        cases=tuple(cases),
        verdict=verdict,
    )
