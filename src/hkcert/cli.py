"""Command-line interface: one subcommand per engine operation.

Every command can emit a JSON report (--json), and surfaces additionally a
CSV grid and an SVG heatmap.  Each handler returns its report's parts;
:func:`main` writes every report before it prints the result lines, so a
failed --json write prints no result.  Invalid parameters exit nonzero; a
proof containing gaps is still a successful run (exit 0, verdict "open")
because the absence of a proof is data, not a failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

from . import report as rpt
from .bounds import (
    BoundSpec,
    GeneralBoundObjective,
    HBoundObjective,
    MuSmallObjective,
    e_max,
    h_bound,
    range_min,
    s_bound,
)
from .certify import cover_range, prove_dimension
from .search import SearchParams, nu_vector, optimize_bound
from .targets import (
    TargetValue,
    dimension_target,
    ehk_quadric_dim7,
    large_e_threshold,
    m_coeffs,
    verify_quadric_identities,
)
from .volume import nu_density, nu_exact, to_rational

# Reference witnesses for the dimension-7 single-multiplicity table: for each
# e, a near-optimal (s, t) as exact decimals.
TABLE1_POINTS: dict[int, tuple[str, str]] = {
    6: ("2.84243", "0.8"),
    7: ("2.74118", "0.779643"),
    8: ("2.65255", "0.739206"),
    9: ("2.58286", "0.710503"),
    10: ("2.52575", "0.688955"),
    11: ("2.47759", "0.672106"),
    12: ("2.43609", "0.658519"),
}

DIM7_TARGET = dimension_target(7).value
# The range covering starts where the single-e table ends and stops at the
# factorial threshold, above which e/7! alone beats the target.
TABLE2_RANGE = (max(TABLE1_POINTS) + 1, large_e_threshold(7, DIM7_TARGET))


def _rational(text: str) -> Fraction:
    try:
        return to_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 200x100, got {text!r}")


def _range_pair(text: str) -> tuple[Fraction, Fraction]:
    try:
        a, b = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    return _rational(a), _rational(b)


def parse_config(path: str | Path) -> dict[str, str]:
    """Simple ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# Config key -> (SearchParams field, place in that field's pair or None,
# parser, what the parser reads).
_CONFIG_KEYS = {
    "s_lo": ("s_range", 0, to_rational, "an exact rational"),
    "s_hi": ("s_range", 1, to_rational, "an exact rational"),
    "t_lo": ("t_range", 0, to_rational, "an exact rational"),
    "t_hi": ("t_range", 1, to_rational, "an exact rational"),
    "grid_s": ("grid", 0, int, "an integer"),
    "grid_t": ("grid", 1, int, "an integer"),
    "rounds": ("refine_rounds", None, int, "an integer"),
    "shrink": ("shrink_factor", None, int, "an integer"),
    "max_denominator": ("max_denominator", None, int, "an integer"),
}


def search_params(args) -> SearchParams:
    """Defaults, overridden by the config file, overridden by CLI flags.

    A key the config leaves out keeps the :class:`SearchParams` default, and
    each search flag's dest is the field it sets.
    """
    cfg = parse_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if ("s_lo" in cfg) != ("s_hi" in cfg):
        raise ValueError("config must set both s_lo and s_hi or neither")
    values = {}
    for key, (name, place, parse, kind) in _CONFIG_KEYS.items():
        if key not in cfg:
            continue
        try:
            value = parse(cfg[key])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"config {key} is not {kind}: {cfg[key]!r} ({exc})")
        if place is not None:
            pair = list(values.get(name) or getattr(SearchParams, name) or (None, None))
            pair[place] = value
            value = tuple(pair)
        values[name] = value
    flags = {
        f.name: getattr(args, f.name)
        for f in fields(SearchParams)
        if getattr(args, f.name, None) is not None
    }
    # The config is checked on its own before the flags override it.
    return replace(SearchParams(**values), **flags)


def _write_rows_csv(path: str, columns, rows) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([str(row[c]) for c in columns])


def _fmt(x: Fraction) -> str:
    return f"{x} ({float(x):.9g})"


def _key_values(params: dict) -> str:
    """``key=value`` pairs; an exact value prints as its ``p/q`` string."""
    return " ".join(f"{key}={value}" for key, value in params.items())


def _plan_lines(plan, intervals: bool = True) -> list[str]:
    """A line per certified interval (unless ``intervals`` is false), then per gap run."""
    lines = [
        f"  [{iv.e_lo:>6}, {iv.e_hi:>6}] at (s0={iv.s0}, t0={iv.t0}) "
        f"certified min {float(iv.certified_min):.6f}"
        for iv in (plan.intervals if intervals else ())
    ]
    return lines + [f"  gap at e={g.e_lo}..{g.e_hi}: {g.reason}" for g in plan.gaps]


def _plan_report(params: dict, header: str, plan, csv_path: str | None):
    """The report of ``cover`` or ``table2``; its intervals also go to ``csv_path``."""
    verdict = "complete" if plan.complete else "gaps"
    lines = [header, *_plan_lines(plan), f"verdict: {verdict}"]
    if csv_path:
        columns = ("e_lo", "e_hi", "s0", "t0", "certified_min")
        rows = [{c: getattr(iv, c) for c in columns} for iv in plan.intervals]
        _write_rows_csv(csv_path, columns, rows)
        lines.append(f"wrote {csv_path}")
    return params, plan, lines, verdict


# --------------------------------------------------------------------------
# Handlers.  Each returns its report's params, payload and printed lines,
# and its verdict when it has one; main writes the report.


def cmd_nu(args):
    s = args.s
    value = nu_density(s, args.d) if args.density else nu_exact(s, args.d)
    name = "nu-density" if args.density else "nu"
    lines = [f"{name}(s={s}, d={args.d}) = {_fmt(value)}"]
    if not args.density:
        lines.append(f"float path: {float(nu_vector(float(s), args.d))!r}")
    return {"d": args.d, "s": s, "density": args.density}, rpt.ScalarResult(name, value), lines


def cmd_bound(args):
    spec = BoundSpec(args.d, args.e, args.mu, args.k)
    value = GeneralBoundObjective(spec).exact(args.s, args.t)
    lines = [f"bound(d={args.d}, e={args.e}, mu={args.mu}, k={args.k}, "
             f"s={args.s}, t={args.t}) = {_fmt(value)}"]
    if args.pre_rescale:
        lines.append(f"pre-rescaling form = {_fmt(s_bound(spec, args.s, args.t))}")
    params = {"d": args.d, "e": args.e, "mu": args.mu, "k": args.k, "s": args.s, "t": args.t}
    return params, rpt.ScalarResult("general-bound", value), lines


def cmd_hbound(args):
    value = h_bound(args.e, args.s, args.t, args.d)
    lines = [f"H(e={args.e}; s={args.s}, t={args.t}; d={args.d}) = {_fmt(value)}"]
    params = {"d": args.d, "e": args.e, "s": args.s, "t": args.t}
    return params, rpt.ScalarResult("h-bound", value), lines


def cmd_emax(args):
    value = e_max(args.s0, args.t0, args.d)
    lines = [f"apex multiplicity at (s0={args.s0}, t0={args.t0}): {_fmt(value)}"]
    params = {"d": args.d, "s0": args.s0, "t0": args.t0}
    return params, rpt.ScalarResult("e-max", value), lines


def cmd_rangemin(args):
    value = range_min(args.e1, args.e2, args.s0, args.t0, args.d)
    lines = [f"min over [{args.e1}, {args.e2}] at (s0, t0): {_fmt(value)}"]
    params = {"d": args.d, "e1": args.e1, "e2": args.e2, "s0": args.s0, "t0": args.t0}
    return params, rpt.ScalarResult("range-min", value), lines


def _objective_from_args(kind: str, d: int, e, mu: int | None, k: int):
    # The worst case h fixes mu = e - 2; the root-free mu-small bound takes no k.
    if kind == "h" and mu is not None:
        raise ValueError("--mu does not apply to the h bound, which takes mu = e - 2")
    if kind == "mu-small" and k != 1:
        raise ValueError("--k does not apply to the mu-small bound")
    if kind == "h":
        return HBoundObjective(e, d, k)
    if mu is None:
        raise ValueError(f"--mu is required for the {kind} bound")
    if kind == "general":
        return GeneralBoundObjective(BoundSpec(d, e, mu, k))
    if kind == "mu-small":
        return MuSmallObjective(e, mu, d)
    raise ValueError(f"unknown objective kind {kind!r}")


def cmd_optimize(args):
    objective = _objective_from_args(args.kind, args.d, args.e, args.mu, args.k)
    params = search_params(args)
    cand = optimize_bound(objective, params)
    exact = objective.exact(cand.s_exact, cand.t_exact)
    lines = [
        f"best value {cand.value!r} at s={cand.s_exact} t={cand.t_exact}",
        f"exact value there: {_fmt(exact)}",
    ]
    params = {"kind": args.kind, "d": args.d, "e": args.e, "mu": args.mu, "k": args.k,
              "search": params}
    return params, cand, lines


def cmd_cover(args):
    params = search_params(args)
    plan = cover_range(args.dim, args.k, args.e_lo, args.e_hi, args.target, params)
    header = (f"covering e in [{args.e_lo}, {args.e_hi}] against {args.target} "
              f"(d={args.dim}, k={args.k}):")
    params = {"dim": args.dim, "k": args.k, "e_lo": args.e_lo, "e_hi": args.e_hi,
              "target": args.target, "search": params}
    return _plan_report(params, header, plan, args.csv)


def cmd_prove(args):
    target = None
    if args.target is not None:
        target = TargetValue(args.dim, None, args.target, "user-supplied")
    params = search_params(args)
    report = prove_dimension(args.dim, args.k, params, target=target)
    lines = [
        f"dimension {args.dim}, k={args.k}, target {report.target.value} "
        f"({report.target.provenance})"
    ]
    for case in report.cases:
        if case.kind == "coverage":
            plan = case.plan
            lines.append(
                f"  coverage [{plan.e_lo}, {plan.e_hi}]: {len(plan.intervals)} "
                f"interval(s), {len(plan.gaps)} gap run(s)"
            )
            lines += _plan_lines(plan, intervals=False)
        elif case.kind == "mu-small":
            c = case.certificate
            lines.append(
                f"  mu-small mu={case.parameters['mu']}: value "
                f"{float(c.value):.6f} > target? {c.verdict}"
            )
        elif case.kind == "gap":
            lines.append(f"  gap: {_key_values(case.parameters)} ({case.citation})")
        else:
            lines.append(f"  {case.kind}: {_key_values(case.parameters) or case.citation}")
    lines.append(f"verdict: {report.verdict}")
    return {"dim": args.dim, "k": args.k, "search": params}, report, lines, report.verdict


def cmd_table1(args):
    params = search_params(args)
    columns = ("e", "s_ref", "t_ref", "value_at_ref",
               "s_found", "t_found", "value_found", "exceeds_target")
    rows = []
    lines = ["single-multiplicity table, dimension 7:"]
    for e, (s_txt, t_txt) in TABLE1_POINTS.items():
        s, t = to_rational(s_txt), to_rational(t_txt)
        objective = HBoundObjective(e, 7)
        reference = objective.exact(s, t)
        cand = optimize_bound(objective, params)
        found = objective.exact(cand.s_exact, cand.t_exact)
        values = (e, s, t, reference, cand.s_exact, cand.t_exact, found, found > DIM7_TARGET)
        rows.append(dict(zip(columns, values)))
        lines.append(
            f"  e={e:>2}: ref ({s_txt}, {t_txt}) -> {float(reference):.6f}; "
            f"search -> {float(found):.6f}"
        )
    payload = rpt.TableResult("h-bound-single-e", columns, tuple(rows))
    if args.csv:
        _write_rows_csv(args.csv, columns, rows)
        lines.append(f"wrote {args.csv}")
    return {"d": 7, "target": DIM7_TARGET, "search": params}, payload, lines


def cmd_table2(args):
    e_lo, e_hi = TABLE2_RANGE
    params = search_params(args)
    plan = cover_range(7, 1, e_lo, e_hi, DIM7_TARGET, params)
    header = f"certified covering of [{e_lo}, {e_hi}] against {DIM7_TARGET}:"
    params = {"d": 7, "k": 1, "e_lo": e_lo, "e_hi": e_hi, "target": DIM7_TARGET,
              "search": params}
    return _plan_report(params, header, plan, args.csv)


def cmd_series(args):
    coeffs = m_coeffs(args.max)
    lines = [f"m_{i + 1} = {c} ({float(c):.9g})" for i, c in enumerate(coeffs)]
    return {"max": args.max}, rpt.SeriesResult(tuple(coeffs)), lines


def cmd_quadric(args):
    if args.check_identities:
        outcome = verify_quadric_identities()
        lines = [
            f"decomposition identity: {outcome.decomposition_identity}",
            f"derivative identity:    {outcome.derivative_identity}",
            f"derivative negative:    {outcome.derivative_negative}",
            f"strictly decreasing:    {outcome.strictly_decreasing}",
        ]
        verdict = "verified" if outcome.all_hold else "failed"
        return {"check_identities": True}, outcome, lines, verdict
    value = ehk_quadric_dim7(args.p)
    return {"p": args.p}, rpt.ScalarResult("quadric-dim7", value), [f"{value}"]


def cmd_surface(args):
    # Without --mu, the worst case mu = e - 2.
    kind = "h" if args.mu is None else "general"
    # SearchParams rejects grids below 2x2 and ranges out of the domain or
    # out of order.
    params = replace(search_params(args), grid=args.grid or (120, 120))
    objective = _objective_from_args(kind, args.dim, args.e, args.mu, args.k)
    grid = rpt.surface_grid(objective, params)
    # The first maximum in row-major order: the smallest s, then t.
    cells = [(v, i, j) for i, row in enumerate(grid.values) for j, v in enumerate(row)]
    value, i, j = max(cells, key=lambda cell: cell[0])
    lines = [f"grid max {value!r} at s={grid.s_axis[i]} t={grid.t_axis[j]}"]
    if args.out:
        Path(args.out).write_text(rpt.surface_csv(grid))
        lines.append(f"wrote {args.out}")
    if args.svg:
        target = args.target if args.target is not None else dimension_target(args.dim).value
        Path(args.svg).write_text(rpt.surface_svg(grid, target))
        lines.append(f"wrote {args.svg}")
    return {"dim": args.dim, "e": args.e, "mu": args.mu, "k": args.k}, grid, lines


# --------------------------------------------------------------------------
# Parser assembly.


def _add_common(sub, grid=False, search=False):
    """--json and --no-timestamp; the grid flags with ``grid``; with
    ``search`` also the flags that steer the optimizer."""
    sub.add_argument("--json", help="write the full JSON report here")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp (byte-identical reruns)")
    if grid or search:
        sub.add_argument("--grid", type=_grid, default=None, metavar="NSxNT",
                         help="s and t node counts; the search scans NS nodes "
                         "of s and takes t in closed form, so NT is read only by surface")
        sub.add_argument("--s-range", type=_range_pair, default=None, metavar="LO:HI")
        sub.add_argument("--t-range", type=_range_pair, default=None, metavar="LO:HI")
    if search:
        sub.add_argument("--rounds", dest="refine_rounds", metavar="ROUNDS",
                         type=int, default=None, help="refinement rounds")
        sub.add_argument("--max-denominator", type=int, default=None)
        sub.add_argument("--config", help="key = value file overriding search defaults")


def _nu_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=_rational, required=True)
    p.add_argument("--density", action="store_true", help="slope instead of volume")
    _add_common(p)


def _bound_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=_rational, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--s", type=_rational, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--pre-rescale", action="store_true",
                   help="also print the 1 - t + 2^k e (...) form")
    _add_common(p)


def _hbound_args(p):
    p.add_argument("--e", type=_rational, required=True)
    p.add_argument("--s", type=_rational, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--d", type=int, default=7)
    _add_common(p)


def _emax_args(p):
    p.add_argument("--s0", type=_rational, required=True)
    p.add_argument("--t0", type=_rational, required=True)
    p.add_argument("--d", type=int, default=7)
    _add_common(p)


def _rangemin_args(p):
    p.add_argument("--e1", type=_rational, required=True)
    p.add_argument("--e2", type=_rational, required=True)
    p.add_argument("--s0", type=_rational, required=True)
    p.add_argument("--t0", type=_rational, required=True)
    p.add_argument("--d", type=int, default=7)
    _add_common(p)


def _optimize_args(p):
    p.add_argument("--kind", choices=("h", "general", "mu-small"), default="h")
    p.add_argument("--e", type=_rational, required=True)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=7)
    _add_common(p, search=True)


def _cover_args(p):
    p.add_argument("--csv", help="write the certified intervals as CSV")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--e-lo", type=int, required=True)
    p.add_argument("--e-hi", type=int, required=True)
    p.add_argument("--target", type=_rational, required=True)
    _add_common(p, search=True)


def _prove_args(p):
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--target", type=_rational, default=None,
                   help="override the default target")
    _add_common(p, search=True)


def _table1_args(p):
    p.add_argument("--csv", help="write the rows as CSV")
    _add_common(p, search=True)


def _table2_args(p):
    p.add_argument("--csv", help="write the certified intervals as CSV")
    _add_common(p, search=True)


def _series_args(p):
    p.add_argument("--max", type=int, required=True)
    _add_common(p)


def _quadric_args(p):
    p.add_argument("--p", type=_rational, default=Fraction(3))
    p.add_argument("--check-identities", action="store_true")
    _add_common(p)


def _surface_args(p):
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--e", type=_rational, required=True)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", "--csv", dest="out", help="CSV output path")
    p.add_argument("--svg", help="SVG heatmap output path")
    p.add_argument("--target", type=_rational, default=None,
                   help="level to mark in the heatmap")
    _add_common(p, grid=True)


# Subcommand -> (help, handler, the function that adds its arguments), in
# the order ``--help`` lists them.
_COMMANDS = {
    "nu": ("exact and float slice volume", cmd_nu, _nu_args),
    "bound": ("master bound at one point", cmd_bound, _bound_args),
    "hbound": ("worst-generator-count family H_e", cmd_hbound, _hbound_args),
    "emax": ("apex of the parabola in e", cmd_emax, _emax_args),
    "rangemin": ("endpoint minimum over a multiplicity range", cmd_rangemin, _rangemin_args),
    "optimize": ("search a bound family over s, t in closed form", cmd_optimize,
                 _optimize_args),
    "cover": ("certified covering of a multiplicity range", cmd_cover, _cover_args),
    "prove": ("full case ladder for one dimension", cmd_prove, _prove_args),
    "table1": ("regenerate the single-e table (d=7)", cmd_table1, _table1_args),
    "table2": ("regenerate the range covering (d=7)", cmd_table2, _table2_args),
    "series": ("zigzag series coefficients m_1..m_n", cmd_series, _series_args),
    "quadric": ("dimension-7 quadric closed form", cmd_quadric, _quadric_args),
    "surface": ("bound values on an (s, t) grid", cmd_surface, _surface_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when ``command`` names one, of
    that subcommand alone; its usage line still lists every name."""
    parser = argparse.ArgumentParser(
        prog="hkcert",
        description="Certified lower bounds for Hilbert-Kunz multiplicities.",
    )
    if command in _COMMANDS:
        # The metavar argparse would derive from all the names; it is set
        # only here, as it would also rename the argument in the errors a
        # full parser reports ("argument command: invalid choice").
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = _COMMANDS, None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, handler, add_arguments = _COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


def _echo(value):
    """``value`` as a report's params hold it: a Fraction as its ``p/q``
    string, SearchParams field by field, tuples and dicts item by item."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, SearchParams):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(SearchParams)}
    if isinstance(value, tuple):
        return tuple(map(_echo, value))
    if isinstance(value, dict):
        return {key: _echo(v) for key, v in value.items()}
    return value


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the subcommand that runs is built; --help, no command and an
    # unknown name get every subcommand.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        params, payload, lines, *verdict = args.handler(args)
        # The report is written first, so a failed write prints no result.
        if args.json:
            doc = rpt.ReportDocument.build(args.command, _echo(params), payload, *verdict,
                                           timestamp=not args.no_timestamp)
            Path(args.json).write_text(rpt.dumps(doc) + "\n")
            lines.append(f"wrote {args.json}")
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # Exact values are unbounded, but reports and the search need floats.
        print(f"error: value out of float range ({exc})", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
