import argparse
import json
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hkcert.bounds import HBoundObjective, h_bound
from hkcert.certify import _FAMILIES
from hkcert.cli import _CONFIG_KEYS, build_parser, main, search_params
from hkcert.report import loads
from hkcert.search import GridAxis, SearchParams, nu_vector, optimize_bound
from hkcert.targets import ehk_quadric_dim7

F = Fraction

# Keep CLI-level searches quick; correctness of full-size searches is covered
# by the library tests.
SEARCH = ["--grid", "80x40", "--rounds", "2"]


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestScalarCommands:
    def test_nu(self, capsys):
        code, out, _ = run(["nu", "--d", "2", "--s", "3/2"], capsys)
        assert code == 0
        assert "7/8" in out

    def test_nu_prints_the_search_double_as_float_path(self, capsys):
        code, out, _ = run(["nu", "--d", "7", "--s", "3"], capsys)
        assert code == 0
        want = repr(float(nu_vector(np.array(3.0), 7)))
        assert out.splitlines()[1] == f"float path: {want}"

    def test_nu_density(self, capsys):
        code, out, _ = run(["nu", "--d", "1", "--s", "1/2", "--density"], capsys)
        assert code == 0
        assert "= 1 " in out

    def test_quadric(self, capsys):
        code, out, _ = run(["quadric", "--p", "3"], capsys)
        assert code == 0
        assert out.strip() == "71/67"

    def test_quadric_identities(self, capsys):
        code, out, _ = run(["quadric", "--check-identities"], capsys)
        assert code == 0
        assert out.count("True") == 4

    def test_series(self, capsys):
        code, out, _ = run(["series", "--max", "10"], capsys)
        assert code == 0
        assert "m_7 = 17/315" in out
        assert "m_10" in out

    def test_hbound(self, capsys):
        code, out, _ = run(
            ["hbound", "--e", "7", "--s", "2.74118", "--t", "0.779643"], capsys
        )
        assert code == 0
        assert "1.0605557" in out

    def test_bound_with_rescale(self, capsys):
        code, out, _ = run(
            ["bound", "--d", "7", "--e", "6", "--mu", "4", "--k", "1",
             "--s", "2.84243", "--t", "0.8", "--pre-rescale"], capsys
        )
        assert code == 0
        assert "pre-rescaling" in out

    def test_bound_invalid_spec(self, capsys):
        code, _, err = run(
            ["bound", "--d", "7", "--e", "6", "--mu", "1", "--k", "1",
             "--s", "1", "--t", "1"], capsys
        )
        assert code == 2
        assert "mu" in err

    def test_emax(self, capsys):
        code, out, _ = run(["emax", "--s0", "2.34", "--t0", "0.62"], capsys)
        assert code == 0
        assert "15.973" in out

    def test_emax_linear_signal(self, capsys):
        code, _, err = run(["emax", "--s0", "1", "--t0", "0.5"], capsys)
        assert code == 2
        assert "linear" in err

    def test_rangemin(self, capsys):
        code, out, _ = run(
            ["rangemin", "--e1", "13", "--e2", "19", "--s0", "2.34",
             "--t0", "0.62"], capsys
        )
        assert code == 0
        assert "1.06843" in out

    def test_bad_rational_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["nu", "--d", "2", "--s", "one/half"])

    @pytest.mark.parametrize(
        "argv",
        [["nu", "--d", "7", "--s", "1e400"],
         ["hbound", "--e", "1e400", "--s", "3", "--t", "1/2"]],
        ids=["nu", "hbound"],
    )
    def test_huge_rational_is_an_error_line(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_json_write_prints_no_result(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(["series", "--max", "3", "--json", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSearchCommands:
    def test_optimize_h(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        code, out, _ = run(
            ["optimize", "--kind", "h", "--e", "7", "--json", str(path)] + SEARCH,
            capsys,
        )
        assert code == 0
        doc = loads(path.read_text())
        assert doc.payload.value >= 1.0604

    @pytest.mark.parametrize(
        "flags,message",
        [(["--mu", "-3", "--e", "7"], "generator count mu must be a positive integer"),
         (["--mu", "3", "--e", "-7"], "multiplicity e must be positive")],
        ids=["mu", "e"],
    )
    def test_optimize_mu_small_rejects_bad_input(self, capsys, flags, message):
        code, out, err = run(
            ["optimize", "--kind", "mu-small", *flags, "--grid", "20x10", "--rounds", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "flags, named",
        [(["--kind", "h", "--mu", "2"], "--mu"),
         (["--kind", "h", "--k", "3", "--mu", "2"], "--mu"),
         (["--kind", "mu-small", "--mu", "2", "--k", "3"], "--k")],
        ids=["h-mu", "h-k-mu", "mu-small-k"],
    )
    def test_optimize_rejects_a_flag_its_kind_ignores(self, capsys, flags, named):
        code, out, err = run(["optimize", "--e", "7", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {named} does not apply")

    def test_optimize_h_takes_k(self, capsys, tmp_path):
        # --kind h is the worst case mu = e - 2 at any k.
        found = []
        for flags in (["--kind", "h"], ["--kind", "general", "--mu", "19"]):
            path = tmp_path / f"opt{len(found)}.json"
            argv = ["optimize", *flags, "--k", "4", "--e", "21", "--d", "8", "--json", str(path)]
            assert run(argv + SEARCH, capsys)[0] == 0
            found.append(loads(path.read_text()).payload)
        assert found[0] == found[1]

    def test_optimize_general_requires_mu(self, capsys):
        code, _, err = run(["optimize", "--kind", "general", "--e", "21"], capsys)
        assert code == 2
        assert "--mu" in err

    def test_cover_with_gaps_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        code, out, _ = run(
            ["cover", "--dim", "8", "--k", "4", "--e-lo", "6", "--e-hi", "7",
             "--target", "8341/8064", "--json", str(path)] + SEARCH,
            capsys,
        )
        assert code == 0
        assert "gap at e=6" in out
        doc = loads(path.read_text())
        assert doc.verdict == "gaps"

    def test_cover_prints_one_line_per_gap_run(self, capsys):
        code, out, _ = run(
            ["cover", "--dim", "8", "--k", "4", "--e-lo", "6", "--e-hi", "25",
             "--target", "8341/8064"] + SEARCH,
            capsys,
        )
        assert code == 0
        gap_lines = [line for line in out.splitlines() if "gap at" in line]
        assert gap_lines == [
            "  gap at e=6..6: generator count e - 2 below k + 1 = 5",
            "  gap at e=7..20: no certificate found at optimized witness",
        ]

    @pytest.mark.parametrize(
        "argv",
        [["prove", "--dim", "7", "--k", "1"], ["prove", "--dim", "8", "--k", "4"],
         ["prove", "--dim", "2", "--k", "1"]],
        ids=["dim7", "dim8", "dim2"],
    )
    def test_prove_prints_no_python_reprs(self, capsys, argv):
        code, out, _ = run(argv + SEARCH, capsys)
        assert code == 0
        assert "Fraction(" not in out
        assert "{" not in out and "'" not in out

    def test_prove_prints_parameters_as_key_value(self, capsys):
        code, out, _ = run(["prove", "--dim", "8", "--k", "4"] + SEARCH, capsys)
        assert code == 0
        assert "  threshold: threshold=41705 first_settled_ratio=331/320\n" in out
        assert "  not-normal: k=4 bound=17/16 exceeds_target=True\n" in out
        assert "  gap: mu_lo=4 mu_hi=4 (" in out
        # The coverage's gap runs print once, under the coverage line.
        assert out.count("gap at e=7..20") == 1

    def test_prove_dim7(self, capsys, tmp_path):
        path = tmp_path / "proof.json"
        code, out, _ = run(
            ["prove", "--dim", "7", "--k", "1", "--json", str(path)] + SEARCH,
            capsys,
        )
        assert code == 0
        assert "verdict: proved" in out
        doc = loads(path.read_text())
        assert doc.verdict == "proved"
        assert doc.payload.verdict == "proved"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["prove", "--dim", "2", "--k", "1", "--no-timestamp"] + SEARCH
        assert main(argv + ["--json", str(a)]) == 0
        assert main(argv + ["--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_timestamps_differ_without_flag(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["series", "--max", "2", "--json", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["timestamp"] is not None

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--kind", "h", "--e", "6"],
            ["cover", "--dim", "7", "--k", "1", "--e-lo", "13", "--e-hi", "14",
             "--target", "71/67"],
            ["prove", "--dim", "7"],
            ["table1"],
            ["table2"],
        ],
        ids=["optimize", "cover", "prove", "table1", "table2"],
    )
    def test_seed_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "42"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--kind", "h", "--e", "7"],
            ["cover", "--dim", "7", "--k", "1", "--e-lo", "13", "--e-hi", "14",
             "--target", "71/67"],
            ["prove", "--dim", "7"],
            ["table1"],
            ["table2"],
        ],
        ids=["optimize", "cover", "prove", "table1", "table2"],
    )
    def test_workers_below_one_rejected(self, capsys, argv, workers):
        # The search runs in one thread; --workers is not an option at all,
        # so any value of it is an unrecognised argument.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "--workers" in err

    @pytest.mark.parametrize("target", ["1", "0", "-1"])
    def test_cover_target_not_above_one_rejected(self, capsys, target):
        code, out, err = run(
            ["cover", "--dim", "7", "--k", "1", "--e-lo", "13", "--e-hi", "14",
             "--target", target, "--grid", "8x8", "--rounds", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"error: target must exceed 1, got {target}" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "1", "--e-lo", "-5", "--e-hi", "0"],
             "error: multiplicities start at 2, got e_lo = -5"),
            (["--k", "-1", "--e-lo", "2", "--e-hi", "2"],
             "error: k must be a nonnegative integer, got -1"),
        ],
        ids=["e-below-two", "k-negative"],
    )
    def test_cover_bad_range_or_k_rejected(self, capsys, flags, message):
        code, out, err = run(
            ["cover", "--dim", "7", "--target", "71/67", "--grid", "8x8",
             "--rounds", "0"] + flags,
            capsys,
        )
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "flags",
        [["--t-range", "1:2"], ["--t-range=-1:1/2"], ["--s-range=-1:2"]],
        ids=["t-above", "t-below", "s-below"],
    )
    def test_range_outside_domain_rejected(self, capsys, flags):
        code, out, err = run(
            ["cover", "--dim", "7", "--k", "1", "--e-lo", "13", "--e-hi", "14",
             "--target", "71/67", "--grid", "8x8", "--rounds", "0"] + flags,
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "range" in err


class TestTables:
    def test_table1(self, capsys, tmp_path):
        path = tmp_path / "t1.json"
        code, out, _ = run(["table1", "--json", str(path)] + SEARCH, capsys)
        assert code == 0
        doc = loads(path.read_text())
        rows = doc.payload.rows
        assert [r["e"] for r in rows] == list(range(6, 13))
        assert all(r["exceeds_target"] for r in rows)
        # Exact evaluation at the reference coordinates is reproducible from
        # the serialized exact strings alone.
        for r in rows:
            assert h_bound(r["e"], r["s_ref"], r["t_ref"]) == r["value_at_ref"]

    def test_table_csv_exports(self, capsys, tmp_path):
        t1 = tmp_path / "t1.csv"
        code, _, _ = run(["table1", "--csv", str(t1)] + SEARCH, capsys)
        assert code == 0
        lines = t1.read_text().strip().splitlines()
        assert lines[0].startswith("e,s_ref,t_ref,")
        assert len(lines) == 1 + 7
        # Exact rational strings survive a parse.
        first = lines[1].split(",")
        assert F(first[1]) == F("2.84243")

        cov = tmp_path / "cov.csv"
        code, _, _ = run(
            ["cover", "--dim", "7", "--k", "1", "--e-lo", "13", "--e-hi", "40",
             "--target", "71/67", "--csv", str(cov)] + SEARCH, capsys
        )
        assert code == 0
        rows = cov.read_text().strip().splitlines()
        assert rows[0] == "e_lo,e_hi,s0,t0,certified_min"
        assert int(rows[1].split(",")[0]) == 13

    def test_surface_csv_alias(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, _, _ = run(
            ["surface", "--dim", "7", "--e", "7", "--grid", "6x5",
             "--csv", str(path)], capsys
        )
        assert code == 0
        assert path.read_text().startswith("s,t,value")

    def test_table2_recertifies_offline(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        code, out, _ = run(["table2", "--json", str(path)] + SEARCH, capsys)
        assert code == 0
        assert "verdict: complete" in out
        doc = loads(path.read_text())
        plan = doc.payload
        assert plan.e_lo == 13 and plan.e_hi == 5340
        assert plan.complete and plan.covered_or_gapped()
        target = F(71, 67)
        for iv in plan.intervals:
            for e, cert in ((iv.e_lo, iv.lo_cert), (iv.e_hi, iv.hi_cert)):
                value = h_bound(e, iv.s0, iv.t0)
                assert value == cert.value
                assert value > target


class TestSurface:
    def test_prints_the_first_grid_maximum(self, capsys):
        code, out, _ = run(["surface", "--dim", "7", "--e", "7", "--grid", "40x30"], capsys)
        assert code == 0
        assert "grid max 1.0558526918904547 at s=8/3 t=20/29" in out.splitlines()

    @pytest.mark.parametrize("grid", [(40, 30), (3, 2), (7, 5), (200, 3)], ids=str)
    def test_grid_max_is_the_unrefined_optimum(self, capsys, grid):
        # The unrefined optimizer scans the same s nodes and takes the best
        # t of each in closed form, so no cell of the surface beats it.
        code, out, _ = run(["surface", "--dim", "7", "--e", "7", "--grid", "%dx%d" % grid],
                           capsys)
        best = optimize_bound(HBoundObjective(7, 7), SearchParams(grid=grid, refine_rounds=0))
        assert code == 0
        value, s, t = re.fullmatch(r"grid max (\S+) at s=(\S+) t=(\S+)\n", out).groups()
        assert float(value) <= best.value + 1e-12
        assert F(s) in GridAxis(F(0), F(8), grid[0], 10**6).nodes()

    def test_writes_csv_and_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        svg_path = tmp_path / "fig.svg"
        code, out, _ = run(
            ["surface", "--dim", "7", "--e", "7", "--grid", "24x20",
             "--out", str(csv_path), "--svg", str(svg_path)], capsys
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "s,t,value"
        assert len(lines) == 1 + 24 * 20
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "bound, target",
        [(["--dim", "7", "--e", "6", "--grid", "24x20"], "71/67"),
         (["--dim", "8", "--e", "21", "--mu", "19", "--k", "4", "--grid", "60x40"],
          "8341/8064")],
        ids=["d7", "d8"],
    )
    def test_svg_marks_the_dimension_target_by_default(self, capsys, tmp_path, bound, target):
        svgs = []
        for extra in ([], ["--target", target]):
            path = tmp_path / f"fig{len(svgs)}.svg"
            assert run(["surface", *bound, "--svg", str(path), *extra], capsys)[0] == 0
            svgs.append(path.read_text())
        assert svgs[0] == svgs[1]
        assert "stroke-width" in svgs[0]

    @pytest.mark.parametrize(
        "flags",
        [["--config", "search.cfg"], ["--rounds", "9"], ["--workers", "4"],
         ["--max-denominator", "3"], ["--seed", "1"]],
        ids=["config", "rounds", "workers", "max-denominator", "seed"],
    )
    def test_rejects_search_flags(self, capsys, flags):
        # surface scans one fixed grid; it has no search to steer.
        with pytest.raises(SystemExit) as exc:
            main(["surface", "--dim", "7", "--e", "7", "--grid", "6x5"] + flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--t-range", "1:2"], "t range must lie in [0, 1]"),
         (["--s-range=-1:2"], "s range must start at 0"),
         (["--s-range", "3:1"], "empty s range")],
        ids=["t-above-1", "s-below-0", "reversed-s"],
    )
    def test_rejects_ranges_outside_the_domain(self, capsys, tmp_path, flags, message):
        path = tmp_path / "fig.csv"
        code, _, err = run(
            ["surface", "--dim", "7", "--e", "7", "--grid", "4x4",
             "--out", str(path)] + flags, capsys
        )
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--s-range", "1/0:2"], ["--t-range", "0:1/0"]],
        ids=["s-range", "t-range"],
    )
    def test_rejects_a_zero_denominator_in_a_range(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["surface", "--dim", "7", "--e", "7", "--grid", "4x4"] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flags[0]}: not an exact rational: '1/0'" in err
        assert "Traceback" not in err

    def test_dim8_figure(self, capsys, tmp_path):
        path = tmp_path / "fig2.json"
        code, out, _ = run(
            ["surface", "--dim", "8", "--e", "21", "--mu", "19", "--k", "4",
             "--grid", "150x80", "--json", str(path)], capsys
        )
        assert code == 0
        doc = loads(path.read_text())
        assert max(map(max, doc.payload.values)) >= 1.0350


class TestConfig:
    def test_config_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "search.cfg"
        cfg.write_text("# search overrides\ngrid_s = 24\ngrid_t = 12\nrounds = 1\n")
        a = tmp_path / "a.json"
        code, _, _ = run(
            ["optimize", "--kind", "h", "--e", "7", "--config", str(cfg),
             "--json", str(a), "--no-timestamp"], capsys
        )
        assert code == 0
        b = tmp_path / "b.json"
        code, _, _ = run(
            ["optimize", "--kind", "h", "--e", "7", "--grid", "24x12",
             "--rounds", "1", "--json", str(b), "--no-timestamp"], capsys
        )
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cli_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "search.cfg"
        cfg.write_text("grid_s = 24\ngrid_t = 12\n")
        a = tmp_path / "a.json"
        code, _, _ = run(
            ["optimize", "--kind", "h", "--e", "7", "--config", str(cfg),
             "--grid", "30x10", "--rounds", "1",
             "--json", str(a), "--no-timestamp"], capsys
        )
        assert code == 0
        b = tmp_path / "b.json"
        code, _, _ = run(
            ["optimize", "--kind", "h", "--e", "7", "--grid", "30x10",
             "--rounds", "1", "--json", str(b), "--no-timestamp"], capsys
        )
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "search.cfg"
        cfg.write_text("turbo = yes\n")
        code, _, err = run(
            ["optimize", "--kind", "h", "--e", "7", "--config", str(cfg)], capsys
        )
        assert code == 2
        assert "turbo" in err

    def test_config_range_outside_domain(self, capsys, tmp_path):
        cfg = tmp_path / "search.cfg"
        cfg.write_text("t_lo = 0\nt_hi = 3\n")
        code, out, err = run(
            ["optimize", "--kind", "h", "--e", "7", "--config", str(cfg)], capsys
        )
        assert code == 2
        assert out == ""
        assert "t range must lie in [0, 1]" in err

    @pytest.mark.parametrize(
        "command, text, key",
        [(["optimize", "--e", "7"], "s_lo = 1/0\ns_hi = 2\n", "s_lo"),
         (["table1"], "t_hi = 1/0\n", "t_hi")],
        ids=["optimize-s_lo", "table1-t_hi"],
    )
    def test_zero_denominator_in_config(self, capsys, tmp_path, command, text, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        code, out, err = run(command + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: config {key} is not an exact rational: '1/0' (Fraction(1, 0))\n"

    @pytest.mark.parametrize(
        "command, key, value",
        [(["optimize", "--e", "7"], "grid_s", "ten"), (["table1"], "rounds", "2.5")],
        ids=["optimize-grid_s", "table1-rounds"],
    )
    def test_non_integer_in_config(self, capsys, tmp_path, command, key, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run(command + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: config {key} is not an integer: {value!r} "
            f"(invalid literal for int() with base 10: {value!r})\n"
        )

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "search.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(
            ["optimize", "--kind", "h", "--e", "7", "--config", str(cfg)], capsys
        )
        assert code == 2


# Config key -> (config text, the fields it sets, the flag that overrides
# it, the fields that flag sets); shrink has no flag.
CONFIG_CASES = {
    "s_lo": ("s_lo = 1/3\ns_hi = 4", {"s_range": (F(1, 3), F(4))},
             ["--s-range", "1:2"], {"s_range": (F(1), F(2))}),
    "s_hi": ("s_lo = 1\ns_hi = 7/2", {"s_range": (F(1), F(7, 2))},
             ["--s-range", "1/2:2"], {"s_range": (F(1, 2), F(2))}),
    "t_lo": ("t_lo = 1/4", {"t_range": (F(1, 4), F(1))},
             ["--t-range", "0:1/2"], {"t_range": (F(0), F(1, 2))}),
    "t_hi": ("t_hi = 3/4", {"t_range": (F(0), F(3, 4))},
             ["--t-range", "1/8:1/2"], {"t_range": (F(1, 8), F(1, 2))}),
    "grid_s": ("grid_s = 30", {"grid": (30, 100)}, ["--grid", "7x9"], {"grid": (7, 9)}),
    "grid_t": ("grid_t = 40", {"grid": (200, 40)}, ["--grid", "9x7"], {"grid": (9, 7)}),
    "rounds": ("rounds = 1", {"refine_rounds": 1}, ["--rounds", "2"], {"refine_rounds": 2}),
    "shrink": ("shrink = 7", {"shrink_factor": 7}, None, None),
    "max_denominator": ("max_denominator = 1000", {"max_denominator": 1000},
                        ["--max-denominator", "99"], {"max_denominator": 99}),
}


@pytest.mark.parametrize("key", CONFIG_CASES)
def test_config_key_sets_its_field_and_its_flag_wins(tmp_path, key):
    text, sets, flag, flag_sets = CONFIG_CASES[key]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text + "\n")
    argv = ["optimize", "--e", "7", "--config", str(cfg)]
    parser = build_parser()
    assert search_params(parser.parse_args(argv)) == replace(SearchParams(), **sets)
    if flag is not None:
        params = search_params(parser.parse_args(argv + flag))
        assert params == replace(SearchParams(), **flag_sets)


# Every option of every subcommand; a change that adds or removes a knob
# changes this table.
COMMON = {"-h", "--help", "--json", "--no-timestamp"}
GRID = COMMON | {"--grid", "--s-range", "--t-range"}
SEARCH_KNOBS = GRID | {"--rounds", "--max-denominator", "--config"}
OPTIONS = {
    "nu": COMMON | {"--d", "--s", "--density"},
    "bound": COMMON | {"--d", "--e", "--mu", "--k", "--s", "--t", "--pre-rescale"},
    "hbound": COMMON | {"--e", "--s", "--t", "--d"},
    "emax": COMMON | {"--s0", "--t0", "--d"},
    "rangemin": COMMON | {"--e1", "--e2", "--s0", "--t0", "--d"},
    "optimize": SEARCH_KNOBS | {"--kind", "--e", "--mu", "--k", "--d"},
    "cover": SEARCH_KNOBS | {"--csv", "--dim", "--k", "--e-lo", "--e-hi", "--target"},
    "prove": SEARCH_KNOBS | {"--dim", "--k", "--target"},
    "table1": SEARCH_KNOBS | {"--csv"},
    "table2": SEARCH_KNOBS | {"--csv"},
    "series": COMMON | {"--max"},
    "quadric": COMMON | {"--p", "--check-identities"},
    "surface": GRID | {"--dim", "--e", "--mu", "--k", "--out", "--csv", "--svg", "--target"},
}


# Each subcommand that takes a dimension, with valid other arguments and its
# dimension flag last.
WITH_DIMENSION = {
    "nu": ["--s", "1", "--d"],
    "bound": ["--e", "21", "--mu", "19", "--k", "4", "--s", "2", "--t", "1/2", "--d"],
    "hbound": ["--e", "7", "--s", "2", "--t", "1/2", "--d"],
    "emax": ["--s0", "2.34", "--t0", "0.62", "--d"],
    "rangemin": ["--e1", "13", "--e2", "19", "--s0", "2.34", "--t0", "0.62", "--d"],
    "optimize": ["--e", "7", "--d"],
    "cover": ["--k", "1", "--e-lo", "7", "--e-hi", "8", "--target", "71/67", "--dim"],
    "prove": ["--k", "1", "--dim"],
    "surface": ["--e", "7", "--dim"],
}


def test_every_dimension_flag_is_listed():
    assert set(WITH_DIMENSION) == {
        name for name, options in OPTIONS.items() if options & {"--d", "--dim"}
    }


@pytest.mark.parametrize("d", ["0", "65"])
@pytest.mark.parametrize("command", WITH_DIMENSION)
def test_rejects_a_dimension_outside_1_to_64(capsys, command, d):
    code, out, err = run([command, *WITH_DIMENSION[command], d], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: dimension must be a positive integer at most 64, got {d}\n"


def test_every_knob_is_pinned():
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        for name, sub in subs.choices.items()
    }
    assert options == OPTIONS
    assert set(_CONFIG_KEYS) == set(CONFIG_CASES) == {
        "s_lo", "s_hi", "t_lo", "t_hi", "grid_s", "grid_t", "rounds", "shrink",
        "max_denominator",
    }


def test_every_bound_family_is_an_optimize_kind():
    # A family no command can build is dead code: it fails here.
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (kind,) = [a for a in subs.choices["optimize"]._actions if "--kind" in a.option_strings]
    assert set(kind.choices) == _FAMILIES.keys()


def test_quadric_float_value_matches_library(capsys):
    code = main(["quadric", "--p", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == str(ehk_quadric_dim7(5))


# A full usage line, as argparse wraps it at 80 columns.
FULL_USAGE = (
    "usage: hkcert [-h]\n"
    "              {nu,bound,hbound,emax,rangemin,optimize,cover,prove,table1,"
    "table2,series,quadric,surface}\n"
    "              ...\n"
)
# The exact standard error of bad command lines.
BAD_COMMAND_LINES = {
    "unknown command": (
        ["nope"],
        FULL_USAGE + "hkcert: error: argument command: invalid choice: 'nope' (choose from "
        "'nu', 'bound', 'hbound', 'emax', 'rangemin', 'optimize', 'cover', 'prove', "
        "'table1', 'table2', 'series', 'quadric', 'surface')\n",
    ),
    "missing option": (
        ["prove", "--bogus"],
        "usage: hkcert prove [-h] --dim DIM [--k K] [--target TARGET] [--json JSON]\n"
        "                    [--no-timestamp] [--grid NSxNT] [--s-range LO:HI]\n"
        "                    [--t-range LO:HI] [--rounds ROUNDS]\n"
        "                    [--max-denominator MAX_DENOMINATOR] [--config CONFIG]\n"
        "hkcert prove: error: the following arguments are required: --dim\n",
    ),
    "unrecognized option": (
        ["prove", "--dim", "7", "--bogus"],
        FULL_USAGE + "hkcert: error: unrecognized arguments: --bogus\n",
    ),
}


@pytest.mark.parametrize("case", BAD_COMMAND_LINES)
def test_bad_command_lines_print_the_full_usage(monkeypatch, capsys, case):
    # A parser of one subcommand still prints every subcommand's name.
    monkeypatch.setenv("COLUMNS", "80")
    argv, err = BAD_COMMAND_LINES[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.fixture
def built(monkeypatch):
    """The names of the subparsers built."""
    names, real = [], argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return names


def test_main_builds_only_the_subcommand_it_runs(capsys, built):
    assert main(["nu", "--d", "2", "--s", "3/2"]) == 0
    assert built == ["nu"]
    capsys.readouterr()
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == list(OPTIONS)
    assert capsys.readouterr().out == build_parser().format_help()


@pytest.mark.parametrize("command", OPTIONS)
def test_one_subcommand_parser_matches_the_full_one(command):
    full = build_parser()
    (subs,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    one = build_parser(command)
    (only,) = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(only.choices) == [command]
    assert one.format_usage() == full.format_usage()
    assert only.choices[command].format_help() == subs.choices[command].format_help()
