"""Tests of the benchmark itself: span and calibration arithmetic, tracing
coverage, inputs and output checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import calibration, run, tracing, worker, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# Self time.


def test_self_time_subtracts_the_union_of_children():
    # a [0, 10] has children b [1, 4], c [3, 6] (overlapping b) and e [9, 12]
    # (sticking out of a); d [2, 3] is b's child.  A second "b" span sits at
    # the top level.
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 3.0, 6.0, 0),
        ("d", 2.0, 3.0, 1),
        ("e", 9.0, 12.0, 0),
        ("b", 20.0, 20.5, -1),
    ]
    names, starts, ends, parents = (list(x) for x in zip(*spans))
    own = tracing.self_times(names, starts, ends, parents)
    assert own == pytest.approx({"a": 10 - (5 + 1), "b": 2.0 + 0.5, "c": 3.0, "d": 1.0, "e": 3.0})


def test_self_times_add_up_to_the_root_span():
    spans = [("root", 0.0, 8.0, -1), ("x", 1.0, 3.0, 0), ("y", 1.5, 2.5, 1), ("x", 5.0, 7.0, 0)]
    names, starts, ends, parents = (list(x) for x in zip(*spans))
    assert sum(tracing.self_times(names, starts, ends, parents).values()) == pytest.approx(8.0)


def test_clock_stands_still_in_kernel_runs_and_scales_the_work_between():
    ref = calibration.REFERENCE_S
    clock = calibration.Clock()
    # Kernel runs at [0, 1], [3, 4] and [5, 5.5], taking ref, 3 ref and ref.
    clock.runs = [(0.0, 1.0, ref), (3.0, 4.0, 3 * ref), (5.0, 5.5, ref)]
    times = [0.0, 1.0, 2.0, 3.0, 3.5, 4.5, 5.5]
    assert clock.ref(times).tolist() == pytest.approx([0, 0, 0.5, 1.0, 1.0, 1.25, 1.5])
    assert clock.work(times).tolist() == pytest.approx([0, 0, 1, 2, 2, 2.5, 3])


def test_clock_samples_while_the_work_runs():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Clock(lambda: 1.0, period=0.01) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(clock.runs) > 3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --------------------------------------------------------------------------
# Patching.


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _layer_functions():
    out = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"hkcert.{layer}")
        for name, fn in tracing.public_functions(module):
            if f"{layer}.{name}" not in tracing.UNTRACED:
                out[f"{layer}.{name}"] = fn
    return out


def test_every_layer_function_is_wrapped_wherever_it_is_bound():
    originals = _layer_functions()
    assert {"volume.nu_exact", "search.nu_vector", "search.optimize_bound",
            "certify.certify_point", "report.dumps", "cli.main"} <= set(originals)
    # A module that imported nu_exact by name before the tracer ran.
    late = types.ModuleType("hkcert._late_import")
    late.nu_exact = importlib.import_module("hkcert.volume").nu_exact
    sys.modules[late.__name__] = late
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert set(originals.values()) <= set(tracer.wrapped)
        for module in tracing.hkcert_modules() + [workloads]:
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in originals.values()), (
                    f"{module.__name__}.{attr} is still the unwrapped function"
                )
        assert late.nu_exact is tracer.wrapped[originals["volume.nu_exact"]]
        for cls in tracing.objective_classes():
            for method in tracing.METHOD_SPAN_NAMES:
                if method in vars(cls):
                    assert hasattr(vars(cls)[method], "__wrapped__"), (cls, method)
    finally:
        tracer.uninstall()
        del sys.modules[late.__name__]
    assert late.nu_exact is originals["volume.nu_exact"]
    certify = importlib.import_module("hkcert.certify")
    assert certify.nu_exact is originals["volume.nu_exact"]
    assert certify.certify_point is originals["certify.certify_point"]


def test_nested_calls_of_one_layer_fold_into_one_span(installed):
    bounds = importlib.import_module("hkcert.bounds")
    installed.begin_op("op-7")
    bounds.HBoundObjective(7, 7).exact(Fraction(5, 2), Fraction(3, 4))
    assert installed.names.count("bounds.exact") == 1  # h_bound folded in
    assert installed.names.count("volume.nu_exact") == 4
    exact = installed.names.index("bounds.exact")
    for i, name in enumerate(installed.names):
        assert installed.ops[i] == "op-7"
        if name == "volume.nu_exact":
            assert installed.parents[i] == exact


def test_spans_of_one_certificate_share_an_operation_id(installed):
    workloads.CheckWorkload(seed=3, per_group=1).run_round(installed, round_no=0)
    ops = {}
    for name, op in zip(installed.names, installed.ops):
        ops.setdefault(op, set()).add(name)
    assert {"certify.certify_point", "certify.reverify_certificate", "bounds.exact",
            "volume.nu_exact"} <= ops["0:c0"]
    assert {"report.dumps", "report.loads"} <= ops["0:doc0"]


def test_rewind_forgets_later_spans(installed):
    volume = importlib.import_module("hkcert.volume")
    volume.nu_exact(Fraction(1, 2), 3)
    mark = installed.checkpoint()
    volume.nu_exact(Fraction(1, 3), 3)
    installed.rewind(mark)
    assert installed.names == ["volume.nu_exact"]


# --------------------------------------------------------------------------
# Inputs and output checks.


def test_check_inputs_follow_the_seed():
    a = workloads.check_inputs(5, 3)
    assert a == workloads.check_inputs(5, 3)
    assert a != workloads.check_inputs(6, 3)
    assert len(a) == 3 * len(workloads.CHECK_DIMENSIONS) * len(workloads.CHECK_ROOTS)
    for iv in a:
        assert 0 <= iv.s <= iv.d + 1 and 0 <= iv.t <= 1
        assert iv.s.denominator <= 10**6 and iv.t.denominator <= 10**6
        assert max(6, iv.k + 3) <= iv.e_lo <= iv.e_hi


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_output_checks(name, trace):
    result = worker.measure(name, seed=1, seconds=0, trace=trace, size="tiny")
    assert result["problems"] == []
    if trace:  # untraced and traced rounds in pairs, the tracer removed after each
        assert result["rounds"] == [1, 1]
        certify = importlib.import_module("hkcert.certify")
        assert not hasattr(certify.nu_exact, "__wrapped__")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_a_wrong_expectation_counts_as_failed(tmp_path):
    op = workloads.CliOp(("table2",), workloads.expect_plan("gaps", gaps=[13]))
    workload = workloads.CliWorkload("paper", [op], read_passes=1, scratch=tmp_path)
    phase = worker.Phase(workload).run(0)
    assert phase.attempted == 1 and phase.failed == 1
    assert "verdict 'complete' != 'gaps'" in phase.problems[0]


def test_tiling_rejects_a_missing_multiplicity():
    certify = importlib.import_module("hkcert.certify")
    plan = certify.CoveragePlan(7, 1, Fraction(2), 6, 9, (), (certify.GapEntry(6, "x"),
                                                             certify.GapEntry(8, "x")))
    assert workloads.tiling_problems(plan)


# --------------------------------------------------------------------------
# The command line.


def test_combine_takes_the_median_over_processes():
    def measured(wall, setup, failed=0):
        return {"correct": not failed, "attempted": 4, "failed": failed, "rounds": [2],
                "problems": ["x"] * failed,
                "metrics": {"setup_s": {"value": setup, "unit": "s"},
                            "wall_s": {"value": wall, "unit": "s"}}}

    out = run.combine([measured(3.0, 0.1), measured(5.0, 0.4, failed=1), measured(4.0, 0.2)])
    assert out["metrics"]["wall_s"] == {"value": 4.0, "unit": "s"}
    assert out["metrics"]["setup_s"] == {"value": 0.2, "unit": "s"}
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 12, 1)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_one_result_line(monkeypatch, capsys, trace):
    def tiny_worker(root, argv, deadline):
        opts = dict(zip(argv[::2], argv[1::2]))
        return worker.measure(opts["--workload"], int(opts["--seed"]),
                              float(opts["--seconds"]), opts["--trace"] == "1", size="tiny")

    monkeypatch.setattr(run, "run_worker", tiny_worker)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "check", "--seed", "2", "--seconds", "0", "--trace", trace])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert "failed_frac 0" in out


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "paper", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
