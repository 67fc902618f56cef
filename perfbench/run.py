"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout of the repository.  The workload runs in
a fresh process (``perfbench.worker``) with ``src`` on ``PYTHONPATH`` and
every BLAS/OpenMP thread count set to 1.  With ``--trace 0`` the result holds
the end-to-end metrics: ``--seconds`` is split over ``MEASURING_PROCESSES``
fresh processes and each metric, ``setup_s`` included, is the median over
them.  With ``--trace 1`` one process makes a traced run, the result holds
the per-layer metrics, and the spans go to
``perfbench/out/spans-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Each process runs at a speed of its own (memory layout, which core), so
# an untraced run splits its time over several and takes medians.
MEASURING_PROCESSES = 3
# Every worker must have ended this long after ``--seconds`` have passed
# from the start: room for set-ups and for the last rounds' overrun.
DEADLINE_MARGIN_S = 140
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchmarkError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root: Path, argv: list[str], deadline: float) -> dict:
    """Run ``perfbench.worker`` in a new process; return its JSON result."""
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *argv],
            cwd=root, env=worker_env(root), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker took longer than {timeout} s: {argv}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def combine(results: list[dict]) -> dict:
    """One result from several processes: each metric is the median over them."""
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
               "unit": metric["unit"]}
        for name, metric in results[0]["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
        "rounds": [n for r in results for n in r["rounds"]],
        "problems": [x for r in results for x in r["problems"]],
        "processes": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one hkcert benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("paper", "gaps_d10", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hkcert" / "__init__.py").is_file():
        print(f"error: no src/hkcert under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result = run_worker(
                root, [*common, "--seconds", str(args.seconds), "--trace", "1"], deadline
            )
        else:
            result = combine([
                run_worker(root, [*common, "--seconds", str(args.seconds / MEASURING_PROCESSES),
                                  "--trace", "0"], deadline)
                for _ in range(MEASURING_PROCESSES)
            ])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for problem in result["problems"]:
        print(f"check failed: {problem}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={result['rounds']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
