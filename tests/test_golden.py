"""The JSON reports of the paper's commands, pinned byte for byte.

A speed-up of the float search must leave every witness, certificate,
interval and gap as it was, so each of these ``--no-timestamp`` reports
must keep its SHA-256 digest.  Each command also pins its stdout, so
that no printed line, such as the one line per gap run, can drift.  Every
subcommand pins at least one report.  A change that alters a report
on purpose recomputes the digests with

    PYTHONPATH=src python -m hkcert <command> --json out.json --no-timestamp > out.txt
    sha256sum out.json
    head -n -1 out.txt | sha256sum   # stdout without its "wrote" line

and says in CHANGES.md why the report moved.  Every certificate in each
report must also re-verify from the report alone, so a re-pinned digest
never pins a report that fails to.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import hkcert
from hkcert.certify import Certificate, reverify_certificate
from hkcert.cli import _COMMANDS, main
from hkcert.report import loads

GOLDEN = {
    "prove --dim 10 --k 5": "96fec25fe39e43d6b82ae8335b8bea9b4f90438e6155f5797ef4a5fbbc9d339d",
    "prove --dim 7 --k 1": "532443f23778a9b9a62d1e63191b37d014f95206fd7f2c18f5cb1d48bdc01aa3",
    "table1": "1ad9391de58e673cb775b0fb7ecb9e89e1d92e806d33a87131e6a151f2e9dbec",
    "table2": "a38295372da0f1c8f05b983370f5215f3aeb8b966cb23c1e9c33242c7a8742d1",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "832df9df810fd31c0ee0322c54cce3e6a775b64f81a96457cc006b39f74c9d74"
    ),
    "prove --dim 7 --k 1 --rounds 5": (
        "0fb96e2517c65914dfe68496e9ca4990e68de787f2efaacd68d0339b5d12641e"
    ),
    # Optimizations with more refinement rounds, and many coverings of one
    # dimension.
    "prove --dim 8 --k 4 --rounds 7": (
        "a9f2f88059e1034aedfd43a9dce730e84934be38949323122e4510bf6f9443ae"
    ),
    "prove --dim 9 --k 2": "0b40fd2260c90fbf784cecfcfd1c85995d89597270b7a491d2ca0db3bc4885c3",
    # One command for each payload kind the reports above do not contain.
    "nu --d 7 --s 7/2": "389d14c0c7bda50ed22197c55d4a82108d3975cd7f3a860a2a628045be4a3bc3",
    "series --max 10": "2d3881f826bc8192261eededcd67da84232559a1870affecfe272dfb65086b42",
    "quadric --check-identities": (
        "7ba74791f47a99e75280c794f07006b496325abe17be7e62dcadb1eddcfb7759"
    ),
    "optimize --kind h --e 13/3": (
        "1bb39a2206bce90bc9dcc39bbc1aaec2652355887cd1137a33e198bea3a913cd"
    ),
    "surface --dim 7 --e 7 --grid 40x30": (
        "e5e8eb4037a3e88d430012c75431540e80fe72af64b511b226edaf1acec2f729"
    ),
    "bound --d 7 --e 6 --mu 4 --k 1 --s 2.84243 --t 0.8 --pre-rescale": (
        "8d6c5db0a2fe51b7e045f08a3a605b9f85eaeaa290ed1580fcdd19f579dd6715"
    ),
    "hbound --e 7 --s 2.74118 --t 0.779643": (
        "b06708fe651662e61cfb0b3f6beb67ac545b60d5ecd42125be700113bd29551a"
    ),
    "emax --s0 2.34 --t0 0.62": (
        "d3cfbd0c58de76ee55a81ea09647e0567d8618649488ab6dca3518e0e21ebeef"
    ),
    "rangemin --e1 13 --e2 19 --s0 2.34 --t0 0.62": (
        "7a702615f70bbceab468d4319042aa2bf6ce394405fb57870a7b4a35627aac47"
    ),
    "quadric --p 5": "2c243341b81e120b0e124f7a868c9849d7a43c5b4e9e66e0e15efe226c9596f1",
}

STDOUT = {
    "prove --dim 10 --k 5": "d6a4237b5179e47e160e9cb0a60170ca8b89f184f1fc8e96e8db3449ddee9a08",
    "prove --dim 7 --k 1": "189275965a82d1e4a092a91863c598e0399510251cf66976dd6155ce8fcdba18",
    "table1": "da2918166a9248a253d15137fa2ce8021bc8c7111bdc1bee0b70a767f580dcb9",
    "table2": "844e183ee6f13462a9b4f48a7a010f7330d31e1218ec430a90842d3350c73b98",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "a5648e20b7f3c80834956fb7ee022456ec710025dd6925122788fb4a07db6912"
    ),
    "prove --dim 7 --k 1 --rounds 5": (
        "189275965a82d1e4a092a91863c598e0399510251cf66976dd6155ce8fcdba18"
    ),
    "prove --dim 8 --k 4 --rounds 7": (
        "ee018dff6c9942b00909445cda6dddef519da0a446ae930c24fd08c3810cd878"
    ),
    "prove --dim 9 --k 2": "595656bc06fc47e4fee2f9cf75099c3393cefe319478d8d62200d21d88cdf171",
    "nu --d 7 --s 7/2": "f605de66ae6fc45a9aa86e4a25fc012af8973bd3ad545973b073c8ee5fd304a6",
    "series --max 10": "3561eb7910d5da7603bc97528f2610032d82989b6eeb80f9c008304b3cbb5103",
    "quadric --check-identities": (
        "94c892ae144bb08b20899ae6a8144c9cdc4ffe0d7f36de5002f2dc492ee839f7"
    ),
    "optimize --kind h --e 13/3": (
        "a943ef0c231aeebcbd823d5a40271fc685ebadaaf663394d1702813aabbc0685"
    ),
    "surface --dim 7 --e 7 --grid 40x30": (
        "df8d66f995a6ee91b956d545204dfdb4cb6c9caccc65b768f2b54943b168d2a7"
    ),
    "bound --d 7 --e 6 --mu 4 --k 1 --s 2.84243 --t 0.8 --pre-rescale": (
        "a365a2c4d6311f27da09b1a014fe8c2e2a57306d505beac89fd92cd591c41605"
    ),
    "hbound --e 7 --s 2.74118 --t 0.779643": (
        "88edf834359a12d14927257ceaeb8f61751fe2664d3dd4f1c2c28f2d50272d0c"
    ),
    "emax --s0 2.34 --t0 0.62": (
        "cbbaddbf7622e5b674508d944dd76e7a12942a2ee9c60f0b78657f00a79c3acf"
    ),
    "rangemin --e1 13 --e2 19 --s0 2.34 --t0 0.62": (
        "2a5f4782d4e52a5d25b55c6031bb4d44efb4f7b3855ab1fc7ae21f2fbf583df9"
    ),
    "quadric --p 5": "9b9a489e6b22475a3fa20e7b920feb3bce5a4463161ebf182a2473a8bfd33c25",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _certificates(value):
    """Every Certificate held in ``value``, a payload read back from JSON."""
    if isinstance(value, Certificate):
        yield value
    elif is_dataclass(value):
        for f in fields(value):
            yield from _certificates(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _certificates(item)


@pytest.mark.parametrize("command", GOLDEN, ids=GOLDEN)
def test_report_digest(command, tmp_path):
    path = tmp_path / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*command.split(), "--json", str(path), "--no-timestamp"]) == 0
    assert all(map(reverify_certificate, _certificates(loads(path.read_text()).payload)))
    assert _sha256(path.read_bytes()) == GOLDEN[command]
    out = stdout.getvalue()
    assert out.endswith(f"wrote {path}\n")
    assert _sha256(out.removesuffix(f"wrote {path}\n").encode()) == STDOUT[command]


@pytest.mark.parametrize("name", _COMMANDS)
def test_every_subcommand_pins_a_report(name):
    # A new subcommand ships with its report and stdout pinned above.
    assert any(command.split()[0] == name for command in GOLDEN)


# The float reports, and a proof, run with and without numpy's AVX-512
# kernels: the float volume uses only IEEE + and *, so every CPU gives the
# same bytes.
CPU_COMMANDS = [
    "surface --dim 7 --e 7 --grid 40x30",
    "nu --d 7 --s 7/2",
    "optimize --kind h --e 13/3",
    "prove --dim 7 --k 1",
]

# Runs each command of argv[1] (a JSON list) with its report in the
# directory argv[2], and prints the report and stdout of each, the AVX-512
# features numpy reports as available in this process (the x86-64-v4
# group, numpy's name for the AVX-512 level, included) and the dispatch
# targets it enables.
_RUN_COMMANDS = """
import contextlib, io, json, os, sys
from hkcert.cli import main
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
out = {}
for i, command in enumerate(json.loads(sys.argv[1])):
    path = os.path.join(sys.argv[2], f"{i}.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main([*command.split(), "--json", path, "--no-timestamp"])
    with open(path) as f:
        out[command] = [f.read(), stdout.getvalue().removesuffix(f"wrote {path}\\n")]
on = [f for f, enabled in umath.__cpu_features__.items() if enabled]
print(json.dumps({
    "reports": out,
    "avx512": [f for f in on if f.startswith("AVX512") or f == "X86_V4"],
    "dispatch": [f for f in umath.__cpu_dispatch__ if f in on],
}))
"""


def _run_commands(tmp_path: Path, disable: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(hkcert.__file__).parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    tmp_path.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, json.dumps(CPU_COMMANDS), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_the_same_reports_without_avx512(tmp_path):
    plain = _run_commands(tmp_path / "plain", None)
    features = plain["avx512"]
    if not set(plain["dispatch"]) & set(features):
        pytest.skip("numpy runs no AVX-512 kernel on this CPU: nothing to switch off")
    switched = _run_commands(tmp_path / "switched", " ".join(features))
    # The switch took: numpy dispatches to none of these features.
    assert not set(switched["dispatch"]) & set(features)
    assert switched["reports"] == plain["reports"]
