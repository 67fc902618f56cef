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
from dataclasses import fields, is_dataclass

import pytest

from hkcert.certify import Certificate, reverify_certificate
from hkcert.cli import _COMMANDS, main
from hkcert.report import loads

GOLDEN = {
    "prove --dim 10 --k 5": "3a84c8f3634e839f624c842ab028a713df93c88fc25b3833ca1f0565e31cfa1f",
    "prove --dim 7 --k 1": "83f977b55dce0fed61f79a0159f743d34e4f10730fa2bc693cc153d855860dfa",
    "table1": "a032cad17f5b77ec0236a98102e8deb44d0f3bfb2102a3a4aba22fa39df6477a",
    "table2": "74f1b145facf7b6518668de512615bb23560470dabc9be2bd4f4cce32666c5fc",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "5913e7ea18fda345ea93edda4711c03bce2097049417db79b7a09197dbe8a84b"
    ),
    "prove --dim 7 --k 1 --rounds 5": (
        "a2b892e9095921031181dac0da4c1f262231c44791bed5563e69e27425f2c1ec"
    ),
    # Optimizations that scan more boxes than the volume memo holds, and
    # many coverings of one dimension.
    "prove --dim 8 --k 4 --rounds 7": (
        "7f7047003c5f8f48cc145c5f2f4330ca58a6fcb173d66bf383db147a942ff2de"
    ),
    "prove --dim 9 --k 2": "2b858af6c2d35259a612559e2f229652e09081516a14c8d07d90b307842e1d2a",
    # One command for each payload kind the reports above do not contain.
    "nu --d 7 --s 7/2": "389d14c0c7bda50ed22197c55d4a82108d3975cd7f3a860a2a628045be4a3bc3",
    "series --max 10": "2d3881f826bc8192261eededcd67da84232559a1870affecfe272dfb65086b42",
    "quadric --check-identities": (
        "7ba74791f47a99e75280c794f07006b496325abe17be7e62dcadb1eddcfb7759"
    ),
    "optimize --kind h --e 13/3": (
        "6c890e48be198d5885e391d52e662bd280cb96e63820eafc1a76184fa2bdb338"
    ),
    "surface --dim 7 --e 7 --grid 40x30": (
        "c74df4a0db48230fcd3b14cee50515df7cc420da5aefe98b7e546dba2d26eda1"
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
    "table2": "b2863a0d2d7e82af1367d2759b774ff088588b90e910f9616dac9e77747e400d",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "65055b893883d84c9508ae02da2c5881ccd96f125416bc65cbd859b0b3583bd0"
    ),
    "prove --dim 7 --k 1 --rounds 5": (
        "189275965a82d1e4a092a91863c598e0399510251cf66976dd6155ce8fcdba18"
    ),
    "prove --dim 8 --k 4 --rounds 7": (
        "ee018dff6c9942b00909445cda6dddef519da0a446ae930c24fd08c3810cd878"
    ),
    "prove --dim 9 --k 2": "595656bc06fc47e4fee2f9cf75099c3393cefe319478d8d62200d21d88cdf171",
    "nu --d 7 --s 7/2": "6cda55eac052cd3472dd802b264265b0eb306233adc1e3984931fbc6862c0874",
    "series --max 10": "3561eb7910d5da7603bc97528f2610032d82989b6eeb80f9c008304b3cbb5103",
    "quadric --check-identities": (
        "94c892ae144bb08b20899ae6a8144c9cdc4ffe0d7f36de5002f2dc492ee839f7"
    ),
    "optimize --kind h --e 13/3": (
        "0c0fa05ad97782c8be27afb5af9bd1ff254f9341aa6b64a5270b5f7f1ab062e8"
    ),
    "surface --dim 7 --e 7 --grid 40x30": (
        "0b1181aff34ccd0afafec7cc58d5bcaf3f1d5471db27f34dd85db88f68069722"
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
