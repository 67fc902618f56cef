"""The JSON reports of the paper's commands, pinned byte for byte.

A speed-up of the float search must leave every witness, certificate,
interval and gap as it was, so each of these ``--no-timestamp`` reports
must keep its SHA-256 digest.  Three commands also pin their stdout, so
that the one line per gap run cannot drift.  A change that alters a report
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
from hkcert.cli import main
from hkcert.report import loads

GOLDEN = {
    "prove --dim 10 --k 5": "2a883839ce5286fdc88d97278e0d7990aa24f436893df267d0bb82e05734ebf9",
    "prove --dim 7 --k 1": "3d179feb6682d73f93159695ebe3083a8774aabd611d01ebd5549d7aacc8b393",
    "table1": "51904c75a9e008503714c5c4aeb4282d2ebee118e097b3163a6c0ecd67e26d52",
    "table2": "c42273748294d89c8fc8981adec06f3afa8f32df794a4aee22369527ddf18584",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "65a650f6a42e81d64a63387a1915f5c252d9787bde7ac1727a23f08055d17b0d"
    ),
    "prove --dim 7 --k 1 --rounds 5": (
        "0a129809254530c11f653557564a932363c567a3f7bda1e1f222986c7cf99729"
    ),
    # Optimizations that scan more boxes than the volume memo holds, and
    # many coverings of one dimension.
    "prove --dim 8 --k 4 --rounds 7": (
        "3a48547bda80f39b1ac9a11bbe7bf583d59a8b5ca27131b04f5bf3d0a10dfc71"
    ),
    "prove --dim 9 --k 2": "ca803a0e6c50391b5d7a0779f0c2ec73f98a2cbcc9c6a8cd19c69f5e2b227a95",
    # One command for each payload kind the reports above do not contain.
    "nu --d 7 --s 7/2": "5caed7c0582f162f223a9c43450c0f4b3deb2452bbd86021c70d07f26a1687eb",
    "series --max 10": "1c7d35af6aef6cce8264030dab03b2bdd32f00c18ec5617cdd52adc47e5baa1c",
    "quadric --check-identities": (
        "6b29cd365adebcf81b0a790f3bfca7159173ceb28d7319ecab983494e50c0659"
    ),
    "optimize --kind h --e 13/3": (
        "674d573168ffc7358c2dec633ac502906781fa33f143783b728650fc8f4eb356"
    ),
    "surface --dim 7 --e 7 --grid 40x30": (
        "1d80cd9f5d84cc184ddc4deb2f4ed6c156320188a76b8ef5346645d5cb9e1dc6"
    ),
}

STDOUT = {
    "prove --dim 10 --k 5": "d6a4237b5179e47e160e9cb0a60170ca8b89f184f1fc8e96e8db3449ddee9a08",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "65055b893883d84c9508ae02da2c5881ccd96f125416bc65cbd859b0b3583bd0"
    ),
    "table2": "b2863a0d2d7e82af1367d2759b774ff088588b90e910f9616dac9e77747e400d",
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
    if command in STDOUT:
        out = stdout.getvalue()
        assert out.endswith(f"wrote {path}\n")
        assert _sha256(out.removesuffix(f"wrote {path}\n").encode()) == STDOUT[command]
