"""The JSON reports of the paper's commands, pinned byte for byte.

A speed-up of the float search must leave every witness, certificate,
interval and gap as it was, so each of these ``--no-timestamp`` reports
must keep its SHA-256 digest.  Three commands also pin their stdout, so
that the one line per gap run cannot drift.  A change that alters a report
on purpose recomputes the digests with

    PYTHONPATH=src python -m hkcert <command> --json out.json --no-timestamp > out.txt
    sha256sum out.json
    head -n -1 out.txt | sha256sum   # stdout without its "wrote" line

and says in CHANGES.md why the report moved.
"""

import contextlib
import hashlib
import io

import pytest

from hkcert.cli import main

GOLDEN = {
    "prove --dim 10 --k 5": "58da9259acc6a3ef0df34be09d7431af89b1c74404dad11cd430bd16f036a9a1",
    "prove --dim 7 --k 1": "3d179feb6682d73f93159695ebe3083a8774aabd611d01ebd5549d7aacc8b393",
    "table1": "51904c75a9e008503714c5c4aeb4282d2ebee118e097b3163a6c0ecd67e26d52",
    "table2": "c42273748294d89c8fc8981adec06f3afa8f32df794a4aee22369527ddf18584",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "09dd505480314978c22a387fc81bb990ab53a3a3bb1b5377554d5c2e6a517073"
    ),
    "prove --dim 7 --k 1 --rounds 5": (
        "0a129809254530c11f653557564a932363c567a3f7bda1e1f222986c7cf99729"
    ),
    # Optimizations that scan more boxes than the volume memo holds, and
    # many coverings of one dimension.
    "prove --dim 8 --k 4 --rounds 7": (
        "557758b6fd3a334742b1d82b68c6d76113b854fa22954362f8bb43b2e9b19fc4"
    ),
    "prove --dim 9 --k 2": "170e4132ff9e9538d5b0f1ccb1a46049fc0ce23524a001a9f5b2771acfb7349b",
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


@pytest.mark.parametrize("command", GOLDEN, ids=GOLDEN)
def test_report_digest(command, tmp_path):
    path = tmp_path / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*command.split(), "--json", str(path), "--no-timestamp"]) == 0
    assert _sha256(path.read_bytes()) == GOLDEN[command]
    if command in STDOUT:
        out = stdout.getvalue()
        assert out.endswith(f"wrote {path}\n")
        assert _sha256(out.removesuffix(f"wrote {path}\n").encode()) == STDOUT[command]
