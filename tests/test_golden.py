"""The JSON reports of the paper's commands, pinned byte for byte.

A speed-up of the float search must leave every witness, certificate,
interval and gap as it was, so each of these ``--no-timestamp`` reports
must keep its SHA-256 digest.  A change that alters a report on purpose
recomputes the digest with

    PYTHONPATH=src python -m hkcert <command> --json out.json --no-timestamp
    sha256sum out.json

and says in CHANGES.md why the report moved.
"""

import contextlib
import hashlib
import io

import pytest

from hkcert.cli import main

GOLDEN = {
    "prove --dim 10 --k 5": "5447ed19571d8f36ed46a8efcc7f8594f2177bc716554a9ad61acce3267980e4",
    "prove --dim 7 --k 1": "3d179feb6682d73f93159695ebe3083a8774aabd611d01ebd5549d7aacc8b393",
    "table1": "51904c75a9e008503714c5c4aeb4282d2ebee118e097b3163a6c0ecd67e26d52",
    "table2": "c42273748294d89c8fc8981adec06f3afa8f32df794a4aee22369527ddf18584",
    "cover --dim 8 --k 4 --e-lo 6 --e-hi 41705 --target 8341/8064": (
        "ed7c0e54721e77a488f13cc901755af4d70e87e9c254fca2205feea187473a65"
    ),
    "prove --dim 7 --k 1 --rounds 5": (
        "0a129809254530c11f653557564a932363c567a3f7bda1e1f222986c7cf99729"
    ),
    # Optimizations that scan more boxes than the volume memo holds, and
    # many coverings of one dimension.
    "prove --dim 8 --k 4 --rounds 7": (
        "e24d6dd6f739ba2764fac7e1e46bc5eb9a15c899cd9b6e81175af3f3f9cd565c"
    ),
    "prove --dim 9 --k 2": "6682d6287cb3940c963b698667979a37265400e4eb56dab03fb174611b1456ad",
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


@pytest.mark.parametrize("command", GOLDEN, ids=GOLDEN)
def test_report_digest(command, tmp_path):
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*command.split(), "--json", str(path), "--no-timestamp"]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[command]
