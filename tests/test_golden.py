"""Every output byte of ``golden.INVOCATIONS``, on each platform ``golden.json`` pins.

The bytes depend on the NumPy version, the BLAS kernel and the CPU features
NumPy dispatches on; on a platform the manifest does not list, the test is
skipped with its fingerprint in the reason. Regenerate an entry with
``PYTHONPATH=src python tests/golden.py --manifest`` on a tree whose outputs
are known good.
"""

import json
import os

import pytest

import golden

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def test_output_bytes_match_the_manifest(tmp_path):
    fingerprint = golden.fingerprint()
    with open(MANIFEST, encoding="utf-8") as fh:
        platforms = json.load(fh)["platforms"]
    expected = next((p["sha256"] for p in platforms if p["fingerprint"] == fingerprint), None)
    if expected is None:
        pytest.skip(f"no golden bytes for this platform: {json.dumps(fingerprint)}")
    golden.write_outputs(str(tmp_path))
    got = golden.digests(str(tmp_path))
    assert sorted(got) == sorted(expected)
    assert [name for name in expected if got[name] != expected[name]] == []
