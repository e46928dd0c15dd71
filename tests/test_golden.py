"""Every output byte of ``golden.INVOCATIONS``, again in a fresh process and on each platform
``golden.json`` pins; every number of a few of them within a bound under another BLAS kernel.

The bytes depend on the NumPy version, the BLAS kernel and the CPU features
NumPy dispatches on; on a platform the manifest does not list, its test is
skipped with the fingerprint in the reason. Regenerate an entry with
``PYTHONPATH=src python tests/golden.py --manifest`` on a tree whose outputs
are known good. Across OpenBLAS kernels the numbers agree to roundoff, and the
last test bounds it wherever OpenBLAS can switch kernels.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gausstomo
import golden

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """SHA-256 of every golden output, written in this process, by name."""
    outdir = str(tmp_path_factory.mktemp("golden"))
    golden.write_outputs(outdir)
    return golden.digests(outdir)


def test_output_bytes_match_the_manifest(written):
    fingerprint = golden.fingerprint()
    with open(MANIFEST, encoding="utf-8") as fh:
        platforms = json.load(fh)["platforms"]
    expected = next((p["sha256"] for p in platforms if p["fingerprint"] == fingerprint), None)
    if expected is None:
        pytest.skip(f"no golden bytes for this platform: {json.dumps(fingerprint)}")
    assert sorted(written) == sorted(expected)
    assert [name for name in expected if written[name] != expected[name]] == []


def test_output_bytes_repeat_in_a_fresh_process(written, tmp_path):
    """On every platform, a fresh interpreter writes every output again byte for byte: none
    reads a clock, a buffer row it has not written or state an earlier call left behind."""
    assert _write_elsewhere(tmp_path, golden.INVOCATIONS) == golden.fingerprint()
    again = golden.digests(str(tmp_path))
    assert sorted(again) == sorted(written)
    assert next((name for name in written if again[name] != written[name]), None) is None


# The cross-kernel bounds: at least 10x the largest change measured under OpenBLAS's
# Haswell, Sandybridge and Nehalem kernels against SkylakeX (NumPy 2.4.6, OpenBLAS 0.3.31):
# 4e-15 of a matrix's largest entry, 4.2e-13 in an f_mean and 6e-12 in an f_stderr, where
# the sample standard deviation cancels.
MATRIX_BOUND = 4e-14
F_MEAN_BOUND = 4.2e-12
F_STDERR_BOUND = 6e-11
# kernels that run on any x86-64 CPU first; the first one unlike the in-process kernel is used
KERNELS = ("Nehalem", "Sandybridge", "Haswell")
# one sweep, and the device files and N = 3 and 16 reconstructions, shots 3, 100 and inf
CROSS_KERNEL_FILES = {"s3.json", "s16.json", "modes.csv", *(
    f"recon-{n}-{scheme}-{shots}.json" for n in (3, 16) for scheme in ("homodyne", "heterodyne")
    for shots in (3, 100, "inf"))}
CROSS_KERNEL = [(argv, stdout) for argv, stdout in golden.INVOCATIONS
                if "--out" in argv and argv[argv.index("--out") + 1] in CROSS_KERNEL_FILES]
SUBPROCESS = """
import json, sys
import golden
golden.write_outputs(sys.argv[1], json.loads(sys.argv[2]))
print(json.dumps(golden.fingerprint()))
"""


def _write_elsewhere(outdir, invocations, **env) -> dict:
    """Write ``invocations``' outputs into ``outdir`` in a fresh interpreter importing this
    package, with this process's environment updated by ``env``; return its fingerprint."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(gausstomo.__file__)))
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join((src_dir, tests_dir))}
    done = subprocess.run([sys.executable, "-c", SUBPROCESS, str(outdir), json.dumps(invocations)],
                          env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


def _assert_near(a, b, bound, scale, what):
    assert abs(a - b) <= bound * scale, f"{what}: {a!r} here, {b!r} under the other kernel"


def _assert_matrices_near(a, b, what):
    """Matrix JSON ``a`` and ``b`` differ in no field but their data, and there by at most
    ``MATRIX_BOUND`` of ``a``'s largest entry, which is returned."""
    assert {**a, "data": None} == {**b, "data": None}, what
    x, y = np.array(a["data"]), np.array(b["data"])
    scale = float(np.abs(x).max())
    _assert_near(0.0, float(np.abs(x - y).max()), MATRIX_BOUND, scale, what)
    return scale


def _assert_outputs_near(path_a, path_b):
    """Every number of two runs' output file within its bound, every other field equal."""
    name = os.path.basename(path_a)
    if name.endswith(".csv"):
        with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
            rows_a, rows_b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
        assert len(rows_a) == len(rows_b), name
        for a, b in zip(rows_a, rows_b):
            for column, bound in (("f_mean", F_MEAN_BOUND), ("f_stderr", F_STDERR_BOUND)):
                x, y = float(a.pop(column)), float(b.pop(column))
                _assert_near(x, y, bound, abs(x), f"{name} {column}")
            assert a == b, name
        return
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    if name.endswith(".meta.json"):
        assert a == b, name
    elif "data" in a:  # a device file
        _assert_matrices_near(a, b, name)
    else:  # a reconstruction
        scale = _assert_matrices_near(a.pop("s_recon"), b.pop("s_recon"), f"{name} s_recon")
        _assert_matrices_near(a.pop("s_tilde"), b.pop("s_tilde"), f"{name} s_tilde")
        x, y = a.pop("eta_hat"), b.pop("eta_hat")
        _assert_near(x, y, MATRIX_BOUND, abs(x), f"{name} eta_hat")
        # roundoff itself at shots=inf (about 1e-16), so bounded on the matrix's scale
        x, y = a.pop("frobenius_vs_truth"), b.pop("frobenius_vs_truth")
        _assert_near(x, y, MATRIX_BOUND, scale, f"{name} frobenius_vs_truth")
        assert a == b, name


def test_outputs_under_another_blas_kernel_agree_to_roundoff(tmp_path):
    """A few invocations run again in a subprocess whose OpenBLAS runs another kernel, chosen
    by its own ``OPENBLAS_CORETYPE``: every number agrees with this process's within its
    bound, and every other byte is equal."""
    core = golden.fingerprint()["blas_core"]
    if core is None:
        pytest.skip("the BLAS is not scipy-openblas, so no other kernel can be chosen")
    kernel = next(k for k in KERNELS if k != core)
    here, there = tmp_path / "here", tmp_path / "there"
    golden.write_outputs(str(here), CROSS_KERNEL)
    ran = _write_elsewhere(there, CROSS_KERNEL, OPENBLAS_CORETYPE=kernel)["blas_core"]
    if ran != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} runs the {ran} kernel on this CPU")
    assert sorted(os.listdir(here)) == sorted(os.listdir(there))
    assert len(os.listdir(here)) == len(CROSS_KERNEL_FILES) + 1  # and modes.meta.json
    for name in sorted(os.listdir(here)):
        _assert_outputs_near(str(here / name), str(there / name))
