"""The CLI outputs whose bytes a change that keeps every answer must not change.

``INVOCATIONS`` lists the ``gausstomo`` command lines that write 38 files:

* 3 device files (generate, N = 1, 3 and 16)
* 1 unitary file (generate --kind unitary, N = 8)
* 12 reconstructions: N = 3 and 16 x both schemes x shots 3, 100 and inf
* 2 reconstructions at N = 16, both schemes at 1000 shots: sampling blocks
  taller than a model's factor tiles
* 2 reconstructions at N = 16, homodyne at 2048 and 2050 shots: a setting's
  X and P shots just fit one sampling block (2 x 1024 x 16 values), and just
  do not, so each quadrature is drawn in a block of its own
* 6 reconstructions at N = 1 (2 settings), both schemes at 100, 10**4 and
  100003 shots; at 100003 the shots are drawn in several leaves of NumPy's
  pairwise split, where a tree drawing one block of every shot has one
* 2 reconstructions at N = 3, seeds 2**64 - 1 (the largest one-word-pair
  master) and 2**64 (the smallest of three words)
* the four README experiments at reduced --reps: 4 CSV and 4 .meta.json files
* 2 detect verdicts, analytic and at 100 shots, from standard output

Run as a script, it writes them into OUTDIR, in one process through
``gausstomo.cli.main``, with the package imported from PYTHONPATH, absolute so
that one list serves two trees whose outputs CI compares with ``diff -r``:

    PYTHONPATH="$PWD/src" python tests/golden.py OUTDIR

``test_golden.py`` compares their bytes with a fresh process's, and each file's
SHA-256 with ``golden.json``. Run with ``--manifest`` instead of OUTDIR, it
prints this platform's ``golden.json`` entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _reconstruct(device: str, scheme: str, shots, out: str, seed: int = 0) -> list[str]:
    return ["reconstruct", "--device", device, "--scheme", scheme, "--shots", str(shots),
            "--loss", "0.5", "--seed", str(seed), "--out", out]


def _generate(n: int) -> list[str]:
    return ["generate", "--kind", "symplectic", "--modes", str(n), "--r-max", "0.5",
            "--seed", "7", "--out", f"s{n}.json"]


# (argv, the file standard output goes to or None), in the order they run:
# a device file is written before the reconstructions that read it
INVOCATIONS: list[tuple[list[str], str | None]] = [
    *((argv, None) for n in (3, 16) for argv in (
        _generate(n),
        *(_reconstruct(f"s{n}.json", scheme, shots, f"recon-{n}-{scheme}-{shots}.json")
          for scheme in ("homodyne", "heterodyne") for shots in (3, 100, "inf")))),
    (_generate(1), None),
    (["generate", "--kind", "unitary", "--modes", "8", "--seed", "7", "--out", "u8.json"], None),
    *((argv, None) for scheme in ("homodyne", "heterodyne") for argv in (
        _reconstruct("s16.json", scheme, 1000, f"recon-16-{scheme}-1000.json"),
        *(_reconstruct("s1.json", scheme, shots, f"recon-1-{scheme}-{shots}.json")
          for shots in (100, 10000, 100003)))),
    *((_reconstruct("s16.json", "homodyne", shots, f"recon-16-homodyne-{shots}.json"), None)
      for shots in (2048, 2050)),
    *((_reconstruct("s3.json", "heterodyne", 100, f"recon-3-seed-{seed}.json", seed), None)
      for seed in (2**64 - 1, 2**64)),
    (["experiment", "mode-scaling", "--modes", "2,4,8,12", "--schemes", "homodyne,heterodyne",
      "--losses", "0,0.5", "--shots", "100", "--reps", "3", "--seed", "41",
      "--out", "modes.csv"], None),
    (["experiment", "unitary-scaling", "--modes", "2,4,8", "--schemes", "homodyne,heterodyne",
      "--shots", "100", "--reps", "3", "--seed", "3", "--out", "unitary.csv"], None),
    (["experiment", "intensity", "--amplitudes", "10,31.62,100", "--trials", "1,10,100",
      "--shots", "100", "--reps", "2", "--seed", "1", "--out", "intensity.csv"], None),
    (["experiment", "phase-error", "--phi-max", "0.05", "--trials", "1,10,100,1000",
      "--reps", "3", "--seed", "2", "--out", "phase.csv"], None),
    (["detect", "--gamma", "0.1", "--amplitudes", "1,2", "--shots", "inf"], "detect-inf.txt"),
    (["detect", "--gamma", "0.1", "--amplitudes", "1,2,3", "--shots", "100", "--seed", "5"],
     "detect-100.txt"),
]


def write_outputs(outdir: str, invocations=INVOCATIONS) -> None:
    """Run ``invocations`` (every one by default) from inside ``outdir``: relative
    paths, so each ``.meta.json`` records the same argv wherever it is written."""
    from gausstomo.cli import main

    os.makedirs(outdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for argv, stdout in invocations:
            with contextlib.ExitStack() as stack:
                if stdout is not None:
                    stack.enter_context(contextlib.redirect_stdout(
                        stack.enter_context(open(stdout, "w", encoding="utf-8"))))
                code = main(list(argv))
            if code:
                raise RuntimeError(f"gausstomo {' '.join(argv)} exited with {code}")
    finally:
        os.chdir(cwd)


def digests(outdir: str) -> dict[str, str]:
    """SHA-256 of every file in ``outdir``, by name."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def fingerprint() -> dict:
    """What decides the output bits here, as perfbench reads it (``perfbench/worker.py``): the
    NumPy version, the BLAS version and the OpenBLAS kernel it runs, and the CPU features NumPy
    dispatches on (with AVX512_SKX, _ICL and _SPR disabled, 13 of the 37 files pinned before
    u8.json change)."""
    import numpy as np

    sys.path.insert(0, PERFBENCH)
    try:
        import worker
    finally:
        sys.path.remove(PERFBENCH)
    return worker._fingerprint(np.__version__, worker._blas_info())


if __name__ == "__main__":
    if sys.argv[1:] == ["--manifest"]:
        with tempfile.TemporaryDirectory() as tmp:
            write_outputs(tmp)
            entry = {"fingerprint": fingerprint(), "sha256": digests(tmp)}
        print(json.dumps(entry, indent=2))
    elif len(sys.argv) == 2:
        write_outputs(sys.argv[1])
    else:
        raise SystemExit("usage: python tests/golden.py OUTDIR | --manifest")
