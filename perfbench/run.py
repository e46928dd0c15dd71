"""gausstomo benchmark: end-to-end and traced per-layer timings of four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. Every workload input is derived from ``--seed``. The load model is
a closed loop: one process and one caller, each call issued after the
previous one returns. Workload processes run one at a time, with one BLAS
thread.

With ``--trace 0`` several fresh processes time set-up (import gausstomo and
build the inputs) and one more runs whole workload bodies for ``--seconds``;
the end-to-end metrics are printed. Times are CPU seconds of the workload
process scaled to the reference speed (see ``REFERENCE_CPU_S``); raw CPU
and wall times are in the report line. With ``--trace 1`` one body runs under
the tracer and untraced bodies follow; the per-layer metrics are printed and
spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full report (failures, digests, provenance). The exit code is 0
only when every unit passed its correctness gate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0  # pinned digests apply at this seed only
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the measuring one included
# CPU seconds of worker.reference_kernel at the reference speed. Times are
# reported at that speed: each process's CPU times are scaled by
# REFERENCE_CPU_S / (its own median reference time).
REFERENCE_CPU_S = 0.02
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _spawn(args, mode, outdir, seconds, deadline, trace_file=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--outdir", outdir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_pinned(args, report):
    """Compare unit digests with those pinned at the default seed on the
    same platform; returns (status, failures)."""
    if args.tiny or args.seed != DEFAULT_SEED:
        return "not pinned for this seed", []
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    if pinned["fingerprint"] != report["provenance"]["fingerprint"]:
        return "skipped: numpy, BLAS or CPU features differ from the pinned platform", []
    expected = pinned["digests"][args.workload]
    failures = [f"{unit}: digest {report['digests'].get(unit)} != pinned {digest}"
                for unit, digest in expected.items() if report["digests"].get(unit) != digest]
    return ("mismatch" if failures else "matched"), failures


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0] if values else None, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "gausstomo", "__init__.py")):
        sys.stderr.write(f"perfbench: no gausstomo sources under {ROOT}/src\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    outroot = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outroot, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=outroot)
    try:
        if args.trace:
            trace_file = os.path.join(outroot, f"trace-{args.workload}-seed{args.seed}.jsonl")
            report = _spawn(args, "trace", outdir, args.seconds, deadline, trace_file)
            metrics = report["metrics"]
            units = PER_LAYER
        else:
            setups = [_spawn(args, "setup", outdir, args.seconds, deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            report = _spawn(args, "measure", outdir, args.seconds, deadline)
            setups.append(report)
            report["setup_samples"] = {key: [s[key] for s in setups]
                                       for key in ("setup_cpu_s", "setup_wall_s", "setup_ref_cpu_s")}
            report["unit_stats"] = {u: _quartiles(v) for u, v in report["unit_cpu_s"].items()}
            speed = REFERENCE_CPU_S / statistics.median(report["ref_cpu_s"])
            cpu_s = report["cpu_s"] * speed
            report["reference_speed"] = speed
            metrics = {
                "setup_s": statistics.median(s["setup_cpu_s"] * REFERENCE_CPU_S / s["setup_ref_cpu_s"]
                                             for s in setups),
                "cpu_s": cpu_s,
                "settings_per_cpu_s": report["settings"] / cpu_s if cpu_s else 0.0,
                "peak_rss_mb": report["peak_rss_mib"],
            }
            units = END_TO_END
    except WorkerError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    status, pin_failures = _check_pinned(args, report)
    failures = report["failures"] + pin_failures
    failed = min(report["attempted"], report["failed"] + len(pin_failures))
    attempted = report["attempted"]
    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest_check": status, "failures": failures,
        "failed_frac": {"value": failed / attempted, "unit": "ratio",
                        "base": f"{attempted} units attempted (unit calls, the analytic "
                                "oracle and, when traced, the settings-count check)"},
    })
    report.pop("metrics", None)
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    for failure in failures:
        sys.stderr.write(f"perfbench: FAILED {failure}\n")
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal problem sizes, for the benchmark's self-test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
