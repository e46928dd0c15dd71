"""One workload process: set up, then measure, trace or just exit.

Started by ``run.py``, one at a time; it prints one JSON object on stdout.

* ``--mode setup``: import gausstomo and build the workload's inputs; report
  the CPU and wall time that took, and the reference kernel's CPU time
  (one ``setup_s`` sample).
* ``--mode measure``: set up, check the analytic oracle, then run the
  workload body, unit after unit, until ``--seconds`` would be exceeded.
* ``--mode trace``: set up and run one body under the tracer, then run
  untraced bodies for comparison.
"""

import time

_T0, _C0 = time.perf_counter(), time.process_time()  # before numpy and gausstomo load

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys

from metrics import PER_FUNCTION

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gausstomo

    if not os.path.abspath(gausstomo.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported gausstomo from {gausstomo.__file__}, not from {src}")
    import workloads  # imports numpy and gausstomo

    return workloads


def _blas_info():
    """Name, version, core and live thread count of the BLAS numpy uses."""
    import ctypes
    import glob

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"),
                "configuration": blas.get("openblas configuration")}
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            info["threads"] = int(lib.scipy_openblas_get_num_threads64_())
            info["core"] = lib.scipy_openblas_get_corename64_().decode()
        except (OSError, AttributeError):
            pass
    return info


def _fingerprint(numpy_version, blas):
    """What decides the output bits: numpy, the BLAS kernels and the CPU
    features numpy dispatches on. Pinned digests hold only where it matches."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return {"numpy": numpy_version, "blas_version": blas.get("version"),
            "blas_core": blas.get("core"),
            "cpu_features": sorted(k for k, v in __cpu_features__.items() if v)}


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy as np

    blas = _blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "workload_seed": seed,
        "load_model": "closed loop, one process and one caller; each call is issued "
                      "after the previous one returns; no worker threads beyond BLAS",
        "fingerprint": _fingerprint(np.__version__, blas),
    }


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ledger:
    """Unit outputs of a run: failures, digests of the first body, bookkeeping."""

    def __init__(self, wl):
        self.wl = wl
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.kept = 0
        self.reconstructions = 0
        self.bytes_written = 0

    def record(self, unit, result):
        """Check one unit output; the first output of each unit sets its
        digest and bookkeeping, later ones must reproduce that digest."""
        self.attempted += 1
        try:
            out = unit.finish(result)
        except (ValueError, KeyError) as exc:  # e.g. a CSV that does not parse
            from workloads import Output

            out = Output(b"", [f"malformed output: {exc!r}"], 0, 0)
        digest = hashlib.sha256(out.payload).hexdigest()
        problems = list(out.problems)
        if unit.name not in self.digests:
            self.digests[unit.name] = digest
            self.kept += out.kept
            self.reconstructions += out.reconstructions
            self.bytes_written += out.bytes_written
        elif digest != self.digests[unit.name]:
            problems.append("output differs from the first run of this unit at the same seed")
        self.fail(unit.name, problems)

    def fail(self, name, problems):
        """Count one failed unit if ``problems`` is not empty."""
        self.failed += bool(problems)
        self.failures.extend(f"{name}: {p}" for p in problems)

    def raised(self, unit, exc):
        self.attempted += 1
        self.fail(unit.name, [f"raised {type(exc).__name__}: {exc}"])

    def check_oracle(self):
        self.attempted += 1
        self.fail("analytic-oracle", self.wl.oracle())


def reference_kernel():
    """Fixed work that runs no gausstomo code: generator construction, small
    draws and reductions, a 64 x 64 matrix-vector product and Python object
    churn, the mix of the package's per-setting path."""
    import numpy as np

    m = np.random.default_rng(12345).standard_normal((64, 64))
    acc = 0.0
    for i in range(600):
        rng = np.random.default_rng(i)
        w = m @ rng.standard_normal(64)
        z = rng.standard_normal((16, 8))
        acc += float(w[i % 64]) + float(z.mean(axis=0)[0]) + len({"i": i, "s": str(i)})
    return acc


def reference_cpu_s():
    c = time.process_time()
    reference_kernel()
    return time.process_time() - c


def run_bodies(wl, ledger, seconds):
    """Run the body's units in turn until the next unit would end after
    ``seconds`` of wall time; the whole body always runs at least once.

    Returns the wall and the CPU durations of each unit, and the CPU time of
    the reference kernel run before each unit. CPU time is that of the whole
    process: it excludes time the machine gave to other guests (steal).
    """
    walls = {u.name: [] for u in wl.units}
    cpus = {u.name: [] for u in wl.units}
    refs = []
    start = time.perf_counter()
    for count in itertools.count():
        unit = wl.units[count % len(wl.units)]
        last = walls[unit.name][-1] if walls[unit.name] else 0.0
        if count >= len(wl.units) and time.perf_counter() - start + last > seconds:
            return walls, cpus, refs
        refs.append(reference_cpu_s())
        t, c = time.perf_counter(), time.process_time()
        try:
            result = unit.call()
        except Exception as exc:  # a unit that raises is a failure, not a crash
            ledger.raised(unit, exc)
            continue
        cpus[unit.name].append(time.process_time() - c)
        walls[unit.name].append(time.perf_counter() - t)
        ledger.record(unit, result)


def body_time(times):
    """Median time of each unit, summed over the body."""
    return sum(statistics.median(v) for v in times.values() if v)


def rng_peak_draws_per_s(seed):
    """Raw standard_normal rate: best of several 2^20-draw fills."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = np.empty(1 << 20)
    best = float("inf")
    for _ in range(9):
        t = time.perf_counter()
        rng.standard_normal(out=out)
        best = min(best, time.perf_counter() - t)
    return out.size / best


def _per_setting_counter(acc):
    """Computed per-setting work: normal draws and evolve flops.

    Homodyne draws floor(m/2) outcomes per quadrature, heterodyne m joint
    shots of both quadratures, the analytic backend none; evolving the
    covariance is two (2N)^3 matrix products of 2 (2N)^3 flops each.
    """
    def before(device, probe, config):
        n = device.n_modes
        acc["devices"][id(device)] = device
        acc["evolve_flops"] += 4 * (2 * n) ** 3
        if not config.analytic:
            per_quad = config.shots // 2 if config.scheme == "homodyne" else config.shots
            acc["draws"] += 2 * n * per_quad

    return before


def trace_metrics(wl, tracer, acc, traced_cpu, untraced_cpu, ledger, rng_peak):
    totals = tracer.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    metrics = {}
    for name in PER_FUNCTION:
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self_s")
    devices = acc["devices"].values()
    settings_used = sum(d.settings_used for d in devices)
    sample_self = get("device.sample_quadratures", "self_s")
    draws_per_s = acc["draws"] / sample_self if sample_self > 0 else 0.0
    metrics.update({
        "core.evolve_flops": acc["evolve_flops"],
        "device.settings_used": settings_used,
        "device.probes_used": sum(d.probes_used for d in devices),
        "device.draws": acc["draws"],
        "device.draw_bytes": 8 * acc["draws"],
        "device.draws_per_s": draws_per_s,
        "device.rng_peak_draws_per_s": rng_peak,
        "device.draw_efficiency": draws_per_s / rng_peak,
        "tomography.kept_frac": ledger.kept / ledger.reconstructions if ledger.reconstructions else 1.0,
        "cli.bytes_written": ledger.bytes_written,
        "trace.overhead_frac": traced_cpu / untraced_cpu - 1.0,
    })
    calls = get("device.probe_and_measure", "calls")
    ledger.attempted += 1
    if not settings_used == calls == wl.settings:
        ledger.fail("settings-count", [
            f"definition {wl.settings}, probe_and_measure calls {calls}, "
            f"SimulatedDevice.settings_used {settings_used}"])
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    workloads = _import_package()
    if args.mode != "trace":
        wl = workloads.build(args.workload, args.seed, args.tiny, args.outdir)
        setup = {"setup_cpu_s": time.process_time() - _C0, "setup_wall_s": time.perf_counter() - _T0,
                 "setup_ref_cpu_s": statistics.median(reference_cpu_s() for _ in range(5))}
        if args.mode == "setup":
            print(json.dumps(setup))
            return
        ledger = Ledger(wl)
        ledger.check_oracle()
        walls, cpus, refs = run_bodies(wl, ledger, args.seconds)
        report = {**setup, "unit_wall_s": walls, "unit_cpu_s": cpus, "ref_cpu_s": refs,
                  "wall_s": body_time(walls), "cpu_s": body_time(cpus)}
    else:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        acc = {"devices": {}, "draws": 0, "evolve_flops": 0}
        uninstall = tracing.install(
            tracer, before={"device.probe_and_measure": _per_setting_counter(acc)})
        with tracer.span("bench.setup"):
            wl = workloads.build(args.workload, args.seed, args.tiny, args.outdir)
        ledger = Ledger(wl)
        results = []
        traced_cpu = traced_wall = 0.0
        with tracer.span("bench.body"):
            for unit in wl.units:
                with tracer.span(f"bench.unit:{unit.name}"):
                    t, c = time.perf_counter(), time.process_time()
                    try:
                        results.append((unit, unit.call()))
                    except Exception as exc:  # a unit that raises is a failure, not a crash
                        ledger.raised(unit, exc)
                    traced_cpu += time.process_time() - c
                    traced_wall += time.perf_counter() - t
        uninstall()
        for unit, result in results:
            ledger.record(unit, result)
        ledger.check_oracle()
        # untraced bodies at the same seed must reproduce the traced digests
        walls, cpus, _ = run_bodies(wl, ledger, args.seconds / 2)
        rng_peak = rng_peak_draws_per_s(args.seed)
        metrics = trace_metrics(wl, tracer, acc, traced_cpu, body_time(cpus), ledger, rng_peak)
        tracer.write(args.trace_file)
        report = {"metrics": metrics, "traced_wall_s": traced_wall, "traced_cpu_s": traced_cpu,
                  "untraced_wall_s": body_time(walls), "untraced_cpu_s": body_time(cpus),
                  "spans": len(tracer.spans)}

    report.update({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "digests": ledger.digests,
        "settings": wl.settings,
        "units": [u.name for u in wl.units],
        "params": wl.params,
        "kept": ledger.kept,
        "reconstructions": ledger.reconstructions,
        "peak_rss_mib": _peak_rss_mib(),
        "provenance": provenance(args.seed),
    })
    print(json.dumps(report))


if __name__ == "__main__":
    main()
