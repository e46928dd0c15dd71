"""Self-test of the benchmark: every workload at minimal size, traced and not.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _run(workload, trace, seed=0, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["failures"]
    return report, result


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

    import workloads

    assert tuple(workloads.BY_NAME) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    report, result = _result(_run(workload, trace=0, seed=7))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_frac"]["value"] == 0.0
    assert report["provenance"]["workload_seed"] == 7


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(workload, trace=1))
    second = _result(_run(workload, trace=1))
    for report, result in (first, second):
        assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    counts = [{k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "flop", "B")}
              for _, result in (first, second)]
    assert counts[0] == counts[1]
    metrics = first[1]["metrics"]
    assert metrics["device.settings_used"]["value"] == first[0]["settings"]
    assert metrics["device.probe_and_measure.calls"]["value"] == first[0]["settings"]
    assert first[0]["digests"] == second[0]["digests"]


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", f"selftest-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("wide-lowshot", trace=0, cwd=bare,
                    script=os.path.join("perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gates_reject_non_finite_and_off_scale_results():
    import numpy as np

    import workloads

    header = ("experiment_id,n_modes,scheme,eta,amplitude,shots,trials,repetitions,"
              "f_mean,f_stderr,seed,dropped\n")
    nan_row = "mode-scaling,2,heterodyne,1.0,1000.0,100,1,5,nan,nan,0,0\n"
    problems, _, _ = workloads.check_scan_csv(header + nan_row, expect_rows=1)
    assert problems
    dropped_row = "mode-scaling,2,heterodyne,1.0,1000.0,100,1,5,nan,nan,0,5\n"
    assert workloads.check_scan_csv(header + dropped_row, expect_rows=1)[0] == []
    not_averaging = "phase-error,1,homodyne,1.0,1.0,inf,10000,2,0.02,0.001,0,0\n"
    assert workloads.check_scan_csv(header + not_averaging, expect_rows=1)[0]

    s = np.eye(4)
    exact = workloads.symplectic_gate(s, 0.5, "heterodyne", 100, 1000.0, s, 0.5)
    assert any("F=" in p for p in exact)  # no shot noise at all is off scale too
    far = workloads.symplectic_gate(s, 0.5, "heterodyne", 100, 1000.0, s + 0.01, 0.6)
    assert len(far) == 2


def test_tracer_self_time_excludes_children():
    from tracer import Tracer

    tracer = Tracer("t")
    tracer.spans = [(1, 0, "child", 1.0, 2.0), (2, 0, "child", 2.5, 3.0), (0, -1, "parent", 0.0, 4.0)]
    totals = tracer.totals()
    assert totals["parent"]["self_s"] == pytest.approx(2.5)
    assert totals["child"]["calls"] == 2 and totals["child"]["self_s"] == pytest.approx(1.5)
