"""The benchmark's own tests: its contract, its tracer and its predictions.

    python3 -m pytest -q perfbench

The traced runs take about a minute and the untraced one about 40 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scipy import stats  # noqa: E402
from steinclt import bounds, semigroup, sources, stein  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 0):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
        assert len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    bounds_by_name = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds_by_name["setup_s"] == max(bounds_by_name.values()) <= 0.25
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER_METRICS)
    for m in SPEC["per_layer"]:
        assert m["unit"] == layers.metric_unit(m["name"])


def test_every_per_layer_metric_has_a_prediction():
    predicted = [m for p in workloads.PREDICTIONS for m in p.metrics]
    assert sorted(predicted) == sorted(layers.PER_LAYER_METRICS)
    for p in workloads.PREDICTIONS:
        for metric, workload in p.moves:
            assert metric in run.END_TO_END_UNITS
            assert workload in run.WORKLOAD_NAMES
        assert p.exercised_on and not set(p.exercised_on) & set(p.absent_on)


def test_tracer_wraps_every_module_that_imported_a_callable():
    original = sources.sample_sum
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert sources.sample_sum is not original
        assert bounds.sample_sum is sources.sample_sum
        assert bounds.delta_hat is sources.delta_hat
        assert stein.semigroup_derivative is semigroup.semigroup_derivative
        assert sources.gaussian_measure is bounds.gaussian_measure
    finally:
        tracer.uninstall()
    assert sources.sample_sum is original and bounds.sample_sum is original
    assert "cdf" not in vars(stats.ncx2)


def test_tracer_self_time_and_cdf_repeats():
    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        tracer.begin_cell(0)
        tracer._span("outer", tracer._span, ("inner", time.sleep, (0.02,), {}), {})
        for _ in range(3):
            stats.ncx2.cdf(1.5, 3, [0.5, 1.0])
        tracer.begin_cell(1)
        stats.ncx2.cdf(1.5, 3, [0.5, 1.0])
    finally:
        tracer.uninstall()
    assert tracer.self_s["inner"] >= 0.02
    assert 0.0 <= tracer.self_s["outer"] < tracer.self_s["inner"]
    parent = [s for s in tracer.spans if tracer.span_names[s[0]] == "inner"][0][3]
    assert tracer.span_names[tracer.spans[parent][0]] == "outer"
    values = tracer.metrics(0.0)
    assert values["scipy.ncx2_cdf.calls"] == 4
    assert values["scipy.ncx2_cdf.elements"] == 8
    assert values["scipy.ncx2_cdf.repeat_frac"] == 0.5  # 2 repeats within cell 0


def test_delta_sweep_oracle_rejects_bad_rows(tmp_path):
    columns = "k,n,source,delta_hat,std_error,main_bound,within_main"

    def write(name, row):
        prefix = tmp_path / name
        prefix.with_suffix(".csv").write_text(f"# header\n{columns}\n{row}\n")
        prefix.with_suffix(".json").write_text("{}")
        return prefix

    ok = write("ok", "1,4,gaussian,0.004,0.002,0.4,True")
    above = write("above", "1,4,uniform,0.5,0.002,0.4,False")
    null = write("null", "1,4,gaussian,0.02,0.002,0.4,True")
    assert workloads.DeltaSweep._checker(ok, "gaussian", False)(0) is None
    assert "main bound" in workloads.DeltaSweep._checker(above, "uniform", False)(0)
    assert "gaussian null" in workloads.DeltaSweep._checker(null, "gaussian", False)(0)
    assert workloads.DeltaSweep._checker(above, "uniform", True)(0) is None
    assert "exit code" in workloads.DeltaSweep._checker(ok, "gaussian", False)(2)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_moves_the_predicted_layers(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == list(layers.PER_LAYER_METRICS)
    zero = [
        m for p in workloads.PREDICTIONS if workload in p.exercised_on
        for m in p.metrics if metrics[m]["value"] == 0
    ]
    assert not zero, f"predicted to move on {workload} but read 0: {zero}"
    nonzero = [
        m for p in workloads.PREDICTIONS if workload in p.absent_on
        for m in p.metrics if metrics[m]["value"] != 0
    ]
    assert not nonzero, f"{workload} should bypass these layers: {nonzero}"


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("stein-solve", trace=0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CELLS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run("delta-sweep", trace=0, cwd=tmp_path, seconds=1)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
