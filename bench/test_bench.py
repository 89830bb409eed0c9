"""Fast test of the benchmark itself.

Runs every workload at toy size, untraced and traced, and checks the result
line against the metrics registered in BENCHMARK.json; then shows that a
wrong reference and non-finite values beyond the reference fail the output
check, and that a directory without the heavykp sources is refused without a
result.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import checks  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, *extra, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "0.3",
         "--trace", str(trace), "--size", "toy", *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_registered_metric_is_reported(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    registered = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in registered]
    for m in registered:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def _copy_bench(tmp_path):
    """A checkout of BENCHMARK.json and bench/ only, in tmp_path."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path / "bench" / "run.py")


def test_wrong_reference_fails_the_output_check(tmp_path):
    script = _copy_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "bench" / "reference.json"
    reference = json.loads(path.read_text())
    cell = reference["sizes"]["toy"]["sweep"]["ids_III"][0]
    cell["stats"]["median_rotation_per_unit_length"]["ref"] *= 3.0
    path.write_text(json.dumps(reference))
    proc, result = _run("sweep", 0, cwd=tmp_path, script=script)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "median_rotation_per_unit_length" in proc.stdout


def test_calibration_scales_by_the_probe():
    assert calibrate.probe() > 0.0
    nominal = calibrate.NOMINAL_S
    assert calibrate.speed_factor([nominal, nominal]) == pytest.approx(1.0)
    # a host running at half speed doubles the probe time and halves the factor
    assert calibrate.speed_factor([2 * nominal, 2 * nominal]) == pytest.approx(0.5)


def test_deviation_catches_collapse_and_sign_flip():
    assert checks.deviation("median_ids_scaled", 0.0, 1.0) == math.inf
    assert checks.deviation("median_ids_scaled", -1.0, 1.0) == math.inf
    assert checks.deviation("median_ids_scaled", 0.5, 1.0) == pytest.approx(1.0)
    assert checks.deviation("median_r_squared", 0.0, 0.8) == pytest.approx(0.8)


def _write_cell(out_dir, values, median):
    out_dir.mkdir()
    with open(out_dir / "results.csv", "w") as fh:
        fh.write("experiment,model,alpha,energy,n,seed,observable,value\n")
        for seed, v in enumerate(values):
            fh.write(f"ids,III,0.6,1.0,64,{seed},rotation_per_unit_length,{v}\n")
    summary = {"cells": [{"alpha": 0.6, "energy": 1.0, "n": 64,
                          "median_rotation_per_unit_length": median}],
               "failed_tasks": []}
    (out_dir / "summary.json").write_text(json.dumps(summary))


def test_non_finite_values_beyond_the_reference_fail(tmp_path):
    raw = {"experiment": "ids", "model": {"energy": 1.0}}
    ref = [{"alpha": 0.6, "energy": 1.0, "n": 64, "stats": {
        "median_rotation_per_unit_length": {"ref": 0.3, "rtol": 0.05},
        "nonfinite_frac": {"ref": 0.0, "atol": 0.0}}}]
    _write_cell(tmp_path / "ok", [0.3, 0.31, 0.29], 0.3)
    ok = checks.check_config("ids", raw, str(tmp_path / "ok"), ref)
    assert ok["errors"] == [] and ok["nonfinite_values"] == 0
    _write_cell(tmp_path / "nan", [0.3, float("nan"), 0.29], float("nan"))
    nan = checks.check_config("ids", raw, str(tmp_path / "nan"), ref)
    assert nan["nonfinite_values"] == 2 and nan["bad_cells"] == 1
    assert any("nonfinite_frac" in e for e in nan["errors"])
    assert any("median_rotation_per_unit_length" in e for e in nan["errors"])


def test_refuses_a_directory_without_sources(tmp_path):
    proc, result = _run("sweep", 0, cwd=tmp_path, script=_copy_bench(tmp_path))
    assert proc.returncode != 0
    assert result is None
