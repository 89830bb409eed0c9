"""Pass runner: executes one workload's configs repeatedly and reports raw facts.

Started by run.py in its own interpreter, so that its resource usage (and
that of its worker processes) belongs to the passes alone.  A pass runs every
config of the workload in order through ``heavykp.runner.load_config`` and
``run_experiment``, exactly what ``heavykp run`` does; its wall time is the
sum over configs of the time from the start of ``run_experiment`` to its
return, by which time every output file is written.  The calibration probe
(``calibrate.py``) runs before each config and after the last, outside the
timed spans; each config's time is scaled by the two probes around it.

Untraced mode runs timed passes at the workload's worker count until the
time budget is spent, then one untimed pass at one worker when the workload
uses more, so that run.py can compare the outputs across worker counts.

Traced mode runs every pass at one worker, because the wrappers do not reach
pool children: untraced and traced passes alternate, the first gives the
untraced wall time that ``trace.overhead`` compares against.

    python3 bench/passes.py PLAN.json RESULT.json

PLAN.json lists the config paths, output directories, worker count, time
budget and trace flag; RESULT.json receives per-pass measured and calibrated
times, probe times, output digests, exit codes, peak memory and, when traced,
per-layer metrics.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import heavykp  # noqa: E402
import heavykp.runner as runner  # noqa: E402
import calibrate  # noqa: E402
import spans  # noqa: E402

OUTPUT_FILES = ("results.csv", "summary.json", "manifest.json")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(configs, workers: int) -> dict:
    """One pass over every config; outputs are digested after the clock stops."""
    loaded = [runner.load_config(c["path"], workers=workers, output_dir=c["output_dir"])
              for c in configs]
    codes, crashes, walls = [], [], []
    probes = [calibrate.probe()]
    for cfg in loaded:
        t0 = time.perf_counter()
        try:
            code, _ = runner.run_experiment(cfg)
            crash = None
        except Exception as exc:  # `heavykp run` would exit 1 with this traceback
            code, crash = 1, f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        probes.append(calibrate.probe())
        codes.append(code)
        crashes.append(crash)
    calibrated = sum(w * calibrate.speed_factor(probes[i:i + 2]) for i, w in enumerate(walls))
    outputs = []
    for c in configs:
        entry = {"bytes": 0}
        for name in OUTPUT_FILES:
            path = os.path.join(c["output_dir"], name)
            exists = os.path.exists(path)
            entry[name] = _digest(path) if exists else None
            entry["bytes"] += os.path.getsize(path) if exists else 0
        outputs.append(entry)
    return {"wall_s": sum(walls), "cal_wall_s": calibrated, "probe_s": probes,
            "workers": workers, "codes": codes, "crashes": crashes,
            "outputs": outputs}


def _peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus, when a pool ran, workers times the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def untraced(plan: dict) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < plan["seconds"]:
        passes.append(run_pass(plan["configs"], plan["workers"]))
    rss = _peak_rss_mb(plan["workers"])
    extra = [run_pass(plan["configs"], 1)] if plan["workers"] > 1 else []
    return {"passes": passes, "extra_passes": extra, "peak_rss_mb": rss}


def traced(plan: dict) -> dict:
    recorder = spans.Recorder()
    plain, traced_passes, layers = [], [], []
    start = time.perf_counter()
    while len(traced_passes) < 2 or time.perf_counter() - start < plan["seconds"]:
        plain.append(run_pass(plan["configs"], 1))
        recorder.begin_pass()
        installed = spans.Installed(recorder)
        try:
            traced_passes.append(run_pass(plan["configs"], 1))
        finally:
            installed.restore()
        layers.append(spans.pass_metrics(recorder, recorder.pass_id))
    recorder.dump(plan["spans_path"])
    extra = [run_pass(plan["configs"], plan["workers"])] if plan["workers"] > 1 else []
    return {"passes": plain, "traced_passes": traced_passes, "extra_passes": extra,
            "layers": layers}


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    here = os.path.dirname(os.path.abspath(heavykp.__file__))
    if os.path.commonpath([here, SRC]) != SRC:
        print(f"heavykp imported from {here}, not from {SRC}", file=sys.stderr)
        return 2
    result = traced(plan) if plan["trace"] else untraced(plan)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
