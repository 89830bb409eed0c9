"""heavykp benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {sweep,wide,spectrum} --seed N \\
        --seconds S --trace {0,1} [--size {full,toy}]

Run from anywhere inside a checkout that holds ``src/heavykp``; nothing needs
installing.  The run

1. writes the workload's configs (master seeds derived from ``--seed``);
2. times ``setup_s``: fresh interpreters that import heavykp and validate
   every config, several times, median reported in calibrated seconds;
3. starts ``passes.py``, which runs the configs through the public runner
   for ``--seconds`` seconds, one pass at a time (a closed loop with one
   client; the workload's worker count bounds the processes), with the
   probe of ``calibrate.py`` around every config: pass times are reported
   in calibrated seconds, which the host's changing speed does not move;
4. checks the outputs: every config exits 0, every pass writes the same
   bytes (across worker counts, and traced against untraced), invariants
   hold, per-cell summaries and non-finite shares match reference.json;
5. prints every metric by name with its unit, a facts line, and last one
   JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
   ``--trace 0`` the metrics are the end-to-end ones registered in
   BENCHMARK.json, with ``--trace 1`` the per-layer ones.

Exit status: 0 when every check passed, 1 when an output check failed (the
result is still printed, with ``correct: false``), 2 when the checkout has
no heavykp sources or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import calibrate
import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = {"full": 7, "toy": 2}
PASS_TIMEOUT_S = 150

_SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import heavykp
from heavykp.runner import load_config
for path in sys.argv[2:]:
    load_config(path)
"""


def _registered():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def measure_setup(config_paths, repeats: int) -> list:
    """Wall seconds from interpreter start to every config validated, per repeat.

    The child's stdout is a pipe: waiting with a timeout on the pipe returns
    when the child closes it, whereas waiting with a timeout on the process
    polls in steps of up to 50 ms, which would quantise the time.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_SNIPPET, SRC, *config_paths],
                              stdout=subprocess.PIPE) as proc:
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return times


def run_passes(plan_path: str, result_path: str) -> None:
    """Run passes.py in a process group of its own, so that a timeout stops its
    pool workers too, and wait for all of them."""
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "passes.py"), plan_path,
                             result_path], start_new_session=True)
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)


def tail(values):
    """(percent, value) of the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "heavykp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def facts(args, workers: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "dims": workloads.size_facts(args.workload, args.size), "workers": workers,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def digest_errors(configs, passes) -> list:
    """Every pass must write identical results.csv and summary.json per config;
    manifest.json echoes the worker count, so it is compared per worker count."""
    errors = []
    for i, (name, _) in enumerate(configs):
        if any(p["codes"][i] for p in passes):
            continue  # reported as a failed run; its outputs may be missing
        first = passes[0]["outputs"][i]
        manifests = {}
        for p in passes:
            out = p["outputs"][i]
            for f in ("results.csv", "summary.json"):
                if out[f] is None or out[f] != first[f]:
                    errors.append(f"{name}: {f} differs between passes "
                                  f"(workers {passes[0]['workers']} vs {p['workers']})")
            m = manifests.setdefault(p["workers"], out["manifest.json"])
            if out["manifest.json"] is None or out["manifest.json"] != m:
                errors.append(f"{name}: manifest.json differs between passes")
    return sorted(set(errors))


def check_outputs(configs, plan_configs, res, reference):
    """Exit codes, digests across passes, and per-config output checks."""
    every = res["passes"] + res.get("traced_passes", []) + res["extra_passes"]
    errors = []
    for p in every:
        for (name, _), code, crash in zip(configs, p["codes"], p["crashes"]):
            if code != 0:
                errors.append(f"{name}: heavykp run exit code {code} (workers {p['workers']})"
                              + (f": {crash}" if crash else ""))
    errors.extend(digest_errors(configs, every))
    per_config = {}
    for (name, raw), c, code in zip(configs, plan_configs, res["passes"][0]["codes"]):
        if name not in reference:
            errors.append(f"{name}: no reference recorded")
        if code != 0:  # failed above; its outputs may be missing, its cells all count as bad
            per_config[name] = {"rows": 0, "eigenvalues": 0, "nonfinite_values": 0,
                                "failed_cells": 0, "bad_cells": workloads.n_cells(raw),
                                "bad_detail": {}, "errors": []}
            continue
        per_config[name] = checks.check_config(name, raw, c["output_dir"], reference.get(name))
        errors.extend(per_config[name]["errors"])
    return errors, per_config


def layer_metrics(res, per_layer, totals, errors) -> dict:
    """Per-layer metrics: counts from one traced pass (all must agree), times as
    medians over traced passes, output counts from the checked files."""
    from_outputs = {
        "runner.rows_written": totals["rows"],
        "runner.bytes_written": sum(o["bytes"] for o in res["passes"][0]["outputs"]),
        "runner.bad_cells": totals["bad_cells"],
        "runner.nonfinite_values": totals["nonfinite"],
        "trace.overhead": (statistics.median(p["cal_wall_s"] for p in res["traced_passes"])
                           / totals["wall"] - 1.0),
    }
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if name in from_outputs:
            metrics[name] = from_outputs[name]
            continue
        values = [layer[name] for layer in res["layers"]]
        if m["unit"] == "count":
            if len(set(values)) != 1:
                errors.append(f"{name}: count differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics


def print_report(args, res, totals, per_config):
    walls = [p["cal_wall_s"] for p in res["passes"]]
    raw = [p["wall_s"] for p in res["passes"]]
    wall = totals["wall"]
    tl = tail(walls)
    tail_txt = f"p{tl[0]:.0f} {tl[1]:.4f} s" if tl else "no percentile has 10 samples beyond it"
    print(f"heavykp benchmark: workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(walls)} cells/pass={totals['cells']} "
          f"workers={res['passes'][0]['workers']}")
    print("  (times in calibrated seconds, see calibrate.py)")
    print(f"  wall_s             {wall:.4f} s   (median; {tail_txt}; {len(walls)} samples; "
          f"measured median {statistics.median(raw):.4f} s)")
    print(f"  lane_steps_per_s   {totals['lane_steps'] / wall:.1f} 1/s   "
          f"({totals['lane_steps']} seeds x bumps)")
    print(f"  eigenvalues_per_s  {totals['eigenvalues'] / wall:.4f} 1/s   "
          f"({totals['eigenvalues']} eigenvalues)")
    print(f"  rows_per_s         {totals['rows'] / wall:.1f} 1/s   ({totals['rows']} results.csv rows)")
    print(f"  setup_s            {totals['setup_s']:.4f} s   (median of {totals['setup_runs']} "
          f"fresh interpreters; measured median {totals['setup_raw_s']:.4f} s)")
    if "peak_rss_mb" in res:
        print(f"  peak_rss_mb        {res['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac        {totals['bad_cells'] / totals['cells']:.4f} ratio   "
          f"({totals['bad_cells']} bad of {totals['cells']} cells)")
    print(f"  nonfinite_values   {totals['nonfinite']} count")
    for name, c in per_config.items():
        if c["bad_cells"]:
            print(f"  bad cells in {name}: {c['bad_detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heavykp", "__init__.py")):
        print(f"no heavykp sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = _registered()
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)["sizes"][args.size][args.workload]

    workers = workloads.WORKERS[args.workload]
    configs = workloads.configs(args.workload, args.size, args.seed)
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan_configs = []
    for name, raw in configs:
        path = os.path.join(work, name + ".json")
        with open(path, "w") as fh:
            json.dump(raw, fh, indent=2)
        plan_configs.append({"name": name, "path": path,
                             "output_dir": os.path.join(work, "out", name)})

    setup = measure_setup([c["path"] for c in plan_configs], SETUP_REPEATS[args.size])

    plan = {"configs": plan_configs, "workers": workers, "seconds": args.seconds,
            "trace": args.trace, "spans_path": os.path.join(work, "spans.jsonl")}
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "passes.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    run_passes(plan_path, result_path)
    with open(result_path) as fh:
        res = json.load(fh)

    errors, per_config = check_outputs(configs, plan_configs, res, reference)
    totals = {key: sum(c[key] for c in per_config.values())
              for key in ("rows", "eigenvalues", "bad_cells", "failed_cells")}
    totals.update(
        nonfinite=sum(c["nonfinite_values"] for c in per_config.values()),
        cells=sum(workloads.n_cells(raw) for _, raw in configs),
        lane_steps=sum(workloads.lane_steps(raw) for _, raw in configs),
        wall=statistics.median(p["cal_wall_s"] for p in res["passes"]),
        setup_raw_s=statistics.median(setup), setup_runs=len(setup),
        # scaled by the run's load level: every probe of the timed passes
        setup_s=statistics.median(setup) * calibrate.speed_factor(
            [x for p in res["passes"] for x in p["probe_s"]]),
    )
    print_report(args, res, totals, per_config)

    wall = totals["wall"]
    if args.trace:
        metrics = layer_metrics(res, per_layer, totals, errors)
        registered = per_layer
        for m in per_layer:
            v = metrics[m["name"]]
            print(f"  {m['name']:42s} {v if isinstance(v, int) else format(v, '.6g')} {m['unit']}")
        passes_run = len(res["passes"]) + len(res["traced_passes"])
    else:
        metrics = {"wall_s": wall, "lane_steps_per_s": totals["lane_steps"] / wall,
                   "rows_per_s": totals["rows"] / wall, "setup_s": totals["setup_s"],
                   "peak_rss_mb": res["peak_rss_mb"]}
        registered = end_to_end
        passes_run = len(res["passes"])

    for e in errors:
        print(f"  CHECK FAILED: {e}")
    run_facts = facts(args, workers)
    with open(os.path.join(work, "facts.json"), "w") as fh:
        json.dump(run_facts, fh, indent=2)
    print("facts " + json.dumps(run_facts, sort_keys=True))
    if not errors:
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    # a config that exited non-zero fails all its cells
    failed = totals["failed_cells"] + sum(
        workloads.n_cells(raw) for (_, raw), code in zip(configs, res["passes"][0]["codes"])
        if code)
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in registered}
    print(json.dumps({"correct": not errors, "attempted": totals["cells"] * passes_run,
                      "failed": failed * passes_run, "metrics": report}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
