"""Record bench/reference.json: per-cell summary references for every workload.

    python3 bench/record_reference.py

Runs every workload's configs once per recording seed (1000, 1001, ...,
RECORDING_SEEDS of them per size), at one worker, and keeps for each per-cell
statistic the median over the seeds and a tolerance (see
``checks.build_reference``).  Run it only when a change is meant to move the
numbers, and say so where the change is described: the file is what later
runs are checked against.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import heavykp.runner as runner  # noqa: E402

FIRST_SEED = 1000
RECORDING_SEEDS = {"full": 40, "toy": 40}


def _summaries(workload: str, size: str, seeds, scratch: str):
    out = {name: [] for name, _ in workloads.configs(workload, size, 0)}
    for seed in seeds:
        for name, raw in workloads.configs(workload, size, seed):
            out_dir = os.path.join(scratch, name)
            cfg = runner.config_from_dict(dict(raw, workers=1, output_dir=out_dir))
            code, diag = runner.run_experiment(cfg)
            if code != 0:
                raise SystemExit(f"{workload}/{name} seed {seed}: exit {code}: {diag}")
            out[name].append((checks.read_summary(os.path.join(out_dir, "summary.json")),
                              checks.read_rows(os.path.join(out_dir, "results.csv"))))
    return out


def main() -> int:
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or None
    result = {"recorded_at": commit, "first_seed": FIRST_SEED, "sizes": {}}
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        for size, n_seeds in RECORDING_SEEDS.items():
            seeds = range(FIRST_SEED, FIRST_SEED + n_seeds)
            result["sizes"][size] = {"seeds": n_seeds}
            for workload in workloads.WORKLOADS:
                by_name = _summaries(workload, size, seeds, scratch)
                kinds = dict(workloads.configs(workload, size, 0))
                result["sizes"][size][workload] = {
                    name: checks.build_reference(kinds[name]["experiment"], samples)
                    for name, samples in by_name.items()
                }
                print(f"recorded {size}/{workload} over {n_seeds} seeds", flush=True)
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
