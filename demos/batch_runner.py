"""Driving the batch runner from a config file.

The CLI equivalent of what this script does:

    heavykp validate demo_config.json
    heavykp run demo_config.json --output-dir demo_out_1 --workers 1
    heavykp run demo_config.json --output-dir demo_out_2 --workers 2

Each cell holds more seeds than one block of work (1024 seeds), so at two
workers every cell is shared between the two processes.  Outputs are
deterministic: the same config and master seed give byte-identical
results.csv, summary.json and manifest.json no matter how many workers run
the grid, and the script compares the two runs' files to show it.  It runs
in a temporary directory with relative paths, so it prints the same text on
every run.

Run:  python3 demos/batch_runner.py
"""
import filecmp
import json
import os
import pathlib
import tempfile

from heavykp import runner

config = {
    "experiment": "ids",
    "model": {"model": "III", "energy": 1.0, "alpha2": 0.6},
    "alpha_grid": [0.5, 0.8],
    "n_grid": [50, 200],
    "n_seeds": 1500,
    "master_seed": 20240817,
}
OUTPUTS = ("results.csv", "summary.json", "manifest.json")

home = os.getcwd()
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    try:
        pathlib.Path("demo_config.json").write_text(json.dumps(config, indent=2))

        code = runner.main(["validate", "demo_config.json"])
        print(f"validate exit code: {code}")

        for workers in (1, 2):
            code = runner.main(["run", "demo_config.json", "--output-dir",
                                f"demo_out_{workers}", "--workers", str(workers)])
            print(f"run --workers {workers} exit code: {code}")
        same = all(filecmp.cmp(os.path.join("demo_out_1", name),
                               os.path.join("demo_out_2", name), shallow=False)
                   for name in OUTPUTS)
        print(f"{', '.join(OUTPUTS)} byte-identical at 1 and 2 workers: {same}\n")

        out = pathlib.Path("demo_out_1")
        lines = (out / "results.csv").read_text().splitlines()
        print(f"results.csv: {len(lines) - 1} rows, header:")
        print(f"  {lines[0]}")
        print(f"  {lines[1]}")
        print(f"  ...\n")

        summary = json.loads((out / "summary.json").read_text())
        print("per-cell median rotation number per unit length:")
        for cell in summary["cells"]:
            print(f"  alpha {cell['alpha']:.1f}, n {cell['n']:4d}: "
                  f"{cell['median_rotation_per_unit_length']:.5f}")
        print(f"\ngrand median {summary['median_rotation_per_unit_length']:.5f} "
              f"(free value 1/pi = 0.31831)")
    finally:
        os.chdir(home)
