"""Output checks on the files `heavykp run` writes.

Three kinds of check, all on plain files so this module needs no heavykp:

* invariants that hold for every value an observable can take (an SL(2)
  product has log Frobenius norm at least ln(2)/2, a max-over-sum share lies
  in (0, 1], box eigenvalues lie in their window and come out in order);
* per-cell values against reference.json, recorded at the commit that
  introduced the benchmark by ``record_reference.py``: each summary
  statistic, and the share of the cell's results.csv values that are
  non-finite, within a stated tolerance (see ``deviation``);
* counts of non-finite values in results.csv and summary.json, reported as
  ``nonfinite_values``.  A cell that wrote non-finite values at recording
  (a known defect) may keep doing so at about the recorded rate; any other
  cell fails the check on its first non-finite value.

A cell is bad when the runner failed it, or any of its values is non-finite,
breaks an invariant or misses its reference.
"""
from __future__ import annotations

import csv
import json
import math
import os
import statistics
from typing import Dict, Iterable, List, Optional, Tuple

# Summary statistics left without a reference, with the reason.  The log norm
# per unit length of a model I chain is a sum of infinite-mean terms, so its
# mean over seeds has no seed-independent value to compare against; the
# medians of the same cells are referenced instead.
UNREFERENCED = {
    ("lyapunov", "mean_log_norm_over_x"): "mean of infinite-mean samples",
    ("lyapunov", "ci_half_width"): "spread of infinite-mean samples",
}

# Statistics that live in [0, 1] are compared by absolute difference, each
# with a smallest tolerance: a fraction over three boxes moves in steps of 1/3,
# so its floor lets one box in three change side and no more.
ATOL_FLOOR = {
    "fraction_negative_slope": 0.34,
    "median_r_squared": 0.05,
    "ks_final_max": 0.02,
    "mean_max_over_sum": 0.01,
    "nonfinite_frac": 0.0,
}
# Every other statistic is compared by relative deviation, floored here.
RTOL_FLOOR = 0.05
# Tolerance = SAFETY x the largest deviation seen over the recording seeds.
SAFETY = 3.0
# A statistic whose tolerance would reach these is left unchecked (ref: null):
# a relative tolerance of 1 admits a factor of 2 either way, an absolute one
# of 0.5 most of [0, 1].
RTOL_MAX = 1.0
ATOL_MAX = 0.5

_HALF_LN2 = 0.5 * math.log(2.0)


CellKey = Tuple[float, float, int]


def _cell_key(alpha, energy, n) -> CellKey:
    return (float(alpha), float(energy), int(n))


def read_rows(path: str) -> List[Tuple[CellKey, int, str, float]]:
    """results.csv rows as (cell, seed, observable, value)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _, _, alpha, energy, n, seed, obs, value in reader:
            out.append((_cell_key(alpha, energy, n), int(seed), obs, float(value)))
    return out


def read_summary(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)  # json accepts the NaN and Infinity tokens json.dump writes


def _numbers(obj) -> Iterable[float]:
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def count_nonfinite(obj) -> int:
    return sum(1 for v in _numbers(obj) if not math.isfinite(v))


def _invariant_errors(raw: dict, rows) -> Dict[CellKey, List[str]]:
    """Invariant violations per cell, on finite values only."""
    errors: Dict[CellKey, List[str]] = {}
    spec = raw.get("spectrum", {})
    lam_min = spec.get("lambda_min")
    lam_max = spec.get("lambda_max", raw["model"]["energy"])
    last_eig: Dict[Tuple[CellKey, int], float] = {}

    def bad(cell, msg):
        errors.setdefault(cell, []).append(msg)

    for cell, seed, obs, v in rows:
        if not math.isfinite(v):
            continue
        if obs == "log_norm" and v < _HALF_LN2 * (1.0 - 1e-12):
            bad(cell, f"seed {seed}: log_norm {v!r} below ln(2)/2")
        elif obs == "log_norm_over_x" and not v > 0.0:
            bad(cell, f"seed {seed}: log_norm_over_x {v!r} not positive")
        elif obs == "max_over_sum" and not 0.0 < v <= 1.0:
            bad(cell, f"seed {seed}: max_over_sum {v!r} outside (0, 1]")
        elif obs.startswith("ks_step") and not 0.0 <= v <= 1.0:
            bad(cell, f"{obs} {v!r} outside [0, 1]")
        elif obs.startswith("decay_r_squared_") and not -1e-9 <= v <= 1.0 + 1e-9:
            bad(cell, f"seed {seed}: {obs} {v!r} outside [0, 1]")
        elif obs.startswith("eigenvalue_"):
            if v > lam_max or (lam_min is not None and v < lam_min):
                bad(cell, f"seed {seed}: {obs} {v!r} outside the window")
            prev = last_eig.get((cell, seed))
            if prev is not None and v < prev:
                bad(cell, f"seed {seed}: {obs} {v!r} below the previous eigenvalue")
            last_eig[(cell, seed)] = v
    return errors


def _summary_invariants(summary: dict) -> List[str]:
    out = []
    for entry in summary.get("ks_doubling", []):
        for key in ("ks_lyapunov", "ks_ids"):
            v = entry[key]
            if math.isfinite(v) and not 0.0 <= v <= 1.0:
                out.append(f"ks_doubling {key} {v!r} outside [0, 1]")
    return out


def cell_stats(summary: dict, rows) -> Dict[CellKey, Dict[str, float]]:
    """Scalar per-cell summary statistics plus ``nonfinite_frac``, the share
    of the cell's results.csv values that are non-finite, keyed by cell."""
    counts: Dict[CellKey, List[int]] = {}
    for cell, _, _, v in rows:
        c = counts.setdefault(cell, [0, 0])
        c[0] += not math.isfinite(v)
        c[1] += 1
    out = {}
    for cell in summary["cells"]:
        key = _cell_key(cell["alpha"], cell["energy"], cell["n"])
        out[key] = {k: float(v) for k, v in cell.items()
                    if k not in ("alpha", "energy", "n")
                    and isinstance(v, (int, float)) and not isinstance(v, bool)}
        bad, total = counts.get(key, (0, 0))
        out[key]["nonfinite_frac"] = bad / total if total else 0.0
    return out


def deviation(stat: str, value: float, ref: float) -> float:
    """Distance of a value from its reference, in the unit of its tolerance.

    Statistics in ATOL_FLOOR: |value - ref|.  Any other: the larger of
    value/ref and ref/value, minus 1, so a tolerance bounds a drop as well as
    a rise; a value of the other sign than its reference, or zero against a
    non-zero reference, is infinitely far.
    """
    if stat in ATOL_FLOOR:
        return abs(value - ref)
    if value == ref:
        return 0.0
    if value * ref <= 0.0:
        return math.inf
    return max(value / ref, ref / value) - 1.0


def check_config(name: str, raw: dict, out_dir: str,
                 reference: Optional[List[dict]]) -> dict:
    """Check one config's outputs; returns counts and a list of errors.

    ``errors`` are output-check failures.  ``bad_cells`` also counts cells
    with non-finite values, which are not failures of the check.
    """
    rows = read_rows(os.path.join(out_dir, "results.csv"))
    summary = read_summary(os.path.join(out_dir, "summary.json"))
    errors: List[str] = []
    bad: Dict[CellKey, List[str]] = {}

    for cell, msgs in _invariant_errors(raw, rows).items():
        bad.setdefault(cell, []).extend(msgs)
        errors.extend(f"{name} {cell}: {m}" for m in msgs)
    errors.extend(f"{name}: {m}" for m in _summary_invariants(summary))

    nonfinite_rows = 0
    for cell, _, _, v in rows:
        if not math.isfinite(v):
            nonfinite_rows += 1
            if "non-finite value" not in bad.get(cell, []):
                bad.setdefault(cell, []).append("non-finite value")
    for entry in summary["failed_tasks"]:
        bad.setdefault(_cell_key(entry["alpha"], entry["energy"], entry["n"]), []).append(
            "failed: " + str(entry["error"]))

    stats = cell_stats(summary, rows)
    for cell, values in stats.items():
        if any(not math.isfinite(v) for v in values.values()):
            bad.setdefault(cell, []).append("non-finite summary value")
    if reference is not None:
        ref_cells = {_cell_key(c["alpha"], c["energy"], c["n"]): c["stats"] for c in reference}
        if set(ref_cells) != set(stats) | {_cell_key(e["alpha"], e["energy"], e["n"])
                                           for e in summary["failed_tasks"]}:
            errors.append(f"{name}: cells {sorted(stats)} differ from the reference's "
                          f"{sorted(ref_cells)}")
        for cell, refs in ref_cells.items():
            values = stats.get(cell)
            if values is None:  # the runner failed the cell; it is already counted as bad
                errors.append(f"{name} {cell}: failed, but the reference has its values")
                continue
            for stat, ref in refs.items():
                if ref["ref"] is None:
                    continue
                v = values.get(stat)
                kind, tol = ("atol", ref["atol"]) if "atol" in ref else ("rtol", ref["rtol"])
                if v is None:
                    msg = f"{stat} missing"
                elif not math.isfinite(v) or deviation(stat, v, ref["ref"]) > tol:
                    msg = f"{stat} = {v!r}, reference {ref['ref']!r}, {kind} {tol}"
                else:
                    continue
                bad.setdefault(cell, []).append(msg)
                errors.append(f"{name} {cell}: {msg}")

    eigenvalues = sum(1 for _, _, obs, _ in rows if obs.startswith("eigenvalue_"))
    return {
        "rows": len(rows),
        "eigenvalues": eigenvalues,
        "nonfinite_values": nonfinite_rows + count_nonfinite(summary),
        "failed_cells": len(summary["failed_tasks"]),
        "bad_cells": len(bad),
        "bad_detail": {str(k): v[:3] for k, v in bad.items()},
        "errors": errors,
    }


def _tolerance(stat: str, vals: List[float], ref: float) -> dict:
    dev = max(deviation(stat, v, ref) for v in vals)
    if stat in ATOL_FLOOR:
        kind, tol, limit = "atol", max(ATOL_FLOOR[stat], SAFETY * dev), ATOL_MAX
    else:
        kind, tol, limit = "rtol", max(RTOL_FLOOR, SAFETY * dev), RTOL_MAX
    if tol >= limit:
        return {"ref": None,
                "why": f"recorded spread too wide to check ({kind} would be {tol:.3g})"}
    return {"ref": ref, kind: round(tol, 4)}


def build_reference(experiment: str, samples: List[Tuple[dict, list]]) -> List[dict]:
    """Reference cells from (summary, results.csv rows) of several recording seeds.

    Each statistic gets the median over the seeds as its reference and a
    tolerance of SAFETY times the largest deviation seen, floored per
    statistic.  Statistics that were ever non-finite, not always present,
    listed in UNREFERENCED, or too spread to check get ``ref: null`` and a
    reason.
    """
    per_cell: Dict[CellKey, Dict[str, List[float]]] = {}
    for summary, rows in samples:
        for cell, values in cell_stats(summary, rows).items():
            bucket = per_cell.setdefault(cell, {})
            for stat, v in values.items():
                bucket.setdefault(stat, []).append(v)
    out = []
    for cell in sorted(per_cell):
        stats = {}
        for stat, vals in sorted(per_cell[cell].items()):
            reason = UNREFERENCED.get((experiment, stat))
            if reason is None and len(vals) < len(samples):
                reason = "not present for every recording seed"
            if reason is None and not all(math.isfinite(v) for v in vals):
                reason = "non-finite at recording"
            ref = statistics.median(vals) if reason is None else None
            if reason is None and ref == 0.0 and stat not in ATOL_FLOOR:
                reason = "zero median: no relative scale"
            if reason is not None:
                stats[stat] = {"ref": None, "why": reason}
            else:
                stats[stat] = _tolerance(stat, vals, ref)
        out.append({"alpha": cell[0], "energy": cell[1], "n": cell[2], "stats": stats})
    return out
