"""Span recorder for the traced pass.

Wrappers are installed on heavykp's public entry points from outside the
package and removed again after the pass.  A function imported with
``from .x import y`` is a second binding of the same object, so each entry is
patched at every module binding its callers look up (``heavykp.runner.
sweep_chains`` as well as ``heavykp.estimators.sweep_chains``), and
``RngStream.generator`` is patched on the class.  Every wrapper wraps the
original function, so a call is recorded once whichever binding it went
through.

Two kinds of record are kept in memory:

* spans, one per call of an entry that has traced callees: name, start,
  end, parent span, pass id, and the time covered by direct callees;
* leaf aggregates, for hot entries with no traced callees (the piece kernels,
  the scalar flow step, rng draws, KS distances): calls, seconds and counts
  per (pass, name).  One `spectrum` pass makes over 400 000 scalar flow
  steps, which would be as many spans.

Self time of a span is its duration minus the time its direct callees cover,
including the wrappers' own bookkeeping; a leaf's self time is its summed
call time.  Tracing cost therefore lands in no layer's self time, and shows
only in ``trace.overhead``.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

import heavykp.estimators
import heavykp.potentials
import heavykp.prufer
import heavykp.rng
import heavykp.runner
import heavykp.spectrum
import heavykp.stats
import heavykp.transfer
from heavykp.transfer import A_FACTORED, U_SERIES_WINDOW, SaturationError

_clock = time.perf_counter

# span fields
_NAME, _START, _END, _PARENT, _PASS, _COVERED, _COUNTS, _INDEX = range(8)


class Recorder:
    """Spans and leaf aggregates of traced passes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.leaves: Dict[tuple, list] = {}   # (pass, name) -> [calls, seconds, counts]
        self.stack: List[list] = []
        self.pass_id = -1

    def begin_pass(self) -> None:
        self.pass_id += 1
        self.stack = []

    # ── wrappers ────────────────────────────────────────────────────────────

    def span(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            t_enter = _clock()
            parent = self.stack[-1] if self.stack else None
            rec = [name, 0.0, 0.0, -1 if parent is None else parent[_INDEX], self.pass_id,
                   0.0, None, len(self.spans)]
            self.spans.append(rec)
            self.stack.append(rec)
            result = None
            returned = False
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = _clock()
                self.stack.pop()
                rec[_START] = t0
                rec[_END] = t1
                if returned and counts is not None:
                    rec[_COUNTS] = counts(args, kwargs, result)
                if parent is not None:
                    parent[_COVERED] += _clock() - t_enter
        return wrapper

    def leaf(self, name: str, fn: Callable, counts: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            t_enter = _clock()
            try:
                t0 = _clock()
                result = fn(*args, **kwargs)
                t1 = _clock()
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                if self.stack:
                    self.stack[-1][_COVERED] += _clock() - t_enter
                raise
            agg = self.leaves.get((self.pass_id, name))
            if agg is None:
                agg = self.leaves[(self.pass_id, name)] = [0, 0.0, {}]
            agg[0] += 1
            agg[1] += t1 - t0
            if counts is not None:
                tally = agg[2]
                for key, v in counts(args, kwargs).items():
                    tally[key] = tally.get(key, 0) + v
            if self.stack:
                self.stack[-1][_COVERED] += _clock() - t_enter
            return result
        return wrapper

    def bump(self, name: str, key: str) -> None:
        agg = self.leaves.setdefault((self.pass_id, name), [0, 0.0, {}])
        agg[2][key] = agg[2].get(key, 0) + 1

    # ── output ──────────────────────────────────────────────────────────────

    def dump(self, path: str) -> None:
        """Write every span and leaf aggregate, one JSON object a line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": s[_NAME], "start": s[_START], "end": s[_END],
                                     "parent": s[_PARENT], "pass": s[_PASS],
                                     "self_s": s[_END] - s[_START] - s[_COVERED],
                                     "counts": s[_COUNTS]}) + "\n")
            for (pass_id, name), (calls, seconds, tally) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "pass": pass_id, "calls": calls,
                                     "self_s": seconds, "counts": tally}) + "\n")


# ── argument helpers and counters ───────────────────────────────────────────


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _lanes(values, lengths, n: int):
    v = np.broadcast_to(np.asarray(values, dtype=float), (n,))
    l = np.broadcast_to(np.asarray(lengths, dtype=float), (n,))
    return v, l


def _push_piece_counts(args, kwargs):
    bp = _arg(args, kwargs, 0, "bp")
    frame = _arg(args, kwargs, 3, "frame")
    n = bp.a.size
    v, l = _lanes(_arg(args, kwargs, 1, "value"), _arg(args, kwargs, 2, "length"), n)
    with np.errstate(all="ignore"):
        u = (frame.lam - v) * l * l
        tiny = np.abs(u) < U_SERIES_WINDOW
        hyp = (u < 0.0) & ~tiny
        return {"lane_steps": n,
                "lanes_series": int(tiny.sum()),
                "lanes_osc": int(((u > 0.0) & ~tiny).sum()),
                "lanes_hyp": int(hyp.sum()),
                "lanes_factored": int((hyp & (-u > A_FACTORED * A_FACTORED)).sum())}


def _push_rotation_counts(args, kwargs):
    return {"lane_steps": _arg(args, kwargs, 0, "bp").a.size}


def _phase_fold_counts(args, kwargs):
    thetas = _arg(args, kwargs, 0, "thetas")
    frame = _arg(args, kwargs, 3, "frame")
    n = thetas.size
    v, l = _lanes(_arg(args, kwargs, 1, "values"), _arg(args, kwargs, 2, "lengths"), n)
    with np.errstate(all="ignore"):
        u = (frame.lam - v) * l * l
        gap = (v == 0.0) & (frame.lam > 0.0)
        return {"lane_steps": n,
                "lanes_gap": int(gap.sum()),
                "lanes_osc": int(((u > 0.0) & ~gap).sum()),
                "lanes_hyp": int((u < 0.0).sum()),
                "lanes_deg": int(((u == 0.0) & ~gap).sum())}


def _sample_counts(args, kwargs):
    size = _arg(args, kwargs, 2, "size")
    return {"variates": 1 if size is None else int(np.prod(size))}


def _saturation(rec: Recorder, exc: Exception) -> None:
    if isinstance(exc, SaturationError):
        rec.bump("transfer.saturations", "count")


def _sweep_counts(args, kwargs, result):
    return {"lane_steps": int(_arg(args, kwargs, 1, "n_bumps"))
            * int(_arg(args, kwargs, 2, "n_seeds"))}


def _generate_counts(args, kwargs, result):
    return {"pieces": len(result.pieces)}


def _eigen_counts(args, kwargs, result):
    return {"eigenvalues": len(result)}


def _task_counts(args, kwargs, result):
    return {"failed": 0 if result.error is None else 1}


# ── installation ────────────────────────────────────────────────────────────

_H = heavykp

# (kind, name, bindings, counter): every binding is (owner, attribute).
_ENTRIES = [
    ("span", "runner.run_experiment", [(_H.runner, "run_experiment")], None),
    ("span", "runner.run_task", [(_H.runner, "run_task")], _task_counts),
    ("span", "estimators.sweep_chains",
     [(_H.runner, "sweep_chains"), (_H.estimators, "sweep_chains")], _sweep_counts),
    ("span", "estimators.chain_mixing",
     [(_H.runner, "chain_mixing"), (_H.estimators, "chain_mixing")], None),
    ("span", "potentials.generate",
     [(_H.runner, "generate"), (_H.estimators, "generate"), (_H.potentials, "generate")],
     _generate_counts),
    ("span", "spectrum.find_eigenvalues",
     [(_H.runner, "find_eigenvalues"), (_H.spectrum, "find_eigenvalues")], _eigen_counts),
    ("span", "spectrum.boundary_phase", [(_H.spectrum, "boundary_phase")], None),
    ("span", "spectrum.decay_fit",
     [(_H.runner, "decay_fit"), (_H.spectrum, "decay_fit")], None),
    ("leaf", "rng.generator", [(_H.rng.RngStream, "generator")], None),
    ("leaf", "rng.sample",
     [(mod, fn) for mod in (_H.estimators, _H.potentials, _H.runner, _H.rng)
      for fn in ("sample_bump_height", "sample_gap_length")], _sample_counts),
    ("leaf", "transfer.push_piece",
     [(_H.estimators, "push_piece"), (_H.transfer, "push_piece")], _push_piece_counts),
    ("leaf", "transfer.push_rotation",
     [(_H.estimators, "push_rotation"), (_H.transfer, "push_rotation")],
     _push_rotation_counts),
    ("leaf", "prufer.phase_fold",
     [(_H.estimators, "phase_fold"), (_H.prufer, "phase_fold")], _phase_fold_counts),
    ("leaf", "prufer.advance_interval",
     [(_H.spectrum, "advance_interval"), (_H.prufer, "advance_interval")], None),
    ("leaf", "stats.ks_distance",
     [(_H.runner, "ks_distance"), (_H.estimators, "ks_distance"), (_H.stats, "ks_distance")],
     None),
    ("leaf", "stats.mean_ci", [(_H.runner, "mean_ci"), (_H.stats, "mean_ci")], None),
]


class Installed:
    """Wrappers in place on heavykp; ``restore`` puts the originals back."""

    def __init__(self, recorder: Recorder) -> None:
        self._saved = []
        for kind, name, bindings, counter in _ENTRIES:
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                if kind == "span":
                    wrapped = recorder.span(name, original, counter)
                else:
                    on_error = _saturation if name == "transfer.push_piece" else None
                    wrapped = recorder.leaf(name, original, counter, on_error)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


# ── per-layer metrics ───────────────────────────────────────────────────────


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num/den*scale, or 0 when the base is zero (the layer did no work)."""
    return num / den * scale if den else 0.0


def pass_metrics(rec: Recorder, pass_id: int) -> Dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    spans = [s for s in rec.spans if s[_PASS] == pass_id]
    by_index = {s[_INDEX]: s for s in spans}

    def span_stats(name):
        sel = [s for s in spans if s[_NAME] == name]
        self_s = sum((s[_END] - s[_START] - s[_COVERED] for s in sel), 0.0)
        tally: Dict[str, int] = {}
        for s in sel:
            for k, v in (s[_COUNTS] or {}).items():
                tally[k] = tally.get(k, 0) + v
        return sel, self_s, tally

    def leaf_stats(name):
        calls, seconds, tally = rec.leaves.get((pass_id, name), [0, 0.0, {}])
        return calls, seconds, tally

    m: Dict[str, float] = {}

    calls, secs, _ = leaf_stats("rng.generator")
    m["rng.generator.calls"] = calls
    m["rng.generator.self_s"] = secs
    calls, secs, t = leaf_stats("rng.sample")
    m["rng.sample.variates"] = t.get("variates", 0)
    m["rng.sample.self_s"] = secs
    m["rng.sample.ns_per_variate"] = _ratio(secs, t.get("variates", 0), 1e9)

    sel, secs, t = span_stats("potentials.generate")
    m["potentials.generate.calls"] = len(sel)
    m["potentials.generate.pieces"] = t.get("pieces", 0)
    m["potentials.generate.self_s"] = secs
    m["potentials.generate.us_per_piece"] = _ratio(secs, t.get("pieces", 0), 1e6)

    calls, secs, t = leaf_stats("transfer.push_piece")
    lanes = t.get("lane_steps", 0)
    m["transfer.push_piece.calls"] = calls
    m["transfer.push_piece.lane_steps"] = lanes
    m["transfer.push_piece.self_s"] = secs
    m["transfer.push_piece.ns_per_lane_step"] = _ratio(secs, lanes, 1e9)
    m["transfer.push_piece.lanes_per_call"] = _ratio(lanes, calls)
    for branch in ("osc", "hyp", "factored", "series"):
        m[f"transfer.push_piece.lanes_{branch}"] = t.get(f"lanes_{branch}", 0)
    calls, secs, t = leaf_stats("transfer.push_rotation")
    m["transfer.push_rotation.calls"] = calls
    m["transfer.push_rotation.lane_steps"] = t.get("lane_steps", 0)
    m["transfer.push_rotation.self_s"] = secs
    m["transfer.saturations"] = leaf_stats("transfer.saturations")[2].get("count", 0)

    calls, secs, t = leaf_stats("prufer.phase_fold")
    lanes = t.get("lane_steps", 0)
    m["prufer.phase_fold.calls"] = calls
    m["prufer.phase_fold.lane_steps"] = lanes
    m["prufer.phase_fold.self_s"] = secs
    m["prufer.phase_fold.ns_per_lane_step"] = _ratio(secs, lanes, 1e9)
    for branch in ("gap", "osc", "hyp", "deg"):
        m[f"prufer.phase_fold.lanes_{branch}"] = t.get(f"lanes_{branch}", 0)
    calls, secs, _ = leaf_stats("prufer.advance_interval")
    m["prufer.advance_interval.calls"] = calls
    m["prufer.advance_interval.self_s"] = secs
    m["prufer.advance_interval.ns_per_piece"] = _ratio(secs, calls, 1e9)

    sel, secs, t = span_stats("estimators.sweep_chains")
    m["estimators.sweep_chains.calls"] = len(sel)
    m["estimators.sweep_chains.self_s"] = secs
    m["estimators.sweep_chains.lane_steps"] = t.get("lane_steps", 0)
    sweeping_cells = set()
    for s in sel:
        cur = s
        while cur is not None and cur[_NAME] != "runner.run_task":
            cur = by_index.get(cur[_PARENT])
        if cur is not None:
            sweeping_cells.add(cur[_INDEX])
    m["estimators.sweeps_per_cell"] = _ratio(len(sel), len(sweeping_cells))
    m["estimators.chain_mixing.self_s"] = span_stats("estimators.chain_mixing")[1]

    sel, secs, t = span_stats("spectrum.find_eigenvalues")
    eigenvalues = t.get("eigenvalues", 0)
    search_s = sum((s[_END] - s[_START] for s in sel), 0.0)
    m["spectrum.find_eigenvalues.calls"] = len(sel)
    m["spectrum.find_eigenvalues.self_s"] = secs
    phase_calls = len(span_stats("spectrum.boundary_phase")[0])
    m["spectrum.boundary_phase.calls"] = phase_calls
    m["spectrum.phase_evals_per_eigenvalue"] = _ratio(phase_calls, eigenvalues)
    sel, secs, _ = span_stats("spectrum.decay_fit")
    m["spectrum.decay_fit.calls"] = len(sel)
    m["spectrum.decay_fit.self_s"] = secs
    m["spectrum.ms_per_eigenvalue"] = _ratio(search_s, eigenvalues, 1e3)

    calls, secs, _ = leaf_stats("stats.ks_distance")
    m["stats.ks_distance.calls"] = calls
    m["stats.ks_distance.self_s"] = secs
    m["stats.mean_ci.calls"] = leaf_stats("stats.mean_ci")[0]

    sel, _, t = span_stats("runner.run_task")
    cell_s = sorted(s[_END] - s[_START] for s in sel)
    m["runner.cells"] = len(sel)
    m["runner.cell_s.p50"] = statistics.median(cell_s) if cell_s else 0.0
    m["runner.cell_s.max"] = cell_s[-1] if cell_s else 0.0
    m["runner.failed_cells"] = t.get("failed", 0)
    m["runner.run_experiment.self_s"] = span_stats("runner.run_experiment")[1]

    for k, v in m.items():
        if not math.isfinite(v):
            raise ValueError(f"per-layer metric {k} is not finite")
    return m
