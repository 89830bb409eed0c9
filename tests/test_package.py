"""The package root's public surface: exactly these names, each resolving
and each used outside the tests, the fields and parameters of the chain and
sweep types, the energy frame and the mean interval, no module importing a
name it does not use, no module but prufer naming the dead-direction step,
an import that loads nothing beyond the standard library and numpy (and not
statistics), and the README's quick start running as written."""
import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import pytest

import heavykp
from heavykp import stats
from heavykp.estimators import SweepRecord

PUBLIC = {
    "__version__",
    # rng
    "RngStream", "split_stream",
    "sample_stable_oracle",
    # transfer
    "EnergyFrame", "SaturationError", "det_defect",
    # potentials
    "Model", "ModelConfig", "Realization",
    "generate", "realization_from_csv",
    # prufer
    "boundary_theta",
    # estimators
    "sweep_chains", "nonlinear_normalizers",
    "chain_trace", "darling_ratio", "chain_mixing",
    # spectrum
    "BoxProblem", "boundary_phase",
    "count_below", "find_eigenvalues", "decay_fit", "EigenvalueSearchError",
    # stats
    "LinearFit", "MeanCi", "ks_distance", "linear_fit", "mean_ci",
}


def test_all_is_pinned_and_every_name_resolves():
    assert len(heavykp.__all__) == len(PUBLIC) == 29
    assert set(heavykp.__all__) == PUBLIC
    namespace = {}
    exec("from heavykp import *", namespace)
    for name in heavykp.__all__:
        assert getattr(heavykp, name) is namespace[name]


def _referenced(tree: ast.AST) -> set:
    """The identifiers a piece of code names: names, attributes and identifier
    strings (the benchmark tracer binds its targets by attribute name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_is_used_outside_the_tests():
    # a public name earns its place by a use in the demos, the benchmark or
    # the package itself, not counting __init__.py and the name's own
    # definition; a name only the tests read belongs beside the tests
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        used |= _referenced(ast.parse(path.read_text()))
    for path in sorted((root / "src" / "heavykp").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    assert sorted(set(heavykp.__all__) - used) == []


def _unused_imports(source: str) -> list:
    """(line, name) of each import in source whose name the module never uses,
    unless its line is marked "# noqa: F401"; __future__ imports aside."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    out.append((alias.lineno, name))
    return out


def test_no_module_imports_a_name_it_does_not_use():
    # a binding kept only for the benchmark tracer sits on its own line,
    # marked "# noqa: F401"
    assert _unused_imports("import os\nfrom a import b, c  # noqa: F401\nfrom d import (\n"
                           "    e,\n    f,\n)\nprint(f)\n") == [(1, "os"), (4, "e")]
    root = Path(__file__).resolve().parents[1] / "src" / "heavykp"
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(root.glob("*.py")) if path.name != "__init__.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_no_module_imports_threads_or_process_pools():
    # the runner forks its workers, and a process that holds threads when it
    # forks can deadlock its children
    root = Path(__file__).resolve().parents[1] / "src" / "heavykp"
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, module) for module in modules
                      if module.split(".")[0] in ("threading", "concurrent", "multiprocessing")]
    assert found == []


def test_only_prufer_names_the_dead_direction():
    # a step that a walk's products cannot take has one fallback,
    # prufer._step_pieces, and only it takes the dead direction; a module
    # that names _dead_direction states that exceptional path a second time
    root = Path(__file__).resolve().parents[1] / "src" / "heavykp"
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _referenced(tree) | {node.name for node in ast.walk(tree)
                                     if isinstance(node, ast.alias)}
        if "_dead_direction" in names:
            found.append(path.name)
    assert found == ["prufer.py"]


# What the benchmark's setup_s times, in a fresh interpreter: the top-level
# modules that importing heavykp and the config loader adds.  numpy is
# imported first, so Cython's runtime modules, which numpy's compiled
# modules load, are not counted against heavykp.
_IMPORT_PROBE = """
import json, sys
import numpy, numpy.random
before = set(sys.modules)
import heavykp
from heavykp.runner import load_config
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_the_standard_library_numpy_and_heavykp():
    # every module the import loads costs setup_s time; scipy, say, would
    # cost more than the rest together
    src = str(Path(heavykp.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                         check=True)
    loaded = set(json.loads(out.stdout))
    assert "heavykp" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "heavykp"}) == []
    # statistics, and the fractions and decimal modules it loads, cost setup_s
    # time for one constant, which stats keeps as _Z_95
    assert sorted(loaded & {"statistics", "fractions", "decimal"}) == []


def test_flow_and_sampler_internals_live_in_their_modules():
    from heavykp import prufer, rng

    for module, names in ((prufer, ("PruferState", "advance_interval", "phase_fold")),
                          (rng, ("sample_bump_height", "sample_gap_length"))):
        for name in names:
            assert not hasattr(heavykp, name)
            assert callable(getattr(module, name))


def test_chain_and_sweep_surfaces_are_pinned():
    # a Realization is its piece columns and their boundaries; a sweep
    # returns each seed's state after the last bump, and the heavy-tail
    # scales are one function of the config, n and x
    def field_names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def parameters(fn):
        return list(inspect.signature(fn).parameters)

    assert field_names(heavykp.Realization) == ["values", "lengths", "is_bump", "boundaries"]
    assert field_names(SweepRecord) == ["x", "theta", "log_norm"]
    assert parameters(heavykp.sweep_chains) == [
        "config", "n_bumps", "n_seeds", "stream", "first_seed", "want_theta", "want_log_norm",
    ]
    assert parameters(heavykp.nonlinear_normalizers) == ["config", "n_bumps", "x"]
    assert parameters(heavykp.chain_trace) == ["config", "n_bumps", "stream"]


def test_energy_frame_takes_only_lam():
    # k = sqrt(|lam|), 1 at lam = 0, is derived, never passed
    assert list(inspect.signature(heavykp.EnergyFrame).parameters) == ["lam"]
    with pytest.raises(TypeError):
        heavykp.EnergyFrame(lam=1.0, k_norm=2.0)
    for lam in (4.0, -4.0, -0.7, 1e-300):
        assert heavykp.EnergyFrame(lam).k_norm == math.sqrt(abs(lam))
    assert heavykp.EnergyFrame(0.0).k_norm == heavykp.EnergyFrame(-0.0).k_norm == 1.0


def test_mean_ci_is_one_95_percent_interval():
    assert list(inspect.signature(heavykp.mean_ci).parameters) == ["values"]
    assert heavykp.MeanCi._fields == ("mean", "half_width")
    assert stats._Z_95 == NormalDist().inv_cdf(0.975)


@pytest.mark.parametrize("model,kw", [("I", {"alpha1": 0.5}), ("II", {"alpha1": 0.5}),
                                      ("III", {"alpha2": 0.5}),
                                      ("IV", {"alpha1": 0.5, "alpha2": 0.7})])
def test_pieces_are_the_column_rows(model, kw):
    # the benchmark tracer counts a chain's pieces as len(r.pieces)
    cfg = heavykp.ModelConfig(model=heavykp.Model(model), energy=1.0, **kw)
    r = heavykp.generate(cfg, 20, heavykp.RngStream(5))
    assert len(r.pieces) == r.values.size
    assert r.pieces == tuple(zip(r.values.tolist(), r.lengths.tolist(), r.is_bump.tolist()))


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    exec(compile(block, "README.md quick start", "exec"), {})
