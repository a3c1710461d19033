"""The benchmark's tracer still finds every name it wraps in hcma.

perfbench/tracing.py swaps module globals, class attributes, the CHECKS
table and the scipy module object hcma.solver calls GMRES through for
wrappers.  A refactor that renames or drops one of them leaves the traced
benchmark run with absent metrics, so this test catches it here.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from conftest import COS_BOUNDARY
import hcma.solver
import hcma.verify
from hcma import AnnulusProfile

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(tracing):
    """(owner, attr, is_item, original) for every name the tracer swaps."""
    out = []
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        out.append((owner, attr, False, vars(owner)[attr]))
    table = importlib.import_module("hcma.verify").CHECKS
    out += [(table, name, True, table[name]) for name in tracing.CHECK_NAMES
            if name != "weighted_max_principle"]
    out.append((hcma.solver, "spla", False, hcma.solver.spla))
    return out


def current(owner, attr, is_item):
    return owner[attr] if is_item else vars(owner)[attr]


def test_tracer_wraps_every_name_and_restores_it(grid_small, capsys):
    tracing = load_tracing()
    names = wrapped_names(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        assert all(current(o, a, i) is not orig for o, a, i, orig in names)
        tracer.begin_op(0)
        # the quickstart op: a solve, then run_checks on its solution
        sol = hcma.solver.newton_solve(grid_small, COS_BOUNDARY,
                                       AnnulusProfile(1e-3))
        report = hcma.verify.run_checks(sol, seed=0)
        metrics = tracer.layer_metrics(1.0, 0)
    finally:
        tracer.uninstall()
    assert all(current(o, a, i) is orig for o, a, i, orig in names)
    assert sol.converged and report.all_pass
    assert tracer.counters["newton_steps"] == sol.iterations > 0
    assert tracer.counters["gmres_iters"] > 0
    assert tracer.counters["precond_applies"] > 0
    assert [m for m, v in metrics.items() if v is None] == []
    per_layer = [m["name"] for m in json.loads(
        BENCHMARK.read_text())["per_layer"]]
    assert [m for m in per_layer if metrics.get(m) is None] == []
    assert metrics["solver.linearize_calls"] == metrics["solver.newton_steps"]
    assert capsys.readouterr().out == ""
