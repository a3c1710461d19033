"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``.

The workloads run here on small grids so the tests take seconds; the
tracer, the gates and the parent's bookkeeping are the same code the
benchmark runs at full size.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run                      # noqa: E402
import tracing                  # noqa: E402
import workloads                # noqa: E402

SMALL = {
    "quickstart": lambda: workloads.Quickstart(shape=(17, 32, 32)),
    "sweep": lambda: workloads.Sweep(shape=(9, 16, 16),
                                     lambdas=(0.0, 0.5, 1.0),
                                     schedule=(1e-2, 1e-3)),
    "post": lambda: workloads.Post(shape=(9, 16, 16), n_starts=4),
}


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    out = {}
    for key, make in SMALL.items():
        wl = make()
        wl.prepare(7, str(tmp_path_factory.mktemp(f"{key}-inputs")))
        out[key] = wl
    return out


def run_traced(wl, out_dir):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(1)
        res = wl.run(str(out_dir))
    finally:
        tracer.uninstall()
    return res, tracer


def test_small_workloads_pass_their_gates(prepared, tmp_path):
    for key, wl in prepared.items():
        res = wl.run(str(tmp_path / key))
        assert res.ok, (key, res.failures)


def test_traced_solve_is_bitwise_identical_with_same_counts(prepared,
                                                            tmp_path):
    wl = prepared["quickstart"]
    plain = wl.run(str(tmp_path / "plain"))
    traced, tracer = run_traced(wl, tmp_path / "traced")
    assert plain.ok and traced.ok
    assert plain.artifacts["phi"].tobytes() == traced.artifacts["phi"].tobytes()
    assert plain.artifacts["iterations"] == traced.artifacts["iterations"]
    assert (plain.artifacts["residual_history"]
            == traced.artifacts["residual_history"])

    steps = plain.artifacts["iterations"]
    layers = tracer.layer_metrics(traced.wall_s, 0)
    _, calls, _ = tracer.op_totals()
    assert layers["solver.newton_steps"] == steps > 0
    assert layers["solver.linearize_calls"] == steps
    assert calls["solver.gmres"] == steps
    assert layers["solver.splu_calls"] == 0
    # GMRES applies the preconditioner once more than the operator
    assert layers["solver.precond_applies"] == layers["solver.matvecs"] + steps
    assert layers["solver.gmres_iters_per_step"] > 0

    again, tracer2 = run_traced(wl, tmp_path / "again")
    assert tracer2.counters == tracer.counters
    assert again.artifacts["phi"].tobytes() == plain.artifacts["phi"].tobytes()


def test_traced_sweep_writes_identical_snapshots(prepared, tmp_path):
    wl = prepared["sweep"]
    plain = wl.run(str(tmp_path / "plain"))
    traced, tracer = run_traced(wl, tmp_path / "traced")
    assert plain.ok and traced.ok
    snaps = sorted(p.name for p in (tmp_path / "plain").glob("*.snap"))
    assert len(snaps) == len(wl.lambdas) + len(wl.schedule)
    for name in snaps:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes())
    layers = tracer.layer_metrics(traced.wall_s, traced.bytes_written)
    assert layers["solver.newton_steps"] == layers["solver.linearize_calls"]
    assert layers["io.snapshot_save_s"] > 0


@pytest.mark.parametrize("key", sorted(SMALL))
def test_layer_self_times_sum_within_op_wall_time(prepared, tmp_path, key):
    res, tracer = run_traced(prepared[key], tmp_path)
    assert res.ok, res.failures
    self_s, _, top_s = tracer.op_totals()
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) <= res.wall_s
    layers = tracer.layer_metrics(res.wall_s, res.bytes_written)
    times = [v for m, v in layers.items() if m != "bench.unattributed_s"
             and tracing.LAYER_METRICS[m][0] == "s"]
    assert sum(times) <= res.wall_s
    assert layers["bench.unattributed_s"] == pytest.approx(res.wall_s - top_s)


def test_uninstall_restores_every_wrapped_name():
    import hcma.cli
    import hcma.io
    import hcma.solver
    import hcma.verify
    import scipy.sparse.linalg
    before = {(mod, path): tracer_lookup(mod, path)
              for mod, path, _ in tracing.TARGETS}
    checks = dict(hcma.verify.CHECKS)
    tracer = tracing.Tracer()
    tracer.install()
    assert hcma.solver.spla is not scipy.sparse.linalg
    assert hcma.cli.main is not before[("hcma.cli", "main")]
    tracer.uninstall()
    assert tracer.missing == set()
    for (mod, path), obj in before.items():
        assert tracer_lookup(mod, path) is obj, (mod, path)
    assert hcma.verify.CHECKS == checks
    assert hcma.solver.spla is scipy.sparse.linalg
    assert isinstance(vars(hcma.io.Snapshot)["load"], classmethod)


def tracer_lookup(module_name, path):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_missing_wrapped_name_is_absent_not_fatal(monkeypatch):
    import hcma.leaves
    monkeypatch.delattr(hcma.leaves, "interpolate_array")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    tracer.uninstall()
    assert tracer.missing == {"grid.interp"}
    layers = tracer.layer_metrics(1.0, 0)
    assert layers["grid.interp_s"] is None
    assert layers["grid.interp_calls"] is None
    assert layers["grid.stencil_s"] == 0.0


def test_gates_reject_bad_outputs(tmp_path):
    ok = {"name": "a", "pass": True, "vacuous": False}
    assert workloads.gate_checks([ok], ["a"], "t") == []
    assert workloads.gate_checks([dict(ok, vacuous=True)], ["a"], "t")
    assert workloads.gate_checks([dict(ok, **{"pass": False})], ["a"], "t")
    assert workloads.gate_checks([ok], ["a", "b"], "t")

    from hcma import AnnulusProfile, BoundarySpec, make_grid, newton_solve
    from hcma.io import ExperimentConfig, Snapshot
    from hcma.solver import SolverConfig
    grid = make_grid(5, 8, 8)
    sol = newton_solve(grid, BoundarySpec(), AnnulusProfile(1e-3),
                       SolverConfig(max_newton_iters=0))
    assert not sol.converged
    path = tmp_path / "bad.snap"
    Snapshot.from_solution(sol, ExperimentConfig()).save(path)
    assert workloads.gate_snapshot(path, (5, 8, 8), 1e-10)
    assert workloads.gate_snapshot(path, (5, 8, 9), 1.0)


def test_parent_knows_every_workload():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_summarise_reports_highest_percentile_with_ten_beyond():
    assert run.summarise(list(range(19)), "s")["percentile"] is None
    assert run.summarise(list(range(20)), "s")["percentile"] == 50
    s = run.summarise([float(v) for v in range(100)], "s")
    assert (s["percentile"], s["percentile_value"], s["samples"]) == (90, 89.0,
                                                                      100)
    assert run.summarise(list(range(1000)), "s")["percentile"] == 99


def test_out_of_memory_child_counts_its_op_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MEMORY_CAP_MB", 400)
    result = run.run_workload("quickstart-49", 0, 1, 1, tmp_path, "test")
    assert result["failed"] >= 1
    assert result["attempted"] >= result["failed"]
    assert result["end_to_end"]["fail_frac"]["median"] > 0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-17",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
