"""Memory guards: the solver caches real jets only, and newton_solve and
run_checks stay under bytes-per-node bounds counted by tracemalloc (a
deterministic count of allocations, not a timing)."""

import tracemalloc

import numpy as np
import pytest

from conftest import COS_BOUNDARY
from hcma import AnnulusProfile, make_grid, newton_solve
from hcma.solver import default_initial_guess
from hcma.verify import run_checks

# run_checks on the 33x64x64 cos solution peaks at 162.8 B per node (numpy
# 2.4); the bound leaves a 10% margin.
RUN_CHECKS_PEAK_B_PER_NODE = 179.0
# lq_ratio alone on a fresh 33x64x64 cos solution peaks at 124.7 B per node;
# the bound leaves a 10% margin.
LQ_RATIO_PEAK_B_PER_NODE = 137.0
# newton_solve on the 33x64x64 cos problem peaks at 302.1 B per node on the
# square lattice, which has no xy plane, and at 309.5 on modulus 0.3+1.1j;
# the bounds leave a 10% margin.
SOLVE_PEAK_B_PER_NODE = {1j: 332.0, 0.3 + 1.1j: 340.0}
# default_initial_guess on the 2049x4x4 cos problem peaks at 112.6 B per
# node, a handful of grid arrays; the bound leaves a 10% margin.  One dense
# (nt-2)^2 float matrix alone would take 1022 B per node there.
GUESS_PEAK_B_PER_NODE = 124.0


def test_newton_solve_caches_no_complex_jet():
    sol = newton_solve(make_grid(17, 32, 32), COS_BOUNDARY,
                       AnnulusProfile(1e-3))
    assert sol.converged
    cached = vars(sol.phi.jets)
    assert {"a", "d_tt", "d_tx", "d_ty"} <= set(cached)
    assert not [name for name, value in cached.items()
                if np.iscomplexobj(value)]


def test_run_checks_caches_no_third_order_jet(sol_cos):
    run_checks(sol_cos, seed=0)
    cached = vars(sol_cos.phi.jets)
    assert not {"d_zzzb", "d_zzbz", "d_tzz", "d_tzzb"} & set(cached)
    assert [name for name, value in cached.items()
            if np.iscomplexobj(value)] == ["b"]


def peak_bytes_per_node(names=None):
    """(report, tracemalloc peak per node) of run_checks on a fresh 33x64x64
    cos solution."""
    grid = make_grid(33, 64, 64)
    sol = newton_solve(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
    tracemalloc.start()
    try:
        report = run_checks(sol, names=names, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak / grid.n_nodes


def test_run_checks_peak_bytes_per_node():
    report, peak = peak_bytes_per_node()
    assert report.all_pass
    assert peak < RUN_CHECKS_PEAK_B_PER_NODE


def test_lq_ratio_peak_bytes_per_node():
    report, peak = peak_bytes_per_node(["lq_ratio"])
    assert report.all_pass
    assert peak < LQ_RATIO_PEAK_B_PER_NODE


@pytest.mark.parametrize("modulus", list(SOLVE_PEAK_B_PER_NODE),
                         ids=["square", "skew"])
def test_newton_solve_peak_bytes_per_node(modulus):
    grid = make_grid(33, 64, 64, modulus)
    tracemalloc.start()
    try:
        sol = newton_solve(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak / grid.n_nodes < SOLVE_PEAK_B_PER_NODE[modulus]


def test_initial_guess_peak_bytes_per_node():
    grid = make_grid(2049, 4, 4)
    tracemalloc.start()
    try:
        default_initial_guess(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.n_nodes < GUESS_PEAK_B_PER_NODE
