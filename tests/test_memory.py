"""Memory guards: the solver caches no jets, and newton_solve, run_checks
and the fields CSV writer stay under bytes-per-node bounds counted by
tracemalloc (a deterministic count of allocations, not a timing)."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import COS_BOUNDARY
from hcma import AnnulusProfile, make_grid, newton_solve
from hcma.grid import ScalarField, spatial_ab
from hcma.io import write_fields_csv
from hcma.quantities import admissible_frame
from hcma.solver import default_initial_guess, linearize, residual
from hcma.verify import q_from_ab, run_checks

# run_checks on the 33x64x64 cos solution peaks at 46.5 B per node on the
# square lattice and at 48.4 on modulus 0.3+1.1j (numpy 2.4): one t-chunk's
# strip frame, jets and temporaries, with no frame of the whole interior;
# the bounds leave a 10% margin.  The solution carries no jets, so every
# jet the checks read is counted here.
RUN_CHECKS_PEAK_B_PER_NODE = {1j: 51.2, 0.3 + 1.1j: 53.3}
# lq_ratio alone on a fresh 33x64x64 cos solution peaks at 38.6 B per node
# on the square lattice and at 40.5 on modulus 0.3+1.1j; the bounds leave
# a 10% margin.
LQ_RATIO_PEAK_B_PER_NODE = {1j: 42.4, 0.3 + 1.1j: 44.5}
# newton_solve on the 33x64x64 cos problem peaks at 264.4 B per node on
# both lattices (numpy 2.4), inside GMRES: its workspace, the Jacobian's
# five coefficient grids and the preconditioner's factors.  The bounds
# leave a 4% margin, below the 279.6 a stencil with six planes and a
# zero-bordered copy of its argument reached.
SOLVE_PEAK_B_PER_NODE = {1j: 275.0, 0.3 + 1.1j: 275.0}
# default_initial_guess on the 2049x4x4 cos problem peaks at 32.6 B per
# node, a handful of grid arrays and no strip frame; the bound leaves a 10%
# margin.  One dense (nt-2)^2 float matrix alone would take 1022 B per node
# there.
GUESS_PEAK_B_PER_NODE = 36.0
# write_fields_csv of hcma verify's four fields on the 33x64x64 cos
# solution peaks at 13.5 B per node: the int32 node indices (12) and one
# block of each column as Python values; the bound leaves a 10% margin.
# Whole columns of Python floats would take 32 B per node each.
FIELDS_CSV_PEAK_B_PER_NODE = 14.8


def test_newton_solve_caches_no_jet():
    sol = newton_solve(make_grid(17, 32, 32), COS_BOUNDARY,
                       AnnulusProfile(1e-3))
    assert sol.converged
    assert vars(sol.phi).keys() == {"grid", "values"}


def test_run_checks_caches_no_jet(sol_cos):
    phi = ScalarField(sol_cos.grid, sol_cos.phi.values)
    report = run_checks(replace(sol_cos, phi=phi), seed=0)
    assert report.all_pass
    assert vars(phi).keys() == {"grid", "values"}


def peak_bytes_per_node(modulus, names=None):
    """(report, tracemalloc peak per node) of run_checks on a fresh 33x64x64
    cos solution."""
    grid = make_grid(33, 64, 64, modulus)
    sol = newton_solve(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
    tracemalloc.start()
    try:
        report = run_checks(sol, names=names, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak / grid.n_nodes


@pytest.mark.parametrize("modulus", list(RUN_CHECKS_PEAK_B_PER_NODE),
                         ids=["square", "skew"])
def test_run_checks_peak_bytes_per_node(modulus):
    report, peak = peak_bytes_per_node(modulus)
    assert report.all_pass
    assert peak < RUN_CHECKS_PEAK_B_PER_NODE[modulus]


@pytest.mark.parametrize("modulus", list(LQ_RATIO_PEAK_B_PER_NODE),
                         ids=["square", "skew"])
def test_lq_ratio_peak_bytes_per_node(modulus):
    report, peak = peak_bytes_per_node(modulus, ["lq_ratio"])
    assert report.all_pass
    assert peak < LQ_RATIO_PEAK_B_PER_NODE[modulus]


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


@pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j], ids=["square", "skew"])
def test_linearize_keeps_five_grids(modulus):
    """The pair linearize returns holds the frame's g, Re m, Im m and q
    and the stencil's centre, five interior grids, beside the
    preconditioner's one array of pivot reciprocals: the frame's det goes
    with the frame, and no plane or bordered grid is made."""
    grid = make_grid(17, 32, 32, modulus)
    phi = default_initial_guess(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        frame = admissible_frame(phi)
        jacobian, preconditioner = linearize(grid, frame)
        del frame
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    grid_bytes = (grid.nt - 2) * grid.nx * grid.ny * 8
    factors = preconditioner.inv.nbytes
    # and one zero plane, with a few small objects
    assert kept <= 5 * grid_bytes + factors + 2 * grid.nx * grid.ny * 8


def test_run_checks_peak_below_the_solve():
    """run_checks, solution included, stays below the solve's own peak, so
    the solve alone sets the peak of a solve followed by its checks."""
    grid = make_grid(33, 64, 64)
    tracemalloc.start()
    try:
        sol = newton_solve(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = run_checks(sol, seed=0)
        checks_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass
    assert checks_peak < solve_peak


def test_initial_guess_peak_bytes_per_node():
    grid = make_grid(2049, 4, 4)
    tracemalloc.start()
    try:
        default_initial_guess(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.n_nodes < GUESS_PEAK_B_PER_NODE


def test_fields_csv_peak_bytes_per_node(tmp_path):
    grid = make_grid(33, 64, 64)
    sol = newton_solve(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
    a, b = spatial_ab(grid, sol.phi.values)
    fields = {"Q": q_from_ab(a, b), "a": a, "abs_b": np.abs(b),
              "residual": residual(sol.phi, sol.profile).values}
    tracemalloc.start()
    try:
        write_fields_csv(tmp_path / "fields.csv", grid, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.n_nodes < FIELDS_CSV_PEAK_B_PER_NODE
