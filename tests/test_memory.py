"""Memory guards: the solver caches no jets, and newton_solve, run_checks
and the fields CSV writer stay under bytes-per-node bounds counted by
tracemalloc (a deterministic count of allocations, not a timing); a
sweep's peak does not grow with its rungs."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import COS_BOUNDARY
from hcma import AnnulusProfile, cli, make_grid, newton_solve
from hcma.grid import ScalarField, spatial_ab
from hcma.io import ExperimentConfig, Snapshot, write_fields_csv
from hcma.solver import (Solution, default_initial_guess, linearize,
                         rhs_floor)
from hcma.verify import q_from_ab, run_checks
from oracle import admissible_block, residual_grid

# run_checks on the 33x64x64 cos solution peaks at 44.6 B per node on both
# lattices (numpy 2.4): one t-chunk's strip frame, jets and temporaries,
# with no frame of the whole interior; the bounds left a 10% margin over
# the 46.5 and 48.4 it once reached.  The solution carries no jets, so
# every jet the checks read is counted here.
RUN_CHECKS_PEAK_B_PER_NODE = {1j: 51.2, 0.3 + 1.1j: 53.3}
# lq_ratio alone on a fresh 33x64x64 cos solution peaks at 41.0 B per node
# on both lattices, the window's Q and the composite Q held together; the
# bounds left a 10% margin over the 38.6 and 40.5 it once reached.
LQ_RATIO_PEAK_B_PER_NODE = {1j: 42.4, 0.3 + 1.1j: 44.5}
# newton_solve on the 33x64x64 cos problem peaks at 185.3 B per node on
# both lattices (numpy 2.4), inside GMRES: its 11-vector workspace, the
# Jacobian's five coefficient grids (the solve's one working block, the
# iterate's frame turned into them) and the preconditioner's factors.  The
# peak did not move when that block replaced a frame and five grids of the
# stencil's own, which never lived through GMRES together.  The bounds
# leave a 4% margin, below the 260.5 that GMRES(20)'s 21 vectors reached.
SOLVE_PEAK_B_PER_NODE = {1j: 193.0, 0.3 + 1.1j: 193.0}
# linearize of the 33x64x64 cos problem's default guess peaks at 48.3 B
# per node on both lattices (numpy 2.4), the block it takes over included:
# the frame's five grids, which the stencil turns into its coefficients in
# place, the preconditioner's factors and their temporaries, and one
# t-chunk's t-mixed coefficients.  With a stencil that kept five grids of
# its own beside the frame it was 86.6.  The bounds leave a 10% margin;
# the solve's own peak, above, is nearly four times as high.
LINEARIZE_PEAK_B_PER_NODE = {1j: 53.1, 0.3 + 1.1j: 53.1}
# default_initial_guess on the 2049x4x4 cos problem peaks at 32.6 B per
# node, a handful of grid arrays and no strip frame; the bound leaves a 10%
# margin.  One dense (nt-2)^2 float matrix alone would take 1022 B per node
# there.
GUESS_PEAK_B_PER_NODE = 36.0
# Solution.admissible on a 33x64x64 and a 49x96x96 field peaks at 20.4
# and 6.0 B per node on both lattices (numpy 2.4): one t-chunk's jets and
# strip frame, judged before the next chunk's are made.  A frame of the
# whole interior in one (5, nt-2, nx, ny) block took it to 58.0 and 44.4.
# The bounds leave a 10% margin.
ADMISSIBLE_PEAK_B_PER_NODE = {33: 22.5, 49: 6.7}
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
def test_linearize_keeps_no_grid_of_its_own(modulus):
    """The pair linearize returns holds the block it takes over, the
    frame's five interior grids turned into the stencil's coefficients of
    its four legs and of the centre, beside the preconditioner's one array
    of pivot reciprocals: counted from after the frame is made, it keeps
    no grid and no bordered grid of its own."""
    grid = make_grid(17, 32, 32, modulus)
    phi = default_initial_guess(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
    block = admissible_block(phi)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jacobian, preconditioner = linearize(grid, block)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    factors = preconditioner.inv.nbytes
    # and one zero plane, with a few small objects
    assert kept <= factors + 2 * grid.nx * grid.ny * 8


@pytest.mark.parametrize("modulus", list(LINEARIZE_PEAK_B_PER_NODE),
                         ids=["square", "skew"])
def test_linearize_peak_bytes_per_node(modulus):
    grid = make_grid(33, 64, 64, modulus)
    phi = default_initial_guess(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
    tracemalloc.start()
    try:
        block = admissible_block(phi)
        tracemalloc.reset_peak()
        linearize(grid, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.n_nodes < LINEARIZE_PEAK_B_PER_NODE[modulus]


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


@pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j], ids=["square", "skew"])
@pytest.mark.parametrize("nt, n", [(33, 64), (49, 96)])
def test_admissible_peak_bytes_per_node(modulus, nt, n):
    grid = make_grid(nt, n, n, modulus)
    profile = AnnulusProfile(1e-3)
    sol = Solution(default_initial_guess(grid, COS_BOUNDARY, profile), grid,
                   profile, COS_BOUNDARY, False, 0.0, 0)
    tracemalloc.start()
    try:
        ok = sol.admissible
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak / grid.n_nodes < ADMISSIBLE_PEAK_B_PER_NODE[nt]


def test_fields_csv_peak_bytes_per_node(tmp_path):
    grid = make_grid(33, 64, 64)
    sol = newton_solve(grid, COS_BOUNDARY, AnnulusProfile(1e-3))
    a, b = spatial_ab(grid, sol.phi.values)
    fields = {"Q": q_from_ab(a, b), "a": a, "abs_b": np.abs(b),
              "residual": residual_grid(sol.phi, sol.profile)[0]}
    tracemalloc.start()
    try:
        write_fields_csv(tmp_path / "fields.csv", grid, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.n_nodes < FIELDS_CSV_PEAK_B_PER_NODE


def test_snapshot_save_copies_no_grid(tmp_path, sol_cos):
    """Snapshot.save writes phi's own buffer: its peak is the header and
    config echo, far below the 17x32x32 grid it writes."""
    snap = Snapshot.from_solution(sol_cos, ExperimentConfig())
    tracemalloc.start()
    try:
        snap.save(tmp_path / "a.snap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sol_cos.phi.values.nbytes / 10
    assert Snapshot.load(tmp_path / "a.snap").values.tobytes() == (
        sol_cos.phi.values.tobytes())


def test_snapshot_load_holds_the_payload_once(tmp_path):
    """Snapshot.load views the payload in the file's bytes: its peak on a
    33x64x64 snapshot is 1.00 payloads, where a slice of the payload and a
    copy of that made it 3.00.  The bound leaves a 10% margin."""
    values = np.random.default_rng(0).standard_normal((33, 64, 64))
    Snapshot(ExperimentConfig().serialize(), *values.shape, 1j, True, 3,
             1e-12, values).save(tmp_path / "a.snap")
    tracemalloc.start()
    try:
        back = Snapshot.load(tmp_path / "a.snap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * values.nbytes
    assert back.values.tobytes() == values.tobytes()


def test_loaded_solution_holds_the_payload_once(tmp_path):
    """Snapshot.load and to_solution share the file's immutable bytes with
    the field: on a 33x64x64 snapshot they peak at 1.20 payloads, where a
    field that copied them reached 2.02.  A writeable array is still
    copied, so no alias can change a field."""
    values = np.random.default_rng(0).standard_normal((33, 64, 64))
    Snapshot(ExperimentConfig().serialize(), *values.shape, 1j, True, 3,
             1e-12, values).save(tmp_path / "a.snap")
    tracemalloc.start()
    try:
        sol, _ = Snapshot.load(tmp_path / "a.snap").to_solution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * values.nbytes
    assert sol.phi.values.tobytes() == values.tobytes()
    assert not sol.phi.values.flags.writeable
    phi = ScalarField(sol.grid, values)
    values[0, 0, 0] = np.inf
    assert not np.shares_memory(phi.values, values)
    assert phi.values.tobytes() == sol.phi.values.tobytes()


def test_rhs_floor_copies_no_grid():
    """rhs_floor reads the broadcast right-hand side in place: 8 B per
    node would be its copy."""
    grid = make_grid(33, 64, 64)
    tracemalloc.start()
    try:
        rhs_floor(AnnulusProfile(1e-3), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.n_nodes < 1.0


def sweep_peak(tmp_path, n_rungs) -> int:
    """tracemalloc peak of hcma sweep on the 17x32x32 cos problem with an
    n_rungs lambda ladder from 0 to 1."""
    lambdas = ", ".join(repr(k / (n_rungs - 1)) for k in range(n_rungs))
    cfg = tmp_path / f"sweep{n_rungs}.ini"
    cfg.write_text("[grid]\nnt = 17\nnx = 32\nny = 32\n\n[profile]\n"
                   "kind = annulus\nepsilon = 1e-3\n\n[boundary]\n"
                   "phi1 = 1,0,0.005,0\n\n[sweep]\n"
                   f"lambdas = {lambdas}\n")
    tracemalloc.start()
    try:
        rc = cli.main(["sweep", "--config", str(cfg),
                       "--out", str(tmp_path / f"out{n_rungs}")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def test_sweep_peak_does_not_grow_with_rungs(tmp_path):
    """A sweep saves and folds each rung as it converges and holds at most
    two rungs' phi, so eight more rungs cost less than one grid."""
    grid_bytes = 17 * 32 * 32 * 8
    assert abs(sweep_peak(tmp_path, 11) - sweep_peak(tmp_path, 3)) < grid_bytes
