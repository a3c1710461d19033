import numpy as np
import pytest

from conftest import COS_BOUNDARY
from hcma import AnnulusProfile, make_grid, newton_solve
from hcma.grid import ScalarField, _wrap, dt1, dx1, dy1, spatial_ab
from hcma.leaves import (LeafError, LeafPath, leaf_fields, qb_along_leaf,
                         trace_leaf)
from oracle import field_from, rk4_path


def test_leaf_fields_are_the_whole_grid_differences():
    # bitwise what spatial_ab, dt1(dx1) and dt1(dy1) give, each on its own
    # pad of the grid, on both lattices
    for modulus in (1j, 0.3 + 1.1j):
        grid = make_grid(9, 16, 12, modulus)
        rng = np.random.default_rng(0)
        phi = ScalarField(grid, rng.standard_normal(grid.shape))
        v = phi.values
        want = (*spatial_ab(grid, v), dt1(grid, dx1(grid, _wrap(v))),
                dt1(grid, dy1(grid, _wrap(v))))
        got = leaf_fields(phi)
        assert len(got) == 4
        for g_arr, w_arr in zip(got, want):
            assert g_arr.dtype == w_arr.dtype
            assert np.array_equal(g_arr, w_arr)


def trace(sol, start, step=0.01):
    """One leaf through sol's phi, from the leaf_fields hcma trace builds."""
    return trace_leaf(sol.grid, leaf_fields(sol.phi), start, step)


class TestRk4Path:
    def test_constant_velocity(self):
        ts, zs = rk4_path(lambda t, z: 1.0 + 0j, 0.0, 0.0, step=0.1)
        assert ts[-1] == pytest.approx(1.0)
        assert zs[-1] == pytest.approx(1.0 + 0j)

    def test_final_step_shortened(self):
        ts, _ = rk4_path(lambda t, z: 0j, 0.0, 0.0, step=0.3)
        assert ts[-1] == pytest.approx(1.0)
        assert np.diff(ts)[-1] == pytest.approx(0.1)

    def test_fourth_order_on_exponential(self):
        # dz/dt = z, z(0) = 1: halving the step divides the error by ~16
        errs = []
        for step in (0.1, 0.05, 0.025):
            _, zs = rk4_path(lambda t, z: z, 0.0, 1.0 + 0j, step=step)
            errs.append(abs(zs[-1] - np.e))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.8

    def test_velocity_exception_propagates(self):
        def bad(t, z):
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            rk4_path(bad, 0.0, 0.0)


class TestTraceLeaf:
    def test_vertical_on_zero_boundary(self, sol_zero_const):
        # Phi_tzbar = 0 everywhere, so every leaf is a vertical line
        path = trace(sol_zero_const, (0.0, 0.3 + 0.4j), step=0.05)
        assert not path.aborted
        assert np.abs(path.zs - path.zs[0]).max() == pytest.approx(0.0)
        assert path.ts[-1] == pytest.approx(1.0)

    def test_vertical_on_t_independent_spatial_part(self, sol_zero_annulus):
        path = trace(sol_zero_annulus, (0.0, 0.1 + 0.2j), step=0.05)
        assert not path.aborted
        assert np.abs(path.zs - path.zs[0]).max() < 1e-12

    def test_cos_boundary_stays_in_hypothesis(self, sol_cos):
        path = trace(sol_cos, (0.0, 0.25 + 0.5j), step=0.02)
        assert not path.aborted
        qb, second, record = qb_along_leaf(path)
        assert record["in_hypothesis"]
        assert record["max_qb"] < 0.5

    def test_bad_start_t(self, sol_zero_const):
        with pytest.raises(LeafError):
            trace(sol_zero_const, (1.0, 0j))
        with pytest.raises(LeafError):
            trace(sol_zero_const, (-0.1, 0j))

    def test_bad_step(self, sol_zero_const):
        with pytest.raises(LeafError):
            trace(sol_zero_const, (0.0, 0j), step=0.0)

    @pytest.mark.parametrize("start, step", [
        ((float("nan"), 0j), 0.1), ((0.0, complex(float("nan"), 0.5)), 0.1),
        ((0.0, complex(0.5, float("inf"))), 0.1), ((0.0, 0j), float("nan")),
        ((0.0, 0j), float("inf"))])
    def test_non_finite_start_or_step(self, sol_zero_const, start, step):
        with pytest.raises(LeafError):
            trace(sol_zero_const, start, step=step)

    @pytest.mark.parametrize("t0", [0.0, 0.5])
    def test_step_too_small_to_advance_t(self, sol_zero_const,
                                         rk4_step_limit, t0):
        # 1e-17 is below half the float spacing on [0.5, 1): t + step == t
        with pytest.raises(LeafError, match="too small to advance t"):
            trace(sol_zero_const, (t0, 0j), step=1e-17)

    def test_smallest_advancing_step_is_accepted(self, sol_zero_const,
                                                 rk4_step_limit):
        # just over half the spacing: slow, but every step advances t
        step = np.nextafter(0.5 * np.spacing(0.75), 1.0)
        with pytest.raises(RuntimeError, match="step limit"):
            trace(sol_zero_const, (0.5, 0j), step=step)

    def test_lattice_wrap(self, sol_cos):
        # starts one period apart follow identical wrapped paths
        p0 = trace(sol_cos, (0.0, 0.25 + 0j), step=0.05)
        p1 = trace(sol_cos, (0.0, 1.25 + 0j), step=0.05)
        assert np.abs(p0.zs - p1.zs).max() < 1e-10

    def test_adjacent_starts_stay_close(self, sol_cos):
        # Lipschitz continuity of the flow in the initial condition
        d0 = 1e-3
        p0 = trace(sol_cos, (0.0, 0.3 + 0.3j), step=0.02)
        p1 = trace(sol_cos, (0.0, 0.3 + d0 + 0.3j), step=0.02)
        sep = np.abs(p1.zs - p0.zs)
        assert sep.max() < 10 * d0

    def test_abort_keeps_partial_path(self, grid_small):
        from hcma import BoundarySpec
        from hcma.solver import Solution
        # hand-built field with 1 + a < 0 near t = 1 along x = 0
        fld = field_from(
            grid_small,
            lambda t, x, y: 0.15 * np.cos(2 * np.pi * x) * t**2)
        sol = Solution(phi=fld, grid=grid_small, profile=AnnulusProfile(1e-3),
                       boundary=BoundarySpec(), converged=True,
                       final_residual=0.0, iterations=0)
        path = trace(sol, (0.0, 0.0 + 0.5j), step=0.05)
        assert path.aborted
        assert "degenerate" in path.message
        assert path.n_samples >= 1
        assert path.ts[-1] < 1.0


class TestQbAlongLeaf:
    def test_needs_three_samples(self):
        path = LeafPath(ts=np.array([0.0, 1.0]), zs=np.zeros(2, complex),
                        qb_samples=np.zeros(2))
        with pytest.raises(LeafError):
            qb_along_leaf(path)

    def test_zero_on_zero_boundary(self, sol_zero_const):
        path = trace(sol_zero_const, (0.0, 0.2 + 0.7j), step=0.05)
        qb, second, record = qb_along_leaf(path)
        assert np.abs(qb).max() < 1e-12
        assert record["min_second_diff"] == pytest.approx(0.0, abs=1e-10)

    def test_nonuniform_tail_handled(self, sol_zero_const):
        # step that does not divide 1 forces a shortened final interval
        path = trace(sol_zero_const, (0.0, 0.2 + 0.7j), step=0.07)
        qb, second, record = qb_along_leaf(path)
        assert np.isfinite(second).all()

    def test_convexity_in_hypothesis(self, sol_cos):
        # paper's convexity statement: (Q_B)_XXbar >= 0 up to the h^2 band
        path = trace(sol_cos, (0.0, 0.25 + 0.5j), step=0.02)
        _, second, record = qb_along_leaf(path)
        assert record["in_hypothesis"]
        h2 = 10.0 * max(sol_cos.grid.ht, sol_cos.grid.hx) ** 2
        scale = max(1.0, record["max_qb"] / sol_cos.grid.ht ** 2)
        assert record["min_second_diff"] >= -h2 * scale


class TestEpsSweepCoherence:
    def test_endpoints_recorded_across_eps(self, eps_sweep):
        # endpoints drift as eps shrinks; record the spread, no threshold
        ends = []
        for sol in eps_sweep:
            path = trace(sol, (0.0, 0.25 + 0.5j), step=0.05)
            assert not path.aborted
            ends.append(path.zs[-1])
        spread = max(abs(a - b) for a in ends for b in ends)
        assert np.isfinite(spread)
