import dataclasses
import json

import numpy as np
import pytest

import hcma.grid
import hcma.verify
from conftest import COS_AMP, COS_BOUNDARY, chunk_grids, run_check
from hcma import (AnnulusProfile, BoundarySpec, lambda_sweep, make_grid,
                  newton_solve)
from hcma.grid import (ScalarField, _wrap, dt1, dt2, dx1, dy1, plane_jets,
                       spatial_ab, t_chunks, wirt_parts, wirt_z, wirt_zbar)
from hcma.io import report_json
from hcma.quantities import (InadmissibleError, InfeasibleKError,
                             NonConvexBoundaryError, apply_L,
                             boundary_delta, boundary_S, choose_K, h_contract,
                             sigma_roots, strip_frame)
from hcma.solver import Solution
from hcma.verify import (BOUNDARY_ROUND_OFF, C_H1, C_H2, D_R, FRAME_CHECKS,
                         MONOTONE_SLACK, Q_FLOOR, REL_SLACK,
                         STABILITY_SPREAD, U_FD_STEP,
                         CheckPass, CheckRecord, LadderFold, check_converged,
                         check_eps_monotone_limit, check_lambda_monotonicity,
                         check_metric_lower_bound_stability, check_u_identity,
                         jet_map_export, q_from_ab, run_checks, weight_u)
from oracle import (DegenerateMetricError, admissible_frame,
                    composite_q_field, field_from, flat_jet_from_torus,
                    fresh_frame, general_flat_state, residual_grid,
                    torus_state, u_identity_error, wirtinger_jet)

# annulus angles the references sample u at, for the weighted max principle
N_ANGLES = 16


def spike_solution(grid, plane=0):
    """1/256 at node (plane, 3, 5) of a zero t = 0 or t = 1 plane: 1 + a =
    b = 0 there, so Q is 0/0."""
    t = grid.t_values[:, None, None]
    values = 0.05 * t * (t - 1.0) * np.ones(grid.shape)
    values[plane, 3, 5] = 1.0 / 256.0
    return Solution(phi=ScalarField(grid, values), grid=grid,
                    profile=AnnulusProfile(1e-3), boundary=BoundarySpec(),
                    converged=True, final_residual=0.0, iterations=0)


def q_of(sol):
    """Q = |b|^2/(1+a)^2 of a solution on the whole grid."""
    return q_from_ab(*spatial_ab(sol.grid, sol.phi.values))


def synthetic_solution(grid, fn, profile=None):
    """Wrap an arbitrary field as a Solution for adversarial checks."""
    return Solution(
        phi=field_from(grid, fn), grid=grid,
        profile=profile or AnnulusProfile(1e-3), boundary=BoundarySpec(),
        converged=True, final_residual=0.0, iterations=0)


class TestConverged:
    def test_solved_planes_are_the_boundary_data(self, request, grid_small):
        # Newton writes phi's t = 0 and t = 1 planes from evaluate
        sols = [request.getfixturevalue(name) for name in
                ("sol_zero_const", "sol_zero_annulus", "sol_cos")]
        sols += request.getfixturevalue("eps_sweep")
        sols += lambda_sweep(grid_small, COS_BOUNDARY, [0.0, 0.5, 1.0],
                             AnnulusProfile(1e-3))
        for sol in sols:
            rec = check_converged(sol)
            assert rec.passed and rec.note == ""
            assert rec.extra["boundary_gap"] == 0.0

    def test_other_boundary_data_fails(self, sol_cos):
        # phi unchanged, its boundary the lambda = 0.5 scaling: the residual
        # never reads the Dirichlet planes, nor does any estimate check
        mutant = dataclasses.replace(sol_cos,
                                     boundary=sol_cos.boundary.scaled(0.5))
        report = run_checks(mutant, seed=0)
        assert not report.all_pass
        rec = report["converged"]
        assert not rec.passed and not rec.vacuous
        assert rec.extra["boundary_gap"] == pytest.approx(0.5 * COS_AMP,
                                                          rel=1e-12)
        bound = BOUNDARY_ROUND_OFF * 0.5 * COS_AMP
        assert rec.note == (f"boundary planes 2.500e-03 from the boundary "
                            f"data, above {bound:.3e}")
        assert all(c.passed or c.vacuous for c in report.checks[1:])

    @pytest.mark.parametrize("plane", [0, -1])
    def test_round_off_bound(self, sol_cos, plane):
        bound = BOUNDARY_ROUND_OFF * COS_AMP
        for shift, passed in ((0.5 * bound, True), (2.0 * bound, False)):
            values = sol_cos.phi.values.copy()
            values[plane, 3, 5] += shift
            rec = check_converged(dataclasses.replace(
                sol_cos, phi=ScalarField(sol_cos.grid, values)))
            assert rec.passed == passed
            assert rec.extra["boundary_gap"] == pytest.approx(shift,
                                                              rel=1e-3)

    def test_unconverged_keeps_both_notes(self, sol_cos):
        rec = check_converged(dataclasses.replace(
            sol_cos, converged=False, boundary=BoundarySpec()))
        assert not rec.passed
        assert rec.note.startswith("not converged: final residual ")
        assert "; boundary planes 5.000e-03 from the boundary data" in rec.note


class TestConvexity:
    def test_closed_form(self, sol_zero_const):
        rec = run_check(sol_zero_const, "convexity")
        assert rec.passed
        assert rec.measured == pytest.approx(-1.0, abs=1e-6)

    def test_cos_boundary(self, sol_cos):
        assert run_check(sol_cos, "convexity").passed

    def test_synthetic_violation(self, grid_small):
        # amplitude large enough that a = -pi^2 c cos dips below -1
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: 0.2 * np.cos(2 * np.pi * x) * np.ones_like(t))
        rec = run_check(sol, "convexity")
        assert not rec.passed

    def test_gap_alone_fails(self, grid_small):
        # a = -pi^2 c cos 2 pi x and |b| = |a| on the square lattice: at
        # c = 0.07, 1 + a stays above 0.3 but |b| passes it near x = 0
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: 0.07 * np.cos(2 * np.pi * x) * np.ones_like(t))
        rec = run_check(sol, "convexity")
        assert rec.extra["min_one_plus_a"] > 0.3
        assert rec.measured > rec.tolerance
        assert not rec.passed


class TestMaxPrinciple:
    def test_zero_boundary(self, sol_zero_const):
        rec = run_check(sol_zero_const, "max_principle_Q")
        assert rec.passed
        assert rec.measured == pytest.approx(0.0, abs=1e-12)

    def test_cos_boundary(self, sol_cos):
        rec = run_check(sol_cos, "max_principle_Q")
        assert rec.passed and rec.extra["factor2_pass"]

    def test_degenerate_node_on_the_t1_plane(self, grid_small):
        # the least 1 + a of the whole grid lies on the last t-plane only
        rec = run_check(spike_solution(grid_small, plane=-1),
                        "max_principle_Q")
        assert not rec.passed
        assert rec.note == ("1 + a = 0.000e+00 <= 0 at node "
                            f"({grid_small.nt - 1}, 3, 5)")

    def test_boundary_Q_matches_analytic(self, sol_cos):
        # analytic boundary jets: a = b = -pi^2 c cos(2 pi x)
        c = COS_AMP
        exact = (np.pi**2 * c / (1 - np.pi**2 * c)) ** 2
        rec = run_check(sol_cos, "max_principle_Q")
        assert rec.bound == pytest.approx(exact, rel=0.02)


class TestWeightedMaxPrinciple:
    def test_u_identity(self):
        rec = check_u_identity(2 * np.e)
        assert rec.passed and rec.measured <= 1e-6

    @pytest.mark.parametrize("step", [U_FD_STEP, 0.1])
    def test_u_identity_measured_equals_the_oracle(self, monkeypatch, step):
        # bitwise the oracle's real-coordinate error; at the module's step,
        # as at 0.1, the truncation error dominates round-off, so it is also
        # the closed form for the separable cosine.  Round-off grows as
        # eps/h^2: it moves the figure by 7.6e-4 of it at 1e-2, and at 1e-3
        # it was ten times the truncation error
        monkeypatch.setattr(hcma.verify, "U_FD_STEP", step)
        rec = check_u_identity(D_R)
        assert rec.measured == u_identity_error(D_R, step)
        kh = np.pi / (4.0 * D_R) * step
        closed = abs(1.0 - 2.0 * (1.0 - np.cos(kh)) / kh ** 2)
        rel = 1e-5 if step == 0.1 else 1e-3
        assert rec.measured == pytest.approx(closed, rel=rel)

    def test_circle_minimum_is_u_on_the_real_axis(self):
        # u(e^t) is bitwise the least of the N_ANGLES angles sampled on
        # |tau| = e^t, which always include s = 0
        s = np.arange(N_ANGLES) * 2.0 * np.pi / N_ANGLES
        for nt in [*range(3, 300), 513, 1025, 4097]:
            t = make_grid(nt, 4, 4).t_values
            least = weight_u(np.exp(t[:, None] + 1j * s), D_R).min(axis=1)
            assert np.array_equal(weight_u(np.exp(t + 0j), D_R), least), nt

    def test_circle_minimum_is_no_more_than_dense_angles(self):
        # u(e^t) <= u at 4096 angles of |tau| = e^t, 4097 circles
        t = make_grid(4097, 4, 4).t_values
        on_axis = weight_u(np.exp(t + 0j), D_R)
        s = np.arange(4096) * 2.0 * np.pi / 4096
        for i in range(0, t.size, 512):
            tau = np.exp(t[i:i + 512, None] + 1j * s)
            assert (on_axis[i:i + 512] <= weight_u(tau, D_R).min(axis=1)).all()

    def test_cos_boundary(self, sol_cos):
        rec = run_check(sol_cos, "weighted_max_principle")
        assert rec.passed
        assert rec.extra["u_identity_rel_err"] <= 1e-6

    def test_vacuous_on_constant_profile(self, sol_zero_const):
        rec = run_check(sol_zero_const, "weighted_max_principle")
        assert rec.vacuous

    @pytest.mark.parametrize("case", ["cos", "degenerate"])
    def test_bitwise_equal_to_broadcast_ratio(self, grid_small, case):
        # reference: Q/u over the whole (nt, N_ANGLES, nx, ny) array
        sol = (spike_solution(grid_small) if case == "degenerate" else
               newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3)))
        Q = q_of(sol)
        s = np.arange(N_ANGLES) * 2.0 * np.pi / N_ANGLES
        u = weight_u(np.exp(grid_small.t_values[:, None] + 1j * s), D_R)
        ratio = Q[:, None] / u[:, :, None, None]
        rec = run_check(sol, "weighted_max_principle")
        assert np.array_equal([rec.measured, rec.bound],
                              [ratio[1:-1].max(), ratio[[0, -1]].max()],
                              equal_nan=True)
        assert np.isnan(rec.bound) == (case == "degenerate")


class TestBounds:
    def test_lower_bound_closed_form(self, sol_zero_const):
        rec = run_check(sol_zero_const, "metric_lower_bound")
        assert rec.passed
        assert rec.measured == pytest.approx(1.0, abs=1e-8)
        assert rec.bound == pytest.approx(1.0, abs=1e-8)

    def test_lower_bound_cos(self, sol_cos):
        rec = run_check(sol_cos, "metric_lower_bound")
        assert rec.passed
        assert rec.bound == pytest.approx(1 - 2 * np.pi**2 * COS_AMP,
                                          rel=5e-3)

    def test_upper_bound_closed_form(self, sol_zero_const):
        rec = run_check(sol_zero_const, "upper_bound")
        assert rec.passed
        assert rec.measured == pytest.approx(1.0, abs=1e-8)

    def test_upper_bound_cos(self, sol_cos):
        rec = run_check(sol_cos, "upper_bound")
        assert rec.passed
        assert rec.bound == pytest.approx(1 + 2 * np.pi**2 * COS_AMP,
                                          rel=5e-3)

    def test_upper_bound_synthetic_violation(self, grid_small):
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: 0.012 * np.cos(2 * np.pi * x) * np.sin(np.pi * t))
        rec = run_check(sol, "upper_bound")
        # interior |b|+a+1 exceeds the boundary S = 1 of the zero planes
        assert not rec.passed


def ab_residuals_reference(sol):
    """(residual_a, residual_b, scale) of the a/b equations in whole-grid
    arithmetic: third-order jets differenced on the whole grid, b contracted
    as its real and imaginary parts, every product on full interior
    arrays."""
    grid, v = sol.grid, sol.phi.values
    a, b = spatial_ab(grid, v)
    frame = admissible_frame(sol.phi)
    g, (m_r, m_i), q, det = frame
    m = m_r + 1j * m_i
    i = np.s_[1:-1]
    a_zeta, a_z = 0.5 * dt1(grid, a)[i], wirt_z(grid, a)[i]
    b_zetabar, b_zbar = 0.5 * dt1(grid, b)[i], wirt_zbar(grid, b)[i]

    def h_bilinear(u0, u1, w0, w1):
        return (g * u0 * w0 - m * u1 * w0 - np.conj(m) * u0 * w1
                + q * u1 * w1) / det

    lhs_a, lhs_b_re, lhs_b_im = h_contract(grid, (a, b.real, b.imag), frame)
    lhs_b = lhs_b_re + 1j * lhs_b_im
    rhs_a = (h_bilinear(a_zeta, a_z, np.conj(a_zeta), np.conj(a_z))
             + h_bilinear(np.conj(b_zetabar), np.conj(b_zbar), b_zetabar,
                          b_zbar)).real / g
    rhs_b = 2.0 * h_bilinear(a_zeta, a_z, b_zetabar, b_zbar) / g
    scale = max(1.0, np.abs(lhs_a).max(), np.abs(lhs_b).max())
    return np.abs(lhs_a - rhs_a).max(), np.abs(lhs_b - rhs_b).max(), scale


class TestAbEquations:
    @pytest.mark.parametrize("case", ["cos", "cos_skew", "perturbed"])
    def test_matches_whole_grid_reference(self, case, request):
        if case != "perturbed":
            sol = request.getfixturevalue(f"sol_{case}")
        else:
            # admissible, but no solution: t-z mixing and third-order terms
            sol = synthetic_solution(
                make_grid(9, 16, 16, 0.3 + 1.1j),
                lambda t, x, y: 0.05 * t * (t - 1.0)
                + 0.002 * t**2 * np.sin(2 * np.pi * (x + y))
                + 0.003 * np.sin(np.pi * t) * np.cos(2 * np.pi * x))
        assert sol.admissible
        want = ab_residuals_reference(sol)
        assert min(want[:2]) > 1e-3
        rec = run_check(sol, "ab_equations")
        got = [rec.extra[k] for k in ("residual_a", "residual_b", "scale")]
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_zero_boundary(self, sol_zero_const):
        rec = run_check(sol_zero_const, "ab_equations")
        assert rec.passed
        assert rec.measured == pytest.approx(0.0, abs=1e-9)

    def test_cos_boundary(self, sol_cos):
        assert run_check(sol_cos, "ab_equations").passed

    def test_residual_slope(self):
        # refinement halves h; expect order >= 0.9 (third-derivative stencils)
        res = []
        for nt, nx, ny in [(9, 16, 16), (17, 32, 32)]:
            g = make_grid(nt, nx, ny)
            sol = newton_solve(g, COS_BOUNDARY, AnnulusProfile(1e-3))
            rec = run_check(sol, "ab_equations")
            res.append(rec.measured)
        slope = np.log2(res[0] / res[1])
        assert slope >= 0.9


class TestEkqSubharmonic:
    def test_zero_boundary(self, sol_zero_const):
        rec = run_check(sol_zero_const, "ekq_subharmonic")
        assert rec.passed
        assert rec.measured == pytest.approx(0.0, abs=1e-8)

    def test_cos_boundary(self, sol_cos):
        rec = run_check(sol_cos, "ekq_subharmonic")
        assert rec.passed
        assert rec.extra["K"] == 3
        assert rec.extra["out_of_hypothesis_nodes"] == 0

    def test_out_of_hypothesis_vacuous(self, grid_small):
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: -0.3 * np.cos(2 * np.pi * x) - 0.3 * np.cos(
                2 * np.pi * y) + 0.5 * t * (t - 1))
        rec = run_check(sol, "ekq_subharmonic")
        # boundary Q is about 3.8e3, outside the hypothesis Q < 1
        assert rec.vacuous
        assert "boundary Q" in rec.note


def ekq_tolerance_reference(sol):
    """The ekq_subharmonic allowance from W's whole-grid jets, as it was
    computed before it went chunk by chunk."""
    grid = sol.grid
    Q = q_of(sol)
    K = choose_K(float(Q[[0, -1]].max()))
    W = np.exp(np.minimum(K * Q, 700.0))
    g, (m_r, m_i), q, det = admissible_frame(sol.phi)
    w_tz = wirt_parts(grid, dt1(grid, dx1(grid, _wrap(W)))[1:-1],
                      dt1(grid, dy1(grid, _wrap(W)))[1:-1])
    mixed = np.hypot(m_r, m_i) * (0.5 * np.hypot(*w_tz))
    mag = (g * np.abs(0.25 * dt2(grid, W)[1:-1]) + mixed + mixed
           + q * np.abs(spatial_ab(grid, W)[0][1:-1])) / det
    return C_H2 * max(grid.ht, grid.hx, grid.hy) ** 2 * max(1.0, float(
        mag.max()))


@pytest.mark.parametrize("fixture", ["sol_zero_const", "sol_zero_annulus",
                                     "sol_cos", "part-chunk"])
def test_streamed_ekq_allowance_equals_whole_grid(fixture, request):
    if fixture == "part-chunk":     # admissible, peaking in the last chunk
        sol = synthetic_solution(
            chunk_grids(0.3 + 1.1j)[1], lambda t, x, y: 0.05 * t * (t - 1)
            + 0.005 * t**4 * np.cos(2 * np.pi * (x + y)))
    else:                           # one t-chunk covers 17x32x32
        sol = request.getfixturevalue(fixture)
    rec = run_check(sol, "ekq_subharmonic")
    assert not rec.vacuous
    assert rec.tolerance == ekq_tolerance_reference(sol)


class TestLqRatio:
    def test_vacuous_on_zero_boundary(self, sol_zero_const):
        # composite Q is not identically zero (Q_G > 0 via Phi_t), but the
        # pure-boundary zero case with constant profile has Q == 0 nowhere
        rec = run_check(sol_zero_const, "lq_ratio")
        assert rec.passed   # diagnostic never fails

    def test_reports_value(self, sol_cos):
        rec = run_check(sol_cos, "lq_ratio")
        assert rec.passed
        assert np.isfinite(rec.measured)
        assert rec.extra["nodes"] > 0


class TestSweepChecks:
    def test_lambda_vacuous_single(self, sol_cos):
        assert check_lambda_monotonicity(LadderFold([sol_cos])).vacuous

    def test_eps_vacuous_single(self, sol_cos):
        assert check_eps_monotone_limit(LadderFold([sol_cos])).vacuous

    def test_eps_sweep(self, eps_sweep):
        rec = check_eps_monotone_limit(LadderFold(eps_sweep))
        assert rec.passed
        assert rec.extra["gaps_decreasing"]

    def test_stability_vacuous_single(self, sol_cos):
        # one rung has no spread to measure, as for its two siblings
        rec = check_metric_lower_bound_stability(LadderFold([sol_cos]))
        assert rec.vacuous and rec.passed
        assert rec.note == "schedule of length <= 1"
        assert rec.bound == STABILITY_SPREAD

    def test_metric_lower_bound_stability(self, eps_sweep):
        rec = check_metric_lower_bound_stability(LadderFold(eps_sweep))
        minima = rec.extra["min_one_plus_a_per_rung"]
        assert rec.passed and rec.bound == STABILITY_SPREAD
        assert rec.measured == max(minima) - min(minima)
        assert len(minima) == len(eps_sweep)

    def test_fold_drawn_rung_by_rung_matches_the_list(self, eps_sweep):
        fold = LadderFold()
        for sol in eps_sweep:
            fold.add(sol)
        whole = LadderFold(eps_sweep)
        for check in (check_eps_monotone_limit, check_lambda_monotonicity,
                      check_metric_lower_bound_stability):
            assert check(fold).to_dict() == check(whole).to_dict()
        assert len(fold) == len(eps_sweep)
        assert fold.last is eps_sweep[-1].phi.values    # no copy, no list

    def test_lambda_sweep(self, grid_mid):
        from hcma import lambda_sweep
        sols = lambda_sweep(grid_mid, COS_BOUNDARY, [0, 0.5, 1.0],
                            AnnulusProfile(1e-3))
        assert check_lambda_monotonicity(LadderFold(sols)).passed

    @pytest.mark.parametrize("spike_first", [True, False])
    def test_degenerate_rung_fails_the_lambda_ladder(self, grid_small,
                                                     spike_first):
        # Q is 0/0 at the spike rung's node (0, 3, 5), so that rung fails
        # max_principle_Q's factor-2 band, and its NaN max Q is the worst
        # drop, wherever it stands in the ladder
        spike = spike_solution(grid_small)
        smooth = synthetic_solution(grid_small,
                                    lambda t, x, y: 0.05 * t * (t - 1.0))
        rungs = [spike, smooth, smooth] if spike_first else [
            smooth, smooth, spike]
        assert not run_check(spike, "max_principle_Q").extra["factor2_pass"]
        rec = check_lambda_monotonicity(LadderFold(rungs))
        assert not rec.passed and not rec.extra["factor2_each_rung"]
        assert np.isnan(rec.measured)
        assert np.isnan(rec.extra["max_Q_sequence"][0 if spike_first else -1])

    def test_factor2_flag_alone_fails_the_lambda_ladder(self, grid_small):
        # the bump rung has zero boundary planes, so boundary Q = 0, and
        # phi = 0.05 cos 2 pi x at t = 1/2, where Q reaches about 0.93:
        # above the factor-2 band C_H2 h^2, below C_H2 / h^2.  Max Q only
        # grows along the ladder, so the bump's factor-2 flag alone fails.
        flat = synthetic_solution(grid_small,
                                  lambda t, x, y: 0.05 * t * (t - 1.0))
        bump = synthetic_solution(
            grid_small,
            lambda t, x, y: -0.2 * t * (t - 1.0) * np.cos(2 * np.pi * x))
        h = max(grid_small.ht, grid_small.hx, grid_small.hy)
        Q = q_of(bump)
        assert Q[[0, -1]].max() == 0.0
        assert C_H2 * h**2 < Q[1:-1].max() < C_H2 / h**2
        fold = LadderFold([flat, flat, bump])
        assert fold.factor2 == [True, True, False]
        rec = check_lambda_monotonicity(fold)
        assert rec.measured <= MONOTONE_SLACK
        assert not rec.extra["factor2_each_rung"]
        assert not rec.passed

    def test_growing_gaps_alone_fail_the_eps_ladder(self, grid_small):
        # phi rises by 1e-3, then by 1e-2: monotone, but the gaps grow
        rungs = [synthetic_solution(
            grid_small, lambda t, x, y, c=c: 0.05 * t * (t - 1.0) + c)
            for c in (0.0, 1e-3, 1.1e-2)]
        rec = check_eps_monotone_limit(LadderFold(rungs))
        assert rec.measured <= MONOTONE_SLACK
        assert rec.extra["max_norm_gaps"] == pytest.approx([1e-3, 1e-2])
        assert not rec.extra["gaps_decreasing"]
        assert not rec.passed


def blind_spot(sol, case):
    """sol with its profile's epsilon set to value ("eps=value"), or with
    value * t(t - 1) added to phi ("c=value"), which keeps phi's boundary
    planes."""
    key, value = case.split("=")
    if key == "eps":
        return dataclasses.replace(sol, profile=AnnulusProfile(float(value)))
    t = sol.grid.t_values[:, None, None]
    return dataclasses.replace(sol, phi=ScalarField(
        sol.grid, sol.phi.values + float(value) * t * (t - 1.0)))


class TestBlindSpots:
    """Solutions of another problem that run_checks passes today (ROADMAP
    item 3): sol_cos checked against twice its epsilon, and phi + c t(t-1).
    Each true residual is far above a converged solve's."""

    CASES = ["eps=2e-3", "c=1e-4", "c=1e-3", "c=1e-2"]

    @pytest.mark.parametrize("case", CASES)
    def test_is_not_a_solution(self, sol_cos, case):
        mutant = blind_spot(sol_cos, case)
        assert residual_grid(mutant.phi, mutant.profile)[1] > 1e-4

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    @pytest.mark.parametrize("case", CASES)
    def test_fails_run_checks(self, sol_cos, case):
        assert not run_checks(blind_spot(sol_cos, case), seed=0).all_pass


class TestJetMap:
    def test_zero_boundary(self, sol_zero_const):
        points, rec = jet_map_export(sol_zero_const)
        assert rec.passed
        assert np.abs(points).max() < 1e-8

    def test_cos_boundary(self, sol_cos):
        points, rec = jet_map_export(sol_cos)
        assert rec.passed
        assert "delta" in rec.extra and "S" in rec.extra

    def test_synthetic_outside(self, grid_small):
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: 0.02 * np.cos(2 * np.pi * x) * np.sin(np.pi * t))
        _, rec = jet_map_export(sol)
        assert not rec.passed


class TestRunChecks:
    def test_all_pass_on_cos(self, sol_cos):
        report = run_checks(sol_cos, seed=0)
        assert report.all_pass
        names = {c.name for c in report.checks}
        assert "convexity" in names and "jet_map" in names

    def test_deterministic(self, sol_cos):
        r1 = run_checks(sol_cos, seed=0).to_dict()
        r2 = run_checks(sol_cos, seed=0).to_dict()
        assert r1 == r2

    def test_unknown_check_rejected(self, sol_cos):
        with pytest.raises(KeyError):
            run_checks(sol_cos, names=["nope"])

    @pytest.mark.parametrize("error", [NonConvexBoundaryError,
                                       InfeasibleKError,
                                       DegenerateMetricError])
    def test_defect_is_never_vacuous(self, sol_cos, monkeypatch, error):
        def defect(solution):
            raise error("raised by a defect, not by the data")

        monkeypatch.setitem(hcma.verify.CHECKS, "upper_bound", defect)
        with pytest.raises(error):
            run_checks(sol_cos, names=["convexity", "upper_bound"])

    def test_strip_frames_per_run(self, sol_cos, strip_h_calls):
        # one per t-chunk, on the chunk's window of phi, shared by the
        # h-operator checks: ab_equations (its two contractions and bilinear
        # forms), ekq_subharmonic (contraction and allowance) and lq_ratio
        # (apply_L); no frame of the whole interior.  The allowance frames
        # each chunk's window of W = e^{KQ} too; those are not views of phi.
        # One chunk, three chunks (the last partial) and five one-plane
        # chunks.
        cases, counts = dict(pass_cases()), []
        for sol in (sol_cos, cases["partial-1j"],
                    cases["one-plane-(0.3+1.1j)"]):
            strip_h_calls.clear()
            run_checks(sol, seed=0)
            values = sol.phi.values
            counts.append(len(list(t_chunks(sol.grid))))
            frames = [(grid, window) for grid, window in strip_h_calls
                      if np.shares_memory(window, values)]
            assert len(strip_h_calls) == 2 * counts[-1]
            assert len(frames) == counts[-1]
            planes = []
            for grid, window in frames:
                assert grid is sol.grid
                first = ((window.ctypes.data - values.ctypes.data)
                         // values.strides[0])
                planes += range(first + 1, first + len(window) - 1)
            assert planes == list(range(1, sol.grid.nt - 1))
        assert counts == [1, 3, 5]

    def test_degenerate_data_never_throws(self, grid_small):
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: 0.3 * np.cos(2 * np.pi * x) * np.sin(np.pi * t))
        report = run_checks(sol)
        assert not report["convexity"].passed
        assert not report.all_pass
        # inadmissible data fails the h-operator checks; it is not vacuous
        for name in ("ab_equations", "ekq_subharmonic", "lq_ratio"):
            assert not report[name].passed
            assert not report[name].vacuous
            assert "min(1+a)" in report[name].note

    def test_degenerate_node_fails_and_is_written_as_null(self, grid_small):
        # Q is 0/0 at the spike; no numpy warning may escape either check
        report = run_checks(spike_solution(grid_small),
                            names=["max_principle_Q",
                                          "weighted_max_principle"])
        for rec in report.checks:
            assert not (rec.passed or rec.vacuous)
            assert rec.note == "1 + a = 0.000e+00 <= 0 at node (0, 3, 5)"

        def strict(token):
            raise ValueError(f"non-standard JSON token {token}")
        text = report_json(report.to_dict())
        checks = json.loads(text, parse_constant=strict)["checks"]
        assert [c["bound"] for c in checks] == [None, None]

    def test_q_field_matches_pointwise(self, sol_cos):
        Q = q_of(sol_cos)
        jet = wirtinger_jet(sol_cos.phi, (7, 11, 23))
        assert Q[7, 11, 23] == pytest.approx(torus_state(jet).Q, rel=1e-12)


# the estimate checks whose record names a worst node, and per check the
# value at one node from the oracle's torus_state and its sign: +1 if the
# record's measured is the interior max, -1 if the min
ORACLE_CHECKS = {
    "convexity": (lambda s: abs(s.b) - s.one_plus_a, 1),
    "max_principle_Q": (lambda s: s.Q, 1),
    "metric_lower_bound": (lambda s: s.one_plus_a, -1),
    "upper_bound": (lambda s: abs(s.b) + s.a + 1.0, 1),
}
# The oracle takes |b| with Python's abs(complex) and squares with float
# pow, the pass with numpy's complex absolute and square: a few ulps apart
# on the skew lattice, bitwise on the square one.
ORACLE_REL = 1e-15


@pytest.mark.parametrize("fixture", ["sol_zero_const", "sol_zero_annulus",
                                     "sol_cos", "sol_cos_skew"])
def test_worst_nodes_equal_the_pointwise_oracle(fixture, request):
    """At each estimate check's worst node the oracle, one node's jet from
    its window of at most four t-planes (wirtinger_jet) and its
    torus_state, gives the record's measured to ORACLE_REL: it shares none
    of CheckPass's chunks or folds.  At 50 seeded interior nodes it never
    finds a value beyond the folded extremum."""
    sol = request.getfixturevalue(fixture)
    grid = sol.grid
    report = run_checks(sol, names=list(ORACLE_CHECKS), seed=0)
    rng = np.random.default_rng(0)
    sample = list(zip(*(rng.integers(lo, hi, 50) for lo, hi in
                        ((1, grid.nt - 1), (0, grid.nx), (0, grid.ny)))))
    states = [torus_state(wirtinger_jet(sol.phi, node)) for node in sample]
    for name, (value, sign) in ORACLE_CHECKS.items():
        record = report[name]
        assert record.passed and not record.vacuous
        node = tuple(record.worst_node)
        assert 0 < node[0] < grid.nt - 1
        measured = record.measured
        assert value(torus_state(wirtinger_jet(sol.phi, node))) == (
            pytest.approx(measured, rel=ORACLE_REL, abs=0.0)), name
        worst = max(sign * value(state) for state in states)
        assert worst <= sign * measured + ORACLE_REL * abs(measured), name


@pytest.mark.parametrize("fixture", ["sol_cos", "sol_cos_skew"])
def test_lq_ratio_equals_the_oracle(fixture, request):
    """lq_ratio's measured is the least LQ/(eps_tilde Q) over the interior
    nodes where Q > Q_FLOOR, for the oracle's composite_q_field, which at
    that node and at 20 seeded interior nodes is the general-n flat layer's
    Q_A + Q_B + Q_G of the node's jet; each term is present at some of
    them."""
    sol = request.getfixturevalue(fixture)
    grid = sol.grid
    Q = composite_q_field(sol)
    eps = sol.profile.rhs_on(grid)[1:-1]
    LQ = apply_L(grid, Q, admissible_frame(sol.phi), eps)
    mask = Q[1:-1] > Q_FLOOR
    ratio = np.full(LQ.shape, np.inf)
    ratio[mask] = LQ[mask] / (eps[mask] * Q[1:-1][mask])
    rec = run_check(sol, "lq_ratio")
    assert rec.measured == ratio.min()
    assert rec.extra["nodes"] == mask.sum()
    it, ix, iy = np.unravel_index(np.argmin(ratio), ratio.shape)
    rng = np.random.default_rng(1)
    nodes = [(int(it) + 1, int(ix), int(iy))] + list(zip(*(
        rng.integers(lo, hi, 20) for lo, hi in
        ((1, grid.nt - 1), (0, grid.nx), (0, grid.ny)))))
    terms = []
    for node in nodes:
        flat = general_flat_state(
            flat_jet_from_torus(wirtinger_jet(sol.phi, node, order=3)), 0.0)
        terms.append((flat.Q_A, flat.Q_B, flat.Q_G))
        assert Q[node] == pytest.approx(flat.Q, rel=1e-12, abs=0.0), node
    assert min(np.max(terms, axis=0)) > 0.0


def whole_grid_records(sol):
    """Every run_checks record but converged, made as the checks made them
    before they were folded chunk by chunk: from whole-grid jets,
    whole-grid contractions and per-plane third-order jets.  An
    h-operator check on an inadmissible solution maps to None."""
    grid, v = sol.grid, sol.phi.values
    h2 = C_H2 * max(grid.ht, grid.hx, grid.hy) ** 2
    a, b = spatial_ab(grid, v)
    opa = 1.0 + a
    Q = q_of(sol)
    S = boundary_S(a[[0, -1]], b[[0, -1]])
    try:
        delta, delta_note = boundary_delta(a[[0, -1]], b[[0, -1]]), ""
    except NonConvexBoundaryError as exc:
        delta, delta_note = None, str(exc)
    least = np.unravel_index(np.argmin(opa), opa.shape)
    degenerate = "" if opa[least] > 0.0 else (
        f"1 + a = {opa[least]:.3e} <= 0 at node {tuple(map(int, least))}")

    def node(arr, pick=np.argmax):
        it, ix, iy = np.unravel_index(pick(arr), arr.shape)
        return (int(it) + 1, int(ix), int(iy))

    out = {}
    gap = np.abs(b[1:-1]) - opa[1:-1]
    min_opa = float(opa[1:-1].min())
    out["convexity"] = CheckRecord(
        "convexity", float(gap.max()) < h2 and min_opa > -h2,
        float(gap.max()), 0.0, h2, node(gap),
        extra={"min_one_plus_a": min_opa})
    qi, bound = Q[1:-1], float(Q[[0, -1]].max())
    factor2 = float(qi.max()) <= 2.0 * bound + h2
    out["max_principle_Q"] = CheckRecord(
        "max_principle_Q", float(qi.max()) <= bound * (1.0 + REL_SLACK) + h2
        and factor2 and not degenerate, float(qi.max()), bound, h2, node(qi),
        note=degenerate, extra={"factor2_pass": bool(factor2),
                                "factor2_bound": 2.0 * bound})
    if isinstance(sol.profile, AnnulusProfile):
        s = np.arange(N_ANGLES) * 2.0 * np.pi / N_ANGLES
        u = weight_u(np.exp(grid.t_values[:, None] + 1j * s), D_R)
        ratio = Q.max(axis=(1, 2)) / u.min(axis=1)
        ident = check_u_identity(D_R)
        out["weighted_max_principle"] = CheckRecord(
            "weighted_max_principle", float(ratio[1:-1].max()) <= float(
                ratio[[0, -1]].max()) * (1.0 + REL_SLACK) + h2
            and ident.passed and not degenerate, float(ratio[1:-1].max()),
            float(ratio[[0, -1]].max()), h2, note=degenerate,
            extra={"u_identity_rel_err": ident.measured, "d_R": D_R})
    else:
        out["weighted_max_principle"] = CheckRecord(
            "weighted_max_principle", True, 0.0, 0.0, 0.0, vacuous=True,
            note="requires annulus profile")
    out["metric_lower_bound"] = (
        CheckRecord("metric_lower_bound", True, min_opa, 0.0, h2,
                    vacuous=True, note=delta_note) if delta is None else
        CheckRecord("metric_lower_bound", min_opa > delta - h2, min_opa,
                    delta, h2, node(opa[1:-1], np.argmin)))
    val = np.abs(b[1:-1]) + a[1:-1] + 1.0
    out["upper_bound"] = CheckRecord("upper_bound", float(val.max()) <= S + h2,
                                     float(val.max()), S, h2, node(val))
    out.update(whole_grid_frame_records(sol, Q))
    extra = {"margin_C0": float(gap.max()), "S": S}
    worst = float(gap.max())
    if delta is not None:
        cap = float((np.abs(b[1:-1]) + delta - opa[1:-1]).max())
        extra.update(delta=delta, margin_cone_intersection=cap)
        worst = max(worst, cap)
    else:
        extra["delta_note"] = delta_note
    extra["margin_upper"] = float((np.abs(b[1:-1])
                                   - (S - 1.0 - a[1:-1])).max())
    worst = max(worst, extra["margin_upper"])
    out["jet_map"] = CheckRecord("jet_map", worst <= h2, worst, 0.0, h2,
                                 extra=extra)
    return out


def h_bilinear(g, m, q, det, u0, u1, w0, w1):
    """h^{ij*} u_i w_j* in a strip frame, (w0 (g u0 - m u1) + w1 (q u1 -
    m* u0)) / det, as ab_equations formed it plane by plane."""
    return (w0 * (g * u0 - m * u1) + w1 * (q * u1 - np.conj(m) * u0)) / det


def whole_grid_frame_records(sol, Q):
    """The three h-operator records of whole_grid_records."""
    grid, v = sol.grid, sol.phi.values
    a, b = spatial_ab(grid, v)
    h = max(grid.ht, grid.hx, grid.hy)
    out = {}
    max_bnd = float(Q[[0, -1]].max())
    Qc = composite_q_field(sol)
    frame = fresh_frame(grid, v)
    if not (frame[0].min() > 0.0 and frame[3].min() > 0.0):
        out.update(ab_equations=None, ekq_subharmonic=None, lq_ratio=None)
        if not max_bnd < 1.0:
            out["ekq_subharmonic"] = CheckRecord(
                "ekq_subharmonic", True, 0.0, 0.0, 0.0, vacuous=True,
                note=f"boundary Q = {max_bnd} >= 1")
        if not np.isfinite(Qc).all():
            out["lq_ratio"] = CheckRecord(
                "lq_ratio", True, 0.0, 0.0, 0.0, vacuous=True,
                note="composite Q not finite")
        return out
    g, (m_r, m_i), q, det = frame
    lhs_a, lhs_b = h_contract(grid, (a, b), frame)
    res_a, res_b = np.empty_like(g), np.empty_like(g)
    third = wirt_zbar(grid, b), wirt_z(grid, a), dt1(grid, b), dt1(grid, a)
    for k in range(len(g)):
        f = g[k], m_r[k] + 1j * m_i[k], q[k], det[k]
        b_zb, a_z, b_t, a_t = (x[k + 1] for x in third)
        u, w = (0.5 * a_t, a_z), (0.5 * b_t, b_zb)
        rhs_a = (h_bilinear(*f, *u, *map(np.conj, u)).real
                 + h_bilinear(*f, *map(np.conj, w), *w).real)
        res_a[k] = np.abs(lhs_a[k] - rhs_a / g[k])
        res_b[k] = np.abs(lhs_b[k] - 2.0 * h_bilinear(*f, *u, *w) / g[k])
    scale = max(1.0, float(np.abs(lhs_a).max()), float(np.abs(lhs_b).max()))
    measured = float(max(res_a.max(), res_b.max()))
    it, ix, iy = np.unravel_index(np.argmax(res_a), res_a.shape)
    out["ab_equations"] = CheckRecord(
        "ab_equations", measured <= C_H1 * h * scale, measured, 0.0,
        C_H1 * h * scale, (int(it) + 1, int(ix), int(iy)),
        extra={"residual_a": float(res_a.max()),
               "residual_b": float(res_b.max()), "scale": scale})
    K = choose_K(max_bnd)
    sigma2 = sigma_roots(K)[1]
    in_hyp = Q[1:-1] < sigma2
    W = np.exp(np.minimum(K * Q, 700.0))
    tol = ekq_tolerance_reference(sol)
    hW = float(h_contract(grid, (W,), frame)[0][in_hyp].min())
    out["ekq_subharmonic"] = CheckRecord(
        "ekq_subharmonic", hW >= -tol, hW, 0.0, tol,
        extra={"K": K, "sigma2": sigma2,
               "out_of_hypothesis_nodes": int((~in_hyp).sum())})
    eps = sol.profile.rhs_on(grid)[1:-1]
    LQ = apply_L(grid, Qc, frame, eps)
    mask = Qc[1:-1] > Q_FLOOR
    out["lq_ratio"] = CheckRecord(
        "lq_ratio", True, float((LQ[mask] / (eps[mask]
                                             * Qc[1:-1][mask])).min()),
        0.0, 0.0, note="diagnostic", extra={"nodes": int(mask.sum())})
    return out


def record_text(record) -> str:
    """A record as JSON text, so equal texts mean bitwise equal numbers
    (NaN included)."""
    return json.dumps(record.to_dict(), sort_keys=True)


def admissible_tie_solution(grid):
    """phi = f(x, y) + s i^2 on t-plane i, in dyadic numbers few enough
    that every difference is exact: a, b, Q and every frame plane are
    bitwise the same on every t-plane, and f repeats with period 4 in x,
    so each check's extremum is tied across all t-chunks and 16 times
    within each plane."""
    ix = np.arange(grid.nx)[:, None]
    iy = np.arange(grid.ny)[None, :]
    f = ((ix % 4) * (1 + iy % 3) + 2 * (ix % 2)) * 2.0**-16
    s = 2.0**-10
    values = f[None] + s * np.arange(grid.nt)[:, None, None] ** 2
    return Solution(phi=ScalarField(grid, values), grid=grid,
                    profile=AnnulusProfile(1e-3), boundary=BoundarySpec(),
                    converged=True, final_residual=0.0, iterations=0)


def pass_cases():
    """(id, solution) for the pass tests: whole, partial, single and
    one-plane t-chunks on both moduli, a tie across chunks and an
    inadmissible field."""
    cases = []
    for modulus in (1j, 0.3 + 1.1j):
        for grid, chunks in zip(chunk_grids(modulus),
                                ("whole", "partial", "single", "one-plane")):
            cases.append((f"{chunks}-{modulus}", synthetic_solution(
                grid, lambda t, x, y: 0.05 * t * (t - 1)
                + 0.005 * t**4 * np.cos(2 * np.pi * (x + y))
                + 0.002 * np.sin(np.pi * t) * np.sin(2 * np.pi * y))))
    cases.append(("tie", admissible_tie_solution(chunk_grids(1j)[0])))
    # 1 + a = 0 at (0, 3, 5) and, tied, at the same node of the t = 1 plane
    spikes = spike_solution(chunk_grids(1j)[1])
    values = spikes.phi.values.copy()
    values[-1, 3, 5] = values[0, 3, 5]
    cases.append(("degenerate-tie", Solution(
        phi=ScalarField(spikes.grid, values), grid=spikes.grid,
        profile=spikes.profile, boundary=spikes.boundary, converged=True,
        final_residual=0.0, iterations=0)))
    cases.append(("inadmissible", synthetic_solution(
        chunk_grids(0.3 + 1.1j)[1],
        lambda t, x, y: 0.3 * np.cos(2 * np.pi * x) * np.sin(np.pi * t))))
    return cases


@pytest.mark.parametrize("case", [c for _, c in pass_cases()],
                         ids=[i for i, _ in pass_cases()])
def test_pass_equals_checks_alone_and_whole_grid(case):
    sol = case
    report = run_checks(sol, seed=0)
    want = whole_grid_records(sol)
    assert [c.name for c in report.checks] == ["converged", *want]
    for rec in report.checks[1:]:
        if want[rec.name] is None:           # inadmissible: fails, noted
            assert not (rec.passed or rec.vacuous)
            assert "min(1+a)" in rec.note
            with pytest.raises(InadmissibleError):
                hcma.verify.CHECKS[rec.name](CheckPass(sol, (rec.name,)))
            continue
        assert record_text(rec) == record_text(want[rec.name]), rec.name
        alone = (jet_map_export(sol)[1] if rec.name == "jet_map"
                 else hcma.verify.CHECKS[rec.name](
                     CheckPass(sol, (rec.name,))))
        assert record_text(rec) == record_text(alone), rec.name


@pytest.mark.parametrize("planes", [1, 2, "interior"])
def test_report_is_the_same_for_every_chunk_size(monkeypatch, planes):
    # chunk seams move no number: one t-plane, two and the whole interior
    # per chunk give the default chunking's report, byte for byte
    for case, sol in pass_cases():
        grid = sol.grid
        want = json.dumps(run_checks(sol, seed=0).to_dict(), sort_keys=True)
        n = grid.nt - 2 if planes == "interior" else planes
        monkeypatch.setattr(hcma.grid, "CHUNK_NODES", n * grid.nx * grid.ny)
        got = json.dumps(run_checks(sol, seed=0).to_dict(), sort_keys=True)
        monkeypatch.undo()
        assert got == want, case


def flat_frame(frame):
    """A strip frame (g, (Re m, Im m), q, det) as five arrays."""
    g, (m_r, m_i), q, det = frame
    return g, m_r, m_i, q, det


def test_chunk_frames_from_plane_jets_are_strip_h():
    # the pass frames each chunk from the jets plane_jets gives it: bitwise
    # strip_h of the chunk's window and the whole interior's frame there
    for _, sol in pass_cases():
        grid, v = sol.grid, sol.phi.values
        whole = flat_frame(fresh_frame(grid, v))
        for i0, i1 in t_chunks(grid):
            w = v[i0 - 1:i1 + 1]
            a, _, d_x, d_y = plane_jets(grid, w)
            got = flat_frame(strip_frame(grid, w, a[1:-1], d_x, d_y))
            for want in (flat_frame(fresh_frame(grid, w)),
                         [x[i0 - 1:i1 - 1] for x in whole]):
                assert [x.tobytes() for x in got] == [
                    x.tobytes() for x in want]


def test_tied_extrema_pick_the_first_node_in_c_order():
    sol = admissible_tie_solution(chunk_grids(1j)[0])
    assert len(list(hcma.grid.t_chunks(sol.grid))) == 2
    grid, v = sol.grid, sol.phi.values
    a, b = spatial_ab(grid, v)
    assert all(np.array_equal(a[i], a[0]) and np.array_equal(b[i], b[0])
               for i in range(sol.grid.nt))
    report = run_checks(sol, seed=0)
    for name in ("convexity", "max_principle_Q", "metric_lower_bound",
                 "upper_bound", "ab_equations"):
        # the first interior plane, and the first tied (x, y) of it
        assert not report[name].vacuous
        assert report[name].worst_node[0] == 1, name
        assert report[name].worst_node == whole_grid_records(
            sol)[name].worst_node, name


def test_inadmissible_pass_fails_every_frame_check():
    sol = dict(pass_cases())["inadmissible"]
    report = run_checks(sol, seed=0)
    assert len(list(hcma.grid.t_chunks(sol.grid))) == 3
    for name in FRAME_CHECKS:
        assert not (report[name].passed or report[name].vacuous)
        assert report[name].note.startswith(
            "inadmissible solution: min(1+a)=")
    assert not report["convexity"].passed


def test_jet_map_points_equal_whole_grid():
    for _, sol in pass_cases()[:3]:
        grid, v = sol.grid, sol.phi.values
        a, b = spatial_ab(grid, v)
        points, _ = jet_map_export(sol)
        want = np.column_stack([b[1:-1].real.ravel(), b[1:-1].imag.ravel(),
                                a[1:-1].ravel()])
        assert points.dtype == want.dtype and np.array_equal(points, want)
