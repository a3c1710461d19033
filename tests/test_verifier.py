import numpy as np
import pytest

import hcma.verify
from conftest import COS_AMP, COS_BOUNDARY
from hcma import AnnulusProfile, BoundarySpec, make_grid, newton_solve
from hcma.grid import ScalarField
from hcma.quantities import (DegenerateMetricError, InfeasibleKError,
                             NonConvexBoundaryError)
from hcma.solver import Solution
from hcma.verify import (STABILITY_SPREAD, check_ab_equations,
                         check_convexity, check_ekq_subharmonic,
                         check_eps_monotone_limit, check_lambda_monotonicity,
                         check_max_principle_Q, check_metric_lower_bound,
                         check_metric_lower_bound_stability, check_u_identity,
                         check_upper_bound, check_weighted_max_principle,
                         jet_map_export, lq_ratio_report, q_field,
                         run_checks)


def synthetic_solution(grid, fn, profile=None):
    """Wrap an arbitrary field as a Solution for adversarial checks."""
    return Solution(
        phi=ScalarField.from_function(grid, fn), grid=grid,
        profile=profile or AnnulusProfile(1e-3), boundary=BoundarySpec(),
        converged=True, final_residual=0.0, iterations=0)


class TestConvexity:
    def test_closed_form(self, sol_zero_const):
        rec = check_convexity(sol_zero_const)
        assert rec.passed
        assert rec.measured == pytest.approx(-1.0, abs=1e-6)

    def test_cos_boundary(self, sol_cos):
        assert check_convexity(sol_cos).passed

    def test_synthetic_violation(self, grid_small):
        # amplitude large enough that a = -pi^2 c cos dips below -1
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: 0.2 * np.cos(2 * np.pi * x) * np.ones_like(t))
        rec = check_convexity(sol)
        assert not rec.passed


class TestMaxPrinciple:
    def test_zero_boundary(self, sol_zero_const):
        rec = check_max_principle_Q(sol_zero_const)
        assert rec.passed
        assert rec.measured == pytest.approx(0.0, abs=1e-12)

    def test_cos_boundary(self, sol_cos):
        rec = check_max_principle_Q(sol_cos)
        assert rec.passed and rec.extra["factor2_pass"]

    def test_boundary_Q_matches_analytic(self, sol_cos):
        # analytic boundary jets: a = b = -pi^2 c cos(2 pi x)
        c = COS_AMP
        exact = (np.pi**2 * c / (1 - np.pi**2 * c)) ** 2
        rec = check_max_principle_Q(sol_cos)
        assert rec.bound == pytest.approx(exact, rel=0.02)


class TestWeightedMaxPrinciple:
    def test_u_identity(self):
        rec = check_u_identity(2 * np.e)
        assert rec.passed and rec.measured <= 1e-6

    def test_cos_boundary(self, sol_cos):
        rec = check_weighted_max_principle(sol_cos)
        assert rec.passed
        assert rec.extra["u_identity_rel_err"] <= 1e-6

    def test_vacuous_on_constant_profile(self, sol_zero_const):
        rec = check_weighted_max_principle(sol_zero_const)
        assert rec.vacuous


class TestBounds:
    def test_lower_bound_closed_form(self, sol_zero_const):
        rec = check_metric_lower_bound(sol_zero_const)
        assert rec.passed
        assert rec.measured == pytest.approx(1.0, abs=1e-8)
        assert rec.bound == pytest.approx(1.0, abs=1e-8)

    def test_lower_bound_cos(self, sol_cos):
        rec = check_metric_lower_bound(sol_cos)
        assert rec.passed
        assert rec.bound == pytest.approx(1 - 2 * np.pi**2 * COS_AMP,
                                          rel=5e-3)

    def test_upper_bound_closed_form(self, sol_zero_const):
        rec = check_upper_bound(sol_zero_const)
        assert rec.passed
        assert rec.measured == pytest.approx(1.0, abs=1e-8)

    def test_upper_bound_cos(self, sol_cos):
        rec = check_upper_bound(sol_cos)
        assert rec.passed
        assert rec.bound == pytest.approx(1 + 2 * np.pi**2 * COS_AMP,
                                          rel=5e-3)

    def test_upper_bound_synthetic_violation(self, grid_small):
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: 0.012 * np.cos(2 * np.pi * x) * np.sin(np.pi * t))
        rec = check_upper_bound(sol)
        # interior |b|+a+1 exceeds the boundary S = 1 of the zero planes
        assert not rec.passed


class TestAbEquations:
    def test_zero_boundary(self, sol_zero_const):
        rec = check_ab_equations(sol_zero_const)
        assert rec.passed
        assert rec.measured == pytest.approx(0.0, abs=1e-9)

    def test_cos_boundary(self, sol_cos):
        assert check_ab_equations(sol_cos).passed

    def test_residual_slope(self):
        # refinement halves h; expect order >= 0.9 (third-derivative stencils)
        res = []
        for nt, nx, ny in [(9, 16, 16), (17, 32, 32)]:
            g = make_grid(nt, nx, ny)
            sol = newton_solve(g, COS_BOUNDARY, AnnulusProfile(1e-3))
            rec = check_ab_equations(sol)
            res.append(rec.measured)
        slope = np.log2(res[0] / res[1])
        assert slope >= 0.9


class TestEkqSubharmonic:
    def test_zero_boundary(self, sol_zero_const):
        rec = check_ekq_subharmonic(sol_zero_const)
        assert rec.passed
        assert rec.measured == pytest.approx(0.0, abs=1e-8)

    def test_cos_boundary(self, sol_cos):
        rec = check_ekq_subharmonic(sol_cos)
        assert rec.passed
        assert rec.extra["K"] == 3
        assert rec.extra["out_of_hypothesis_nodes"] == 0

    def test_out_of_hypothesis_vacuous(self, grid_small):
        sol = synthetic_solution(
            grid_small,
            lambda t, x, y: -0.3 * np.cos(2 * np.pi * x) - 0.3 * np.cos(
                2 * np.pi * y) + 0.5 * t * (t - 1))
        rec = check_ekq_subharmonic(sol)
        # boundary Q is about 3.8e3, outside the hypothesis Q < 1
        assert rec.vacuous
        assert "boundary Q" in rec.note


class TestLqRatio:
    def test_vacuous_on_zero_boundary(self, sol_zero_const):
        # composite Q is not identically zero (Q_G > 0 via Phi_t), but the
        # pure-boundary zero case with constant profile has Q == 0 nowhere
        rec = lq_ratio_report(sol_zero_const)
        assert rec.passed   # diagnostic never fails

    def test_reports_value(self, sol_cos):
        rec = lq_ratio_report(sol_cos)
        assert rec.passed
        assert np.isfinite(rec.measured)
        assert rec.extra["nodes"] > 0


class TestSweepChecks:
    def test_lambda_vacuous_single(self, sol_cos):
        assert check_lambda_monotonicity([sol_cos]).vacuous

    def test_eps_vacuous_single(self, sol_cos):
        assert check_eps_monotone_limit([sol_cos]).vacuous

    def test_eps_sweep(self, eps_sweep):
        rec = check_eps_monotone_limit(eps_sweep)
        assert rec.passed
        assert rec.extra["gaps_decreasing"]

    def test_metric_lower_bound_stability(self, eps_sweep):
        rec = check_metric_lower_bound_stability(eps_sweep)
        minima = rec.extra["min_one_plus_a_per_rung"]
        assert rec.passed and rec.bound == STABILITY_SPREAD
        assert rec.measured == max(minima) - min(minima)
        assert len(minima) == len(eps_sweep)

    def test_lambda_sweep(self, grid_mid):
        from hcma import lambda_sweep
        sols = lambda_sweep(grid_mid, COS_BOUNDARY, [0, 0.5, 1.0],
                            AnnulusProfile(1e-3))
        assert check_lambda_monotonicity(sols).passed


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
        # one per h_contract (3), ab_equations' bilinear forms,
        # ekq_subharmonic's allowance and apply_L
        run_checks(sol_cos, seed=0)
        assert 0 < len(strip_h_calls) <= 6
        assert all(phi is sol_cos.phi for phi in strip_h_calls)

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

    def test_q_field_matches_pointwise(self, sol_cos):
        from hcma.grid import wirtinger_jet
        from hcma.quantities import torus_state
        Q = q_field(sol_cos)
        jet = wirtinger_jet(sol_cos.phi, (7, 11, 23))
        assert Q[7, 11, 23] == pytest.approx(torus_state(jet).Q, rel=1e-12)
