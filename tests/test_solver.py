import math

import numpy as np
import pytest

from conftest import (COS_BOUNDARY, closed_form_annulus,
                      closed_form_constant)
from hcma import (AnnulusProfile, BoundarySpec, ConstantProfile, FieldRhs,
                  continuation_solve, lambda_sweep, make_grid, newton_solve)
from hcma.grid import ScalarField
from hcma.quantities import InadmissibleError, NonConvexBoundaryError
from hcma.solver import (ContinuationFailure, Solution, SolverConfig,
                         check_lambdas, check_schedule, linearize, residual)

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestProfiles:
    def test_constant(self):
        p = ConstantProfile(0.25)
        assert np.allclose(p.tilde([0.0, 0.5, 1.0]), 0.25)

    def test_annulus_factor(self):
        p = AnnulusProfile(0.01)
        assert p.tilde(0.0) == pytest.approx(0.04)
        assert p.tilde(1.0) == pytest.approx(0.04 * np.e**2)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ConstantProfile(0.0)
        with pytest.raises(ValueError):
            AnnulusProfile(-1.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_finite_required(self, value):
        with pytest.raises(ValueError, match="epsilon0"):
            ConstantProfile(value)
        with pytest.raises(ValueError, match="epsilon "):
            AnnulusProfile(value)

    @pytest.mark.parametrize("values", [np.inf, np.nan, -1.0])
    def test_newton_rejects_rhs_not_positive_and_finite(self, grid_small,
                                                         values):
        f = np.full(grid_small.shape, 0.25)
        f[4, 3, 2] = values
        with pytest.raises(ValueError, match="right-hand side"):
            newton_solve(grid_small, BoundarySpec(), FieldRhs(grid_small, f))
        # 4 eps e^2 overflows
        with pytest.raises(ValueError, match="right-hand side"):
            newton_solve(grid_small, BoundarySpec(), AnnulusProfile(1e308))

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.01, 0.1, 0.25])
    @pytest.mark.parametrize("nt", [9, 17, 49])
    def test_annulus_rhs_bounds_are_the_closed_forms(self, eps, nt):
        rhs = AnnulusProfile(eps).rhs_on(make_grid(nt, 4, 4))
        assert rhs.max() == rhs[-1, 0, 0] == 4.0 * eps * math.exp(2.0)
        assert rhs.min() == rhs[0, 0, 0] == 4.0 * eps

    def test_describe_strings_are_pinned(self, grid_small):
        # these strings are the "profile" entry of every report's meta
        assert ConstantProfile(0.25).describe() == "constant(eps0=0.25)"
        assert AnnulusProfile(1e-3).describe() == "annulus(eps=0.001)"
        rhs = FieldRhs(grid_small, np.ones(grid_small.shape))
        assert rhs.describe() == "field-rhs(manufactured)"


class TestBoundarySpec:
    def test_evaluate_modes(self):
        g = make_grid(5, 16, 16)
        b = BoundarySpec(phi1=((1, 0, 0.5),))
        vals = b.evaluate(g, 1)
        assert vals[0, 0] == pytest.approx(0.5)
        assert vals[8, 0] == pytest.approx(-0.5)
        assert np.allclose(b.evaluate(g, 0), 0.0)

    def test_analytic_jets_match_discrete(self):
        g = make_grid(5, 64, 64)
        b = BoundarySpec(phi1=((1, 0, 0.005),))
        a_an, b_an = b.analytic_jets(g, 1)
        fld = ScalarField.from_function(
            g, lambda t, x, y: 0.005 * np.cos(2 * np.pi * x) + 0 * t)
        assert np.abs(fld.jets.a[2] - a_an).max() < 5e-4
        assert np.abs(fld.jets.b[2] - b_an).max() < 5e-4

    def test_convexity_validation(self):
        g = make_grid(5, 16, 16)
        BoundarySpec(phi1=((1, 0, 0.005),)).validate(g)
        with pytest.raises(NonConvexBoundaryError):
            BoundarySpec(phi1=((1, 0, 0.2),)).validate(g)

    def test_non_convex_message_names_plain_node(self):
        with pytest.raises(NonConvexBoundaryError,
                           match=r"node \(x,y\)=\(\d+, \d+\)$"):
            BoundarySpec(phi1=((1, 0, 0.2),)).validate(make_grid(5, 16, 16))

    @pytest.mark.parametrize("amp", [1e308, math.inf, -math.inf])
    def test_overflowing_mode_rejected(self, amp):
        # no numpy warning on the way: tier-1 turns warnings into errors
        with pytest.raises(NonConvexBoundaryError, match="not omega_0-convex"):
            BoundarySpec(phi1=((1, 0, amp),)).validate(make_grid(5, 16, 16))

    def test_nan_mode_rejected(self):
        with pytest.raises(NonConvexBoundaryError, match="gap nan"):
            BoundarySpec(phi1=((1, 0, math.nan),)).validate(
                make_grid(5, 16, 16))

    def test_scaled(self):
        b = BoundarySpec(phi1=((1, 0, 0.4),)).scaled(0.5)
        assert b.phi1[0][2] == pytest.approx(0.2)


class TestResidual:
    def test_zero_field(self):
        g = make_grid(5, 8, 8)
        r = residual(ScalarField.zeros(g), ConstantProfile(1.0))
        assert np.allclose(r.values[1:-1], -1.0)
        assert np.allclose(r.values[[0, -1]], 0.0)

    def test_parabola_zero_residual(self):
        g = make_grid(9, 8, 8)
        eps0 = 0.25
        fld = ScalarField.from_function(
            g, lambda t, x, y: (eps0 / 2) * t**2 + 0.7 * t + 0 * x)
        r = residual(fld, ConstantProfile(eps0))
        assert np.abs(r.values[1:-1]).max() < 1e-13

    def test_t_independent_field(self):
        g = make_grid(5, 16, 16)
        fld = ScalarField.from_function(
            g, lambda t, x, y: 0.01 * np.cos(2 * np.pi * x) + 0 * t)
        r = residual(fld, ConstantProfile(0.3))
        assert np.allclose(r.values[1:-1], -0.3)


class TestSolverConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0] + NON_FINITE)
    @pytest.mark.parametrize("name", ["newton_tol", "admissibility_margin"])
    def test_positive_and_finite_required(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["max_newton_iters", "max_halvings"])
    def test_negative_count_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: -1})
        assert getattr(SolverConfig(**{name: 0}), name) == 0


class TestLinearize:
    def test_parabola_coefficients(self):
        # Phi = (eps0/2) t^2: operator is d_tt + eps0 * (quarter-Laplacian)
        g = make_grid(5, 16, 16)
        eps0 = 0.8
        base = ScalarField.from_function(
            g, lambda t, x, y: (eps0 / 2) * t**2 + 0 * x)
        jac = linearize(base, ConstantProfile(eps0))
        v_t = ScalarField.from_function(g, lambda t, x, y: t**2 + 0 * x)
        out = (jac @ v_t.values.ravel()).reshape(g.shape)
        assert np.allclose(out[1:-1], 2.0)
        v_x = ScalarField.from_function(
            g, lambda t, x, y: np.cos(2 * np.pi * x) + 0 * t)
        out = (jac @ v_x.values.ravel()).reshape(g.shape)
        expected = eps0 * v_x.jets.a[1:-1]        # eps0 * delta-a term
        assert np.allclose(out[1:-1], expected, atol=1e-10)

    def test_directional_derivative(self):
        g = make_grid(7, 8, 8)
        rng = np.random.default_rng(4)
        base = ScalarField.from_function(
            g, lambda t, x, y: 0.2 * t**2
            + 0.01 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
        prof = ConstantProfile(0.3)
        v = rng.standard_normal(g.shape)
        v[0] = v[-1] = 0.0
        jac = linearize(base, prof)
        jv = (jac @ v.ravel()).reshape(g.shape)
        errs = []
        for s in (1e-3, 5e-4, 2.5e-4):
            fd = (residual(base.with_values(base.values + s * v), prof).values
                  - residual(base, prof).values) / s
            errs.append(np.abs(fd[1:-1] - jv[1:-1]).max())
        # first-order in s (the residual is quadratic in phi)
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)

    def test_inadmissible_rejected(self):
        g = make_grid(5, 8, 8)
        fld = ScalarField.from_function(g, lambda t, x, y: -2.0 * t**2 + 0 * x)
        with pytest.raises(InadmissibleError):
            linearize(fld, ConstantProfile(1.0))

    def test_builds_one_strip_frame(self, sol_cos, strip_h_calls):
        linearize(sol_cos.phi, sol_cos.profile)
        assert strip_h_calls == [sol_cos.phi]


class TestNewtonSolve:
    def test_constant_closed_form(self, grid_mid, sol_zero_const):
        err = np.abs(sol_zero_const.phi.values
                     - closed_form_constant(grid_mid)).max()
        assert err <= 1e-8

    def test_annulus_closed_form(self, grid_mid, sol_zero_annulus):
        err = np.abs(sol_zero_annulus.phi.values
                     - closed_form_annulus(grid_mid)).max()
        assert err <= 5 * grid_mid.ht**2

    def test_boundary_planes_exact(self, sol_cos):
        g = sol_cos.grid
        assert np.array_equal(sol_cos.phi.values[0],
                              COS_BOUNDARY.evaluate(g, 0))
        assert np.array_equal(sol_cos.phi.values[-1],
                              COS_BOUNDARY.evaluate(g, 1))

    def test_admissibility_invariant(self, sol_cos):
        assert sol_cos.interior_one_plus_a().min() > 0
        assert sol_cos.interior_det_h().min() > 0

    def test_manufactured_solution(self):
        g = make_grid(9, 16, 16)
        t, x, _ = np.meshgrid(g.t_values, g.x_values, g.y_values,
                              indexing="ij")
        exact = 0.1 * t**2 + 0.01 * np.cos(2 * np.pi * x)
        f = 0.2 * (1.0 - 0.01 * np.pi**2 * np.cos(2 * np.pi * x))
        bnd = BoundarySpec(phi0=((1, 0, 0.01),),
                           phi1=((0, 0, 0.1), (1, 0, 0.01)))
        sol = newton_solve(g, bnd, FieldRhs(g, f))
        assert sol.converged
        assert np.abs(sol.phi.values - exact).max() < 5e-4

    def test_quadratic_convergence(self, sol_cos):
        hist = sol_cos.residual_history
        for rk, rk1 in zip(hist, hist[1:]):
            if rk < 1e-4 and rk1 > 1e-15:
                assert rk1 <= 10.0 * rk**2

    def test_nonconvex_boundary_rejected(self, grid_small):
        with pytest.raises(NonConvexBoundaryError):
            newton_solve(grid_small, BoundarySpec(phi1=((1, 0, 0.2),)),
                         ConstantProfile(0.25))

    def test_nonconverged_diagnostics(self, grid_small):
        cfg = SolverConfig(newton_tol=1e-14, max_newton_iters=1)
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3),
                           cfg)
        assert not sol.converged
        assert sol.message == "max-iterations-exceeded"
        assert len(sol.residual_history) >= 1


class TestLineSearch:
    def test_one_strip_frame_per_candidate(self, grid_small, strip_h_calls):
        # the initial residual, then per step linearize and one candidate,
        # whose frame gives both its admissibility and its residual
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert sol.iterations == 3
        assert len(strip_h_calls) == 7


class TestLadderChecks:
    @pytest.mark.parametrize("schedule", [[], [1e-2, math.nan], [math.inf],
                                          [1e-3, 1e-2], [1e-2, 0.0]])
    def test_bad_schedule(self, schedule):
        with pytest.raises(ValueError, match="schedule"):
            check_schedule(schedule)

    @pytest.mark.parametrize("lambdas", [[0.0, math.nan], [math.inf],
                                         [0.0, 2.0], [0.5, 0.25], [-0.1]])
    def test_bad_lambdas(self, lambdas):
        with pytest.raises(ValueError, match="lambda"):
            check_lambdas(lambdas)

    def test_ladders_check_before_solving(self, grid_small, monkeypatch):
        import hcma.solver
        monkeypatch.setattr(hcma.solver, "newton_solve", None)
        with pytest.raises(ValueError, match="schedule"):
            continuation_solve(grid_small, BoundarySpec(), [1e-2, math.nan])
        with pytest.raises(ValueError, match="lambdas"):
            lambda_sweep(grid_small, COS_BOUNDARY, [0.0, math.nan],
                         AnnulusProfile(1e-3))


class TestContinuation:
    def test_single_rung_equals_newton(self, grid_small):
        sols = continuation_solve(grid_small, BoundarySpec(), [1e-2])
        direct = newton_solve(grid_small, BoundarySpec(), AnnulusProfile(1e-2))
        assert np.abs(sols[0].phi.values - direct.phi.values).max() < 1e-12

    def test_closed_forms_along_schedule(self, grid_mid):
        sols = continuation_solve(grid_mid, BoundarySpec(),
                                  [1e-2, 1e-3, 1e-4])
        for sol, eps in zip(sols, [1e-2, 1e-3, 1e-4]):
            err = np.abs(sol.phi.values
                         - closed_form_annulus(grid_mid, eps)).max()
            assert err <= 5 * grid_mid.ht**2

    def test_pointwise_monotone(self, grid_mid):
        sols = continuation_solve(grid_mid, BoundarySpec(), [1e-2, 1e-3])
        assert (sols[1].phi.values >= sols[0].phi.values - 1e-8).all()

    def test_bad_schedule(self, grid_small):
        with pytest.raises(ValueError):
            continuation_solve(grid_small, BoundarySpec(), [])
        with pytest.raises(ValueError):
            continuation_solve(grid_small, BoundarySpec(), [1e-3, 1e-2])

    def test_failure_carries_index(self, grid_small):
        cfg = SolverConfig(newton_tol=1e-16, max_newton_iters=0)
        with pytest.raises(ContinuationFailure) as err:
            continuation_solve(grid_small, BoundarySpec(), [1e-2], cfg)
        assert err.value.index == 0

    def test_failure_names_the_ladder_parameter(self, grid_small):
        cfg = SolverConfig(newton_tol=1e-16, max_newton_iters=0)
        with pytest.raises(ContinuationFailure) as err:
            continuation_solve(grid_small, BoundarySpec(), [1e-2], cfg)
        assert str(err.value).startswith("continuation rung 0 (eps=0.01) failed")
        with pytest.raises(ContinuationFailure) as err:
            lambda_sweep(grid_small, COS_BOUNDARY, [0.5],
                         AnnulusProfile(1e-3), cfg)
        assert str(err.value).startswith(
            "continuation rung 0 (lambda=0.5) failed")
        assert (err.value.name, err.value.value) == ("lambda", 0.5)


class TestLambdaSweep:
    def test_endpoints(self, grid_mid, sol_cos):
        sols = lambda_sweep(grid_mid, COS_BOUNDARY, [0.0, 1.0],
                            AnnulusProfile(1e-3))
        zero_err = np.abs(sols[0].phi.values
                          - closed_form_annulus(grid_mid, 1e-3)).max()
        assert zero_err <= 5 * grid_mid.ht**2
        assert np.abs(sols[1].phi.values - sol_cos.phi.values).max() < 1e-9

    def test_max_Q_nondecreasing(self, grid_mid):
        from hcma.verify import q_field
        sols = lambda_sweep(grid_mid, COS_BOUNDARY, [0, 0.25, 0.5, 0.75, 1.0],
                            AnnulusProfile(1e-3))
        seq = [q_field(s).max() for s in sols]
        assert all(b >= a - 1e-8 for a, b in zip(seq, seq[1:]))

    def test_bad_ladder(self, grid_small):
        with pytest.raises(ValueError):
            lambda_sweep(grid_small, COS_BOUNDARY, [0.5, 0.25],
                         AnnulusProfile(1e-3))
        with pytest.raises(ValueError):
            lambda_sweep(grid_small, COS_BOUNDARY, [1.5],
                         AnnulusProfile(1e-3))


class TestSharedOperator:
    """Newton's Jacobian is 4 det(h) times the verifier's h-Laplacian."""

    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
    def test_jacobian_is_scaled_h_contract(self, modulus):
        from hcma.grid import dt1, dt2, wirt_z, wirt_zbar, wirt_zzbar
        from hcma.quantities import admissible_frame, h_contract
        g = make_grid(9, 16, 16, modulus)
        phi = ScalarField.from_function(
            g, lambda t, x, y: 0.2 * t**2
            + 0.01 * t * np.cos(2 * np.pi * x)
            + 0.004 * t * np.sin(2 * np.pi * y)
            + 0.005 * np.sin(2 * np.pi * (x + y)))
        sol = Solution(phi=phi, grid=g, profile=ConstantProfile(0.4),
                       boundary=BoundarySpec(), converged=True,
                       final_residual=0.0, iterations=0)
        gg, m, q, det = admissible_frame(phi)
        assert np.abs(m).max() > 1e-3           # mixed t-z terms present
        rng = np.random.default_rng(7)
        w = rng.standard_normal(g.shape)
        jw = (linearize(phi) @ w.ravel()).reshape(g.shape)
        hw = h_contract(sol, w)
        assert np.allclose(jw[1:-1], 4.0 * det * hw, rtol=1e-13,
                           atol=1e-13 * np.abs(jw[1:-1]).max())
        assert np.array_equal(jw[[0, -1]], w[[0, -1]])
        # reference: the Wirtinger form built from the grid's own stencils
        ref = (gg * 0.25 * dt2(g, w)[1:-1]
               - m * 0.5 * dt1(g, wirt_z(g, w))[1:-1]
               - np.conj(m) * 0.5 * dt1(g, wirt_zbar(g, w))[1:-1]
               + q * wirt_zzbar(g, w)[1:-1]) / det
        assert np.allclose(hw, ref.real, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())
        assert np.abs(ref.imag).max() <= 1e-12 * np.abs(ref).max()
        wc = w + 1j * rng.standard_normal(g.shape)
        split = h_contract(sol, wc.real) + 1j * h_contract(sol, wc.imag)
        assert np.allclose(h_contract(sol, wc), split, rtol=1e-13,
                           atol=1e-13 * np.abs(split).max())


class TestLinearSolve:
    """GMRES results are judged on their true residual; no direct fallback."""

    @pytest.fixture()
    def no_splu(self, monkeypatch):
        import hcma.solver

        def splu(*args, **kwargs):
            raise AssertionError("sparse direct factorization called")
        monkeypatch.setattr(hcma.solver.spla, "splu", splu)
        return hcma.solver.spla

    def test_accepts_good_result_despite_info(self, grid_small, no_splu,
                                              monkeypatch):
        expected = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        gmres = no_splu.gmres
        monkeypatch.setattr(no_splu, "gmres",
                            lambda *a, **kw: (gmres(*a, **kw)[0], 1))
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert sol.converged
        assert np.array_equal(sol.phi.values, expected.phi.values)

    def test_failure_carries_gmres_statistics(self, grid_small, no_splu,
                                              monkeypatch):
        monkeypatch.setattr(no_splu, "gmres",
                            lambda A, b, **kw: (np.zeros_like(b), 7))
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert not sol.converged
        assert sol.iterations == 0
        assert sol.message.startswith("linear-solve-failure")
        assert "info=7" in sol.message
        assert "0 preconditioner applies" in sol.message
        assert "relative residual 1.000e+00" in sol.message
