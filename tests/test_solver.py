import dataclasses
import math
import weakref

import numpy as np
import pytest

import hcma.grid
from conftest import (COS_AMP, COS_BOUNDARY, closed_form_annulus,
                      closed_form_constant, manufactured)
from hcma import (AnnulusProfile, BoundarySpec, ConstantProfile,
                  continuation_solve, lambda_sweep, make_grid, newton_solve)
from hcma.grid import GridError, ScalarField, spatial_ab
from hcma.quantities import (InadmissibleError, NonConvexBoundaryError,
                             check_frame)
from hcma.solver import (LINEAR_RTOL, ContinuationFailure,
                         SolverConfig, SolverError, _SeparablePreconditioner,
                         check_lambdas, check_schedule,
                         default_initial_guess, linearize, residual)
from oracle import (FieldRhs, admissible_block, admissible_frame, field_from,
                    fresh_frame, residual_grid, zero_field)

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


# --- the earlier two-loop mode arithmetic, kept as a reference --------------

def reference_eval_modes(modes, grid):
    x = grid.x_values[:, None]
    y = grid.y_values[None, :]
    out = np.zeros((grid.nx, grid.ny))
    for kx, ky, amp in modes:
        out += (complex(amp) * np.exp(2j * np.pi * (kx * x + ky * y))).real
    return out


def reference_mode_jets(modes, grid):
    """(a, b) from the x, y second derivatives of each mode."""
    x = grid.x_values[:, None]
    y = grid.y_values[None, :]
    gxx = np.zeros((grid.nx, grid.ny), dtype=complex)
    gxy = np.zeros_like(gxx)
    gyy = np.zeros_like(gxx)
    for kx, ky, amp in modes:
        e = complex(amp) * np.exp(2j * np.pi * (kx * x + ky * y))
        gxx += (2j * np.pi * kx) ** 2 * e
        gxy += (2j * np.pi * kx) * (2j * np.pi * ky) * e
        gyy += (2j * np.pi * ky) ** 2 * e
    pxx, pxy, pyy = gxx.real, gxy.real, gyy.real
    c1, c2 = grid.lattice.dz_coefficients
    a = (abs(c1) ** 2 * pxx + 2 * (c1 * np.conj(c2)).real * pxy
         + abs(c2) ** 2 * pyy)
    b = c1 ** 2 * pxx + 2 * c1 * c2 * pxy + c2 ** 2 * pyy
    return a, b


FOUR_MODES = BoundarySpec(
    phi0=((1, 0, 0.01), (-2, 1, 0.003 + 0.002j), (0, -3, -0.001j),
          (2, -1, 0.004)),
    phi1=((3, 2, 0.002), (-1, -1, 0.001 - 0.003j), (1, 1, -0.002),
          (0, 2, 0.0015 + 0.001j)))


class TestBoundarySpec:
    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j],
                             ids=["square", "skew"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_one_mode_loop_matches_reference(self, modulus, which):
        g = make_grid(5, 24, 20, modulus)
        modes = FOUR_MODES.phi1 if which else FOUR_MODES.phi0
        assert np.array_equal(FOUR_MODES.evaluate(g, which),
                              reference_eval_modes(modes, g))
        plane, *jets = FOUR_MODES.analytic_jets(g, which)
        assert np.array_equal(plane, FOUR_MODES.evaluate(g, which))
        for got, want in zip(jets, reference_mode_jets(modes, g)):
            assert got.dtype == want.dtype
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

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
        _, a_an, b_an = b.analytic_jets(g, 1)
        fld = field_from(
            g, lambda t, x, y: 0.005 * np.cos(2 * np.pi * x) + 0 * t)
        a, b = spatial_ab(g, fld.values)
        assert np.abs(a[2] - a_an).max() < 5e-4
        assert np.abs(b[2] - b_an).max() < 5e-4

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

    @pytest.mark.parametrize("k", [10**160, 10**400], ids=["1e160", "1e400"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_wave_number_past_float_range_rejected(self, k, which):
        # |s|^2 overflows a Python float; 10**400 is no float at all
        modes = ((1, 0, 0.001), (0, k, 0.001))
        with pytest.raises(NonConvexBoundaryError,
                           match=f"phi{which} mode 1: wave numbers too large"):
            BoundarySpec(**{f"phi{which}": modes}).validate(
                make_grid(5, 16, 16, 0.3 + 1.1j))

    def test_nan_mode_rejected(self):
        with pytest.raises(NonConvexBoundaryError, match="gap nan"):
            BoundarySpec(phi1=((1, 0, math.nan),)).validate(
                make_grid(5, 16, 16))

    def test_scaled(self):
        b = BoundarySpec(phi1=((1, 0, 0.4),)).scaled(0.5)
        assert b.phi1[0][2] == pytest.approx(0.2)


class TestResidual:
    def test_zero_field(self):
        # written into a zero grid's interior, the Dirichlet planes stay 0
        g = make_grid(5, 8, 8)
        r, rn = residual_grid(zero_field(g), ConstantProfile(1.0))
        assert np.allclose(r[1:-1], -1.0)
        assert np.allclose(r[[0, -1]], 0.0)
        assert rn == np.abs(r).max()

    def test_parabola_zero_residual(self):
        g = make_grid(9, 8, 8)
        eps0 = 0.25
        fld = field_from(
            g, lambda t, x, y: (eps0 / 2) * t**2 + 0.7 * t + 0 * x)
        r, rn = residual_grid(fld, ConstantProfile(eps0))
        assert np.abs(r[1:-1]).max() < 1e-13
        assert rn == np.abs(r).max()

    def test_t_independent_field(self):
        g = make_grid(5, 16, 16)
        fld = field_from(
            g, lambda t, x, y: 0.01 * np.cos(2 * np.pi * x) + 0 * t)
        r, rn = residual_grid(fld, ConstantProfile(0.3))
        assert np.allclose(r[1:-1], -0.3)
        assert rn == np.abs(r).max()

    def test_frame_is_strip_h(self):
        # the frame it returns is strip_h's, in the block it was given
        g = make_grid(9, 16, 16, 0.3 + 1.1j)
        fld = field_from(g, lambda t, x, y: 0.2 * t**2 + 0.01 * np.cos(
            2 * np.pi * x) * np.sin(2 * np.pi * y))
        block = np.full((5, g.nt - 2, g.nx, g.ny), np.nan)
        frame = residual(g, fld.values, ConstantProfile(0.3), block,
                         np.empty(block.shape[1:]))[0]
        assert frame[0].base is block
        want = fresh_frame(g, fld.values)
        for got, ref in zip(block, (want[0], *want[1], *want[2:])):
            assert np.array_equal(got, ref)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflow_raises_grid_error(self):
        # 1e308 t^2 is finite, its second t-difference is not
        g = make_grid(9, 8, 8)
        fld = field_from(g, lambda t, x, y: 1e308 * t * t + 0 * x)
        with pytest.raises(GridError, match="non-finite"):
            residual_grid(fld, ConstantProfile(0.3))


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
        base = field_from(
            g, lambda t, x, y: (eps0 / 2) * t**2 + 0 * x)
        jacobian = linearize(g, admissible_block(base))[0]
        interior = (g.nt - 2, g.nx, g.ny)
        # inputs vanish on both Dirichlet planes: t(t-1) has d_tt = 2
        v_t = field_from(g, lambda t, x, y: t * (t - 1) + 0 * x)
        out = jacobian(v_t.values[1:-1].ravel()).reshape(interior)
        assert np.allclose(out, 2.0)
        cos_x = np.cos(2 * np.pi * g.x_values)[:, None]
        v_x = field_from(
            g, lambda t, x, y: np.cos(2 * np.pi * x) * t * (t - 1))
        out = jacobian(v_x.values[1:-1].ravel()).reshape(interior)
        # + eps0 * delta-a
        expected = 2.0 * cos_x + eps0 * spatial_ab(g, v_x.values)[0][1:-1]
        assert np.allclose(out, expected, atol=1e-10)

    def test_directional_derivative(self):
        g = make_grid(7, 8, 8)
        rng = np.random.default_rng(4)
        base = field_from(
            g, lambda t, x, y: 0.2 * t**2
            + 0.01 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
        prof = ConstantProfile(0.3)
        v = rng.standard_normal(g.shape)
        v[0] = v[-1] = 0.0
        jacobian = linearize(g, admissible_block(base))[0]
        jv = jacobian(v[1:-1].ravel()).reshape(g.nt - 2, g.nx, g.ny)
        errs = []
        for s in (1e-3, 5e-4, 2.5e-4):
            fd = (residual_grid(ScalarField(g, base.values + s * v), prof)[0]
                  - residual_grid(base, prof)[0]) / s
            errs.append(np.abs(fd[1:-1] - jv).max())
        # first-order in s (the residual is quadratic in phi)
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)

    def test_inadmissible_rejected(self):
        g = make_grid(5, 8, 8)
        fld = field_from(g, lambda t, x, y: -2.0 * t**2 + 0 * x)
        with pytest.raises(InadmissibleError):
            linearize(g, admissible_block(fld))

    def test_interior_unknowns_only(self, sol_cos):
        # a correction vanishes on the Dirichlet planes: no identity rows
        g = sol_cos.grid
        n = (g.nt - 2) * g.nx * g.ny
        jacobian, preconditioner = linearize(g, admissible_block(sol_cos.phi))
        # plain functions: only _solve_linear wraps them for scipy
        assert not any(type(f).__module__.startswith("scipy")
                       for f in (jacobian, preconditioner))
        x = np.random.default_rng(2).standard_normal(n)
        assert jacobian(x).shape == (n,)
        assert preconditioner.solve(x).shape == (n,)
        with pytest.raises(ValueError):     # n interior unknowns in, no more
            jacobian(np.zeros(n + g.nx * g.ny))

    def test_builds_no_strip_frame(self, sol_cos, strip_h_calls):
        block = admissible_block(sol_cos.phi)
        strip_h_calls.clear()
        linearize(sol_cos.grid, block)
        assert strip_h_calls == []


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
        assert (1.0 + spatial_ab(sol_cos.grid, sol_cos.phi.values[1:-1])[0]
                ).min() > 0
        assert fresh_frame(sol_cos.grid, sol_cos.phi.values)[3].min() > 0

    def test_manufactured_solution(self):
        g = make_grid(9, 16, 16)
        bnd, rhs, exact = manufactured(g, 1, 0, 0.01)
        sol = newton_solve(g, bnd, rhs)
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

    def test_each_boundary_plane_evaluated_once(self, grid_small,
                                                monkeypatch):
        calls = []
        real = BoundarySpec.evaluate

        def counted(self, grid, which):
            calls.append(which)
            return real(self, grid, which)

        monkeypatch.setattr(BoundarySpec, "evaluate", counted)
        cold = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert cold.converged and sorted(calls) == [0, 1]
        calls.clear()
        warm = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(5e-4),
                            initial=cold.phi)
        assert warm.converged and sorted(calls) == [0, 1]

    def test_inadmissible_warm_start_falls_back(self, grid_small):
        cold = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        bad = field_from(
            grid_small, lambda t, x, y: -2.0 * t**2 + 0 * x)
        warm = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3),
                            initial=bad)
        assert np.array_equal(warm.phi.values, cold.phi.values)
        assert warm.residual_history == cold.residual_history

    def test_inadmissible_start_exit(self, grid_small, monkeypatch):
        # the blend plus (max eps_tilde / 2) t(t-1) has det h < 0 on this
        # steep boundary
        import hcma.solver

        def parabola(grid, boundary, profile):
            t = grid.t_values[:, None, None]
            c0 = 0.5 * float(profile.rhs_on(grid).max())
            return ScalarField(grid, (1.0 - t) * boundary.evaluate(grid, 0)
                               + t * boundary.evaluate(grid, 1)
                               + c0 * t * (t - 1.0))
        monkeypatch.setattr(hcma.solver, "default_initial_guess", parabola)
        sol = newton_solve(grid_small, BoundarySpec(phi1=((1, 0, 0.04),)),
                           AnnulusProfile(1e-4))
        assert not sol.converged and sol.iterations == 0
        assert sol.residual_history == [pytest.approx(1.434e-2, rel=1e-3)]
        assert sol.message == ("inadmissible iterate: min(1+a)=6.590e-01, "
                               "min(det h)=-3.010e-03")


class TestInitialGuess:
    """The cold start is a discrete subsolution: 4 det h >= eps_tilde."""

    @pytest.mark.parametrize("kind", ["annulus", "constant", "field"])
    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j],
                             ids=["square", "skew"])
    def test_start_is_a_subsolution(self, modulus, kind):
        grid = make_grid(9, 16, 16, modulus)
        boundary = FOUR_MODES.scaled(0.5)
        boundary.validate(grid)
        t, x, y = np.meshgrid(grid.t_values, grid.x_values, grid.y_values,
                              indexing="ij")
        profile = {"annulus": AnnulusProfile(1e-3),
                   "constant": ConstantProfile(0.25),
                   "field": FieldRhs(grid, 0.1 * (1.0 + t) * (
                       1.5 + np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)))
                   }[kind]
        phi = default_initial_guess(grid, boundary, profile)
        r = residual_grid(phi, profile)[0][1:-1]
        tol = 1e-13 * profile.rhs_on(grid).max()
        assert r.min() >= -tol
        # psi_tt is the plane max itself: each plane touches 0
        assert r.min(axis=(1, 2)).max() <= tol
        assert np.array_equal(phi.values[0], boundary.evaluate(grid, 0))
        assert np.array_equal(phi.values[-1], boundary.evaluate(grid, 1))

    @pytest.mark.parametrize("profile", [AnnulusProfile(1e-3),
                                         ConstantProfile(0.25)],
                             ids=["annulus", "constant"])
    def test_zero_boundary_starts_solved(self, grid_mid, profile):
        sol = newton_solve(grid_mid, BoundarySpec(), profile)
        assert sol.converged and sol.iterations == 0
        assert sol.residual_history[0] <= 1e-13 * profile.rhs_on(
            grid_mid).max()

    def test_readme_solve_takes_two_steps(self, sol_cos):
        assert sol_cos.iterations == 2
        assert sol_cos.residual_history[0] < 3e-3

    def test_steep_boundary_converges(self, grid_small):
        sol = newton_solve(grid_small, BoundarySpec(phi1=((1, 0, 0.04),)),
                           AnnulusProfile(1e-4))
        assert sol.converged and sol.iterations == 4

    def test_nonconvex_blend_is_rejected_quietly(self, grid_small):
        # not validated: the blend has 1 + a < 0, which psi cannot mend; no
        # numpy warning on the way: tier-1 turns warnings into errors
        phi = default_initial_guess(grid_small,
                                    BoundarySpec(phi1=((1, 0, 0.2),)),
                                    AnnulusProfile(1e-3))
        with pytest.raises(InadmissibleError, match=r"min\(1\+a\)=-"):
            check_frame(fresh_frame(phi.grid, phi.values))


class TestAdmissible:
    @pytest.mark.parametrize("plane", [None, 1, -2],
                             ids=["none", "first", "last"])
    def test_each_chunk_is_judged(self, sol_cos, monkeypatch, plane):
        # one plane per chunk; a bump on the first or the last interior
        # plane drops Phi_tt there by 2 / ht^2, so det h < 0 in that chunk
        grid = sol_cos.grid
        vals = np.array(sol_cos.phi.values)
        if plane is not None:
            vals[plane, 3, 5] += 1.0
        sol = dataclasses.replace(sol_cos, phi=ScalarField(grid, vals))
        monkeypatch.setattr(hcma.grid, "CHUNK_NODES", grid.nx * grid.ny)
        assert sol.admissible is (plane is None)


class TestLineSearch:
    def test_one_strip_frame_per_candidate(self, grid_small, strip_h_calls):
        # the start, then one per candidate, whose frame gives its
        # admissibility, its residual and then the next Jacobian; the cold
        # start reads its blend's frame off the boundary planes
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert sol.iterations == 2
        assert len(strip_h_calls) == 3

    def test_one_strip_frame_per_warm_field(self, grid_small,
                                            strip_h_calls):
        # the lifted start's frame decides its admissibility too
        cold = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        strip_h_calls.clear()
        warm = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(5e-4),
                            initial=cold.phi)
        assert warm.converged and warm.iterations == 3
        assert len(strip_h_calls) == 4

    def test_every_frame_is_made_by_residual(self, grid_small,
                                             strip_h_calls, monkeypatch):
        # each lifted start, the cold start and each candidate go through
        # the one field evaluator, looked up at call time
        import hcma.solver
        calls = []
        real = hcma.solver.residual

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(hcma.solver, "residual", counted)
        sols = list(lambda_sweep(grid_small, COS_BOUNDARY, [0.0, 0.5, 1.0],
                                 AnnulusProfile(1e-3)))
        assert all(s.converged for s in sols)
        assert len(calls) == len(strip_h_calls) > 3

    def test_each_field_holds_the_array_newton_wrote(self, grid_small,
                                                     monkeypatch):
        # the cold start, the lifted start and every candidate are fresh
        # arrays handed over read-only, so each field holds its array as
        # it was written, with no second copy
        import hcma.solver
        made = []

        class Recorded(ScalarField):
            def __init__(self, grid, values):
                super().__init__(grid, values)
                made.append((values, self))

        monkeypatch.setattr(hcma.solver, "ScalarField", Recorded)
        cold = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        n_cold = len(made)
        warm = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(5e-4),
                            initial=cold.phi)
        assert (n_cold, len(made)) == (3, 7)    # as many as strip frames
        assert cold.phi is made[n_cold - 1][1] and warm.phi is made[-1][1]
        for values, field in made:
            assert not values.flags.writeable
            assert np.shares_memory(field.values, values)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestOverflowingFields:
    """A finite field whose residual 4 det h - eps_tilde overflows (its
    Phi_tt does, for 1e308 t^2 on 9 t-planes) is never a start or an
    accepted candidate, and a cold start that is not finite ends the solve
    with SolverError."""

    def test_warm_start_passed_over(self, grid_small):
        t = grid_small.t_values[:, None, None]
        huge = ScalarField(grid_small, 1e308 * t * t * np.ones(
            grid_small.shape))
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3),
                           initial=huge)
        assert sol.converged and sol.iterations == 2    # started cold

    def test_candidate_passed_over(self, grid_small, monkeypatch):
        import hcma.solver
        t = grid_small.t_values[:, None, None]
        # the candidate phi + 1e308 t^2: Newton subtracts the interior step
        monkeypatch.setattr(hcma.solver, "_solve_linear",
                            lambda jacobian, preconditioner, rhs, rtol:
                            -1e308 * (t * t * np.ones(grid_small.shape))[1:-1])
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert sol.message == "line-search-exhausted"

    @pytest.mark.parametrize("amps, error, match", [
        ((1.7e308,), SolverError, "cold start not finite"),
        # a plane that is not finite is a boundary error, before any solve
        ((-8.99e307, -8.99e307), NonConvexBoundaryError, "phi1 not finite")],
        ids=["one-mode", "sum-overflows"])
    def test_cold_start_raises(self, grid_small, amps, error, match):
        boundary = BoundarySpec(phi1=tuple((0, 0, a) for a in amps))
        with pytest.raises(error, match=match):
            newton_solve(grid_small, boundary, AnnulusProfile(1e-3))


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
        sols = list(continuation_solve(grid_small, BoundarySpec(), [1e-2]))
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
        sols = list(continuation_solve(grid_mid, BoundarySpec(),
                                       [1e-2, 1e-3]))
        assert (sols[1].phi.values >= sols[0].phi.values - 1e-8).all()

    def test_bad_schedule(self, grid_small):
        with pytest.raises(ValueError):
            continuation_solve(grid_small, BoundarySpec(), [])
        with pytest.raises(ValueError):
            continuation_solve(grid_small, BoundarySpec(), [1e-3, 1e-2])

    def test_failure_carries_index(self, grid_small):
        cfg = SolverConfig(newton_tol=1e-16, max_newton_iters=0)
        with pytest.raises(ContinuationFailure) as err:
            list(continuation_solve(grid_small, BoundarySpec(), [1e-2], cfg))
        assert err.value.index == 0

    def test_failure_names_the_ladder_parameter(self, grid_small):
        cfg = SolverConfig(newton_tol=1e-16, max_newton_iters=0)
        with pytest.raises(ContinuationFailure) as err:
            list(continuation_solve(grid_small, BoundarySpec(), [1e-2], cfg))
        assert str(err.value).startswith("continuation rung 0 (eps=0.01) failed")
        with pytest.raises(ContinuationFailure) as err:
            list(lambda_sweep(grid_small, COS_BOUNDARY, [0.5],
                              AnnulusProfile(1e-3), cfg))
        assert str(err.value).startswith(
            "continuation rung 0 (lambda=0.5) failed")
        assert (err.value.name, err.value.value) == ("lambda", 0.5)


class TestLambdaSweep:
    def test_endpoints(self, grid_mid, sol_cos):
        sols = list(lambda_sweep(grid_mid, COS_BOUNDARY, [0.0, 1.0],
                                 AnnulusProfile(1e-3)))
        zero_err = np.abs(sols[0].phi.values
                          - closed_form_annulus(grid_mid, 1e-3)).max()
        assert zero_err <= 5 * grid_mid.ht**2
        assert np.abs(sols[1].phi.values - sol_cos.phi.values).max() < 1e-9

    def test_max_Q_nondecreasing(self, grid_mid):
        from hcma.verify import q_from_ab
        sols = lambda_sweep(grid_mid, COS_BOUNDARY, [0, 0.25, 0.5, 0.75, 1.0],
                            AnnulusProfile(1e-3))
        seq = [q_from_ab(*spatial_ab(s.grid, s.phi.values)).max()
               for s in sols]
        assert all(b >= a - 1e-8 for a, b in zip(seq, seq[1:]))

    def test_bad_ladder(self, grid_small):
        with pytest.raises(ValueError):
            lambda_sweep(grid_small, COS_BOUNDARY, [0.5, 0.25],
                         AnnulusProfile(1e-3))
        with pytest.raises(ValueError):
            lambda_sweep(grid_small, COS_BOUNDARY, [1.5],
                         AnnulusProfile(1e-3))


@pytest.fixture
def ladder_starts(monkeypatch):
    """The `initial` of every newton_solve call the ladders make."""
    import hcma.solver
    starts = []
    real = hcma.solver.newton_solve

    def recorded(*args, initial=None, **kwargs):
        starts.append(initial)
        return real(*args, initial=initial, **kwargs)

    monkeypatch.setattr(hcma.solver, "newton_solve", recorded)
    return starts


def warm_chain(grid, rungs):
    """Each (boundary, profile) rung warm-started from the last solution."""
    sols, warm = [], None
    for boundary, profile in rungs:
        sols.append(newton_solve(grid, boundary, profile, initial=warm))
        warm = sols[-1].phi
    return sols


class TestLadderStreaming:
    """A ladder solves each rung as it is drawn and holds two rungs."""

    def test_rungs_are_solved_as_drawn(self, grid_small, ladder_starts):
        ladder = lambda_sweep(grid_small, COS_BOUNDARY, [0.0, 0.5, 1.0],
                              AnnulusProfile(1e-3))
        assert ladder_starts == []
        assert next(ladder).converged
        assert len(ladder_starts) == 1

    def test_ladder_holds_two_rungs(self, grid_small):
        ladder = continuation_solve(grid_small, COS_BOUNDARY,
                                    [1e-1, 1e-2, 1e-3, 1e-4])
        rung0 = weakref.ref(next(ladder).phi)
        next(ladder)
        assert rung0() is not None      # phi_{k-2} of the secant of rung 2
        next(ladder)
        assert rung0() is None

    def test_failure_is_raised_when_its_rung_is_drawn(self, grid_small):
        cfg = SolverConfig(max_newton_iters=1)
        ladder = lambda_sweep(grid_small, COS_BOUNDARY, [0.0, 1.0],
                              AnnulusProfile(1e-3), cfg)
        assert next(ladder).iterations == 0
        with pytest.raises(ContinuationFailure) as err:
            next(ladder)
        assert err.value.index == 1


class TestSecantPredictor:
    """Rungs k >= 2 start from the secant through the last two solutions."""

    def test_lambda_ladder_steps(self, grid_mid):
        sols = list(lambda_sweep(grid_mid, COS_BOUNDARY,
                                 [k / 10 for k in range(11)],
                                 AnnulusProfile(1e-3)))
        assert all(s.converged and s.final_residual <= SolverConfig().newton_tol
                   for s in sols)
        assert sum(s.iterations for s in sols) <= 12       # 21 from phi_{k-1}

    def test_eps_schedule_steps(self, grid_mid):
        sols = list(continuation_solve(grid_mid, COS_BOUNDARY,
                                       [1e-1, 1e-2, 1e-3, 1e-4]))
        assert all(s.converged and s.final_residual <= SolverConfig().newton_tol
                   for s in sols)
        assert sum(s.iterations for s in sols) <= 12       # 14 from phi_{k-1}

    @pytest.mark.parametrize("lambdas", [[0.0, 0.5, 0.5, 1.0],
                                         [0.0, 5e-324, 1.0]])
    def test_degenerate_secant_starts_from_previous(self, grid_small, lambdas,
                                                    ladder_starts):
        # a repeated value has no secant; 5e-324 makes w non-finite
        sols = list(lambda_sweep(grid_small, COS_BOUNDARY, lambdas,
                                 AnnulusProfile(1e-3)))
        assert all(s.converged for s in sols)
        assert ladder_starts[-1] is sols[-2].phi

    @pytest.mark.parametrize("kind", ["lambda", "eps"])
    @pytest.mark.parametrize("n_rungs", [1, 2])
    def test_short_ladders_bitwise_warm_starts(self, grid_small, kind,
                                               n_rungs):
        if kind == "lambda":
            values = [0.5, 1.0][:n_rungs]
            prof = AnnulusProfile(1e-3)
            sols = list(lambda_sweep(grid_small, COS_BOUNDARY, values, prof))
            rungs = [(COS_BOUNDARY.scaled(v), prof) for v in values]
        else:
            values = [1e-2, 1e-3][:n_rungs]
            sols = list(continuation_solve(grid_small, COS_BOUNDARY, values))
            rungs = [(COS_BOUNDARY, AnnulusProfile(v)) for v in values]
        ref = warm_chain(grid_small, rungs)
        assert len(sols) == n_rungs
        for sol, want in zip(sols, ref):
            assert np.array_equal(sol.phi.values, want.phi.values)
            assert sol.residual_history == want.residual_history

    def test_inadmissible_prediction_falls_back(self, grid_small, monkeypatch,
                                                ladder_starts):
        import hcma.solver
        real_strip_h = hcma.solver.strip_h
        real_solve = hcma.solver.newton_solve      # ladder_starts' recorder
        rejected, cold, predicting = [], [], []

        def solve(*args, initial=None, **kwargs):
            if isinstance(initial, tuple):      # (prediction, previous)
                predicting.append(True)
            return real_solve(*args, initial=initial, **kwargs)

        # a secant rung's first frame, its prediction's, is made
        # inadmissible with its small residual kept
        def strip_h(grid, window, out):
            g, m, q, det = real_strip_h(grid, window, out)
            if predicting:
                predicting.clear()
                rejected.append(window)
                g = -np.ones_like(g)
            return g, m, q, det

        def guess(*args):
            cold.append(args)
            return default_initial_guess(*args)

        monkeypatch.setattr(hcma.solver, "newton_solve", solve)
        monkeypatch.setattr(hcma.solver, "strip_h", strip_h)
        monkeypatch.setattr(hcma.solver, "default_initial_guess", guess)
        values = [0.0, 1 / 3, 2 / 3, 1.0]
        prof = AnnulusProfile(1e-3)
        sols = list(lambda_sweep(grid_small, COS_BOUNDARY, values, prof))
        assert len(rejected) == 2                       # rungs 2 and 3
        assert len(cold) == 1                           # rung 0 only
        assert ladder_starts[0] is None
        assert ladder_starts[1] is sols[0].phi
        for start, sol in zip(ladder_starts[2:], sols[1:]):
            assert len(start) == 2 and start[1] is sol.phi
        monkeypatch.undo()
        ref = warm_chain(grid_small,
                         [(COS_BOUNDARY.scaled(v), prof) for v in values])
        for sol, want in zip(sols, ref):
            assert np.array_equal(sol.phi.values, want.phi.values)

    def test_amplified_round_off_costs_no_step(self, grid_small):
        # w = 5e13 multiplies Newton noise in phi_1 - phi_2: the previous
        # solution is the closer start
        lambdas = [0.0, 0.5, 0.5 + 1e-14, 1.0]
        sols = list(lambda_sweep(grid_small, COS_BOUNDARY, lambdas,
                                 AnnulusProfile(1e-3)))
        assert all(s.converged for s in sols)
        assert sols[-1].iterations == 2

    @pytest.mark.parametrize("kind, frames", [("lambda", 31), ("eps", 17)])
    def test_ladder_strip_frames(self, grid_mid, strip_h_calls, kind, frames):
        # the sweep of the README problem on 17x32x32: the ladder builds no
        # frame of its own, a secant rung one per offered start
        if kind == "lambda":
            sols = lambda_sweep(grid_mid, COS_BOUNDARY,
                                [k / 10 for k in range(11)],
                                AnnulusProfile(1e-3))
        else:
            sols = continuation_solve(grid_mid, COS_BOUNDARY,
                                      [1e-1, 1e-2, 1e-3, 1e-4])
        assert all(s.converged for s in sols)
        assert len(strip_h_calls) == frames


class TestSharedOperator:
    """Newton's Jacobian is 4 det(h) times the verifier's h-Laplacian."""

    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
    def test_jacobian_is_scaled_h_contract(self, modulus):
        from hcma.grid import dt1, dt2, wirt_z, wirt_zbar
        from hcma.quantities import h_contract
        g = make_grid(9, 16, 16, modulus)
        phi = field_from(
            g, lambda t, x, y: 0.2 * t**2
            + 0.01 * t * np.cos(2 * np.pi * x)
            + 0.004 * t * np.sin(2 * np.pi * y)
            + 0.005 * np.sin(2 * np.pi * (x + y)))
        frame = admissible_frame(phi)
        gg, (m_r, m_i), q, det = frame
        m = m_r + 1j * m_i
        assert np.abs(m).max() > 1e-3           # mixed t-z terms present
        rng = np.random.default_rng(7)
        w = rng.standard_normal(g.shape)
        w[0] = w[-1] = 0.0                      # zero on the Dirichlet planes
        # linearize takes over a block of its own: the frame stays
        jw = linearize(g, admissible_block(phi))[0](
            w[1:-1].ravel()).reshape(det.shape)
        hw, = h_contract(g, (w,), frame)
        assert np.allclose(jw, 4.0 * det * hw, rtol=1e-13,
                           atol=1e-13 * np.abs(jw).max())
        # reference: the Wirtinger form built from the grid's own stencils
        ref = (gg * 0.25 * dt2(g, w)[1:-1]
               - m * 0.5 * dt1(g, wirt_z(g, w))[1:-1]
               - np.conj(m) * 0.5 * dt1(g, wirt_zbar(g, w))[1:-1]
               + q * spatial_ab(g, w)[0][1:-1]) / det
        assert np.allclose(hw, ref.real, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())
        assert np.abs(ref.imag).max() <= 1e-12 * np.abs(ref).max()
        wc = w + 1j * rng.standard_normal(g.shape)
        re, im, whole = h_contract(g, (wc.real, wc.imag, wc), frame)
        split = re + 1j * im
        assert np.allclose(whole, split, rtol=1e-13,
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

    def test_converged_gmres_is_taken_as_it_is(self, grid_small, no_splu,
                                               monkeypatch):
        # scipy's GMRES reports info 0 only once its own final true residual
        # meets rtol, so no Jacobian apply follows such a return
        import hcma.solver
        applies, calls = [], []
        linearize_, gmres = hcma.solver.linearize, no_splu.gmres

        def counting_linearize(grid, block):
            jacobian, preconditioner = linearize_(grid, block)

            def counted(x):
                applies.append(x.size)
                return jacobian(x)
            return counted, preconditioner

        def spy(*args, **kwargs):
            start = len(applies)
            x, info = gmres(*args, **kwargs)
            calls.append((start, info, len(applies)))
            return x, info
        monkeypatch.setattr(hcma.solver, "linearize", counting_linearize)
        monkeypatch.setattr(no_splu, "gmres", spy)
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert sol.converged and len(calls) == sol.iterations > 0
        assert [info for _, info, _ in calls] == [0] * len(calls)
        ends = [end for _, _, end in calls]
        assert [start for start, _, _ in calls[1:]] + [len(applies)] == ends

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

    def test_out_of_memory_is_a_linear_solve_failure(self, grid_small,
                                                     no_splu, monkeypatch):
        def gmres(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(no_splu, "gmres", gmres)
        sol = newton_solve(grid_small, COS_BOUNDARY, AnnulusProfile(1e-3))
        assert not sol.converged
        assert sol.iterations == 0
        # GMRES(10) holds 11 Krylov vectors, one float64 per interior node
        nt, nx, ny = grid_small.shape
        assert sol.message == ("linear-solve-failure: out of memory for a "
                               "gmres workspace of "
                               f"{11 * (nt - 2) * nx * ny * 8} bytes")

    @staticmethod
    def forcing_terms(no_splu, monkeypatch, grid, amp):
        """(solution, rtols, floored) of a solve of phi1 = amp cos 2 pi x;
        each eta_k is min(1e-2, max(r_k, LINEAR_RTOL, tol / 2 / |F_k|_2)),
        and floored marks the steps the last term sets."""
        rtols, norms = [], []
        gmres = no_splu.gmres

        def spy(A, rhs, *args, rtol, **kwargs):
            rtols.append(rtol)
            norms.append(np.linalg.norm(rhs))
            return gmres(A, rhs, *args, rtol=rtol, **kwargs)
        monkeypatch.setattr(no_splu, "gmres", spy)
        tol = SolverConfig().newton_tol
        sol = newton_solve(grid, BoundarySpec(phi1=((1, 0, amp),)),
                           AnnulusProfile(1e-3))
        assert sol.converged
        assert len(rtols) == sol.iterations
        assert rtols[0] == min(1e-2, sol.residual_history[0])
        for eta, rk, norm in zip(rtols, sol.residual_history, norms):
            assert eta == min(1e-2, max(rk, LINEAR_RTOL, 0.5 * tol / norm))
        return sol, rtols, [max(rk, LINEAR_RTOL) < 0.5 * tol / norm
                            for rk, norm in zip(sol.residual_history, norms)]

    def test_forcing_terms_follow_the_residual(self, grid_mid, no_splu,
                                               monkeypatch):
        _, rtols, floored = self.forcing_terms(no_splu, monkeypatch,
                                               grid_mid, COS_AMP)
        assert not any(floored)
        assert all(b <= a for a, b in zip(rtols, rtols[1:]))

    def test_forcing_term_floor_stops_the_last_step_oversolving(
            self, grid_mid, no_splu, monkeypatch):
        # without the floor the last step asked for 2.2e-9 and reached a
        # final residual of 3.5e-15 against newton_tol = 1e-10
        sol, rtols, floored = self.forcing_terms(no_splu, monkeypatch,
                                                 grid_mid, 0.05)
        assert floored == [False] * (len(rtols) - 1) + [True]
        assert rtols[-1] > sol.residual_history[-2]
        assert sol.final_residual <= SolverConfig().newton_tol

    @pytest.mark.parametrize("shape", [(7, 8, 6), (6, 6, 7), (5, 5, 9)])
    def test_preconditioner_is_the_separable_solve(self, shape):
        # dense reference on the interior unknowns: plane means of the tt,
        # xx, yy coefficients on the interior t-planes, zero Dirichlet planes
        grid = make_grid(*shape)
        nt, nx, ny = shape
        rng = np.random.default_rng(3)
        phi = default_initial_guess(grid, COS_BOUNDARY, AnnulusProfile(0.1))
        phi = ScalarField(grid, phi.values
                          + 1e-3 * rng.standard_normal(grid.shape))
        g, _, q, _ = admissible_frame(phi)
        k1, k2 = grid.lattice.dz_coefficients
        planes = {"tt": g, "xx": 4.0 * abs(k1) ** 2 * q,
                  "yy": 4.0 * abs(k2) ** 2 * q}

        def d2(n, h):
            eye = np.eye(n)
            return (np.roll(eye, 1, 0) - 2.0 * eye + np.roll(eye, -1, 0)) / h**2

        lap_x = np.kron(d2(nx, grid.hx), np.eye(ny))
        lap_y = np.kron(np.eye(nx), d2(ny, grid.hy))
        m = nx * ny
        dense = np.zeros(((nt - 2) * m, (nt - 2) * m))
        for i in range(nt - 2):
            ptt, pxx, pyy = (planes[key][i].mean()
                             for key in ("tt", "xx", "yy"))
            rows = dense[i * m:(i + 1) * m]
            off = ptt / grid.ht**2 * np.eye(m)
            if i > 0:
                rows[:, (i - 1) * m:i * m] = off
            if i < nt - 3:
                rows[:, (i + 1) * m:(i + 2) * m] = off
            rows[:, i * m:(i + 1) * m] = -2.0 * off + pxx * lap_x + pyy * lap_y
        v = rng.standard_normal((nt - 2) * m)
        ref = np.linalg.solve(dense, v)
        got = _SeparablePreconditioner(grid, g, q).solve(v)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

