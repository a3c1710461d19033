"""Damped Newton solver for the regularized Monge-Ampere Dirichlet problem.

The scalar equation solved on [0,1]_t x T^2 is

    Phi_tt (1 + a) - |Phi_tzbar|^2 = eps_tilde(t),      a = Phi_zzbar,

with Dirichlet data on the t = 0, 1 planes.  In Annulus mode
eps_tilde(t) = 4 eps e^{2t}, the pullback of the constant right-hand side
eps on the annulus {1 < |tau| < e} under tau = e^{t+is}; Constant mode uses
eps_tilde = eps0 directly.  A field-valued right-hand side (FieldRhs) exists
solely for manufactured-solution testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields as dc_fields

import numpy as np
import scipy.sparse.linalg as spla

from .grid import Grid, ScalarField, second_order_stencil
from .quantities import (InadmissibleError, NonConvexBoundaryError,
                         admissible_frame, h_coefficient_planes, strip_h)

LINEAR_RTOL = 1e-12    # relative residual of each Newton linear solve


class SolverError(RuntimeError):
    pass


class ContinuationFailure(SolverError):
    """Rung `index` of a warm-start ladder, at parameter name=value, failed."""

    def __init__(self, index: int, name: str, value: float,
                 solution: "Solution"):
        super().__init__(f"continuation rung {index} ({name}={value}) "
                         f"failed: {solution.message}")
        self.index = index
        self.name = name
        self.value = value
        self.solution = solution


# --- right-hand sides --------------------------------------------------------

class _TimeProfile:
    """eps_tilde(t) fixed by the dataclass's one positive, finite field."""

    def __post_init__(self):
        name = dc_fields(self)[0].name
        value = getattr(self, name)
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")

    def rhs_on(self, grid: Grid) -> np.ndarray:
        return np.broadcast_to(
            self.tilde(grid.t_values)[:, None, None], grid.shape)


@dataclass(frozen=True)
class ConstantProfile(_TimeProfile):
    """eps_tilde(t) = eps0."""

    epsilon0: float

    def tilde(self, t):
        return self.epsilon0 * np.ones_like(np.asarray(t, dtype=float))

    def describe(self) -> str:
        return f"constant(eps0={self.epsilon0})"


@dataclass(frozen=True)
class AnnulusProfile(_TimeProfile):
    """eps_tilde(t) = 4 eps e^{2t} (annulus {1<|tau|<e} pulled back to the strip)."""

    epsilon: float

    def tilde(self, t):
        return 4.0 * self.epsilon * np.exp(2.0 * np.asarray(t, dtype=float))

    def describe(self) -> str:
        return f"annulus(eps={self.epsilon})"


class FieldRhs:
    """Explicit right-hand-side field f(t, x, y); manufactured solutions only."""

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"rhs shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values.copy()

    def rhs_on(self, grid: Grid) -> np.ndarray:
        if grid.shape != self.grid.shape:
            raise ValueError("rhs defined on a different grid")
        return self.values

    def describe(self) -> str:
        return "field-rhs(manufactured)"


# --- boundary data -----------------------------------------------------------

@dataclass(frozen=True)
class BoundarySpec:
    """Boundary potentials phi0, phi1 as finite lists of Fourier modes.

    Each mode is (kx, ky, amplitude); the evaluated field is
    Re sum_m amp_m exp(2 pi i (kx x + ky y)).  Convexity (1 + a > 0 and
    |b| < 1 + a at every node) is checked from the analytic mode derivatives
    when the spec is evaluated on a grid.
    """

    phi0: tuple = ()
    phi1: tuple = ()

    @staticmethod
    def _eval_modes(modes, grid: Grid) -> np.ndarray:
        x = grid.x_values[:, None]
        y = grid.y_values[None, :]
        out = np.zeros((grid.nx, grid.ny))
        for kx, ky, amp in modes:
            out += (complex(amp) * np.exp(2j * np.pi * (kx * x + ky * y))).real
        return out

    @staticmethod
    def _mode_jets(modes, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Analytic (a, b) of the evaluated field on the torus grid."""
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

    def evaluate(self, grid: Grid, which: int) -> np.ndarray:
        return self._eval_modes(self.phi0 if which == 0 else self.phi1, grid)

    def analytic_jets(self, grid: Grid, which: int):
        return self._mode_jets(self.phi0 if which == 0 else self.phi1, grid)

    def validate(self, grid: Grid) -> None:
        for which in (0, 1):
            with np.errstate(all="ignore"):     # an overflow fails below
                a, b = self.analytic_jets(grid, which)
                gap = (1.0 + a) - np.abs(b)
            bad = np.unravel_index(np.argmin(gap), gap.shape)   # NaN if any
            if not gap[bad] > 0.0:
                raise NonConvexBoundaryError(
                    f"phi{which} not omega_0-convex: gap {gap[bad]:.3e} at "
                    f"node (x,y)={tuple(map(int, bad))}")

    def scaled(self, lam: float) -> "BoundarySpec":
        sc = lambda modes: tuple((kx, ky, lam * complex(amp))
                                 for kx, ky, amp in modes)
        return BoundarySpec(phi0=sc(self.phi0), phi1=sc(self.phi1))

    def describe(self) -> str:
        fmt = lambda modes: ";".join(
            f"({kx},{ky},{complex(amp)})" for kx, ky, amp in modes) or "0"
        return f"phi0=[{fmt(self.phi0)}] phi1=[{fmt(self.phi1)}]"


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    max_halvings: int = 30
    admissibility_margin: float = 1e-8

    def __post_init__(self):
        for name in ("newton_tol", "admissibility_margin"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("max_newton_iters", "max_halvings"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class Solution:
    phi: ScalarField
    grid: Grid
    profile: object
    boundary: BoundarySpec
    converged: bool
    final_residual: float
    iterations: int
    residual_history: list = dc_field(default_factory=list)
    message: str = "ok"

    def interior_one_plus_a(self) -> np.ndarray:
        return 1.0 + self.phi.jets.a[1:-1]

    def interior_det_h(self) -> np.ndarray:
        """det of the strip-frame h matrix = (Phi_tt(1+a) - |Phi_tzbar|^2)/4."""
        return strip_h(self.phi)[3]

    @property
    def admissible(self) -> bool:
        try:
            admissible_frame(self.phi)
        except InadmissibleError:
            return False
        return True


# --- residual and linearization ---------------------------------------------

def residual(phi: ScalarField, profile) -> ScalarField:
    """Interior residual Phi_tt (1+a) - |Phi_tzbar|^2 - eps_tilde, that is
    4 det h - eps_tilde; boundary 0."""
    return _det_residual(phi.grid, strip_h(phi)[3], profile)


def _det_residual(grid: Grid, det, profile) -> ScalarField:
    """residual of the field whose strip_h frame has this det."""
    r = np.zeros(grid.shape)
    r[1:-1] = 4.0 * det - profile.rhs_on(grid)[1:-1]
    return ScalarField(grid, r)


def rhs_floor(profile, grid: Grid) -> float:
    """min of profile.rhs_on(grid); ValueError unless all positive, finite."""
    rhs = profile.rhs_on(grid)
    lo = float(rhs.min())
    if not (lo > 0.0 and float(rhs.max()) < np.inf):
        raise ValueError("right-hand side must be positive and finite")
    return lo


def linearize(phi: ScalarField, profile=None) -> spla.LinearOperator:
    """Exact Jacobian of the interior residual; identity rows on t-planes.

    First variation: (1+a) dPhi_tt + Phi_tt da - 2 Re(Phi_tz dPhi_tzbar),
    expressed through the same central stencils the residual uses, so Newton
    is exactly quadratic.  Applied matrix-free: it is 4 det(h) times the
    verifier's h_contract, through the same stencil planes, which also
    build the operator's ``preconditioner``.
    """
    grid = phi.grid
    frame = admissible_frame(phi)
    planes = h_coefficient_planes(grid, *frame[:3])
    del frame               # freed before the preconditioner allocates
    apply = second_order_stencil(grid, planes)

    def matvec(x):
        v = x.reshape(grid.shape)
        out = np.empty(grid.shape)
        out[0], out[-1] = v[0], v[-1]            # Dirichlet identity rows
        apply(v, out=out[1:-1])
        return out.ravel()

    n = grid.n_nodes
    jac = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    jac.preconditioner = _SeparablePreconditioner(grid, planes)
    return jac


class _SeparablePreconditioner:
    """Fast approximate inverse of the Jacobian.

    Uses the separable averaged operator ptt(t) d_tt + pxx(t) d_xx +
    pyy(t) d_yy (plane means of the true coefficients, mixed terms dropped):
    FFT-diagonal in the periodic x, y directions, tridiagonal in t, solved
    by a vectorized Thomas sweep.  The true operator differs only by small
    variable-coefficient and mixed-stencil corrections, so preconditioned
    GMRES converges in a handful of iterations.
    """

    def __init__(self, grid: Grid, coeffs: dict):
        nt, nx, ny = grid.shape
        self.grid = grid
        ptt_t = coeffs["tt"].mean(axis=(1, 2))         # (nt-2,)
        pxx_t = coeffs["xx"].mean(axis=(1, 2))
        pyy_t = coeffs["yy"].mean(axis=(1, 2))
        lam_x = (2.0 * np.cos(2.0 * np.pi * np.arange(nx) / nx) - 2.0) / grid.hx**2
        lam_y = (2.0 * np.cos(2.0 * np.pi * np.arange(ny) / ny) - 2.0) / grid.hy**2
        # per-mode diagonal shift, shape (nt-2, nx, ny)
        self.mu = (pxx_t[:, None, None] * lam_x[None, :, None]
                   + pyy_t[:, None, None] * lam_y[None, None, :])
        self.off = ptt_t / grid.ht**2                  # sub/super-diagonal
        self.diag = -2.0 * self.off[:, None, None] + self.mu
        self.applies = 0

    def solve(self, v: np.ndarray) -> np.ndarray:
        self.applies += 1
        grid = self.grid
        nt, nx, ny = grid.shape
        r = v.reshape(grid.shape)
        out = np.empty(grid.shape)
        out[0], out[-1] = r[0], r[-1]                  # identity rows
        rhs = np.fft.fft2(r[1:-1], axes=(1, 2))
        z0 = np.fft.fft2(r[0])
        z1 = np.fft.fft2(r[-1])
        rhs[0] -= self.off[0] * z0
        rhs[-1] -= self.off[-1] * z1
        # Thomas sweep over the t-index, vectorized over all (kx, ky) modes
        m = nt - 2
        cp = np.empty_like(rhs)
        dp = np.empty_like(rhs)
        cp[0] = self.off[0] / self.diag[0]
        dp[0] = rhs[0] / self.diag[0]
        for k in range(1, m):
            denom = self.diag[k] - self.off[k] * cp[k - 1]
            cp[k] = self.off[k] / denom
            dp[k] = (rhs[k] - self.off[k] * dp[k - 1]) / denom
        z = np.empty_like(rhs)
        z[m - 1] = dp[m - 1]
        for k in range(m - 2, -1, -1):
            z[k] = dp[k] - cp[k] * z[k + 1]
        out[1:-1] = np.fft.ifft2(z, axes=(1, 2)).real
        return out.ravel()

    def as_operator(self) -> spla.LinearOperator:
        n = self.grid.n_nodes
        return spla.LinearOperator((n, n), matvec=self.solve, dtype=float)


def _solve_linear(jac: spla.LinearOperator, rhs, rtol: float) -> np.ndarray:
    """Solve jac @ x = rhs to relative residual <= rtol by GMRES with the
    ``preconditioner`` that linearize attached to jac.

    A result is accepted on its true residual, whatever GMRES reports;
    otherwise SolverError carries GMRES info, its preconditioner applies
    (one per iteration plus one per restart) and the relative residual.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    pre = jac.preconditioner
    x, info = spla.gmres(jac, rhs, M=pre.as_operator(), rtol=0.1 * rtol,
                         atol=0.0, restart=60, maxiter=20)
    rel = np.linalg.norm(jac @ x - rhs) / rhs_norm
    if rel <= rtol:
        return x
    raise SolverError(f"gmres info={info}, {pre.applies} preconditioner "
                      f"applies, relative residual {rel:.3e} > {rtol:.1e}")


# --- Newton iteration --------------------------------------------------------

def default_initial_guess(grid: Grid, boundary: BoundarySpec, profile) -> ScalarField:
    """Linear blend of the boundary data plus a convex-in-t parabola.

    Phi0 = (1-t) phi0 + t phi1 + (max eps_tilde / 2) t(t-1), so that
    Phi0_tt = max eps_tilde > 0 keeps the first iterates admissible.
    """
    t = grid.t_values[:, None, None]
    p0 = boundary.evaluate(grid, 0)[None]
    p1 = boundary.evaluate(grid, 1)[None]
    c0 = 0.5 * float(profile.rhs_on(grid).max())
    vals = (1.0 - t) * p0 + t * p1 + c0 * t * (t - 1.0)
    return ScalarField(grid, vals)


def newton_solve(grid: Grid, boundary: BoundarySpec, profile,
                 config: SolverConfig = SolverConfig(),
                 initial: ScalarField | None = None) -> Solution:
    """Damped Newton with admissibility-guarded backtracking line search."""
    boundary.validate(grid)
    min_rhs = rhs_floor(profile, grid)

    phi = initial if initial is not None else default_initial_guess(
        grid, boundary, profile)
    # adjust to the exact Dirichlet data by a linear-in-t lift, so a warm
    # start with different boundary values stays smooth in t
    t = grid.t_values[:, None, None]
    vals = (phi.values
            + (1.0 - t) * (boundary.evaluate(grid, 0) - phi.values[0])[None]
            + t * (boundary.evaluate(grid, 1) - phi.values[-1])[None])
    vals[0] = boundary.evaluate(grid, 0)
    vals[-1] = boundary.evaluate(grid, 1)
    phi = ScalarField(grid, vals)
    if initial is not None:
        try:
            admissible_frame(phi)
        except InadmissibleError:
            phi = default_initial_guess(grid, boundary, profile)

    margin = config.admissibility_margin
    floor_quad = margin * min_rhs
    history = []

    def finish(msg, rn, k):     # converged exactly when msg is "ok"
        return Solution(phi=phi, grid=grid, profile=profile, boundary=boundary,
                        converged=msg == "ok", final_residual=rn, iterations=k,
                        residual_history=history, message=msg)

    r = residual(phi, profile)
    rn = float(np.abs(r.values[1:-1]).max())
    history.append(rn)
    for k in range(config.max_newton_iters + 1):
        if rn <= config.newton_tol:
            return finish("ok", rn, k)
        if k == config.max_newton_iters:
            return finish("max-iterations-exceeded", rn, k)
        try:
            jac = linearize(phi, profile)
        except InadmissibleError as exc:
            return finish(f"inadmissible iterate: {exc}", rn, k)
        try:
            step = _solve_linear(jac, -r.values.ravel(), LINEAR_RTOL)
        except SolverError as exc:
            return finish(f"linear-solve-failure: {exc}", rn, k)
        step = step.reshape(grid.shape)
        s = 1.0
        accepted = None
        for _ in range(config.max_halvings + 1):
            cand = ScalarField(grid, phi.values + s * step)
            # a margin-floored test, stricter than admissible_frame's
            frame = strip_h(cand)
            det = frame[3]
            inside = frame[0].min() > margin and 4.0 * det.min() > floor_quad
            del frame           # g, m, q freed before the residual is built
            if inside:
                rc = _det_residual(grid, det, profile)
                rcn = float(np.abs(rc.values[1:-1]).max())
                if rcn < rn:
                    accepted = (cand, rc, rcn)
                    break
            s *= 0.5
        del det             # freed before the next linearize allocates
        if accepted is None:
            return finish("line-search-exhausted", rn, k)
        phi, r, rn = accepted
        history.append(rn)


def _warm_start_ladder(grid: Grid, name: str, rungs,
                       config: SolverConfig) -> list[Solution]:
    """Solve each (value, boundary, profile) rung, warm-starting the next.

    Raises ContinuationFailure, labelled name=value, at the first rung that
    does not converge.
    """
    out = []
    warm = None
    for k, (value, boundary, profile) in enumerate(rungs):
        sol = newton_solve(grid, boundary, profile, config, initial=warm)
        if not sol.converged:
            raise ContinuationFailure(k, name, value, sol)
        out.append(sol)
        warm = sol.phi
    return out


def check_schedule(schedule) -> None:
    """ValueError unless schedule is non-empty, positive, finite, decreasing."""
    if not schedule or not all(0.0 < e < np.inf for e in schedule):
        raise ValueError("schedule must be non-empty, positive and finite")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")


def check_lambdas(lambdas) -> None:
    """ValueError unless the lambdas lie in [0, 1], in non-decreasing order."""
    if not all(0.0 <= lam <= 1.0 for lam in lambdas):
        raise ValueError("lambdas must lie in [0, 1]")
    if any(b < a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda ladder must be non-decreasing")


def continuation_solve(grid: Grid, boundary: BoundarySpec, schedule,
                       config: SolverConfig = SolverConfig(),
                       make_profile=AnnulusProfile) -> list[Solution]:
    """Solve along a strictly decreasing epsilon schedule with warm starts."""
    schedule = list(schedule)
    check_schedule(schedule)
    return _warm_start_ladder(
        grid, "eps", ((eps, boundary, make_profile(eps)) for eps in schedule),
        config)


def lambda_sweep(grid: Grid, boundary: BoundarySpec, lambdas, profile,
                 config: SolverConfig = SolverConfig()) -> list[Solution]:
    """Solve with boundary data scaled by each lambda in a non-decreasing ladder."""
    lambdas = list(lambdas)
    check_lambdas(lambdas)
    return _warm_start_ladder(
        grid, "lambda",
        ((lam, boundary.scaled(lam), profile) for lam in lambdas), config)
