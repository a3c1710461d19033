"""Damped Newton solver for the regularized Monge-Ampere Dirichlet problem.

The scalar equation solved on [0,1]_t x T^2 is

    Phi_tt (1 + a) - |Phi_tzbar|^2 = eps_tilde(t),      a = Phi_zzbar,

with Dirichlet data on the t = 0, 1 planes.  In Annulus mode
eps_tilde(t) = 4 eps e^{2t}, the pullback of the constant right-hand side
eps on the annulus {1 < |tau| < e} under tau = e^{t+is}; Constant mode uses
eps_tilde = eps0 directly.  A profile is any object with rhs_on(grid) and
describe().
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field, fields as dc_fields

import numpy as np
import scipy.sparse.linalg as spla

from .grid import (Grid, GridError, ScalarField, dx1, dy1,
                   second_order_stencil, wirt_parts, wirt_zzbar)
from .quantities import (InadmissibleError, NonConvexBoundaryError,
                         admissible_frame, check_frame, strip_h)

LINEAR_RTOL = 1e-12    # floor of the forcing term of each Newton linear solve


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

    def _modes(self, grid: Grid, which: int):
        """(kx, ky, w) per mode of phi<which>, w = Re amp exp(2 pi i (kx x
        + ky y)) on the torus grid."""
        x = grid.x_values[:, None]
        y = grid.y_values[None, :]
        for kx, ky, amp in self.phi0 if which == 0 else self.phi1:
            e = complex(amp) * np.exp(2j * np.pi * (kx * x + ky * y))
            yield kx, ky, e.real

    def evaluate(self, grid: Grid, which: int) -> np.ndarray:
        out = np.zeros((grid.nx, grid.ny))
        for _, _, w in self._modes(grid, which):
            out += w
        return out

    def analytic_jets(self, grid: Grid, which: int):
        """The evaluated plane and its analytic (a, b) = (Phi_zzbar, Phi_zz):
        on a mode d/dz is the factor i s, s = 2 pi (c1 kx + c2 ky), so a
        mode w adds w to the plane, -|s|^2 w to a and -s^2 w to b."""
        c1, c2 = grid.lattice.dz_coefficients
        plane = np.zeros((grid.nx, grid.ny))
        a = np.zeros((grid.nx, grid.ny))
        b = np.zeros((grid.nx, grid.ny), dtype=complex)
        for kx, ky, w in self._modes(grid, which):
            s = 2.0 * np.pi * (c1 * kx + c2 * ky)
            plane += w
            a -= abs(s) ** 2 * w
            b -= s ** 2 * w
        return plane, a, b

    def validate(self, grid: Grid) -> None:
        c1, c2 = grid.lattice.dz_coefficients
        for which, modes in enumerate((self.phi0, self.phi1)):
            for i, (kx, ky, _) in enumerate(modes):
                try:        # |s| < 1e154 keeps |s|^2 a finite float
                    ok = abs(2.0 * np.pi * (c1 * kx + c2 * ky)) < 1e154
                except OverflowError:       # an int past the float range
                    ok = False
                if not ok:
                    raise NonConvexBoundaryError(
                        f"phi{which} mode {i}: wave numbers too large, the "
                        f"derivatives leave the float range")
            with np.errstate(all="ignore"):     # an overflow fails below
                plane, a, b = self.analytic_jets(grid, which)
                gap = (1.0 + a) - np.abs(b)
            bad = np.unravel_index(np.argmin(gap), gap.shape)   # NaN if any
            if not gap[bad] > 0.0:
                raise NonConvexBoundaryError(
                    f"phi{which} not omega_0-convex: gap {gap[bad]:.3e} at "
                    f"node (x,y)={tuple(map(int, bad))}")
            if not np.isfinite(plane).all():
                raise NonConvexBoundaryError(
                    f"phi{which} not finite on the grid: its modes sum past "
                    f"the float range")

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
        return 1.0 + wirt_zzbar(self.grid, self.phi.values[1:-1])

    @property
    def admissible(self) -> bool:
        try:
            admissible_frame(self.phi)
        except InadmissibleError:
            return False
        return True


# --- residual and linearization ---------------------------------------------

def residual(phi: ScalarField, profile) -> ScalarField:
    """Residual Phi_tt (1+a) - |Phi_tzbar|^2 - eps_tilde, that is 4 det h -
    eps_tilde, on the interior t-planes; 0 on the two Dirichlet planes."""
    r = _det_residual(phi.grid, strip_h(phi.grid, phi.values)[3], profile)
    return ScalarField(phi.grid, np.pad(r, ((1, 1), (0, 0), (0, 0))))


def _det_residual(grid: Grid, det, profile) -> np.ndarray:
    """Interior 4 det h - eps_tilde of the field whose strip_h det this is."""
    return 4.0 * det - profile.rhs_on(grid)[1:-1]


def rhs_floor(profile, grid: Grid) -> float:
    """min of profile.rhs_on(grid); ValueError unless all positive, finite,
    and of finite 2-norm over the grid, the norm the linear solves take:
    its square, summed by einsum on the broadcast right-hand side without
    a grid-sized copy, is nx ny sum_t eps_tilde(t)^2 for a t-profile."""
    rhs = profile.rhs_on(grid)
    lo = float(rhs.min())
    with np.errstate(over="ignore"):
        norm2 = float(np.einsum("ijk,ijk->", rhs, rhs))
    if not (lo > 0.0 and float(rhs.max()) < np.inf and norm2 < np.inf):
        raise ValueError("right-hand side must be positive and finite, "
                         "with a finite norm over the grid")
    return lo


def linearize(grid: Grid, frame):
    """(jacobian, preconditioner) of the interior residual in the (nt-2)
    nx ny interior unknowns, since a Newton correction vanishes on the
    Dirichlet planes.

    jacobian(x) is the exact first variation (1+a) dPhi_tt + Phi_tt da -
    2 Re(Phi_tz dPhi_tzbar), expressed through the same central stencils
    the residual uses, so Newton is exactly quadratic.  Applied matrix-free
    to x where it lies, with one zero plane for both Dirichlet neighbours:
    it is 4 det(h) times the verifier's h_contract, the same stencil of 4
    adj(h).  frame is the iterate's strip_h frame, checked by check_frame;
    the _SeparablePreconditioner takes its plane means from g and q.
    """
    g, m, q = frame[:3]
    preconditioner = _SeparablePreconditioner(grid, g, q)
    apply = second_order_stencil(grid, g, m, q)
    shape, zero = g.shape, np.zeros(g.shape[1:])

    def jacobian(x):
        return apply(x.reshape(shape), zero, zero).ravel()

    return jacobian, preconditioner


class _SeparablePreconditioner:
    """Fast approximate inverse of the Jacobian, on the interior unknowns.

    Uses the separable averaged operator ptt(t) d_tt + pxx(t) d_xx +
    pyy(t) d_yy (plane means of the true coefficients: of g, and of q
    times 4|k1|^2 and 4|k2|^2; mixed terms dropped, zero on the Dirichlet
    planes), diagonal under the real FFT in x, y and tridiagonal in t: its
    Thomas pivot reciprocals inv are computed once, and an apply is an
    rfft2 of the nt-2 interior planes, a forward and back sweep in place
    (each factor off_k inv_k formed as it is used), and an irfft2.  GMRES
    then needs a handful of iterations for the small variable-coefficient
    and mixed-stencil corrections.
    """

    def __init__(self, grid: Grid, g: np.ndarray, q: np.ndarray):
        nt, nx, ny = grid.shape
        self.shape = (nt - 2, nx, ny)
        pxx_t, pyy_t = (4.0 * abs(k) ** 2 * q.mean(axis=(1, 2))
                        for k in grid.lattice.dz_coefficients)
        lam_x = (2.0 * np.cos(2.0 * np.pi * np.arange(nx) / nx) - 2.0) / grid.hx**2
        lam_y = (2.0 * np.cos(2.0 * np.pi * np.arange(ny // 2 + 1) / ny)
                 - 2.0) / grid.hy**2
        self.off = off = g.mean(axis=(1, 2)) / grid.ht**2     # (nt-2,)
        # per-mode diagonal, made in place 1 / (diag_k - off_k cp_{k-1})
        # with the factor cp_{k-1} = off_{k-1} inv_{k-1}
        self.inv = inv = -2.0 * off[:, None, None] + (
            pxx_t[:, None, None] * lam_x[None, :, None]
            + pyy_t[:, None, None] * lam_y[None, None, :])
        inv[0] = 1.0 / inv[0]
        for k in range(1, nt - 2):
            inv[k] = 1.0 / (inv[k] - off[k] * (off[k - 1] * inv[k - 1]))
        self.applies = 0

    def solve(self, v: np.ndarray) -> np.ndarray:
        self.applies += 1
        off, inv = self.off, self.inv
        rhs = np.fft.rfft2(v.reshape(self.shape),
                           out=np.empty_like(inv, dtype=complex))
        rhs[0] *= inv[0]
        for k in range(1, len(rhs)):
            rhs[k] -= off[k] * rhs[k - 1]
            rhs[k] *= inv[k]
        for k in range(len(rhs) - 2, -1, -1):
            rhs[k] -= (off[k] * inv[k]) * rhs[k + 1]
        # irfft2 as its two 1-D passes, in place: irfft2 ignores out=
        out = np.fft.irfft(np.fft.ifft(rhs, axis=1, out=rhs), self.shape[2])
        return out.ravel()


def _solve_linear(jacobian, preconditioner, rhs, rtol: float) -> np.ndarray:
    """Solve jacobian(x) = rhs to relative residual <= rtol, Newton's
    forcing term, by GMRES restarted every 20 iterations, 60 times at most,
    with preconditioner.solve: the pair linearize returns.  The only code
    that builds scipy operators.

    A result is accepted on its true residual: scipy's GMRES reports info 0
    only when its final r = rhs - jacobian(x) meets rtol, and any other
    info is judged on r recomputed here.  A miss raises a SolverError that
    carries the preconditioner applies (one per iteration, one per restart
    cycle and one for scipy's inner tolerance), scipy's info (which reads
    maxiter whenever GMRES stops short, after a breakdown too) and the
    relative residual, or the size of the workspace it ran out of: (restart
    + 1) float64 vectors of the (nt-2) nx ny interior unknowns.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    A, M = (spla.LinearOperator((rhs.size,) * 2, matvec=f, dtype=float)
            for f in (jacobian, preconditioner.solve))
    restart = 20
    try:
        x, info = spla.gmres(A, rhs, M=M, rtol=rtol, atol=0.0,
                             restart=restart, maxiter=60)
    except MemoryError as exc:
        raise SolverError(f"out of memory for a gmres workspace of "
                          f"{(restart + 1) * rhs.size * 8} bytes") from exc
    if info != 0:
        rel = np.linalg.norm(jacobian(x) - rhs) / rhs_norm
        if not rel <= rtol:
            raise SolverError(
                f"gmres stopped short of rtol {rtol:.1e} after "
                f"{preconditioner.applies} preconditioner applies "
                f"(scipy info={info}): relative residual {rel:.3e}")
    return x


# --- Newton iteration --------------------------------------------------------

def default_initial_guess(grid: Grid, boundary: BoundarySpec, profile) -> ScalarField:
    """Discrete subsolution: the linear blend (1-t) phi0 + t phi1 plus a
    convex psi(t) with psi(0) = psi(1) = 0 (X. X. Chen's continuity start).

    On each interior t-plane the dt2 second difference of psi is the plane
    max of (eps_tilde + 4|m|^2)/g over the blend's strip_h frame, read off
    the boundary planes as the blend is linear in t: g = 1 + a blends
    theirs, 4|m|^2 = |d_z (phi1 - phi0)|^2.  psi depends on t only, so it
    leaves g and m unchanged, and 4 det h = Phi_tt g - 4|m|^2 >= eps_tilde
    at every interior node: the start is admissible wherever the blend has
    1 + a > 0.  Where it has not, check_frame rejects the start.
    """
    t = grid.t_values[:, None, None]
    p0, p1 = boundary.evaluate(grid, 0)[None], boundary.evaluate(grid, 1)[None]
    tz = wirt_parts(grid, dx1(grid, p1 - p0), dy1(grid, p1 - p0))  # Phi_tz
    need = (tz[0] * tz[0] + tz[1] * tz[1]) + profile.rhs_on(grid)[1:-1]
    g = 1.0 + ((1.0 - t[1:-1]) * wirt_zzbar(grid, p0)
               + t[1:-1] * wirt_zzbar(grid, p1))
    np.divide(need, g, out=need, where=g > 0.0)   # no psi helps where g <= 0
    # psi's second differences are ht^2 times the plane maxima: summed once
    # they are its first differences (up to a constant), summed twice psi
    # itself, zero at t = 0; the linear term then makes psi(1) = 0
    slope = np.zeros(grid.nt - 1)
    np.cumsum(need.max(axis=(1, 2)) * grid.ht**2, out=slope[1:])
    del need, g                         # freed before the blend is made
    psi = np.zeros(grid.nt)
    np.cumsum(slope, out=psi[1:])
    psi -= grid.t_values * psi[-1]
    return ScalarField(grid, (1.0 - t) * p0 + t * p1 + psi[:, None, None])


def newton_solve(grid: Grid, boundary: BoundarySpec, profile,
                 config: SolverConfig = SolverConfig(),
                 initial: ScalarField | tuple[ScalarField, ...] | None = None
                 ) -> Solution:
    """Damped Newton with admissibility-guarded backtracking line search.
    One evaluation per field (each start, each candidate) makes its strip_h
    frame, which gives its admissibility and residual, and an accepted
    field's frame its Jacobian.  A lifted start or a candidate that is not
    finite, or whose residual overflows, is passed over like an
    inadmissible one; such a cold start raises SolverError.

    initial is a warm start or a tuple of them.  Each is lifted onto the
    exact Dirichlet data by a linear-in-t correction, so different boundary
    values stay smooth in t, and the admissible lifted start of least
    residual (the first on a tie) is the start; without one the solve
    starts cold, from default_initial_guess.
    """
    boundary.validate(grid)
    min_rhs = rhs_floor(profile, grid)
    if isinstance(initial, ScalarField):
        initial = (initial,)

    def frame_and_residual(phi):    # GridError if the residual overflows
        frame = strip_h(grid, phi.values)
        r = _det_residual(grid, frame[3], profile)
        rn = float(np.abs(r).max())
        if not rn < np.inf:
            raise GridError("field contains non-finite values")
        return phi, frame, r, rn

    start = None        # (phi, frame, r, rn)
    if initial:
        p0, p1 = boundary.evaluate(grid, 0), boundary.evaluate(grid, 1)
        t = grid.t_values[:, None, None]
        for warm in initial:
            vals = (warm.values + (1.0 - t) * (p0 - warm.values[0])
                    + t * (p1 - warm.values[-1]))
            vals[0], vals[-1] = p0, p1
            try:
                lifted = frame_and_residual(ScalarField(grid, vals))
                check_frame(lifted[1])
            except (InadmissibleError, GridError):  # GridError: not finite
                continue
            if start is None or lifted[3] < start[3]:
                start = lifted
        vals = lifted = None    # only the start stays alive
    if start is None:
        try:
            start = frame_and_residual(default_initial_guess(grid, boundary,
                                                             profile))
        except GridError as exc:
            raise SolverError(f"cold start not finite: {exc}") from None
    phi, frame, r, rn = start
    del start           # frees the start's frame once linearize is done

    margin = config.admissibility_margin
    det_floor = 0.25 * margin * min_rhs     # 4 det h = eps_tilde when solved
    history = []

    def finish(msg, rn, k):     # converged exactly when msg is "ok"
        return Solution(phi=phi, grid=grid, profile=profile, boundary=boundary,
                        converged=msg == "ok", final_residual=rn, iterations=k,
                        residual_history=history, message=msg)

    history.append(rn)
    for k in range(config.max_newton_iters + 1):
        if rn <= config.newton_tol:
            return finish("ok", rn, k)
        if k == config.max_newton_iters:
            return finish("max-iterations-exceeded", rn, k)
        try:
            jacobian, preconditioner = linearize(grid, check_frame(frame))
        except InadmissibleError as exc:
            return finish(f"inadmissible iterate: {exc}", rn, k)
        del frame               # freed before GMRES allocates
        # of order rn, so the convergence stays quadratic, but no smaller
        # than a linear residual of newton_tol / 2 in the 2-norm needs
        rtol = min(1e-2, max(rn, LINEAR_RTOL,
                             0.5 * config.newton_tol / np.linalg.norm(r)))
        try:
            step = _solve_linear(jacobian, preconditioner, r.ravel(), rtol)
        except SolverError as exc:
            return finish(f"linear-solve-failure: {exc}", rn, k)
        del jacobian, preconditioner    # freed before the line search
        step = step.reshape(r.shape)    # J step = r: Newton's move is -step
        for halvings in range(config.max_halvings + 1):
            vals = np.array(phi.values)
            vals[1:-1] -= 0.5 ** halvings * step
            try:                # margin-floored: stricter than admissibility
                cand = frame_and_residual(ScalarField(grid, vals))
                check_frame(cand[1], margin, det_floor)
            except (InadmissibleError, GridError):
                continue
            if cand[3] < rn:
                break
        else:
            return finish("line-search-exhausted", rn, k)
        phi, frame, r, rn = cand
        del step, cand, vals            # freed before the next GMRES
        history.append(rn)


def _warm_start_ladder(grid: Grid, name: str, rungs,
                       config: SolverConfig) -> Iterator[Solution]:
    """Solve each (value, boundary, profile) rung, warm-starting the next,
    and yield each solution as it converges.

    Rung 0 starts cold and rung 1 from rung 0's solution.  Rung k >= 2
    offers newton_solve two warm starts: the secant predictor
    phi_{k-1} + w (phi_{k-1} - phi_{k-2}), w = (v_k - v_{k-1}) /
    (v_{k-1} - v_{k-2}) in the rung values v, whose residual is O(dv^2)
    where the previous solution's is O(dv), then the previous solution.
    newton_solve lifts both onto the rung's boundary data and starts from
    the admissible one of smaller residual, so round-off that a huge w
    amplifies costs no step.  After a repeated value (v_{k-1} = v_{k-2}),
    or when the predicted field is not finite, only the previous solution
    is offered.  Each rung converges to within config.newton_tol, not
    necessarily to round-off.  The ladder holds phi_{k-1} and phi_{k-2}
    only: a rung the caller drops is freed once two more are drawn.

    Raises ContinuationFailure, labelled name=value, when the first rung
    that does not converge is drawn.
    """
    older = warm = None     # (value, phi) of rungs k-2 and k-1
    for k, (value, boundary, profile) in enumerate(rungs):
        starts = None if warm is None else warm[1]
        if older is not None and warm[0] != older[0]:
            try:
                with np.errstate(all="ignore"):     # non-finite fails below
                    w = (value - warm[0]) / (warm[0] - older[0])
                    guess = ScalarField(grid, warm[1].values + w * (
                        warm[1].values - older[1].values))
                starts = (guess, warm[1])
            except GridError:
                pass
        sol = newton_solve(grid, boundary, profile, config, initial=starts)
        starts = guess = None   # the prediction is not held past its rung
        if not sol.converged:
            raise ContinuationFailure(k, name, value, sol)
        older, warm = warm, (value, sol.phi)
        yield sol


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
                       make_profile=AnnulusProfile) -> Iterator[Solution]:
    """Solve along a strictly decreasing epsilon schedule with warm starts:
    rung 0 cold, rung 1 from rung 0's solution, rung k >= 2 from the secant
    in eps, or from rung k-1's solution if that is inadmissible (see
    _warm_start_ladder).  Each rung converges to within config.newton_tol.
    The schedule is checked at once; the rungs are solved as the returned
    iterator is drawn."""
    schedule = list(schedule)
    check_schedule(schedule)
    return _warm_start_ladder(
        grid, "eps", ((eps, boundary, make_profile(eps)) for eps in schedule),
        config)


def lambda_sweep(grid: Grid, boundary: BoundarySpec, lambdas, profile,
                 config: SolverConfig = SolverConfig()) -> Iterator[Solution]:
    """Solve with boundary data scaled by each lambda in a non-decreasing
    ladder: rung 0 cold, rung 1 from rung 0's solution, rung k >= 2 from
    the secant in lambda, or from rung k-1's solution after a repeated
    lambda or if the secant is inadmissible (see _warm_start_ladder).  Each
    rung converges to within config.newton_tol.  The ladder is checked at
    once; the rungs are solved as the returned iterator is drawn."""
    lambdas = list(lambdas)
    check_lambdas(lambdas)
    return _warm_start_ladder(
        grid, "lambda",
        ((lam, boundary.scaled(lam), profile) for lam in lambdas), config)
