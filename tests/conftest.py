import numpy as np
import pytest

from hcma import (AnnulusProfile, BoundarySpec, ConstantProfile, make_grid,
                  newton_solve)
from hcma.grid import CHUNK_NODES
from hcma.verify import run_checks
from oracle import FieldRhs

COS_AMP = 0.005
COS_BOUNDARY = BoundarySpec(phi1=((1, 0, COS_AMP),))


def run_check(solution, name):
    """The record of the one named check, as run_checks makes it."""
    return run_checks(solution, names=[name])[name]


def chunk_grids(modulus):
    """Grids whose nt - 2 interior t-planes make two whole t-chunks, two
    and part of a third, part of one chunk, and five one-plane chunks (an
    x-y plane of CHUNK_NODES nodes, as on the largest grids)."""
    per = max(1, CHUNK_NODES // (64 * 64))
    return [make_grid(2 + 2 * per, 64, 64, modulus),
            make_grid(3 + 2 * per, 64, 64, modulus),
            make_grid(9, 16, 16, modulus),
            make_grid(7, 128, CHUNK_NODES // 128, modulus)]


@pytest.fixture
def strip_h_calls(monkeypatch):
    """Records the (grid, window) of each strip_h call, through every
    module that calls it, and of each strip_frame call the verifier
    makes."""
    import hcma.quantities
    import hcma.solver
    import hcma.verify
    calls = []

    def counted(real):
        def call(grid, window, *jets):
            calls.append((grid, window))
            return real(grid, window, *jets)
        return call

    strip_h = counted(hcma.quantities.strip_h)
    monkeypatch.setattr(hcma.quantities, "strip_h", strip_h)
    monkeypatch.setattr(hcma.solver, "strip_h", strip_h)
    monkeypatch.setattr(hcma.verify, "strip_frame",
                        counted(hcma.verify.strip_frame))
    return calls


@pytest.fixture
def rk4_step_limit(monkeypatch):
    """trace_leaf's stepper raises RuntimeError after 1000 steps, so a leaf
    that never reaches t = 1 fails its test instead of hanging it."""
    import hcma.leaves
    real = hcma.leaves._rk4_steps

    def bounded(*args):
        for k, point in enumerate(real(*args)):
            if k > 1000:
                raise RuntimeError("rk4 step limit reached")
            yield point

    monkeypatch.setattr(hcma.leaves, "_rk4_steps", bounded)


@pytest.fixture(scope="session")
def grid_small():
    return make_grid(9, 16, 16)


@pytest.fixture(scope="session")
def grid_mid():
    return make_grid(17, 32, 32)


@pytest.fixture(scope="session")
def sol_zero_const(grid_mid):
    sol = newton_solve(grid_mid, BoundarySpec(), ConstantProfile(0.25))
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def sol_zero_annulus(grid_mid):
    sol = newton_solve(grid_mid, BoundarySpec(), AnnulusProfile(0.01))
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def sol_cos(grid_mid):
    sol = newton_solve(grid_mid, COS_BOUNDARY, AnnulusProfile(1e-3))
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def sol_cos_skew():
    """sol_cos on the skew lattice of modulus 0.3 + 1.1i."""
    sol = newton_solve(make_grid(17, 32, 32, 0.3 + 1.1j), COS_BOUNDARY,
                       AnnulusProfile(1e-3))
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def eps_sweep(grid_mid):
    from hcma import continuation_solve
    return list(continuation_solve(grid_mid, COS_BOUNDARY,
                                   [1e-2, 1e-3, 1e-4]))


def closed_form_constant(grid, eps0=0.25):
    t = grid.t_values[:, None, None]
    return (eps0 / 2.0) * t * (t - 1.0) * np.ones(grid.shape)


def closed_form_annulus(grid, eps=0.01):
    t = grid.t_values[:, None, None]
    return eps * (np.exp(2.0 * t) - 1.0
                  - (np.e**2 - 1.0) * t) * np.ones(grid.shape)


def manufactured(grid, kx, ky, amp):
    """(boundary, rhs, exact) of the manufactured problem with solution
    Phi* = 0.1 t^2 + amp (1 + 2t) cos 2 pi (kx x + ky y).

    f = Phi_tt (1 + a) - |Phi_tzbar|^2 comes from the analytic mode
    derivatives (BoundarySpec.analytic_jets' rule, d/dz e = i s e with s =
    2 pi (c1 kx + c2 ky)): d/dz cos = -s sin, so Phi_tt = 0.2, a = -|s|^2
    amp (1 + 2t) cos and |Phi_tzbar|^2 = 4 amp^2 |s|^2 sin^2.  A (1, 1)
    mode exercises the skew lattice's xy leg, and Phi_tzbar the t-mixed
    legs."""
    c1, c2 = grid.lattice.dz_coefficients
    s2 = abs(2.0 * np.pi * (c1 * kx + c2 * ky)) ** 2
    t, x, y = np.meshgrid(grid.t_values, grid.x_values, grid.y_values,
                          indexing="ij")
    theta = 2.0 * np.pi * (kx * x + ky * y)
    exact = 0.1 * t**2 + amp * (1.0 + 2.0 * t) * np.cos(theta)
    f = (0.2 * (1.0 - s2 * amp * (1.0 + 2.0 * t) * np.cos(theta))
         - 4.0 * amp**2 * s2 * np.sin(theta) ** 2)
    boundary = BoundarySpec(phi0=((kx, ky, amp),),
                            phi1=((0, 0, 0.1), (kx, ky, 3.0 * amp)))
    return boundary, FieldRhs(grid, f), exact
