import numpy as np
import pytest

from hcma import (AnnulusProfile, BoundarySpec, ConstantProfile, make_grid,
                  newton_solve)

COS_AMP = 0.005
COS_BOUNDARY = BoundarySpec(phi1=((1, 0, COS_AMP),))


@pytest.fixture
def strip_h_calls(monkeypatch):
    """Counts strip_h calls, through both modules that call it."""
    import hcma.quantities
    import hcma.solver
    calls = []
    real = hcma.quantities.strip_h

    def counted(phi):
        calls.append(phi)
        return real(phi)

    monkeypatch.setattr(hcma.quantities, "strip_h", counted)
    monkeypatch.setattr(hcma.solver, "strip_h", counted)
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
def eps_sweep(grid_mid):
    from hcma import continuation_solve
    return continuation_solve(grid_mid, COS_BOUNDARY, [1e-2, 1e-3, 1e-4])


def closed_form_constant(grid, eps0=0.25):
    t = grid.t_values[:, None, None]
    return (eps0 / 2.0) * t * (t - 1.0) * np.ones(grid.shape)


def closed_form_annulus(grid, eps=0.01):
    t = grid.t_values[:, None, None]
    return eps * (np.exp(2.0 * t) - 1.0
                  - (np.e**2 - 1.0) * t) * np.ones(grid.shape)
