"""Metamorphic relations: the solve and its report follow the discrete
problem's symmetries, so each is checked against itself on transformed
data, with no reference computation.

- constants: (0, 0) modes alpha in phi0 and beta in phi1 give phi +
  alpha (1 - t) + beta t; Phi_tt, Phi_tzbar and a do not change;
- translation: each mode's amplitude times e^{-2 pi i kx s / nx} gives
  phi rolled by s cells in x, and likewise in y;
- transposition, on the square lattice: each mode's (kx, ky) swapped
  gives phi with x and y swapped;
- time reversal, under ConstantProfile: phi0 and phi1 swapped give
  phi(1 - t).

Each runs on 17x32x32 (one t-chunk) and 17x64x64 (chunks of 8 and 7
planes), on the square lattice and on modulus 0.3+1.1i where the relation
holds there.  Compared: phi, the Newton step count, and each record's
verdict and measured; converged.measured, a round-off residual, only
against newton_tol.  The worst nodes of the four records whose fields
come from a and b alone are compared under the relation's map where the
extremum is attained at a single node: a y-independent boundary, for
one, ties along y.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hcma import (AnnulusProfile, BoundarySpec, ConstantProfile, SolverConfig,
                  make_grid, newton_solve)
from hcma.grid import spatial_ab
from hcma.verify import q_from_ab, run_checks

GRIDS = {"one-chunk": (17, 32, 32), "two-chunks": (17, 64, 64)}
MODULI = {"square": 1j, "skew": 0.3 + 1.1j}
# Over 40 random draws of each relation per grid and lattice (amplitudes
# and constants up to 5e-3), phi obeyed every relation to 1.3e-17 absolute
# (max|phi| about 1e-2) with equal Newton step counts, and measured
# agreed to 5.1e-8 relative in ab_equations and ekq_subharmonic, which
# contract second differences of a, b and e^{KQ}, to 3.6e-11 in lq_ratio
# (L of the composite Q), and to 1.1e-12 in the rest
PHI_ROUND_OFF = 1e-15
REL = {"ab_equations": 2e-7, "ekq_subharmonic": 2e-7, "lq_ratio": 2e-10}
REL_REST = 1e-11
# a worst node is compared where the runner-up is this far below it
TIE_REL = 1e-9

AMPS = st.floats(1e-3, 5e-3)
PHASES = st.floats(0.0, 2.0 * math.pi)
# no shrinking: each example is a pair of solves, and shrinking a failure
# took minutes without making it any plainer
SETTINGS = settings(max_examples=2, deadline=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))


def grids(*moduli):
    return pytest.mark.parametrize(
        "dims, modulus",
        [pytest.param(GRIDS[g], MODULI[m], id=f"{g}-{m}")
         for g in GRIDS for m in moduli])


def mode(kx, ky, amp, phase):
    return (kx, ky, amp * complex(math.cos(phase), math.sin(phase)))


def solve_and_check(grid, boundary, profile):
    sol = newton_solve(grid, boundary, profile)
    assert sol.converged
    return sol, run_checks(sol, seed=0)


def extremal_fields(sol):
    """The interior field whose max (min, for metric_lower_bound: its
    negative) each worst-node record reports."""
    a, b = spatial_ab(sol.grid, sol.phi.values)
    opa, abs_b = 1.0 + a[1:-1], np.abs(b[1:-1])
    return {"convexity": abs_b - opa, "max_principle_Q": q_from_ab(a, b)[1:-1],
            "metric_lower_bound": -opa, "upper_bound": abs_b + opa}


def single_node(field) -> bool:
    best, runner_up = np.sort(field, axis=None)[-1:-3:-1]
    return best - runner_up > TIE_REL * max(1.0, abs(best))


def assert_related(base, other, phi_map, node_map):
    """other solves the transformed problem of base: phi_map(base's phi)
    to PHI_ROUND_OFF, and the report under node_map."""
    (sol, report), (sol2, report2) = base, other
    assert sol2.iterations == sol.iterations
    err = np.abs(sol2.phi.values - phi_map(sol.phi.values)).max()
    assert err <= PHI_ROUND_OFF
    fields = extremal_fields(sol)
    assert [r.name for r in report.checks] == [r.name for r in report2.checks]
    for r, r2 in zip(report.checks, report2.checks):
        assert (r2.passed, r2.vacuous) == (r.passed, r.vacuous), r.name
        if r.name == "converged":
            assert r2.measured <= SolverConfig().newton_tol
            continue
        rel = REL.get(r.name, REL_REST)
        assert r2.measured == pytest.approx(r.measured, rel=rel, abs=0.0), (
            r.name)
        if r.name in fields and single_node(fields[r.name]):
            assert tuple(r2.worst_node) == node_map(tuple(r.worst_node)), (
                r.name)


def annulus_problem(dims, modulus, amps, phases):
    """phi1 = a (1, 0) mode and a (1, 1) mode under AnnulusProfile(1e-3):
    both lattice directions and the xy leg of the skew lattice."""
    boundary = BoundarySpec(phi1=(mode(1, 0, amps[0], phases[0]),
                                  mode(1, 1, amps[1], phases[1])))
    return make_grid(*dims, modulus), boundary, AnnulusProfile(1e-3)


@grids("square", "skew")
@given(amps=st.tuples(AMPS, AMPS), phases=st.tuples(PHASES, PHASES),
       alpha=st.floats(-5e-3, 5e-3), beta=st.floats(-5e-3, 5e-3))
@SETTINGS
def test_constants(dims, modulus, amps, phases, alpha, beta):
    grid, boundary, profile = annulus_problem(dims, modulus, amps, phases)
    shifted = BoundarySpec(phi0=boundary.phi0 + ((0, 0, alpha),),
                           phi1=boundary.phi1 + ((0, 0, beta),))
    t = grid.t_values[:, None, None]
    assert_related(solve_and_check(grid, boundary, profile),
                   solve_and_check(grid, shifted, profile),
                   lambda v: v + (alpha * (1.0 - t) + beta * t),
                   lambda node: node)


@grids("square", "skew")
@given(amps=st.tuples(AMPS, AMPS), phases=st.tuples(PHASES, PHASES),
       axis=st.sampled_from([1, 2]), s=st.integers(1, 31))
@SETTINGS
def test_translation(dims, modulus, amps, phases, axis, s):
    grid, boundary, profile = annulus_problem(dims, modulus, amps, phases)
    n = grid.shape[axis]

    def roll(modes):
        return tuple((kx, ky, amp * np.exp(-2j * np.pi * (kx, ky)[axis - 1]
                                           * s / n))
                     for kx, ky, amp in modes)

    def node_map(node):
        node = list(node)
        node[axis] = (node[axis] + s) % n
        return tuple(node)

    assert_related(solve_and_check(grid, boundary, profile),
                   solve_and_check(grid, BoundarySpec(phi1=roll(
                       boundary.phi1)), profile),
                   lambda v: np.roll(v, s, axis=axis), node_map)


@grids("square")
@given(amps=st.tuples(AMPS, AMPS), phases=st.tuples(PHASES, PHASES))
@SETTINGS
def test_transposition(dims, modulus, amps, phases):
    grid, boundary, profile = annulus_problem(dims, modulus, amps, phases)
    swapped = BoundarySpec(phi1=tuple((ky, kx, amp)
                                      for kx, ky, amp in boundary.phi1))
    assert_related(solve_and_check(grid, boundary, profile),
                   solve_and_check(grid, swapped, profile),
                   lambda v: v.transpose(0, 2, 1),
                   lambda node: (node[0], node[2], node[1]))


@grids("square", "skew")
@given(amps=st.tuples(AMPS, AMPS), phases=st.tuples(PHASES, PHASES))
@SETTINGS
def test_time_reversal(dims, modulus, amps, phases):
    grid, profile = make_grid(*dims, modulus), ConstantProfile(4e-3)
    phi0 = (mode(1, 1, amps[0], phases[0]),)
    phi1 = (mode(1, 0, amps[1], phases[1]),)
    assert_related(solve_and_check(grid, BoundarySpec(phi0, phi1), profile),
                   solve_and_check(grid, BoundarySpec(phi1, phi0), profile),
                   lambda v: v[::-1],
                   lambda node: (grid.nt - 1 - node[0], *node[1:]))
