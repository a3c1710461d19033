"""Finite-difference solver and estimate verifier for the regularized
complex Monge-Ampere geodesic equation on [0,1] x flat torus."""

__version__ = "0.1.0"

from .grid import Grid, ScalarField, TorusLattice, make_grid  # noqa: F401
from .solver import (AnnulusProfile, BoundarySpec, ConstantProfile,  # noqa: F401
                     Solution, SolverConfig, continuation_solve, lambda_sweep,
                     newton_solve)
