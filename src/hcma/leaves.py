"""Approximate Monge-Ampere characteristics traced through a solution.

The kernel direction of the degenerate product metric is
d_X = d_zeta - Phi_zeta zbar g^{-1} d_z, so along the real zeta-direction a
leaf satisfies dz/dt = -Phi_tzbar / (2 (1+a)).  At epsilon > 0 exact kernels
do not exist; the traced curves are approximate characteristics and every
threshold carries epsilon-dependent slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (Grid, ScalarField, dt1, interpolate_array, plane_jets,
                   wirt_parts)


T_END = 1.0          # leaves are traced up to the t = 1 plane
QB_LIMIT = 0.5       # Q_B bound of the leaf-convexity hypothesis


class LeafError(ValueError):
    pass


@dataclass
class LeafPath:
    ts: np.ndarray
    zs: np.ndarray                    # complex, reduced modulo the lattice
    qb_samples: np.ndarray
    aborted: bool = False
    message: str = "ok"

    @property
    def n_samples(self) -> int:
        return len(self.ts)


def _z_to_lattice(z: complex, modulus: complex) -> tuple[float, float]:
    """Lattice coordinates (x, y) of z = x + modulus*y, wrapped to [0, 1)."""
    y = z.imag / modulus.imag
    x = z.real - modulus.real * y
    return x % 1.0, y % 1.0


def _rk4_steps(velocity, t, z, step):
    """Classical explicit 4th-order integration of dz/dt = velocity(t, z).

    Yields the start (t, z) and then (t, z) after each step; the last step
    is shortened to land exactly on T_END.  Whatever `velocity` raises
    propagates, after every point already reached has been yielded.
    """
    z = complex(z)
    yield t, z
    while t < T_END - 1e-14:
        h = min(step, T_END - t)
        k1 = velocity(t, z)
        k2 = velocity(t + h / 2, z + h / 2 * k1)
        k3 = velocity(t + h / 2, z + h / 2 * k2)
        k4 = velocity(t + h, z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        yield t, z


def leaf_fields(phi: ScalarField) -> tuple:
    """(a, b, Phi_tx, Phi_ty) of phi on the whole grid, from one plane_jets
    pad and dt1: what trace_leaf interpolates, built once for every leaf."""
    a, b, d_x, d_y = plane_jets(phi.grid, phi.values)
    return a, b, dt1(phi.grid, d_x), dt1(phi.grid, d_y)


def trace_leaf(grid: Grid, fields: tuple, start: tuple,
               step: float = 0.01) -> LeafPath:
    """Trace one leaf from (t0, z0) to t = 1 with trilinear interpolation
    of fields, the leaf_fields of the solution's phi on grid."""
    t0, z0 = start
    if not (0.0 <= t0 < 1.0):
        raise LeafError(f"start t = {t0} outside [0, 1)")
    if not np.isfinite(z0):
        raise LeafError(f"start z = {z0} is not finite")
    if not 0.0 < step < np.inf:
        raise LeafError(f"step must be positive and finite, got {step}")
    # t + step rounds back to t unless step exceeds half the float spacing
    # at t, which is widest just below T_END
    if not step > 0.5 * np.spacing(T_END - 1e-14):
        raise LeafError(f"step {step} is too small to advance t")
    modulus = grid.lattice.modulus
    a_arr, b_arr, d_tx, d_ty = fields

    def velocity(t, z):
        x, y = _z_to_lattice(complex(z), modulus)
        a = float(interpolate_array(grid, a_arr, t, x, y))
        tz = wirt_parts(grid, interpolate_array(grid, d_tx, t, x, y),
                        interpolate_array(grid, d_ty, t, x, y))   # Phi_tz
        if 1.0 + a <= 0.0:
            raise _DegenerateLeafState(t, z)
        return -complex(tz[0], -tz[1]) / (2.0 * (1.0 + a))

    points = []
    aborted, message = False, "ok"
    try:
        for point in _rk4_steps(velocity, t0, z0, step):
            points.append(point)
    except _DegenerateLeafState as exc:
        aborted, message = True, f"degenerate state near t={exc.t:.4f}"
    ts = np.array([t for t, _ in points])

    qb_s = np.empty(len(ts))
    zs_mod = np.empty(len(ts), dtype=complex)
    for k, (t, z) in enumerate(points):
        x, y = _z_to_lattice(complex(z), modulus)
        a = float(interpolate_array(grid, a_arr, t, x, y))
        b = interpolate_array(grid, b_arr, t, x, y)
        qb_s[k] = abs(b) ** 2 / (1.0 + a) ** 2 if 1.0 + a > 0 else np.nan
        zs_mod[k] = x + modulus * y
    return LeafPath(ts=ts, zs=zs_mod, qb_samples=qb_s, aborted=aborted,
                    message=message)


class _DegenerateLeafState(Exception):
    def __init__(self, t, z):
        super().__init__(f"1 + a <= 0 at t={t}, z={z}")
        self.t, self.z = t, z


def qb_along_leaf(path: LeafPath):
    """Q_B along a leaf and its discrete second derivative in the X-direction.

    (Q_B)_XXbar is estimated as one quarter of the second t-difference of
    Q_B along the path (the zeta-scaling of the leaf direction).  Returns
    (qb, second_diff, record_dict); out-of-hypothesis when Q_B reaches
    QB_LIMIT.
    """
    if path.n_samples < 3:
        raise LeafError("need at least 3 samples for a second difference")
    qb = path.qb_samples
    dt = np.diff(path.ts)
    h = float(dt[0])
    # restrict to the uniform prefix (a shortened last step ends it)
    n_uniform = int(np.argmax(np.abs(dt - h) > 1e-12)) or len(dt)
    q = qb[:n_uniform + 1]
    second = 0.25 * (q[:-2] - 2.0 * q[1:-1] + q[2:]) / h**2
    in_hypothesis = bool(np.nanmax(qb) < QB_LIMIT)
    record = {
        "min_second_diff": float(np.nanmin(second)) if len(second) else 0.0,
        "max_qb": float(np.nanmax(qb)),
        "in_hypothesis": in_hypothesis,
    }
    return qb, second, record
