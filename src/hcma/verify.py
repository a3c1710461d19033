"""Estimate checks run against a discrete Solution.

Every check compares an interior extremum against a boundary quantity with a
discretization allowance C*h^p (p = 2 for second-derivative inputs, p = 1
for third-derivative inputs).  Checks never throw on bad data: violations
and inadmissible solutions produce failing records, and each check returns
a "vacuous" record, which does not fail the suite, for data outside its
theorem's hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import ScalarField
from .quantities import (InadmissibleError, NonConvexBoundaryError,
                         admissible_frame, apply_L, boundary_S, boundary_delta,
                         choose_K, h_contract, sigma_roots)
from .solver import AnnulusProfile, Solution

# allowance constants, fixed per check (bands are C * h^p)
C_H2 = 10.0     # second-derivative checks
C_H1 = 10.0     # third-derivative checks (a/b equations), relative to scale
REL_SLACK = 1e-3
MONOTONE_SLACK = 1e-8
STABILITY_SPREAD = 0.05  # allowed spread of min(1+a) along an eps ladder
U_FD_STEP = 1e-3  # finite-difference step of the u-identity check
N_ANGLES = 16     # annulus angles sampled by the weighted max principle
Q_FLOOR = 1e-12   # lq_ratio skips nodes with Q at or below this
D_R = 2.0 * math.e  # d_R of the weight u in the weighted max principle


@dataclass
class CheckRecord:
    name: str
    passed: bool
    measured: float
    bound: float
    tolerance: float
    worst_node: tuple | None = None
    vacuous: bool = False
    note: str = ""
    extra: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "vacuous": bool(self.vacuous),
            "measured": float(self.measured),
            "bound": float(self.bound),
            "tolerance": float(self.tolerance),
            "worst_node": list(self.worst_node) if self.worst_node else None,
            "note": self.note,
            "extra": {k: (float(v) if isinstance(v, (int, float, np.floating))
                          else v) for k, v in self.extra.items()},
        }


@dataclass
class VerificationReport:
    meta: dict
    checks: list = dc_field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    @property
    def all_pass(self) -> bool:
        return all(c.passed or c.vacuous for c in self.checks)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "checks": [c.to_dict() for c in self.checks]}

    def __getitem__(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# --- field helpers -----------------------------------------------------------

def _h_scale(grid) -> float:
    return max(grid.ht, grid.hx, grid.hy)


def q_field(solution: Solution) -> np.ndarray:
    """Appendix-style Q = |b|^2/(1+a)^2 on the whole grid (spatial jets only)."""
    j = solution.phi.jets
    return np.abs(j.b) ** 2 / (1.0 + j.a) ** 2


def composite_q_field(solution: Solution) -> np.ndarray:
    """Composite Q = Q_A + Q_B + Q_G (spatial jets only, valid on all planes)."""
    j = solution.phi.jets
    opa = 1.0 + j.a
    return (j.a ** 2 / opa ** 2 + np.abs(j.b) ** 2 / opa ** 2
            + np.abs(j.d_z) ** 2 / opa)


def boundary_jet_pairs(solution: Solution) -> np.ndarray:
    """Discrete (a, b) pairs on both Dirichlet planes, an (N, 2) array."""
    j = solution.phi.jets
    return np.column_stack([j.a[[0, -1]].ravel(), j.b[[0, -1]].ravel()])


def _interior_node(arr_interior: np.ndarray, pick=np.argmax) -> tuple:
    """Grid node (it, ix, iy) of the entry pick selects from interior planes."""
    it, ix, iy = np.unravel_index(pick(arr_interior), arr_interior.shape)
    return (int(it) + 1, int(ix), int(iy))


def _vacuous(name: str, note: str, **fields) -> CheckRecord:
    """A record for data outside the check's hypotheses; it does not fail."""
    fields = {"measured": 0.0, "bound": 0.0, "tolerance": 0.0, **fields}
    return CheckRecord(name=name, passed=True, vacuous=True, note=note,
                       **fields)


# --- individual checks -------------------------------------------------------

def check_converged(solution: Solution) -> CheckRecord:
    """The Newton solve converged, so the other checks test a solution."""
    note = "" if solution.converged else (
        f"not converged: final residual {solution.final_residual:.3e} "
        f"after {solution.iterations} Newton iterations")
    return CheckRecord(
        name="converged", passed=bool(solution.converged),
        measured=solution.final_residual, bound=0.0, tolerance=0.0,
        note=note, extra={"iterations": solution.iterations})


def check_convexity(solution: Solution) -> CheckRecord:
    """Interior slices stay strictly omega_0-convex: |b| < 1+a and 1+a > 0."""
    j = solution.phi.jets
    gap = np.abs(j.b[1:-1]) - (1.0 + j.a[1:-1])
    min_opa = float((1.0 + j.a[1:-1]).min())
    measured = float(gap.max())
    h2 = C_H2 * _h_scale(solution.grid) ** 2
    passed = measured < h2 and min_opa > -h2
    return CheckRecord(
        name="convexity", passed=passed, measured=measured, bound=0.0,
        tolerance=h2, worst_node=_interior_node(gap),
        extra={"min_one_plus_a": min_opa})


def check_max_principle_Q(solution: Solution) -> CheckRecord:
    """max interior Q against max boundary Q, plus the factor-2 variant."""
    Q = q_field(solution)
    qi, qb = Q[1:-1], Q[[0, -1]]
    measured = float(qi.max())
    bound = float(qb.max())
    h2 = C_H2 * _h_scale(solution.grid) ** 2
    plain = measured <= bound * (1.0 + REL_SLACK) + h2
    factor2 = measured <= 2.0 * bound + h2
    return CheckRecord(
        name="max_principle_Q", passed=plain and factor2, measured=measured,
        bound=bound, tolerance=h2, worst_node=_interior_node(qi),
        extra={"factor2_pass": bool(factor2), "factor2_bound": 2.0 * bound})


def weight_u(tau: np.ndarray, d_R: float) -> np.ndarray:
    """Weight with u_tautaubar = -(pi^2/(32 d_R^2)) u, positive on the annulus."""
    k = math.pi / (4.0 * d_R)
    return np.cos(k * tau.real) * np.cos(k * tau.imag)


def check_u_identity(d_R: float) -> CheckRecord:
    """Finite-difference verification of u_tautaubar = -(pi^2/(32 d_R^2)) u."""
    rng_t = np.linspace(0.05, 0.95, 7)
    rng_s = np.linspace(0.0, 2.0 * math.pi, 9)
    t, s = np.meshgrid(rng_t, rng_s, indexing="ij")
    tau = np.exp(t + 1j * s)
    h = U_FD_STEP
    lap = (weight_u(tau + h, d_R) + weight_u(tau - h, d_R)
           + weight_u(tau + 1j * h, d_R) + weight_u(tau - 1j * h, d_R)
           - 4.0 * weight_u(tau, d_R)) / h**2
    fd = 0.25 * lap                        # u_tautaubar = Laplacian/4
    exact = -(math.pi ** 2 / (32.0 * d_R ** 2)) * weight_u(tau, d_R)
    rel = float(np.abs(fd - exact).max() / np.abs(exact).max())
    return CheckRecord(name="u_identity", passed=rel <= 1e-6, measured=rel,
                       bound=0.0, tolerance=1e-6)


def check_weighted_max_principle(solution: Solution) -> CheckRecord:
    """Max principle for Q/u on the annulus image tau = e^{t+is}."""
    if not isinstance(solution.profile, AnnulusProfile):
        return _vacuous("weighted_max_principle", "requires annulus profile")
    ident = check_u_identity(D_R)
    Q = q_field(solution)
    t = solution.grid.t_values
    s = np.arange(N_ANGLES) * 2.0 * math.pi / N_ANGLES
    tau = np.exp(t[:, None] + 1j * s[None, :])
    u = weight_u(tau, D_R)                 # (nt, N_ANGLES), positive
    ratio = Q[:, None] / u[:, :, None, None]   # (nt, N_ANGLES, nx, ny)
    measured = float(ratio[1:-1].max())
    bound = float(ratio[[0, -1]].max())
    h2 = C_H2 * _h_scale(solution.grid) ** 2
    passed = measured <= bound * (1.0 + REL_SLACK) + h2 and ident.passed
    return CheckRecord(
        name="weighted_max_principle", passed=passed, measured=measured,
        bound=bound, tolerance=h2,
        extra={"u_identity_rel_err": ident.measured, "d_R": D_R})


def check_metric_lower_bound(solution: Solution) -> CheckRecord:
    """min interior (1+a) stays above the boundary gap delta, up to C h^2."""
    j = solution.phi.jets
    opa = 1.0 + j.a[1:-1]
    measured = float(opa.min())
    h2 = C_H2 * _h_scale(solution.grid) ** 2
    try:
        delta = boundary_delta(boundary_jet_pairs(solution))
    except NonConvexBoundaryError as exc:
        return _vacuous("metric_lower_bound", str(exc), measured=measured,
                        tolerance=h2)
    return CheckRecord(
        name="metric_lower_bound", passed=measured > delta - h2,
        measured=measured, bound=delta, tolerance=h2,
        worst_node=_interior_node(opa, np.argmin))


def check_upper_bound(solution: Solution) -> CheckRecord:
    """max interior (|b| + a + 1) against the boundary quantity S."""
    j = solution.phi.jets
    val = np.abs(j.b[1:-1]) + j.a[1:-1] + 1.0
    S = boundary_S(boundary_jet_pairs(solution))
    measured = float(val.max())
    h2 = C_H2 * _h_scale(solution.grid) ** 2
    return CheckRecord(
        name="upper_bound", passed=measured <= S + h2, measured=measured,
        bound=S, tolerance=h2, worst_node=_interior_node(val))


def _h_bilinear(frame, u0, u1, w0, w1) -> np.ndarray:
    """Interior h^{ij*} u_i w_j* of (zeta, z) components in a strip frame."""
    g, m, q, det = frame
    i = np.s_[1:-1]
    return (g * u0[i] * w0[i] - m * u1[i] * w0[i]
            - np.conj(m) * u0[i] * w1[i] + q * u1[i] * w1[i]) / det


def check_ab_equations(solution: Solution) -> CheckRecord:
    """Residuals of the derived second-order equations for a and b.

    h^{ij*} a_{ij*} = h^{ij*}(a_i a_j* + b_j* conj(b)_i)/(1+a) and
    h^{ij*} b_{ij*} = 2 h^{ij*} a_i b_j* /(1+a); third-derivative stencils,
    so the band is C * h * scale.
    """
    j = solution.phi.jets
    a, b = j.a, j.b
    opa = 1.0 + a[1:-1]
    # strip frame, Im(zeta)-independent: d/dzeta = d/dzetabar = (d/dt)/2
    a_zeta, a_z = 0.5 * j.d_tzzb, j.d_zzbz
    b_zetabar, b_zbar = 0.5 * j.d_tzz, j.d_zzzb

    lhs_a = h_contract(solution, a).real
    lhs_b = h_contract(solution, b)
    frame = admissible_frame(solution.phi)
    rhs_a = (_h_bilinear(frame, a_zeta, a_z, np.conj(a_zeta), np.conj(a_z))
             + _h_bilinear(frame, np.conj(b_zetabar), np.conj(b_zbar),
                           b_zetabar, b_zbar)).real / opa
    res_a = np.abs(lhs_a - rhs_a)
    rhs_b = 2.0 * _h_bilinear(frame, a_zeta, a_z, b_zetabar, b_zbar) / opa
    res_b = np.abs(lhs_b - rhs_b)

    scale = max(1.0, float(np.abs(lhs_a).max()), float(np.abs(lhs_b).max()))
    tol = C_H1 * _h_scale(solution.grid) * scale
    measured = float(max(res_a.max(), res_b.max()))
    return CheckRecord(
        name="ab_equations", passed=measured <= tol, measured=measured,
        bound=0.0, tolerance=tol, worst_node=_interior_node(res_a),
        extra={"residual_a": float(res_a.max()),
               "residual_b": float(res_b.max()), "scale": scale})


def check_ekq_subharmonic(solution: Solution) -> CheckRecord:
    """Discrete h^{ij*}-subharmonicity of e^{KQ} where Q < sigma_2(K)."""
    Q = q_field(solution)
    max_bnd = float(Q[[0, -1]].max())
    if not max_bnd < 1.0:       # also NaN, where 1 + a = b = 0
        return _vacuous("ekq_subharmonic", f"boundary Q = {max_bnd} >= 1")
    K = choose_K(max_bnd)
    sigma2 = sigma_roots(K)[1]
    W = np.exp(np.minimum(K * Q, 700.0))   # clip only out-of-hypothesis nodes
    contraction = h_contract(solution, W)
    in_hyp = Q[1:-1] < sigma2
    n_out = int((~in_hyp).sum())
    if not in_hyp.any():
        return _vacuous("ekq_subharmonic",
                        "no interior node inside the hypothesis region")
    # allowance scales with the contracted magnitude (h-inverse included)
    g, m, q, det = admissible_frame(solution.phi)
    w = ScalarField(solution.grid, W).jets
    # W is real, so |W_zeta zbar| = |W_z zetabar|: one term, added twice
    mixed = np.abs(m) * np.abs(0.5 * w.d_tz[1:-1])
    mag = (g * np.abs(0.25 * w.d_tt[1:-1]) + mixed + mixed
           + q * np.abs(w.a[1:-1])) / det
    scale = max(1.0, float(mag.max()))
    tol = C_H2 * _h_scale(solution.grid) ** 2 * scale
    measured = float(contraction[in_hyp].min())
    return CheckRecord(
        name="ekq_subharmonic", passed=measured >= -tol, measured=measured,
        bound=0.0, tolerance=tol,
        extra={"K": K, "sigma2": sigma2, "out_of_hypothesis_nodes": n_out})


def lq_ratio_report(solution: Solution) -> CheckRecord:
    """Diagnostic ratio rho = min interior LQ/(eps_tilde Q) for composite Q."""
    Q = composite_q_field(solution)
    if not np.isfinite(Q).all():
        return _vacuous("lq_ratio", "composite Q not finite")
    LQ = apply_L(solution, ScalarField(solution.grid, Q)).values[1:-1]
    eps = solution.profile.rhs_on(solution.grid)[1:-1]
    mask = Q[1:-1] > Q_FLOOR
    if not mask.any():
        return _vacuous("lq_ratio", "Q below floor everywhere")
    rho = float((LQ[mask] / (eps[mask] * Q[1:-1][mask])).min())
    return CheckRecord(name="lq_ratio", passed=True, measured=rho, bound=0.0,
                       tolerance=0.0, note="diagnostic",
                       extra={"nodes": int(mask.sum())})


def check_lambda_monotonicity(sweep: list[Solution]) -> CheckRecord:
    """max-grid Q is non-decreasing along a lambda ladder; Prop-1 band holds."""
    if len(sweep) <= 1:
        return _vacuous("lambda_monotonicity", "ladder of length <= 1",
                        tolerance=MONOTONE_SLACK)
    seq, rung_ok = [], True
    for s in sweep:
        Q = q_field(s)
        seq.append(float(Q.max()))
        h2 = C_H2 * _h_scale(s.grid) ** 2
        if Q[1:-1].max() > 2.0 * Q[[0, -1]].max() + h2:
            rung_ok = False
    worst_drop = max(a - b for a, b in zip(seq, seq[1:]))
    return CheckRecord(
        name="lambda_monotonicity",
        passed=worst_drop <= MONOTONE_SLACK and rung_ok,
        measured=worst_drop, bound=0.0, tolerance=MONOTONE_SLACK,
        extra={"max_Q_sequence": [float(v) for v in seq],
               "factor2_each_rung": bool(rung_ok)})


def check_eps_monotone_limit(sweep: list[Solution]) -> CheckRecord:
    """Potentials increase pointwise as epsilon decreases; gaps shrink."""
    if len(sweep) <= 1:
        return _vacuous("eps_monotone_limit", "schedule of length <= 1",
                        tolerance=MONOTONE_SLACK)
    worst = -np.inf
    gaps = []
    for prev, nxt in zip(sweep, sweep[1:]):
        diff = prev.phi.values - nxt.phi.values   # must be <= slack
        worst = max(worst, float(diff.max()))
        gaps.append(float(np.abs(diff).max()))
    cauchy = all(b <= a + MONOTONE_SLACK for a, b in zip(gaps, gaps[1:]))
    return CheckRecord(
        name="eps_monotone_limit",
        passed=worst <= MONOTONE_SLACK and cauchy, measured=worst,
        bound=0.0, tolerance=MONOTONE_SLACK,
        extra={"max_norm_gaps": gaps, "gaps_decreasing": bool(cauchy)})


def check_metric_lower_bound_stability(sweep: list[Solution]) -> CheckRecord:
    """min interior (1+a) moves by at most STABILITY_SPREAD along a ladder."""
    minima = [float(s.interior_one_plus_a().min()) for s in sweep]
    spread = max(minima) - min(minima)
    return CheckRecord(
        name="metric_lower_bound_stability", passed=spread <= STABILITY_SPREAD,
        measured=spread, bound=STABILITY_SPREAD, tolerance=0.0,
        extra={"min_one_plus_a_per_rung": minima})


def jet_map_export(solution: Solution):
    """Interior jet points (Re b, Im b, a) plus region-membership margins.

    Returns (points, record): points is an (N, 3) array; the record asserts
    every point lies in C_0, in the intersection of C_gamma over |gamma| <=
    delta, and in {|b| < S - 1 - a}, within the C h^2 band.
    """
    j = solution.phi.jets
    a = j.a[1:-1].ravel()
    b = j.b[1:-1].ravel()
    points = np.column_stack([b.real, b.imag, a])
    pairs = boundary_jet_pairs(solution)
    S = boundary_S(pairs)
    h2 = C_H2 * _h_scale(solution.grid) ** 2
    margin_c0 = float((np.abs(b) - (1.0 + a)).max())
    extra = {"margin_C0": margin_c0, "S": S}
    worst = margin_c0
    try:
        delta = boundary_delta(pairs)
        margin_cap = float((np.abs(b) + delta - (1.0 + a)).max())
        extra["delta"] = delta
        extra["margin_cone_intersection"] = margin_cap
        worst = max(worst, margin_cap)
    except NonConvexBoundaryError as exc:
        extra["delta_note"] = str(exc)
    margin_s = float((np.abs(b) - (S - 1.0 - a)).max())
    extra["margin_upper"] = margin_s
    worst = max(worst, margin_s)
    record = CheckRecord(name="jet_map", passed=worst <= h2, measured=worst,
                         bound=0.0, tolerance=h2, extra=extra)
    return points, record


# --- orchestration -----------------------------------------------------------

CHECKS = {
    "converged": check_converged,
    "convexity": check_convexity,
    "max_principle_Q": check_max_principle_Q,
    "weighted_max_principle": check_weighted_max_principle,
    "metric_lower_bound": check_metric_lower_bound,
    "upper_bound": check_upper_bound,
    "ab_equations": check_ab_equations,
    "ekq_subharmonic": check_ekq_subharmonic,
    "lq_ratio": lq_ratio_report,
}


def solution_meta(solution: Solution, seed: int | None) -> dict:
    """Report meta naming the problem a solution solves."""
    grid = solution.grid
    return {
        "grid": [grid.nt, grid.nx, grid.ny],
        "modulus": [grid.lattice.modulus.real, grid.lattice.modulus.imag],
        "profile": solution.profile.describe(),
        "boundary": solution.boundary.describe(),
        "seed": seed,
    }


def run_checks(solution: Solution, names=None,
               seed: int | None = None) -> VerificationReport:
    meta = {**solution_meta(solution, seed),
            "converged": bool(solution.converged),
            "final_residual": float(solution.final_residual),
            "d_R": D_R}
    report = VerificationReport(meta=meta)
    selected = list(names) if names is not None else list(CHECKS) + ["jet_map"]
    for name in selected:
        if name not in CHECKS and name != "jet_map":
            raise KeyError(f"unknown check {name!r}")
        # an inadmissible solution fails; each check returns its own
        # vacuous records; any other exception is a defect and propagates
        try:
            if name == "jet_map":
                _, record = jet_map_export(solution)
            elif name == "weighted_max_principle":
                # through the module global, which perfbench's tracer wraps
                record = check_weighted_max_principle(solution)
            else:
                record = CHECKS[name](solution)
        except InadmissibleError as exc:
            record = CheckRecord(name=name, passed=False, measured=0.0,
                                 bound=0.0, tolerance=0.0,
                                 note=f"inadmissible solution: {exc}")
        report.add(record)
    return report
