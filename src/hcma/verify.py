"""Estimate checks run against a discrete Solution.

Every check compares an interior extremum against a boundary quantity with a
discretization allowance C*h^p (p = 2 for second-derivative inputs, p = 1
for third-derivative inputs).  Checks never throw on bad data: violations
and inadmissible solutions produce failing records, and each check returns
a "vacuous" record, which does not fail the suite, for data outside its
theorem's hypotheses.  run_checks folds every check in one pass over the
solution's t-chunks (CheckPass) and hands each check but converged that
pass; run_checks(solution, names=[name]) runs one check.  The sweep
checks read a LadderFold, which folds a ladder one rung at a time, in the
same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (plane_jets, spatial_ab, strip_jets, t_chunks, wirt_parts,
                   wirt_z, wirt_zbar)
from .quantities import (InadmissibleError, NonConvexBoundaryError, apply_L,
                         boundary_S, boundary_delta, check_frame, choose_K,
                         h_contract, sigma_roots, strip_frame)
from .solver import AnnulusProfile, Solution

# allowance constants, fixed per check (bands are C * h^p)
C_H2 = 10.0     # second-derivative checks
C_H1 = 10.0     # third-derivative checks (a/b equations), relative to scale
REL_SLACK = 1e-3
MONOTONE_SLACK = 1e-8
STABILITY_SPREAD = 0.05  # allowed spread of min(1+a) along an eps ladder
U_FD_STEP = 1e-2  # finite-difference step of the u-identity check
Q_FLOOR = 1e-12   # lq_ratio skips nodes with Q at or below this
D_R = 2.0 * math.e  # d_R of the weight u in the weighted max principle
# converged: phi's Dirichlet planes may differ from the boundary data they
# were evaluated from by this times the summed mode amplitudes (a few ulps
# per mode, from one platform's exp to another's)
BOUNDARY_ROUND_OFF = 1e-12


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


def q_from_ab(a, b):
    """Q = |b|^2/(1+a)^2 of spatial jets; inf or NaN, without a warning,
    where 1 + a = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(b) ** 2 / (1.0 + a) ** 2


def _composite_q(grid, a, q_b, d_x, d_y):
    """Composite Q = Q_A + Q_B + Q_G of spatial jets (valid on all planes),
    with Q_B = q_b, q_from_ab's array, which it leaves alone; inf or NaN,
    without a warning, where 1 + a = 0."""
    opa = 1.0 + a
    with np.errstate(divide="ignore", invalid="ignore"):
        Q = a ** 2 / opa ** 2           # Q_A + Q_B + Q_G, summed in place
        Q += q_b
        z_r, z_i = wirt_parts(grid, d_x, d_y)    # Phi_z
        Q += (z_r * z_r + z_i * z_i) / opa
    return Q


def _within_factor2(measured, bound, h2) -> bool:
    """Proposition 1's factor-2 band, measured <= 2 bound + h2: false if
    either is NaN."""
    return bool(measured <= 2.0 * bound + h2)


def _vacuous(name: str, note: str, **fields) -> CheckRecord:
    """A record for data outside the check's hypotheses; it does not fail."""
    fields = {"measured": 0.0, "bound": 0.0, "tolerance": 0.0, **fields}
    return CheckRecord(name=name, passed=True, vacuous=True, note=note,
                       **fields)


def _adj_h(g, m, q, u0, u1):
    """(g u0 - m u1, q u1 - m* u0), adj(h) u for (zeta, z) components (u0,
    u1) in a strip frame (g, m, q): with inv(h) = adj(h) / det, h^{ij*}
    u_i w_j* is (w0 X + w1 Y) / det of (X, Y) = _adj_h(u)."""
    return g * u0 - m * u1, q * u1 - np.conj(m) * u0


# --- the chunked pass --------------------------------------------------------

class _Extreme:
    """Max (pick np.argmax) or min (np.argmin) of the arrays added in C
    order, with the grid node where it first occurs: what pick gives on
    their concatenation, NaN winning."""

    def __init__(self, pick=np.argmax):
        self.pick, self.found = pick, []

    def add(self, arr, t0: int = 0):
        """Fold in arr, whose first t-plane is grid plane t0."""
        idx = np.unravel_index(self.pick(arr), arr.shape)
        self.found.append((arr[idx], (int(idx[0]) + t0, *map(int, idx[1:]))))

    @property
    def value(self):
        return self.found[self.pick([v for v, _ in self.found])][0]

    @property
    def node(self) -> tuple:
        return self.found[self.pick([v for v, _ in self.found])][1]


# the checks that apply an h-operator and read the solution's strip frame
FRAME_CHECKS = ("ab_equations", "ekq_subharmonic", "lq_ratio")


class CheckPass:
    """One pass over a solution's t-chunks that folds what the named checks
    report: extrema with the first node in C order where they occur,
    scales and counts.

    The boundary planes come first, for boundary (a, b) pairs and K.  Each
    chunk's window of phi gives a, b, d_x and d_y through one periodic pad
    and, with a FRAME_CHECKS name, the chunk's strip_frame from them,
    which it hands with its windows to h_contract (a, b and W = e^{KQ} on
    one set of h-planes), apply_L (the composite Q) and the allowance and
    a/b folds.  No whole-grid jet or frame is made.  h2 is the C_H2 h^2
    band of the second-derivative checks; points=True also collects
    jet_map_export's (Re b, Im b, a) points.
    """

    def __init__(self, solution: Solution, names, points: bool = False):
        self.solution, self.grid = solution, solution.grid
        grid, values = self.grid, solution.phi.values
        self.h2 = C_H2 * _h_scale(grid) ** 2
        names = set(names)
        # boundary planes t = 0 and t = 1: spatial jets only
        a_bnd, b_bnd = spatial_ab(grid, values[[0, -1]])
        self.S = boundary_S(a_bnd, b_bnd)
        try:
            self.delta, self.delta_note = boundary_delta(a_bnd, b_bnd), ""
        except NonConvexBoundaryError as exc:
            self.delta, self.delta_note = None, str(exc)
        self.plane_q = np.empty(grid.nt)        # max Q of each t-plane
        self.plane_q[[0, -1]] = q_from_ab(a_bnd, b_bnd).max(axis=(1, 2))
        self.max_bnd_q = float(self.plane_q[[0, -1]].max())
        opa_bnd = 1.0 + a_bnd
        # least g = 1 + a and det h over the interior; least 1 + a over the
        # whole grid in C order: the t = 0 plane, the chunks, the t = 1 plane
        self.opa, self.det = _Extreme(np.argmin), _Extreme(np.argmin)
        self.least, last = _Extreme(np.argmin), _Extreme(np.argmin)
        self.least.add(opa_bnd[:1], 0)
        last.add(opa_bnd[1:], grid.nt - 1)
        del a_bnd, b_bnd, opa_bnd
        self.gap, self.q, self.val = _Extreme(), _Extreme(), _Extreme()
        self.cap, self.upper = _Extreme(), _Extreme()
        self.points = (np.empty(((grid.nt - 2) * grid.nx * grid.ny, 3))
                       if points else None)
        # the h-operator checks
        self.inadmissible, self.framed = "", bool(names & set(FRAME_CHECKS))
        self.ab = "ab_equations" in names
        self.ekq = ("ekq_subharmonic" in names
                    and self.max_bnd_q < 1.0)  # not NaN, where 1+a = b = 0
        self.lq = "lq_ratio" in names
        self.res_a, self.res_b, self.lhs_a, self.lhs_b = (
            _Extreme() for _ in range(4))
        if self.ekq:
            self.K = choose_K(self.max_bnd_q)
            self.sigma2 = sigma_roots(self.K)[1]
        self.n_out, self.hw, self.peak = 0, _Extreme(np.argmin), _Extreme()
        self.q_finite, self.lq_nodes, self.rho = True, 0, _Extreme(np.argmin)
        for i0, i1 in t_chunks(grid):
            self._chunk(values[i0 - 1:i1 + 1], i0, i1)
        self.least.found += self.opa.found + last.found
        if self.framed:     # check_frame's text, from the folded minima
            try:
                check_frame((self.opa.value, None, None, self.det.value))
            except InadmissibleError as exc:
                self.inadmissible = str(exc)

    def _chunk(self, window, i0: int, i1: int) -> None:
        """Folds the interior t-planes i0..i1-1 from their window of phi,
        planes i0-1..i1, its plane_jets and strip_frame, if admissible."""
        grid, frame = self.grid, None
        a_w, b_w, d_x, d_y = plane_jets(grid, window)
        if self.framed:
            frame = strip_frame(grid, window, a_w[1:-1], d_x, d_y)
            self.det.add(frame[3])
            try:
                check_frame(frame)
            except InadmissibleError:
                frame = None
        Q = q_from_ab(a_w, b_w)
        if self.lq and self.q_finite:
            Qc = _composite_q(grid, a_w, Q, d_x, d_y)
            del d_x, d_y
            self.q_finite = bool(np.isfinite(Qc).all())
            if frame is not None and self.q_finite:
                eps = self.solution.profile.rhs_on(grid)[i0:i1]
                LQ = apply_L(grid, Qc, frame, eps)
                Qi = Qc[1:-1]
                mask = Qi > Q_FLOOR
                if mask.any():
                    self.lq_nodes += int(mask.sum())
                    self.rho.add(LQ[mask] / (eps[mask] * Qi[mask]))
                del LQ, Qi
            del Qc
        else:
            del d_x, d_y
        a, b, Qi = a_w[1:-1], b_w[1:-1], Q[1:-1]
        opa, abs_b = 1.0 + a, np.abs(b)
        self.opa.add(opa, i0)
        self.gap.add(abs_b - opa, i0)
        self.q.add(Qi, i0)
        self.plane_q[i0:i1] = Qi.max(axis=(1, 2))
        self.val.add(abs_b + a + 1.0, i0)
        if self.delta is not None:
            self.cap.add(abs_b + self.delta - opa)
        self.upper.add(abs_b - (self.S - 1.0 - a))
        if self.points is not None:
            rows = self.points[(i0 - 1) * a[0].size:(i1 - 1) * a[0].size]
            rows[:, 0], rows[:, 1], rows[:, 2] = (
                b.real.ravel(), b.imag.ravel(), a.ravel())
        del opa, abs_b
        if frame is None or not (self.ab or self.ekq):
            return
        fields = (b_w, a_w) if self.ab else ()
        if self.ekq:
            in_hyp = Qi < self.sigma2
            W = self.K * Q               # clip only out-of-hypothesis nodes
            np.minimum(W, 700.0, out=W)
            np.exp(W, out=W)
            self._ekq_allowance(W, frame)
            fields += (W,)
            del W
        del Q, Qi
        lhs = list(h_contract(grid, fields, frame))
        del fields
        if self.ekq:
            hW = lhs.pop()
            self.n_out += int((~in_hyp).sum())
            if in_hyp.any():
                self.hw.add(hW[in_hyp])
            del hW
        if self.ab:
            self._ab(*lhs[::-1], a_w, b_w, frame, i0)

    def _ekq_allowance(self, W, frame) -> None:
        """Folds the allowance of ekq_subharmonic, which scales with the
        contracted magnitude (h-inverse included), from the strip_frame of
        W's window (its a, m and q) and the chunk's frame."""
        g, (m_r, m_i), q, det = frame
        a, d_x, d_y = strip_jets(self.grid, W)
        m_w, q_w = strip_frame(self.grid, W, a, d_x, d_y)[1:3]
        del d_x, d_y
        # W is real, so |W_zeta zbar| = |W_z zetabar|: one term, added twice
        mixed = np.hypot(m_r, m_i) * np.hypot(*m_w)
        self.peak.add((g * np.abs(q_w) + mixed + mixed + q * np.abs(a)) / det)

    def _ab(self, lhs_a, lhs_b, a_w, b_w, frame, i0) -> None:
        """Folds the a/b equation residuals from the contractions, the
        windows of a and b and the frame, one t-plane at a time, so the
        third-order jets and right-hand sides are plane-sized."""
        grid, two_ht = self.grid, 2 * self.grid.ht
        g, (m_r, m_i), q, det = frame
        res_a, res_b = np.empty_like(lhs_a), np.empty_like(lhs_a)
        for j in range(len(lhs_a)):           # grid t-plane i0 + j
            f = g[j], m_r[j] + 1j * m_i[j], q[j]
            a_j, b_j = a_w[j + 1:j + 2], b_w[j + 1:j + 2]
            # third-order jets: wirt_z(a), wirt_zbar(b) of its plane, and
            # the central t-differences of dt1; strip frame,
            # Im(zeta)-independent, so d/dzeta = d/dzetabar = (d/dt)/2
            u = (0.5 * ((a_w[j + 2] - a_w[j]) / two_ht),
                 wirt_z(grid, a_j)[0])
            w = (0.5 * ((b_w[j + 2] - b_w[j]) / two_ht),
                 wirt_zbar(grid, b_j)[0])
            (x, y), (xw, yw) = _adj_h(*f, *u), _adj_h(*f, *map(np.conj, w))
            # h^{ij*} a_i a_j* + h^{ij*} b_j* conj(b)_i, and h^{ij*} a_i b_j*
            rhs_a = (((np.conj(u[0]) * x + np.conj(u[1]) * y) / det[j]).real
                     + ((w[0] * xw + w[1] * yw) / det[j]).real)
            res_a[j] = np.abs(lhs_a[j] - rhs_a / g[j])
            res_b[j] = np.abs(lhs_b[j]
                              - 2.0 * ((w[0] * x + w[1] * y) / det[j]) / g[j])
        self.res_a.add(res_a, i0)
        self.res_b.add(res_b)
        self.lhs_a.add(np.abs(lhs_a))
        self.lhs_b.add(np.abs(lhs_b))

    def check_admissible(self) -> None:
        """InadmissibleError, as check_frame raised it, if the strip frame
        of an h-operator check is not admissible."""
        if self.inadmissible:
            raise InadmissibleError(self.inadmissible)

    def degenerate_note(self) -> str:
        """Names the node of least 1 + a if that is <= 0, where Q means
        nothing; otherwise the empty string."""
        if self.least.value > 0.0:
            return ""
        return (f"1 + a = {self.least.value:.3e} <= 0 at node "
                f"{self.least.node}")


# --- individual checks -------------------------------------------------------

def check_converged(solution: Solution) -> CheckRecord:
    """The Newton solve converged, so the other checks test a solution, and
    phi's t = 0 and t = 1 planes hold the solution's boundary data: their
    largest gap to BoundarySpec.evaluate is at most BOUNDARY_ROUND_OFF
    times the summed |amplitude| of the modes."""
    grid, boundary = solution.grid, solution.boundary
    gap = float(np.abs(solution.phi.values[[0, -1]] - [
        boundary.evaluate(grid, which) for which in (0, 1)]).max())
    bound = BOUNDARY_ROUND_OFF * sum(
        abs(complex(amp)) for _, _, amp in boundary.phi0 + boundary.phi1)
    notes = [] if solution.converged else [
        f"not converged: final residual {solution.final_residual:.3e} "
        f"after {solution.iterations} Newton iterations"]
    if not gap <= bound:
        notes.append(f"boundary planes {gap:.3e} from the boundary data, "
                     f"above {bound:.3e}")
    return CheckRecord(
        name="converged", passed=bool(solution.converged) and gap <= bound,
        measured=solution.final_residual, bound=0.0, tolerance=0.0,
        note="; ".join(notes),
        extra={"iterations": solution.iterations, "boundary_gap": gap})


def check_convexity(p: CheckPass) -> CheckRecord:
    """Interior slices stay strictly omega_0-convex: |b| < 1+a and 1+a > 0."""
    min_opa = float(p.opa.value)
    measured = float(p.gap.value)
    passed = measured < p.h2 and min_opa > -p.h2
    return CheckRecord(
        name="convexity", passed=passed, measured=measured, bound=0.0,
        tolerance=p.h2, worst_node=p.gap.node,
        extra={"min_one_plus_a": min_opa})


def check_max_principle_Q(p: CheckPass) -> CheckRecord:
    """max interior Q against max boundary Q, plus the factor-2 variant."""
    measured = float(p.q.value)
    bound = p.max_bnd_q
    plain = measured <= bound * (1.0 + REL_SLACK) + p.h2
    factor2 = _within_factor2(measured, bound, p.h2)
    note = p.degenerate_note()
    return CheckRecord(
        name="max_principle_Q", passed=plain and factor2 and not note,
        measured=measured, bound=bound, tolerance=p.h2,
        worst_node=p.q.node, note=note,
        extra={"factor2_pass": factor2, "factor2_bound": 2.0 * bound})


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


def check_weighted_max_principle(p: CheckPass) -> CheckRecord:
    """Max principle for Q/u on the annulus image tau = e^{t+is}.

    On the circle |tau| = e^t, u = cos(k cos s) cos(k sin s) with k =
    pi e^t / (4 d_R) <= pi/8; ln cos sqrt(x) is concave, so u is least on
    the axes, u(e^t).  Q >= 0 and u > 0, so the max of Q/u over a t-plane's
    nodes and its circle is the plane's max Q over u(e^t).
    """
    if not isinstance(p.solution.profile, AnnulusProfile):
        return _vacuous("weighted_max_principle", "requires annulus profile")
    ident = check_u_identity(D_R)
    ratio = p.plane_q / weight_u(np.exp(p.grid.t_values + 0j), D_R)
    measured = float(ratio[1:-1].max())
    bound = float(ratio[[0, -1]].max())
    note = p.degenerate_note()
    passed = (measured <= bound * (1.0 + REL_SLACK) + p.h2 and ident.passed
              and not note)
    return CheckRecord(
        name="weighted_max_principle", passed=passed, measured=measured,
        bound=bound, tolerance=p.h2, note=note,
        extra={"u_identity_rel_err": ident.measured, "d_R": D_R})


def check_metric_lower_bound(p: CheckPass) -> CheckRecord:
    """min interior (1+a) stays above the boundary gap delta, up to C h^2."""
    measured = float(p.opa.value)
    if p.delta is None:
        return _vacuous("metric_lower_bound", p.delta_note,
                        measured=measured, tolerance=p.h2)
    return CheckRecord(
        name="metric_lower_bound", passed=measured > p.delta - p.h2,
        measured=measured, bound=p.delta, tolerance=p.h2,
        worst_node=p.opa.node)


def check_upper_bound(p: CheckPass) -> CheckRecord:
    """max interior (|b| + a + 1) against the boundary quantity S."""
    measured = float(p.val.value)
    return CheckRecord(
        name="upper_bound", passed=measured <= p.S + p.h2, measured=measured,
        bound=p.S, tolerance=p.h2, worst_node=p.val.node)


def check_ab_equations(p: CheckPass) -> CheckRecord:
    """Residuals of the derived second-order equations for a and b.

    h^{ij*} a_{ij*} = h^{ij*}(a_i a_j* + b_j* conj(b)_i)/(1+a) and
    h^{ij*} b_{ij*} = 2 h^{ij*} a_i b_j* /(1+a); third-derivative stencils,
    so the band is C * h * scale.  The contractions, third-order jets and
    right-hand sides are made one t-chunk at a time (CheckPass).
    """
    p.check_admissible()
    scale = max(1.0, float(p.lhs_a.value), float(p.lhs_b.value))
    tol = C_H1 * _h_scale(p.grid) * scale
    res_a, res_b = p.res_a.value, p.res_b.value
    measured = float(max(res_a, res_b))
    return CheckRecord(
        name="ab_equations", passed=measured <= tol, measured=measured,
        bound=0.0, tolerance=tol, worst_node=p.res_a.node,
        extra={"residual_a": float(res_a), "residual_b": float(res_b),
               "scale": scale})


def check_ekq_subharmonic(p: CheckPass) -> CheckRecord:
    """Discrete h^{ij*}-subharmonicity of e^{KQ} where Q < sigma_2(K); the
    allowance reads W = e^{KQ}'s a, Phi_tz and Phi_tt one t-chunk at a
    time (CheckPass)."""
    if not p.ekq:       # also NaN, where 1 + a = b = 0
        return _vacuous("ekq_subharmonic",
                        f"boundary Q = {p.max_bnd_q} >= 1")
    p.check_admissible()
    if not p.hw.found:
        return _vacuous("ekq_subharmonic",
                        "no interior node inside the hypothesis region")
    measured = float(p.hw.value)
    scale = max(1.0, float(p.peak.value))
    tol = p.h2 * scale
    return CheckRecord(
        name="ekq_subharmonic", passed=measured >= -tol, measured=measured,
        bound=0.0, tolerance=tol,
        extra={"K": p.K, "sigma2": p.sigma2,
               "out_of_hypothesis_nodes": p.n_out})


def lq_ratio_report(p: CheckPass) -> CheckRecord:
    """Diagnostic ratio rho = min interior LQ/(eps_tilde Q) for composite Q,
    over the nodes where Q exceeds Q_FLOOR."""
    if not p.q_finite:
        return _vacuous("lq_ratio", "composite Q not finite")
    p.check_admissible()
    if not p.lq_nodes:
        return _vacuous("lq_ratio", "Q below floor everywhere")
    return CheckRecord(name="lq_ratio", passed=True,
                       measured=float(p.rho.value), bound=0.0,
                       tolerance=0.0, note="diagnostic",
                       extra={"nodes": p.lq_nodes})


class LadderFold:
    """What the sweep checks read of a ladder, folded one rung at a time,
    so a sweep need not hold its rungs: per rung the max Q over the grid,
    whether the interior max Q stays within the factor-2 band of the
    boundary's, and the least interior 1 + a; per pair of neighbouring
    rungs the largest phi_prev - phi_next and the max-norm gap.  Only the
    last rung's phi is kept, for the next gap.  LadderFold(solutions)
    folds a list.
    """

    def __init__(self, rungs=()):
        self.max_q, self.factor2, self.min_one_plus_a = [], [], []
        self.worst_increase, self.gaps = -np.inf, []
        self.last = None
        for solution in rungs:
            self.add(solution)

    def __len__(self) -> int:
        return len(self.max_q)

    def add(self, solution: Solution) -> None:
        grid, values = solution.grid, solution.phi.values
        a, b = spatial_ab(grid, values)
        Q = q_from_ab(a, b)
        self.max_q.append(float(Q.max()))
        self.factor2.append(_within_factor2(
            Q[1:-1].max(), Q[[0, -1]].max(), C_H2 * _h_scale(grid) ** 2))
        del Q, b
        self.min_one_plus_a.append(float((1.0 + a[1:-1]).min()))
        del a
        if self.last is not None:
            diff = self.last - values            # must be <= slack
            self.worst_increase = max(self.worst_increase, float(diff.max()))
            self.gaps.append(float(np.abs(diff).max()))
        self.last = values


def check_lambda_monotonicity(fold: LadderFold) -> CheckRecord:
    """max-grid Q is non-decreasing along a lambda ladder; Prop-1 band holds."""
    if len(fold) <= 1:
        return _vacuous("lambda_monotonicity", "ladder of length <= 1",
                        tolerance=MONOTONE_SLACK)
    seq, rung_ok = fold.max_q, all(fold.factor2)
    # np.max, not max: a NaN rung (Q = 0/0) must not be skipped
    worst_drop = float(np.max(np.subtract(seq[:-1], seq[1:])))
    return CheckRecord(
        name="lambda_monotonicity",
        passed=worst_drop <= MONOTONE_SLACK and rung_ok,
        measured=worst_drop, bound=0.0, tolerance=MONOTONE_SLACK,
        extra={"max_Q_sequence": list(seq),
               "factor2_each_rung": bool(rung_ok)})


def check_eps_monotone_limit(fold: LadderFold) -> CheckRecord:
    """Potentials increase pointwise as epsilon decreases; gaps shrink."""
    if len(fold) <= 1:
        return _vacuous("eps_monotone_limit", "schedule of length <= 1",
                        tolerance=MONOTONE_SLACK)
    worst, gaps = fold.worst_increase, list(fold.gaps)
    cauchy = all(b <= a + MONOTONE_SLACK for a, b in zip(gaps, gaps[1:]))
    return CheckRecord(
        name="eps_monotone_limit",
        passed=worst <= MONOTONE_SLACK and cauchy, measured=worst,
        bound=0.0, tolerance=MONOTONE_SLACK,
        extra={"max_norm_gaps": gaps, "gaps_decreasing": bool(cauchy)})


def check_metric_lower_bound_stability(fold: LadderFold) -> CheckRecord:
    """min interior (1+a) moves by at most STABILITY_SPREAD along a ladder."""
    if len(fold) <= 1:
        return _vacuous("metric_lower_bound_stability",
                        "schedule of length <= 1", bound=STABILITY_SPREAD)
    minima = list(fold.min_one_plus_a)
    spread = max(minima) - min(minima)
    return CheckRecord(
        name="metric_lower_bound_stability", passed=spread <= STABILITY_SPREAD,
        measured=spread, bound=STABILITY_SPREAD, tolerance=0.0,
        extra={"min_one_plus_a_per_rung": minima})


def jet_map_record(p: CheckPass) -> CheckRecord:
    """The jet map's record: every interior jet point (Re b, Im b, a) lies
    in C_0, in the intersection of C_gamma over |gamma| <= delta, and in
    {|b| < S - 1 - a}, within the C h^2 band."""
    margin_c0 = float(p.gap.value)
    extra = {"margin_C0": margin_c0, "S": p.S}
    worst = margin_c0
    if p.delta is not None:
        margin_cap = float(p.cap.value)
        extra["delta"] = p.delta
        extra["margin_cone_intersection"] = margin_cap
        worst = max(worst, margin_cap)
    else:
        extra["delta_note"] = p.delta_note
    margin_s = float(p.upper.value)
    extra["margin_upper"] = margin_s
    worst = max(worst, margin_s)
    return CheckRecord(name="jet_map", passed=worst <= p.h2, measured=worst,
                       bound=0.0, tolerance=p.h2, extra=extra)


def jet_map_export(solution: Solution):
    """Interior jet points (Re b, Im b, a) plus region-membership margins.

    Returns (points, record): points is an (N, 3) array in C order of the
    interior nodes; the record is jet_map_record's.
    """
    p = CheckPass(solution, ("jet_map",), points=True)
    return p.points, jet_map_record(p)


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
    """Report of the named checks (default: every check and the jet map),
    folded in one CheckPass; every check but converged reads it."""
    meta = {**solution_meta(solution, seed),
            "converged": bool(solution.converged),
            "final_residual": float(solution.final_residual),
            "d_R": D_R}
    report = VerificationReport(meta=meta)
    selected = list(names) if names is not None else list(CHECKS) + ["jet_map"]
    for name in selected:
        if name not in CHECKS and name != "jet_map":
            raise KeyError(f"unknown check {name!r}")
    folded = set(selected) - {"converged"}
    check_pass = CheckPass(solution, folded) if folded else None
    for name in selected:
        # an inadmissible solution fails; each check returns its own
        # vacuous records; any other exception is a defect and propagates
        try:
            record = (jet_map_record if name == "jet_map" else CHECKS[name])(
                solution if name == "converged" else check_pass)
        except InadmissibleError as exc:
            record = CheckRecord(name=name, passed=False, measured=0.0,
                                 bound=0.0, tolerance=0.0,
                                 note=f"inadmissible solution: {exc}")
        report.checks.append(record)
    return report
