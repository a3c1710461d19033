"""The paper's pointwise algebra, one grid node at a time: the tests' oracle.

The program never calls this module.  It evaluates the estimates the
verifier folds chunk by chunk (hcma.verify.CheckPass) along a path that
shares none of its chunking or folds: the jet of one node read from a
window of at most four t-planes (wirtinger_jet), the torus layer's
a, b, Q = |b|^2/(1+a)^2 and h-matrix at that node (torus_state), the M and
N matrices of the e^{KQ} and upper-bound arguments, and the general-n flat
layer (general_flat_state), which evaluates the composite Q = Q_A + Q_B +
Q_G with the coefficient matrices of the scaled product-space Laplacian
and the non-negative terms E, P, T for an arbitrary complex dimension n
with flat background metric; at n = 1 it must agree with the torus layer.
composite_q_field, u_identity_error, rk4_path and FieldRhs are the
whole-grid composite Q, the weight u's finite-difference error, a plain RK4
path and a field-valued right-hand side for manufactured solutions;
field_from, zero_field, fresh_frame, admissible_frame and
admissible_block build a sampled field, the strip frame of a window, the
checked strip frame of a field's interior and the block that frame is
written into.  Only tests use them.

Index conventions: g^{ab*} is stored as the matrix conj(inv(G)) where
G[a, b] = g_{ab*}; with that choice any contraction h^{ij*} X_{ij*} of
Hermitian matrices is tr(inv(H) @ X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hcma.grid import (Grid, GridError, ScalarField, dt1, dt2, plane_jets,
                       wirt_parts, wirt_z, wirt_zbar)
from hcma.leaves import _rk4_steps
from hcma.quantities import check_frame, strip_h
from hcma.solver import Solution, residual


# --- one node's jet ----------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Pointwise Wirtinger derivative record of a real field.

    a = Phi_zzbar (real), b = Phi_zz.  For real fields d_tzb = conj(d_tz).
    Third-order entries are present only for order-3 jets.  one_sided_t marks
    t-derivatives computed with boundary stencils; consumers that need true
    interior t-derivatives must skip such jets.
    """

    value: float
    d_t: float
    d_tt: float
    d_z: complex
    a: float
    b: complex
    d_tz: complex
    d_tzb: complex
    one_sided_t: bool
    d_zzzb: complex | None = None
    d_zzbz: complex | None = None
    d_tzz: complex | None = None
    d_tzzb: complex | None = None

    @property
    def order(self) -> int:
        return 3 if self.d_zzzb is not None else 2


def check_node(grid: Grid, node: tuple[int, int, int]) -> tuple[int, int, int]:
    it, ix, iy = node
    if not (0 <= it < grid.nt):
        raise GridError(f"t-index {it} out of range [0, {grid.nt})")
    return it, ix % grid.nx, iy % grid.ny


def wirtinger_jet(fld: ScalarField, node: tuple[int, int, int],
                  order: int = 2) -> Jet:
    """Jet of a field at a grid node; order 3 adds differences of a and b
    (O(h) accepted).  Every entry is bitwise the whole-grid difference at
    the node, taken on the window of at most four t-planes around it
    (dt2's one-sided reach at t = 0, 1)."""
    if order not in (2, 3):
        raise GridError(f"jet order must be 2 or 3, got {order}")
    grid = fld.grid
    it, ix, iy = check_node(grid, node)
    lo = max(0, min(it - 1, grid.nt - 4))
    w = fld.values[lo:lo + 4]
    a, b, d_x, d_y = plane_jets(grid, w)
    idx = (it - lo, ix, iy)
    d_tz = complex(*wirt_parts(grid, dt1(grid, d_x)[idx],
                               dt1(grid, d_y)[idx]))
    third = {} if order == 2 else {
        "d_zzzb": complex(wirt_zbar(grid, b)[idx]),
        "d_zzbz": complex(wirt_z(grid, a)[idx]),
        "d_tzz": complex(dt1(grid, b)[idx]),
        "d_tzzb": complex(dt1(grid, a)[idx])}
    return Jet(value=float(w[idx]), d_t=float(dt1(grid, w)[idx]),
               d_tt=float(dt2(grid, w)[idx]),
               d_z=complex(*wirt_parts(grid, d_x[idx], d_y[idx])),
               a=float(a[idx]), b=complex(b[idx]), d_tz=d_tz,
               d_tzb=d_tz.conjugate(), one_sided_t=not 0 < it < grid.nt - 1,
               **third)


# --- torus layer -------------------------------------------------------------

class DegenerateMetricError(ValueError):
    """1 + a vanished (or g lost positivity) where a metric is required."""


@dataclass(frozen=True)
class TorusPointState:
    """Second-order state of a potential at one point of the torus problem."""

    a: float
    b: complex
    one_plus_a: float
    Q: float
    h: np.ndarray | None = None       # 2x2 Hermitian, strip (zeta, z) frame
    det_h: float | None = None
    epsilon_tilde: float | None = None

    @classmethod
    def from_ab(cls, a: float, b: complex) -> "TorusPointState":
        if 1.0 + a == 0.0:
            raise DegenerateMetricError("1 + a = 0")
        return cls(a=a, b=complex(b), one_plus_a=1.0 + a,
                   Q=abs(b) ** 2 / (1.0 + a) ** 2)


def torus_state(jet: Jet, epsilon_tilde: float | None = None) -> TorusPointState:
    """Build the pointwise state from a jet.

    The h-matrix is assembled in strip coordinates: Phi_zetazetabar =
    Phi_tt/4 and Phi_zetazbar = Phi_tzbar/2 for Im(zeta)-independent fields.
    """
    state = TorusPointState.from_ab(jet.a, jet.b)
    opa = state.one_plus_a
    pzz = 0.25 * jet.d_tt
    pzzb = 0.5 * jet.d_tzb
    h = np.array([[pzz, pzzb], [np.conj(pzzb), opa]], dtype=complex)
    return replace(state, h=h, det_h=float(pzz * opa - abs(pzzb) ** 2),
                   epsilon_tilde=epsilon_tilde)


def q_gamma(state: TorusPointState, gamma: complex) -> float:
    """Shifted quantity |b - gamma|^2 / (1+a)^2."""
    if state.one_plus_a <= 0.0:
        raise DegenerateMetricError(f"1 + a = {state.one_plus_a} <= 0")
    return abs(state.b - gamma) ** 2 / state.one_plus_a ** 2


def cone_membership(b: complex, a: float, gamma: complex) -> bool:
    """Strict membership in the cone C_gamma = {|b - gamma| < 1 + a, a > -1}."""
    return a > -1.0 and abs(b - gamma) < a + 1.0


def m_matrix(K: float, state: TorusPointState) -> tuple[np.ndarray, float, float]:
    """Matrix M of the e^{KQ} subharmonicity argument.

    Returns (M, det(M), closed-form det) where the closed form is
    2K [-Q^2 + (1 - 1/K) Q + 1/(2K)]; the two determinants must agree to
    1e-12 relative.
    """
    if state.one_plus_a <= 0.0:
        raise DegenerateMetricError(f"1 + a = {state.one_plus_a} <= 0")
    Q = state.Q
    w = state.b ** 2 / state.one_plus_a ** 2
    M = np.array([[1.0 + K * Q, K * np.conj(w)],
                  [K * w, 1.0 - 2.0 * Q + K * Q]], dtype=complex)
    det = float(np.linalg.det(M).real)
    closed = 2.0 * K * (-Q**2 + (1.0 - 1.0 / K) * Q + 1.0 / (2.0 * K))
    return M, det, closed


def n_matrix(P: float, state: TorusPointState, eta: complex) -> np.ndarray:
    """Matrix N of the upper-bound (cone complement) argument.

    N is positive semidefinite once Q_eta exceeds the larger root
    sigma_2'(P) = (1 + 1/P + sqrt(1 + 1/P^2)) / 2 of
    Q^2 - (1 + 1/P) Q + 1/(2P).
    """
    if P <= 1.0:
        raise ValueError(f"P must exceed 1, got {P}")
    if state.one_plus_a <= 0.0:
        raise DegenerateMetricError(f"1 + a = {state.one_plus_a} <= 0")
    Qe = q_gamma(state, eta)
    w = (state.b - eta) ** 2 / state.one_plus_a ** 2
    return np.array([[P * Qe - 1.0, P * np.conj(w)],
                     [P * w, (P + 2.0) * Qe - 1.0]], dtype=complex)


def sigma2_prime(P: float) -> float:
    """Larger root of Q^2 - (1 + 1/P) Q + 1/(2P); threshold for N >= 0."""
    return 0.5 * (1.0 + 1.0 / P + math.sqrt(1.0 + 1.0 / P**2))


# --- general-n flat layer ----------------------------------------------------

@dataclass(frozen=True)
class FlatJet:
    """Derivative data of a potential at one point, flat background, dim n.

    A[t, g] = Phi_{t gbar} (Hermitian), B[t, g] = Phi_{,tg} (symmetric),
    grad[a] = Phi_a, tau_alphabar[a] = Phi_{tau abar}, tau_alpha[a] =
    Phi_{tau a}.  Third-derivative blocks are indexed with the product-space
    index i in {tau, 1..n} first: A_d[i, t, g] = A_{t gbar, i} and
    B_dbar[j, t, g] = B_{tg, jbar}.
    """

    A: np.ndarray
    B: np.ndarray
    grad: np.ndarray
    tau_alphabar: np.ndarray
    tau_alpha: np.ndarray
    A_d: np.ndarray
    B_dbar: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class GeneralFlatState:
    n: int
    g: np.ndarray
    Q_A: float
    Q_B: float
    Q_G: float
    Q: float
    T: float
    P: float
    E: float
    L_coeff: np.ndarray       # (n+1)x(n+1) Hermitian
    p_coeff: np.ndarray       # (n+1)x(n+1) Hermitian, rank 1, PSD


def general_flat_state(jet: FlatJet, epsilon_over_gratio: float) -> GeneralFlatState:
    """Composite quantity Q = Q_A + Q_B + Q_G and the L/p coefficient matrices.

    Flat background: covariant derivatives are plain derivatives and the
    curvature terms vanish identically.  epsilon_over_gratio is the scalar
    eps*b/g multiplying the background-metric block of L; at n = 1 on the
    strip it equals eps_tilde / (4 (1+a)).
    """
    n = jet.n
    G = np.eye(n, dtype=complex) + jet.A
    eigmin = float(np.linalg.eigvalsh(G).min())
    if eigmin <= 0.0:
        raise DegenerateMetricError(f"g = I + A has min eigenvalue {eigmin} <= 0")
    gup = np.conj(np.linalg.inv(G))          # gup[a, b] = g^{a bbar}

    A, B = jet.A, jet.B
    Q_B = np.einsum("ab,gt,at,bg->", B, np.conj(B), gup, gup).real
    Q_A = np.einsum("ab,gt,at,gb->", A, A, gup, gup).real
    Q_G = np.einsum("a,b,ab->", jet.grad, np.conj(jet.grad), gup).real

    m = jet.tau_alphabar                      # Phi_{tau abar}
    T = (np.einsum("b,a,ab->", m, np.conj(m), gup)
         + np.einsum("a,b,ab->", jet.tau_alpha, np.conj(jet.tau_alpha), gup)).real

    # v_i = (1, -g^{a tbar} Phi_{tau tbar}); p = v v^*, L = p + ratio * diag(0, gup)
    v = np.empty(n + 1, dtype=complex)
    v[0] = 1.0
    v[1:] = -gup @ m
    p_coeff = np.outer(v, np.conj(v))
    L_coeff = p_coeff.copy()
    L_coeff[1:, 1:] += epsilon_over_gratio * gup

    Ad, Bd = jet.A_d, jet.B_dbar
    Ad_s, Bd_s = Ad[1:], Bd[1:]               # spatial derivative slots only
    E = (np.einsum("atg,bzh,ba,th,gz->", Bd_s, np.conj(Bd_s), gup, gup, gup)
         + np.einsum("atg,bzh,ab,hg,tz->", Ad_s, np.conj(Ad_s), gup, gup, gup)).real
    P = (np.einsum("jtg,izh,ij,th,gz->", Bd, np.conj(Bd), p_coeff, gup, gup)
         + np.einsum("itg,jzh,ij,hg,tz->", Ad, np.conj(Ad), p_coeff, gup, gup)).real

    return GeneralFlatState(
        n=n, g=G, Q_A=float(Q_A), Q_B=float(Q_B), Q_G=float(Q_G),
        Q=float(Q_A + Q_B + Q_G), T=float(T), P=float(P), E=float(E),
        L_coeff=L_coeff, p_coeff=p_coeff)


def flat_jet_from_torus(jet: Jet) -> FlatJet:
    """Package an order-3 torus jet as an n=1 FlatJet in strip normalization.

    Strip normalization: Phi_zetazbar = Phi_tzbar / 2 and derivative slots
    along zeta carry the factor 1/2 from d/dzeta = (d/dt)/2 on
    Im(zeta)-independent fields.
    """
    if jet.order < 3:
        raise ValueError("order-3 jet required")
    A = np.array([[jet.a]], dtype=complex)
    B = np.array([[jet.b]], dtype=complex)
    a_z = jet.d_zzbz
    a_tau = 0.5 * jet.d_tzzb
    b_zbar = jet.d_zzzb
    # Im(zeta)-independence: d/dzetabar b = (d/dt b)/2, same as d/dzeta b
    b_taubar = 0.5 * jet.d_tzz
    A_d = np.array([[[a_tau]], [[a_z]]], dtype=complex)
    B_dbar = np.array([[[b_taubar]], [[b_zbar]]], dtype=complex)
    return FlatJet(
        A=A, B=B,
        grad=np.array([jet.d_z], dtype=complex),
        tau_alphabar=np.array([0.5 * jet.d_tzb], dtype=complex),
        tau_alpha=np.array([0.5 * jet.d_tz], dtype=complex),
        A_d=A_d, B_dbar=B_dbar)


# --- whole-grid references --------------------------------------------------

def field_from(grid: Grid, fn) -> ScalarField:
    """The field fn(t, x, y) sampled on the grid's nodes."""
    t, x, y = np.meshgrid(grid.t_values, grid.x_values, grid.y_values,
                          indexing="ij")
    return ScalarField(grid, fn(t, x, y))


def zero_field(grid: Grid) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.shape))


def fresh_frame(grid: Grid, window: np.ndarray):
    """strip_h of an (n+2)-plane window, written into a fresh block;
    admissibility unchecked."""
    return strip_h(grid, window,
                   np.empty((5, len(window) - 2, grid.nx, grid.ny)))


def residual_grid(phi: ScalarField, profile):
    """(r, max|r|): solver.residual of phi written into the interior of a
    zero grid, as hcma verify writes fields.csv's residual column."""
    grid = phi.grid
    r = np.zeros(grid.shape)
    rn = residual(grid, phi.values, profile,
                  np.empty((5, *r[1:-1].shape)), r[1:-1])[1]
    return r, rn


def admissible_block(phi: ScalarField) -> np.ndarray:
    """The (5, nt-2, nx, ny) block strip_h writes phi's interior frame
    into, slots g, Re m, Im m, q and det, once check_frame passes it: what
    linearize takes over."""
    grid = phi.grid
    block = np.empty((5, grid.nt - 2, grid.nx, grid.ny))
    check_frame(strip_h(grid, phi.values, block))
    return block


def admissible_frame(phi: ScalarField):
    """strip_h of phi's interior, checked by check_frame."""
    g, m_r, m_i, q, det = admissible_block(phi)
    return g, (m_r, m_i), q, det


def composite_q_field(solution: Solution) -> np.ndarray:
    """Composite Q = Q_A + Q_B + Q_G on the whole grid (spatial jets only):
    a^2/(1+a)^2 + |b|^2/(1+a)^2 + |Phi_z|^2/(1+a), summed in that order
    from the whole grid's plane_jets; inf or NaN, without a warning, where
    1 + a = 0."""
    grid = solution.grid
    a, b, d_x, d_y = plane_jets(grid, solution.phi.values)
    z_r, z_i = wirt_parts(grid, d_x, d_y)          # Phi_z
    with np.errstate(divide="ignore", invalid="ignore"):
        q_a = a ** 2 / (1.0 + a) ** 2
        q_b = np.abs(b) ** 2 / (1.0 + a) ** 2
        q_g = (z_r * z_r + z_i * z_i) / (1.0 + a)
    return q_a + q_b + q_g


def u_identity_error(d_R: float, step: float) -> float:
    """The u-identity's relative error in real coordinates: the largest
    |U/4 + (pi^2/(32 d_R^2)) u| over the largest |(pi^2/(32 d_R^2)) u|, for
    u(x, y) = cos(kx) cos(ky), k = pi/(4 d_R), and U its five-point
    Laplacian of the given step, at x + iy = e^{t+is} on the 7 x 9 samples
    t = 0.05..0.95, s = 0..2 pi.  For this separable u, U/4 is exactly
    (cos(k step) - 1)/step^2 u, so the error is |1 - 2(1 - cos(k step))/
    (k step)^2| up to round-off."""
    k = math.pi / (4.0 * d_R)
    t, s = np.meshgrid(np.linspace(0.05, 0.95, 7),
                       np.linspace(0.0, 2.0 * math.pi, 9), indexing="ij")
    tau = np.exp(t + 1j * s)
    x, y = tau.real, tau.imag

    def u(x, y):
        return np.cos(k * x) * np.cos(k * y)

    lap = (u(x + step, y) + u(x - step, y) + u(x, y + step)
           + u(x, y - step) - 4.0 * u(x, y)) / step ** 2
    c_u = (math.pi ** 2 / (32.0 * d_R ** 2)) * u(x, y)
    return float(np.abs(0.25 * lap + c_u).max() / np.abs(c_u).max())


def rk4_path(velocity, t0: float, z0: complex, step: float = 0.01):
    """RK4 path of dz/dt = velocity(t, z) from (t0, z0) to T_END as (ts, zs)."""
    ts, zs = zip(*_rk4_steps(velocity, t0, z0, step))
    return np.array(ts), np.array(zs)


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
