"""Pointwise estimate machinery: a, b, Q, cones, and the K/P matrix algebra.

Three layers live here.  The torus layer (TorusPointState and friends) works
with the pure second-derivative quantity Q = |b|^2/(1+a)^2 used by the
convexity, lower-bound and upper-bound checks.  The general-n flat layer
(general_flat_state) evaluates the composite Q = Q_A + Q_B + Q_G together
with the coefficient matrices of the scaled product-space Laplacian and the
non-negative terms E, P, T, for an arbitrary complex dimension n with flat
background metric.  At n = 1 those two layers must agree exactly; that cross
check is part of the test suite.  The third, solution-level layer forms
the strip-frame h-matrix on a t-window of a field from its jets, in the
one formula strip_frame, and from it, through the one plane builder
h_coefficient_planes, Newton's Jacobian, the h-Laplacian and L = adj(h~)/g.

Index conventions: g^{ab*} is stored as the matrix conj(inv(G)) where
G[a, b] = g_{ab*}; with that choice any contraction h^{ij*} X_{ij*} of
Hermitian matrices is tr(inv(H) @ X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (Jet, ScalarField, second_order_stencil, strip_jets,
                   t_chunks, wirt_parts)


class DegenerateMetricError(ValueError):
    """1 + a vanished (or g lost positivity) where a metric is required."""


class NonConvexBoundaryError(ValueError):
    """Boundary data violates strict omega_0-convexity."""


class InfeasibleKError(ValueError):
    """No K can dominate a boundary Q that reaches 1."""


# --- torus layer -------------------------------------------------------------

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


def _a_abs_b(boundary_jets):
    """(a, |b|) arrays of boundary (a, b) pairs: an (N, 2) array or a list."""
    pairs = np.asarray(boundary_jets, dtype=complex).reshape(-1, 2)
    if not len(pairs):
        raise ValueError("empty boundary jet list")
    return pairs[:, 0].real, np.abs(pairs[:, 1])


def boundary_S(boundary_jets) -> float:
    """max over boundary of (a + 1 + |b|); bounds |b| + a + 1 in the interior."""
    a, abs_b = _a_abs_b(boundary_jets)
    return float((a + 1.0 + abs_b).max())


def boundary_delta(boundary_jets) -> float:
    """Boundary gap delta = min over boundary of ((1 + a) - |b|).

    For every |gamma| <= gamma' < delta the shifted quantity q_gamma stays
    below 1 on the whole boundary; the interior metric bound 1 + a > delta
    follows.  Raises when the boundary is not strictly omega_0-convex.
    """
    a, abs_b = _a_abs_b(boundary_jets)
    delta = float(((1.0 + a) - abs_b).min())
    if delta <= 0.0:
        raise NonConvexBoundaryError(
            f"boundary gap {delta} <= 0: data not strictly omega_0-convex")
    return delta


def sigma_roots(K: float) -> tuple[float, float]:
    """Roots sigma_1 < 0 < sigma_2 < 1 of -Q^2 + (1 - 1/K) Q + 1/(2K)."""
    if K <= 0.0:
        raise ValueError(f"K must be positive, got {K}")
    s = math.sqrt(1.0 + 1.0 / K**2)
    return (1.0 - 1.0 / K - s) / 2.0, (1.0 - 1.0 / K + s) / 2.0


def choose_K(max_boundary_Q: float) -> int:
    """Smallest integer K >= 3 with sigma_2(K) > max_boundary_Q."""
    if not (0.0 <= max_boundary_Q < 1.0):
        raise InfeasibleKError(
            f"sigma_2 < 1 for every K; boundary Q = {max_boundary_Q} >= 1 "
            "cannot be dominated")
    K = 3
    while sigma_roots(K)[1] <= max_boundary_Q:
        K += 1
    return K


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


# --- solution-level operators (n = 1, strip frame) ---------------------------

class InadmissibleError(ValueError):
    """1 + a > 0 or det h > 0 fails at an interior node."""


def strip_frame(grid, window, a, d_x, d_y):
    """(g, m, q, det) of the strip h-matrix [[q, m], [m*, g]] on planes 1..n
    of an (n+2)-plane window from a on those planes and d_x, d_y on the
    window: q = Phi_tt/4, m = Phi_tzbar/2 as (Re m, Im m), g = 1 + a, det =
    q g - |m|^2, bitwise the whole-grid frame; admissibility unchecked."""
    h = grid.ht
    m_r, m_i = wirt_parts(grid, (d_x[2:] - d_x[:-2]) / (2 * h),
                          (d_y[2:] - d_y[:-2]) / (2 * h))     # Phi_tz
    m_r *= 0.5
    m_i *= -0.5
    g = 1.0 + a
    q = 0.25 * ((window[2:] - 2 * window[1:-1] + window[:-2]) / h**2)
    return g, (m_r, m_i), q, q * g - (m_r * m_r + m_i * m_i)


def strip_h(grid, window):
    """strip_frame of an (n+2)-plane window of a field's values (phi.values:
    the interior), one t-chunk at a time from its strip_jets."""
    shape = (len(window) - 2, grid.nx, grid.ny)
    g, m_r, m_i, q, det = (np.empty(shape) for _ in range(5))
    for i0, i1 in t_chunks(grid, shape[0]):
        k, w = slice(i0 - 1, i1 - 1), window[i0 - 1:i1 + 1]
        g[k], (m_r[k], m_i[k]), q[k], det[k] = strip_frame(
            grid, w, *strip_jets(grid, w))
    return g, (m_r, m_i), q, det


def check_frame(frame, g_floor: float = 0.0, det_floor: float = 0.0):
    """The strip frame (g, m, q, det) if 1 + a > g_floor and det h >
    det_floor at every interior node, else InadmissibleError.  Floors 0
    are the admissibility rule; Newton's line search raises them."""
    g, _, _, det = frame
    if not (g.min() > g_floor and det.min() > det_floor):
        raise InadmissibleError(
            f"min(1+a)={g.min():.3e}, min(det h)={det.min():.3e}")
    return frame


def admissible_frame(phi: ScalarField):
    """strip_h of phi's interior, checked by check_frame."""
    return check_frame(strip_h(phi.grid, phi.values))


def h_coefficient_planes(grid, g, m, q) -> dict:
    """Interior stencil planes of 4 adj(h) = 4 [[g, -m], [-m*, q]] for a
    strip h-matrix [[q, m], [m*, g]], with m given as its real pair
    (Re m, Im m).

    With w_zetazetabar = w_tt/4, w_z zetabar = w_tz/2 and d/dz = k1 d/dx +
    k2 d/dy every plane is real (the t-mixed ones are -4 Re(m k)), so the
    operator is exact on complex w as well; the factor 4 sits in the
    lattice constants.  This is the one plane builder: on strip_h's frame
    the planes applied are Newton's Jacobian (1+a) w_tt + Phi_tt w_zzbar
    - 2 Re(Phi_tz w_tzbar) and, divided by 4 det h, the h-Laplacian; on
    (g, m, q~) they give L (apply_L).  The caller checks admissibility
    (check_frame).  tt is a copy of g, since the stencil takes its
    planes over; xy is left out where its lattice constant is 0 (modulus i).
    """
    k1, k2 = grid.lattice.dz_coefficients
    m_r, m_i = m
    planes = {"tt": g.copy(), "xx": q * (4.0 * abs(k1) ** 2),
              "yy": q * (4.0 * abs(k2) ** 2),
              "tx": m_r * (-4.0 * k1.real) - m_i * (-4.0 * k1.imag),
              "ty": m_r * (-4.0 * k2.real) - m_i * (-4.0 * k2.imag)}
    if (kxy := 8.0 * (k1 * np.conj(k2)).real) != 0.0:
        planes["xy"] = q * kxy
    return planes


def h_contract(grid, values, frame):
    """h^{ij*} w_{ij*} of a (possibly complex) array w on the planes of a
    strip frame.

    Second derivatives of w are realized through the strip identities
    w_zetazetabar = w_tt/4, w_zeta zbar = w_tzbar/2 (w s-independent);
    the contraction is tr(inv(H) @ W) with the h-matrix of the frame the
    caller passes: admissible_frame(phi) for the interior, or the
    strip_frame of one t-chunk's window.  w is the window of those planes and
    their two neighbours; the stencil raises ValueError on any other shape.
    values may be a tuple of arrays: they share one stencil, and a tuple of
    results comes back.
    """
    many = isinstance(values, tuple)
    values = values if many else (values,)
    apply = second_order_stencil(grid, h_coefficient_planes(grid, *frame[:3]))
    out = [apply(v) for v in values]
    del apply           # its planes, before 4 det h is made
    det4 = 4.0 * frame[3]
    for o in out:
        o /= det4
    return tuple(out) if many else out[0]


def apply_L(grid, values: np.ndarray, frame, eps_tilde):
    """L^{ij*} w_{ij*} of an array w on the planes of a strip frame, for
    the scaled product-space Laplacian L = p + (eps b/g) diag(0, g^{-1}).

    At n = 1 on the strip eps b/g = eps_tilde / (4 (1+a)), and L equals
    adj(h~)/g for h~ = [[q~, m], [m*, g]] with q~ = (|m|^2 + eps_tilde/4)/g,
    so det h~ = eps_tilde/4: the stencil of h_coefficient_planes(g, m, q~),
    divided by 4g.  The caller passes the frame and w's window as for
    h_contract, and eps_tilde on the frame's planes.
    """
    g, (m_r, m_i) = frame[:2]
    q_tilde = (m_r * m_r + m_i * m_i + 0.25 * eps_tilde) / g
    apply = second_order_stencil(
        grid, h_coefficient_planes(grid, g, (m_r, m_i), q_tilde))
    del q_tilde         # freed before the stencil allocates its output
    out = apply(values)
    del apply           # and its planes, before 4g is made
    out /= 4.0 * g
    return out


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
