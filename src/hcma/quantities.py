"""The strip-frame h-matrix of a solution and the operators built on it.

strip_frame is the one formula of the frame (g, m, q, det) on a t-window
of a field, from the jets its reader already has; strip_h frames a window
one t-chunk at a time, and check_frame is the admissibility rule.  Through
the one stencil of 4 adj(h) (grid.second_order_stencil) the frame gives
Newton's Jacobian, the h-Laplacian (h_contract) and L = adj(h~)/g
(apply_L).  The boundary quantities S and delta and the constant K of the
e^{KQ} argument (boundary_S, boundary_delta, sigma_roots, choose_K) are
the scalars the verifier's pass reads off the boundary planes.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import second_order_stencil, strip_jets, t_chunks, wirt_parts


class NonConvexBoundaryError(ValueError):
    """Boundary data violates strict omega_0-convexity."""


class InfeasibleKError(ValueError):
    """No K can dominate a boundary Q that reaches 1."""


def boundary_S(a, b) -> float:
    """max over boundary of (a + 1 + |b|) from the boundary planes' a and
    b; bounds |b| + a + 1 in the interior."""
    return float((a + 1.0 + np.abs(b)).max())


def boundary_delta(a, b) -> float:
    """Boundary gap delta = min over boundary of ((1 + a) - |b|), from the
    boundary planes' a and b.

    For every |gamma| <= gamma' < delta the shifted quantity q_gamma stays
    below 1 on the whole boundary; the interior metric bound 1 + a > delta
    follows.  Raises when the boundary is not strictly omega_0-convex.
    """
    delta = float(((1.0 + a) - np.abs(b)).min())
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


def strip_h(grid, window, out):
    """strip_frame of an (n+2)-plane window of a field's values (phi.values:
    the interior), one t-chunk at a time from its strip_jets, written into
    out, a real (5, n, nx, ny) block whose slots g, Re m, Im m, q and det
    the returned frame views.  Whatever out held before is overwritten, so
    a block can be reused from field to field."""
    g, m_r, m_i, q, det = out
    for i0, i1 in t_chunks(grid, len(window) - 2):
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


def h_contract(grid, values, frame):
    """h^{ij*} w_{ij*} of each (possibly complex) array w of the tuple
    values on the planes of a strip frame, as a tuple in the same order.

    Second derivatives of w are realized through the strip identities
    w_zetazetabar = w_tt/4, w_zeta zbar = w_tzbar/2 (w s-independent);
    the contraction is tr(inv(H) @ W) with the h-matrix of the frame the
    caller passes: the checked strip_h of the interior, or the strip_frame
    of one t-chunk's window.  Each w is the window of those planes and
    their two neighbours; the stencil raises ValueError on any other
    shape.  The arrays share one stencil, built in a fresh block, so the
    frame is left as it is.
    """
    apply = second_order_stencil(grid, *frame[:3],
                                 np.empty((5, *frame[0].shape)))
    out = [apply(v[1:-1], v[0], v[-1]) for v in values]
    del apply           # its arrays, before 4 det h is made
    det4 = 4.0 * frame[3]
    for o in out:
        o /= det4
    return tuple(out)


def apply_L(grid, values: np.ndarray, frame, eps_tilde):
    """L^{ij*} w_{ij*} of an array w on the planes of a strip frame, for
    the scaled product-space Laplacian L = p + (eps b/g) diag(0, g^{-1}).

    At n = 1 on the strip eps b/g = eps_tilde / (4 (1+a)), and L equals
    adj(h~)/g for h~ = [[q~, m], [m*, g]] with q~ = (|m|^2 + eps_tilde/4)/g,
    so det h~ = eps_tilde/4: the stencil of 4 adj(h~), divided by 4g.  The
    caller passes the frame and w's window as for h_contract, and
    eps_tilde on the frame's planes; the stencil is built in a fresh block,
    so the frame is left as it is.
    """
    g, (m_r, m_i) = frame[:2]
    q_tilde = (m_r * m_r + m_i * m_i + 0.25 * eps_tilde) / g
    apply = second_order_stencil(grid, *frame[:2], q_tilde,
                                 np.empty((5, *g.shape)))
    out = apply(values[1:-1], values[0], values[-1])
    del apply           # and its arrays, before 4g is made
    out /= 4.0 * g
    return out
