import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COS_BOUNDARY, chunk_grids
from hcma import AnnulusProfile, make_grid, newton_solve
from hcma.grid import (ScalarField, _wrap, dt1, dt2, dx1, dy1, second_diffs,
                       second_order_stencil, t_chunks, wirt_parts, wirt_zzbar)
from hcma.quantities import (InfeasibleKError, NonConvexBoundaryError,
                             admissible_frame, apply_L, boundary_S,
                             boundary_delta, choose_K, h_contract, sigma_roots,
                             strip_h)
from hcma.solver import Solution
from oracle import (DegenerateMetricError, FlatJet, TorusPointState,
                    composite_q_field, cone_membership, flat_jet_from_torus,
                    general_flat_state, m_matrix, n_matrix, q_gamma,
                    sigma2_prime, torus_state, wirtinger_jet)


def state(a, b):
    return TorusPointState.from_ab(a, b)


class TestTorusState:
    def test_zero_jet(self):
        assert state(0.0, 0.0).Q == 0.0

    def test_q_arithmetic(self):
        assert state(0.0, 0.3).Q == pytest.approx(0.09)
        assert state(1.0, 1.0 + 1.0j).Q == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateMetricError):
            state(-1.0, 0.0)

    def test_h_matrix_from_jet(self, sol_zero_const):
        # closed form: Phi_tt = eps0, a = b = 0 -> det h = eps0/4
        jet = wirtinger_jet(sol_zero_const.phi, (8, 0, 0))
        s = torus_state(jet, epsilon_tilde=0.25)
        assert s.h[0, 0] == pytest.approx(0.25 / 4)
        assert s.h[1, 1] == pytest.approx(1.0)
        assert s.det_h == pytest.approx(0.25 / 4, rel=1e-8)


class TestQGammaAndCones:
    def test_gamma_zero_is_q(self):
        s = state(0.3, 0.1 + 0.2j)
        assert q_gamma(s, 0.0) == pytest.approx(s.Q)

    def test_arithmetic(self):
        assert q_gamma(state(0.0, 0.0), 0.5) == pytest.approx(0.25)
        assert q_gamma(state(0.5, 0.3), -0.3) == pytest.approx(0.16)

    def test_cone_membership(self):
        assert cone_membership(0, 0, 0)
        assert not cone_membership(1, 0, 0)       # boundary excluded
        assert cone_membership(0.5, 0.2, 0.1)


class TestBoundaryQuantities:
    def test_S(self):
        assert boundary_S([(0, 0)]) == 1.0
        assert boundary_S([(0, 0.2)]) == pytest.approx(1.2)
        assert boundary_S([(-0.1, 0.0), (0.3, 0.4 + 0.3j)]) == pytest.approx(1.8)

    def test_delta(self):
        assert boundary_delta([(0, 0)]) == 1.0
        assert boundary_delta([(0.0, 0.2), (-0.1, 0.0)]) == pytest.approx(0.8)

    def test_delta_nonconvex(self):
        with pytest.raises(NonConvexBoundaryError):
            boundary_delta([(0, 1.0)])

    def test_empty(self):
        with pytest.raises(ValueError):
            boundary_S([])
        with pytest.raises(ValueError):
            boundary_delta([])


class TestSigmaAlgebra:
    def test_sigma2_at_two(self):
        assert sigma_roots(2)[1] == pytest.approx(0.8090170, abs=1e-6)

    def test_limit_large_K(self):
        s1, s2 = sigma_roots(1e6)
        assert 1 - 1e-5 < s2 < 1
        assert s1 < 0

    @pytest.mark.parametrize("K", [0.5, 1, 2, 10, 100])
    def test_sigma1_negative_sigma2_in_unit(self, K):
        s1, s2 = sigma_roots(K)
        assert s1 < 0 < s2 < 1

    def test_sigma2_monotone_in_K(self):
        vals = [sigma_roots(K)[1] for K in (1, 2, 5, 10, 100, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_roots_solve_quadratic(self):
        for K in (0.7, 3, 42):
            for q in sigma_roots(K):
                assert -q**2 + (1 - 1 / K) * q + 1 / (2 * K) == pytest.approx(
                    0.0, abs=1e-12)

    def test_choose_K(self):
        assert choose_K(0.0) == 3
        assert choose_K(0.5) == 3
        with pytest.raises(InfeasibleKError):
            choose_K(1.0)

    def test_nonpositive_K(self):
        with pytest.raises(ValueError):
            sigma_roots(0.0)


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 2.0, n)
    r = rng.uniform(0.0, 1.5, n) * (1.0 + a)
    th = rng.uniform(0, 2 * np.pi, n)
    return [state(ai, ri * np.exp(1j * ti)) for ai, ri, ti in zip(a, r, th)]


class TestMMatrix:
    def test_identity_at_zero_Q(self):
        M, det, closed = m_matrix(4.0, state(0.2, 0.0))
        assert np.allclose(M, np.eye(2))
        assert det == pytest.approx(1.0) == pytest.approx(closed)

    def test_det_example(self):
        # Q = 0.25 via a = 0, b = 0.5
        _, det, closed = m_matrix(4.0, state(0.0, 0.5))
        assert det == pytest.approx(2.0, rel=1e-12)
        assert closed == pytest.approx(2.0, rel=1e-12)

    def test_det_closed_form_random(self):
        for s in random_states(10_000, seed=11):
            _, det, closed = m_matrix(5.0, s)
            assert det == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_psd_below_sigma2(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            K = rng.integers(3, 20)
            a = rng.uniform(-0.5, 2.0)
            target_Q = rng.uniform(0, sigma_roots(K)[1] - 1e-9)
            b = math.sqrt(target_Q) * (1 + a) * np.exp(1j * rng.uniform(0, 7))
            M, _, _ = m_matrix(K, state(a, b))
            assert np.linalg.eigvalsh(M).min() >= -1e-10

    def test_psd_sharp_at_root(self):
        rng = np.random.default_rng(5)
        for K in (3, 4, 7, 12):
            s2 = sigma_roots(K)[1]
            a = rng.uniform(-0.5, 2.0)
            b = math.sqrt(s2) * (1 + a) * np.exp(1j * rng.uniform(0, 7))
            M, _, _ = m_matrix(K, state(a, b))
            assert abs(np.linalg.eigvalsh(M).min()) <= 1e-8

    def test_not_psd_above_root(self):
        K = 3
        s2 = sigma_roots(K)[1]
        b = math.sqrt(s2 + 0.05)
        M, _, _ = m_matrix(K, state(0.0, b))
        assert np.linalg.eigvalsh(M).min() < 0


class TestNMatrix:
    def test_det_zero_at_root(self):
        for P in (2.0, 5.0, 10.0):
            q = sigma2_prime(P)
            b = math.sqrt(q)          # a = 0, eta = 0 -> Q_eta = |b|^2
            N = n_matrix(P, state(0.0, b), 0.0)
            assert abs(np.linalg.det(N).real) <= 1e-10

    def test_example_diag(self):
        # P = 2, Q_eta = 2 via b = sqrt(2): diag (3, 7), PSD
        N = n_matrix(2.0, state(0.0, math.sqrt(2.0)), 0.0)
        assert N[0, 0] == pytest.approx(3.0)
        assert N[1, 1] == pytest.approx(7.0)
        assert np.linalg.eigvalsh(N).min() >= -1e-12

    def test_below_root_not_psd(self):
        # (1 + 1/10 + sqrt(1 + 1/100))/2
        assert sigma2_prime(10.0) == pytest.approx(1.0524938, abs=1e-6)
        assert sigma2_prime(10.0) > 0.5
        N = n_matrix(10.0, state(0.0, math.sqrt(0.5)), 0.0)
        assert np.linalg.eigvalsh(N).min() < 0

    def test_P_must_exceed_one(self):
        with pytest.raises(ValueError):
            n_matrix(1.0, state(0.0, 0.1), 0.0)


def random_flat_jet_n1(rng):
    a = rng.uniform(-0.5, 2.0)
    b = rng.uniform(0, 1.5) * (1 + a) * np.exp(1j * rng.uniform(0, 7))
    cplx = lambda: rng.standard_normal() + 1j * rng.standard_normal()
    return a, b, FlatJet(
        A=np.array([[a]], dtype=complex),
        B=np.array([[b]], dtype=complex),
        grad=np.array([cplx()]),
        tau_alphabar=np.array([cplx()]),
        tau_alpha=np.array([cplx()]),
        A_d=np.array([[[cplx()]], [[cplx()]]]),
        B_dbar=np.array([[[cplx()]], [[cplx()]]]))


class TestGeneralFlatState:
    def test_all_zero_jets(self):
        jet = FlatJet(A=np.zeros((1, 1), complex), B=np.zeros((1, 1), complex),
                      grad=np.zeros(1, complex),
                      tau_alphabar=np.zeros(1, complex),
                      tau_alpha=np.zeros(1, complex),
                      A_d=np.zeros((2, 1, 1), complex),
                      B_dbar=np.zeros((2, 1, 1), complex))
        s = general_flat_state(jet, 0.3)
        assert s.Q == 0.0 and s.T == 0.0 and s.E == 0.0 and s.P == 0.0
        assert np.allclose(s.p_coeff, np.diag([1.0, 0.0]))
        assert np.allclose(s.L_coeff, np.diag([1.0, 0.3]))

    def test_n1_zero_mixed_term(self):
        rng = np.random.default_rng(2)
        a, b, jet = random_flat_jet_n1(rng)
        jet = FlatJet(A=jet.A, B=jet.B, grad=jet.grad,
                      tau_alphabar=np.zeros(1, complex),
                      tau_alpha=jet.tau_alpha, A_d=jet.A_d, B_dbar=jet.B_dbar)
        s = general_flat_state(jet, 0.1)
        assert np.allclose(s.p_coeff, np.diag([1.0, 0.0]))
        assert s.L_coeff[1, 1] == pytest.approx(0.1 / (1 + a))
        assert s.T == pytest.approx(abs(jet.tau_alpha[0]) ** 2 / (1 + a))

    def test_n1_consistency_with_torus_layer(self):
        # acceptance: 1e3 random jets, <= 1e-12 discrepancy
        rng = np.random.default_rng(20)
        for _ in range(1000):
            a, b, jet = random_flat_jet_n1(rng)
            s = general_flat_state(jet, 0.2)
            ts = state(a, b)
            assert s.Q_B == pytest.approx(ts.Q, rel=1e-12, abs=1e-12)
            assert s.Q_A == pytest.approx(a**2 / (1 + a) ** 2, rel=1e-12,
                                          abs=1e-12)
            assert s.Q_G == pytest.approx(abs(jet.grad[0]) ** 2 / (1 + a),
                                          rel=1e-12, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_structure_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, jet = random_flat_jet_n1(rng)
        ratio = rng.uniform(0.01, 1.0)
        s = general_flat_state(jet, ratio)
        assert np.allclose(s.L_coeff, s.L_coeff.conj().T)
        assert np.allclose(s.p_coeff, s.p_coeff.conj().T)
        assert np.linalg.matrix_rank(s.p_coeff, tol=1e-10) <= 1
        # L - p = ratio * diag(0, g^{-1}) is PSD
        diff = s.L_coeff - s.p_coeff
        assert np.linalg.eigvalsh(diff).min() >= -1e-12
        assert min(s.Q_A, s.Q_B, s.Q_G, s.T, s.E, s.P) >= -1e-12

    def test_n2_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            W = 0.2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
            A = W + W.conj().T
            Braw = 0.3 * (rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2)))
            B = Braw + Braw.T
            jet = FlatJet(
                A=A, B=B,
                grad=rng.standard_normal(2) + 1j * rng.standard_normal(2),
                tau_alphabar=0.1 * (rng.standard_normal(2)
                                    + 1j * rng.standard_normal(2)),
                tau_alpha=0.1 * (rng.standard_normal(2)
                                 + 1j * rng.standard_normal(2)),
                A_d=0.1 * (rng.standard_normal((3, 2, 2))
                           + 1j * rng.standard_normal((3, 2, 2))),
                B_dbar=0.1 * (rng.standard_normal((3, 2, 2))
                              + 1j * rng.standard_normal((3, 2, 2))))
            G = np.eye(2) + A
            if np.linalg.eigvalsh(G).min() <= 0.05:
                continue
            s = general_flat_state(jet, 0.1)
            assert min(s.Q_A, s.Q_B, s.Q_G, s.T, s.E, s.P) >= -1e-10
            assert s.Q == pytest.approx(s.Q_A + s.Q_B + s.Q_G)

    def test_degenerate_metric(self):
        jet = FlatJet(A=np.array([[-1.5]], complex),
                      B=np.zeros((1, 1), complex), grad=np.zeros(1, complex),
                      tau_alphabar=np.zeros(1, complex),
                      tau_alpha=np.zeros(1, complex),
                      A_d=np.zeros((2, 1, 1), complex),
                      B_dbar=np.zeros((2, 1, 1), complex))
        with pytest.raises(DegenerateMetricError):
            general_flat_state(jet, 0.1)


def reference_strip_h(phi):
    """The strip frame from whole-grid jets (a, d_tx, d_ty, d_tt), as it
    was built before it went chunk by chunk."""
    grid, v = phi.grid, phi.values
    g = 1.0 + wirt_zzbar(grid, v)[1:-1]
    m_r, m_i = wirt_parts(grid, dt1(grid, dx1(grid, v))[1:-1],
                          dt1(grid, dy1(grid, v))[1:-1])
    m_r *= 0.5
    m_i *= -0.5
    q = 0.25 * dt2(grid, v)[1:-1]
    return g, (m_r, m_i), q, q * g - (m_r * m_r + m_i * m_i)


class TestChunkedStripFrame:
    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
    @pytest.mark.parametrize("case", [0, 1, 2, 3],
                             ids=["whole-chunks", "part-chunk", "one-chunk",
                                  "one-plane-chunks"])
    def test_bitwise_equal_to_whole_grid_jets(self, modulus, case):
        grid = chunk_grids(modulus)[case]
        rng = np.random.default_rng(case)
        t = grid.t_values[:, None, None]
        x = grid.x_values[None, :, None]
        y = grid.y_values[None, None, :]
        values = (0.05 * t * (t - 1.0) + 0.01 * np.cos(2 * np.pi * (x + y))
                  + 1e-4 * rng.standard_normal(grid.shape))
        phi = ScalarField(grid, values)
        g, (m_r, m_i), q, det = strip_h(grid, phi.values)
        want_g, (want_r, want_i), want_q, want_det = reference_strip_h(phi)
        for got, want in ((g, want_g), (m_r, want_r), (m_i, want_i),
                          (q, want_q), (det, want_det)):
            assert np.array_equal(got, want)
        assert vars(phi).keys() == {"grid", "values"}


def interior_eps(solution):
    """eps_tilde on the interior t-planes, which apply_L takes with the
    whole-interior frame."""
    return solution.profile.rhs_on(solution.grid)[1:-1]


class TestApplyL:
    def test_constant_field(self, sol_cos):
        out = apply_L(sol_cos.grid, ScalarField.from_function(
            sol_cos.grid, lambda t, x, y: 0 * t + 3.0).values,
            admissible_frame(sol_cos.phi), interior_eps(sol_cos))
        assert np.abs(out).max() == pytest.approx(0.0, abs=1e-10)

    def test_t_squared_on_closed_form(self, sol_zero_const):
        # Phi_tzbar = 0, so L[t^2] = (t^2)_zetazetabar = 1/2
        out = apply_L(sol_zero_const.grid, ScalarField.from_function(
            sol_zero_const.grid, lambda t, x, y: t**2 + 0 * x).values,
            admissible_frame(sol_zero_const.phi), interior_eps(sol_zero_const))
        assert np.allclose(out, 0.5, atol=1e-9)

    def test_decomposition_matches_general_flat_state(self, sol_cos):
        # L = adj(h~)/g, h~ = [[q~, m], [m*, g]], q~ = (|m|^2 + eps~/4)/g;
        # L_coeff is stored conjugated, as g^{ab*} is
        g, (m_r, m_i), _, _ = admissible_frame(sol_cos.phi)
        m = m_r + 1j * m_i
        rhs = sol_cos.profile.rhs_on(sol_cos.grid)
        q_tilde = (np.abs(m) ** 2 + 0.25 * rhs[1:-1]) / g
        for node in [(5, 3, 7), (8, 16, 2), (12, 30, 30)]:
            it, ix, iy = node
            jet = wirtinger_jet(sol_cos.phi, node, order=3)
            ratio = rhs[it, ix, iy] / (4.0 * (1.0 + jet.a))
            s = general_flat_state(flat_jet_from_torus(jet), ratio)
            ii = (it - 1, ix, iy)
            adj = np.array([[g[ii], -m[ii]], [-np.conj(m[ii]), q_tilde[ii]]])
            assert np.allclose(s.L_coeff, np.conj(adj) / g[ii], rtol=0,
                               atol=1e-12)

    def test_shape_mismatch(self, sol_cos):
        with pytest.raises(ValueError):
            apply_L(sol_cos.grid, np.zeros((3, 4, 4)),
                    admissible_frame(sol_cos.phi), interior_eps(sol_cos))


def chunk_problem(modulus, case):
    """(grid, strip frame, real w, complex w) on chunk_grids(modulus)[case],
    the frame of an admissible field with t-mixed terms."""
    grid = chunk_grids(modulus)[case]
    rng = np.random.default_rng(case)
    t = grid.t_values[:, None, None]
    x = grid.x_values[None, :, None]
    y = grid.y_values[None, None, :]
    phi = ScalarField(grid, 0.05 * t * (t - 1.0)
                      + 0.01 * t * np.cos(2 * np.pi * (x + y))
                      + 0.002 * np.sin(2 * np.pi * x))
    w = rng.standard_normal(grid.shape)
    return grid, admissible_frame(phi), w, w + 1j * rng.standard_normal(
        grid.shape)


def chunk_frame(frame, c0, c1):
    """The frame's slices for grid t-planes c0..c1-1."""
    k = slice(c0 - 1, c1 - 1)
    g, (m_r, m_i), q, det = frame
    return g[k], (m_r[k], m_i[k]), q[k], det[k]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


CHUNK_CASES = pytest.mark.parametrize(
    "case", [0, 1, 2, 3], ids=["whole-chunks", "part-chunk", "one-chunk",
                               "one-plane-chunks"])
MODULI = pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
PADDED = pytest.mark.parametrize("padded", [False, True],
                                 ids=["unpadded", "padded"])


class TestChunkWindows:
    """h_contract and apply_L on one t-chunk's window and frame slice give
    that chunk's planes of the whole-interior call, bitwise; the window
    padded by one periodic cell in x and y is refused, since the stencil
    pads it itself."""

    @MODULI
    @CHUNK_CASES
    @PADDED
    def test_h_contract(self, modulus, case, padded):
        grid, frame, w, wc = chunk_problem(modulus, case)
        want = h_contract(grid, (w, wc), frame)
        assert_bitwise(h_contract(grid, w, frame), want[0])
        for c0, c1 in t_chunks(grid):
            k, part = slice(c0 - 1, c1 - 1), chunk_frame(frame, c0, c1)
            windows = [x[c0 - 1:c1 + 1] for x in (w, wc)]
            if padded:
                for x in windows:
                    with pytest.raises(ValueError):
                        h_contract(grid, _wrap(x), part)
                continue
            got = h_contract(grid, tuple(windows), part)
            assert isinstance(got, tuple) and len(got) == 2
            for x, y in zip(got, want):
                assert_bitwise(x, y[k])
            for x, y in zip(windows, want):
                assert_bitwise(h_contract(grid, x, part), y[k])

    @MODULI
    @CHUNK_CASES
    @PADDED
    def test_apply_L(self, modulus, case, padded):
        grid, frame, w, wc = chunk_problem(modulus, case)
        eps = AnnulusProfile(1e-3).rhs_on(grid)
        for v in (w, wc):
            want = apply_L(grid, v, frame, eps[1:-1])
            for c0, c1 in t_chunks(grid):
                window, part = v[c0 - 1:c1 + 1], chunk_frame(frame, c0, c1)
                if padded:
                    with pytest.raises(ValueError):
                        apply_L(grid, _wrap(window), part, eps[c0:c1])
                    continue
                got = apply_L(grid, window, part, eps[c0:c1])
                assert_bitwise(got, want[c0 - 1:c1 - 1])

    @pytest.mark.parametrize("extra", [-1, 1], ids=["n+1", "n+3"])
    def test_window_of_another_length_raises(self, extra):
        grid, frame, w, wc = chunk_problem(1j, 2)
        eps = AnnulusProfile(1e-3).rhs_on(grid)
        whole = np.concatenate([wc, wc[:1]]) if extra > 0 else wc[:-1]
        for c0, c1, v in ((2, 5, wc[1:6 + extra]), (1, grid.nt - 1, whole)):
            part = chunk_frame(frame, c0, c1)
            good = wc[c0 - 1:c1 + 1]
            assert len(v) == len(part[0]) + 2 + extra
            with pytest.raises(ValueError):
                h_contract(grid, v, part)
            with pytest.raises(ValueError):
                h_contract(grid, (good, v), part)
            with pytest.raises(ValueError):
                apply_L(grid, v.real, part, eps[c0:c1])


# --- the earlier two-step plane arithmetic, kept as a reference --------------

def reference_strip_planes(grid, c00, c10, c11):
    """Stencil planes of c00 w_zetazetabar + c10 w_z zetabar
    + conj(c10) w_zeta zbar + c11 w_z zbar, c10 as (Re c10, Im c10)."""
    k1, k2 = grid.lattice.dz_coefficients
    c_r, c_i = c10
    return {"tt": 0.25 * c00, "xx": c11 * abs(k1) ** 2,
            "yy": c11 * abs(k2) ** 2,
            "xy": c11 * (2.0 * (k1 * np.conj(k2)).real),
            "tx": c_r * k1.real - c_i * k1.imag,
            "ty": c_r * k2.real - c_i * k2.imag}


def reference_h_planes(grid, g, m, q):
    """4 times the planes of (g, -m, q), scaled in a second pass."""
    planes = reference_strip_planes(grid, g, m, q)
    for key, plane in planes.items():
        plane *= -4.0 if key in ("tx", "ty") else 4.0
    return planes


def reference_apply(grid, planes, w):
    """Interior sum of each plane times the matching second difference of
    the grid array w, from the grid's own stencils."""
    xx, xy, yy = second_diffs(grid, w)
    diffs = {"tt": dt2(grid, w), "xx": xx, "xy": xy, "yy": yy,
             "tx": dt1(grid, dx1(grid, w)), "ty": dt1(grid, dy1(grid, w))}
    return sum(plane * diffs[key][1:-1] for key, plane in planes.items())


def reference_L(solution, values):
    """Interior L[w] from the coefficient fields L00 = 1, L10 = -m/g,
    L11 = |m|^2/g^2 + eps~/(4 g^2)."""
    grid = solution.grid
    g, (m_r, m_i), _, _ = admissible_frame(solution.phi)
    ratio = solution.profile.rhs_on(grid)[1:-1] / (4.0 * g)
    L10 = (-m_r / g, -m_i / g)
    L11 = (m_r * m_r + m_i * m_i) / g**2 + ratio / g
    planes = reference_strip_planes(grid, np.full_like(g, 1.0), L10, L11)
    return reference_apply(grid, planes, values)


@pytest.fixture(scope="module", params=[1j, 0.3 + 1.1j],
                ids=["square", "skew"])
def cos_on_modulus(request):
    sol = newton_solve(make_grid(17, 32, 32, request.param), COS_BOUNDARY,
                       AnnulusProfile(1e-3))
    assert sol.converged
    return sol


@pytest.fixture(params=["solution", "perturbed"])
def strip_field(request, cos_on_modulus):
    sol = cos_on_modulus
    if request.param == "solution":
        return sol
    # admissible, but det h != eps~/4: the q~ identity holds off-solution
    grid = sol.grid
    t = grid.t_values[:, None, None]
    x = grid.x_values[None, :, None]
    y = grid.y_values[None, None, :]
    bump = 2e-4 * np.sin(np.pi * t) * np.cos(2 * np.pi * (x + 2 * y))
    field = Solution(phi=ScalarField(grid, sol.phi.values + bump), grid=grid,
                     profile=sol.profile, boundary=sol.boundary,
                     converged=True, final_residual=0.0, iterations=0)
    det = admissible_frame(field.phi)[3]
    eps = sol.profile.rhs_on(grid)[1:-1]
    assert np.abs(4.0 * det - eps).max() > 1e-3
    return field


class TestOnePlaneBuilder:
    def test_h_planes_equal_two_step_formula(self, strip_field):
        # the stencil of 4 adj(h), applied to w, is the sum of the two-step
        # formula's planes times the grid's own differences of w
        grid = strip_field.grid
        g, (m_r, m_i), q, _ = admissible_frame(strip_field.phi)
        w = np.random.default_rng(5).standard_normal(grid.shape)
        want = reference_apply(grid, reference_h_planes(grid, g, (m_r, m_i), q),
                               w)
        got = second_order_stencil(grid, g, (m_r, m_i), q)(w[1:-1], w[0],
                                                            w[-1])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_operators_leave_the_frame_alone(self, strip_field):
        # the stencil scales the arrays it is given in place: h_contract
        # and apply_L give it copies of the caller's frame
        grid = strip_field.grid
        frame = admissible_frame(strip_field.phi)
        g, (m_r, m_i), q, det = frame
        before = [x.copy() for x in (g, m_r, m_i, q, det)]
        Q = composite_q_field(strip_field)
        h_contract(grid, (Q, Q + 1j), frame)
        apply_L(grid, Q, frame, interior_eps(strip_field))
        for x, y in zip((g, m_r, m_i, q, det), before):
            assert np.array_equal(x, y)

    def test_apply_L_matches_coefficient_fields(self, strip_field):
        Q = composite_q_field(strip_field)
        got = apply_L(strip_field.grid, Q, admissible_frame(strip_field.phi),
                      interior_eps(strip_field))
        want = reference_L(strip_field, Q)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
