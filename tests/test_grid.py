import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcma.grid
from conftest import chunk_grids
from hcma.grid import (DegenerateLatticeError, DimensionTooSmallError,
                       ScalarField, _wrap, dt1, dt2, dx1, dy1,
                       interpolate_array, make_grid, plane_jets,
                       second_order_stencil, strip_jets, t_chunks,
                       wirt_parts, wirt_z, wirt_zbar, wirt_zz, wirt_zzbar)
from oracle import wirtinger_jet


def field_from(grid, fn):
    return ScalarField.from_function(grid, fn)


class TestMakeGrid:
    def test_small_grid_counts(self):
        g = make_grid(3, 4, 4, 1j)
        assert g.n_nodes == 48
        assert g.ht == 0.5

    def test_mid_grid_counts(self):
        g = make_grid(17, 32, 32, 1j)
        assert g.n_nodes == 17408

    def test_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            make_grid(2, 4, 4, 1j)
        with pytest.raises(DimensionTooSmallError):
            make_grid(3, 3, 4, 1j)

    def test_degenerate_lattice(self):
        with pytest.raises(DegenerateLatticeError):
            make_grid(3, 4, 4, 2.0 + 0j)

    @pytest.mark.parametrize("modulus", [complex(float("nan"), 1.0),
                                         complex(0.0, float("nan")),
                                         complex(float("inf"), 1.0),
                                         complex(0.0, float("inf"))])
    def test_non_finite_lattice(self, modulus):
        with pytest.raises(DegenerateLatticeError):
            make_grid(3, 4, 4, modulus)

    @pytest.mark.parametrize("modulus", [1e-200j, 1e300 + 1j,
                                         1e308 + 1e308j, 5e-324j])
    def test_coefficients_past_float_range(self, modulus):
        # finite moduli whose Wirtinger coefficients overflow when squared,
        # or (Im past 1e308 / 2) vanish
        with pytest.raises(DegenerateLatticeError, match="float range"):
            make_grid(3, 4, 4, modulus)

    def test_square_lattice_wirtinger_coefficients(self):
        c1, c2 = make_grid(3, 4, 4, 1j).lattice.dz_coefficients
        # d/dz = (d/dx - i d/dy)/2 on the square lattice
        assert c1 == pytest.approx(0.5)
        assert c2 == pytest.approx(-0.5j)


def roll_reference(grid, v):
    """The x, y stencils written with np.roll, one copy per shift: dx1,
    dy1 and the (d_xx, d_xy, d_yy) triple of second_diffs."""
    r, hx, hy = np.roll, grid.hx, grid.hy
    return {
        "dx1": (r(v, -1, axis=1) - r(v, 1, axis=1)) / (2 * hx),
        "dy1": (r(v, -1, axis=2) - r(v, 1, axis=2)) / (2 * hy),
        "second_diffs": (
            (r(v, -1, axis=1) - 2 * v + r(v, 1, axis=1)) / hx**2,
            (r(v, (-1, -1), axis=(1, 2)) - r(v, (-1, 1), axis=(1, 2))
             - r(v, (1, -1), axis=(1, 2)) + r(v, (1, 1), axis=(1, 2)))
            / (4 * hx * hy),
            (r(v, -1, axis=2) - 2 * v + r(v, 1, axis=2)) / hy**2),
    }


class TestWrap:
    # the slices of the one-cell pad the stencils read: dx1's x pad, dy1's
    # y pad, second_diffs' whole pad and its centre
    @pytest.mark.parametrize("widths", [(1, 0), (0, 1), (1, 1), (0, 0)])
    @pytest.mark.parametrize("shape", [(1, 4, 4), (3, 4, 4), (1, 7, 5),
                                       (5, 9, 6)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_np_pad(self, widths, shape, dtype):
        # single-plane windows, and the smallest grid (3, 4, 4)
        rng = np.random.default_rng(sum(shape) + sum(widths))
        v = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal(shape)
        x, y = widths
        got = _wrap(v)[:, 1 - x:shape[1] + 1 + x, 1 - y:shape[2] + 1 + y]
        want = np.pad(v, ((0, 0), (x, x), (y, y)), mode="wrap")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # t-blocks are padded as their concatenation; a real block joins a
        # complex one as complex
        parts = _wrap(v[:1].real, v[1:], np.zeros((2,) + shape[1:]))
        assert parts.tobytes() == _wrap(np.concatenate(
            [v[:1].real.astype(dtype), v[1:], np.zeros((2,) + shape[1:],
                                                        dtype)])).tobytes()


class TestStencilPrimitives:
    @pytest.mark.parametrize("shape", [(3, 4, 5), (4, 7, 6), (5, 9, 9),
                                       (3, 8, 8)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_roll(self, shape, dtype):
        g = make_grid(*shape, 0.3 + 1.1j)
        rng = np.random.default_rng(sum(shape))
        v = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal(shape)
        for name, want in roll_reference(g, v).items():
            got = getattr(hcma.grid, name)(g, v)
            if name != "second_diffs":
                got, want = (got,), (want,)
            assert len(got) == len(want), name
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, i)

    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
    def test_complex_jets_built_from_the_real_pairs(self, modulus):
        g = make_grid(5, 8, 6, modulus)
        v = np.random.default_rng(4).standard_normal(g.shape)
        z_r, z_i = wirt_parts(g, dx1(g, v), dy1(g, v))
        assert np.array_equal(z_r + 1j * z_i, wirt_z(g, v))
        ref = dt1(g, wirt_z(g, v))             # Phi_tz, differenced complex
        tz_r, tz_i = wirt_parts(g, dt1(g, dx1(g, v)), dt1(g, dy1(g, v)))
        assert np.allclose(tz_r + 1j * tz_i, ref, rtol=0,
                           atol=1e-14 * abs(ref).max())

    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
    def test_plane_jets_are_the_whole_grid_jets(self, modulus):
        g = make_grid(5, 8, 6, modulus)
        v = np.random.default_rng(7).standard_normal(g.shape)
        whole = (wirt_zzbar(g, v), wirt_zz(g, v), dx1(g, v), dy1(g, v))
        for lo, hi in ((0, 5), (2, 3)):
            got = plane_jets(g, v[lo:hi])
            for x, want in zip(got, whole):
                want = want[lo:hi]
                assert x.dtype == want.dtype
                assert x.tobytes() == want.tobytes()
        # strip_jets: a on a window's inner planes, d_x and d_y on all of it
        for lo, hi in ((0, 5), (1, 4), (2, 4)):
            got = strip_jets(g, v[lo:hi])
            wants = (whole[0][lo + 1:hi - 1], whole[2][lo:hi],
                     whole[3][lo:hi])
            for x, want in zip(got, wants):
                assert x.dtype == want.dtype and x.shape == want.shape
                assert x.tobytes() == want.tobytes()


def whole_grid_apply(grid, g, m, q, v):
    """The stencil of second_order_stencil over the whole grid at once: the
    same coefficients, terms and sums, on one periodic pad of the window v
    and whole-grid arrays."""
    n, nx, ny = len(v) - 2, grid.nx, grid.ny
    ht, hx, hy = grid.ht, grid.hx, grid.hy
    k1, k2 = grid.lattice.dz_coefficients
    cxx, cyy = 4.0 * abs(k1)**2 / hx**2, 4.0 * abs(k2)**2 / hy**2
    cxy = 2.0 * (k1 * np.conj(k2)).real / (hx * hy)
    g, q = g * (1.0 / ht**2), q * cxx
    centre = -2.0 * (g + (1.0 + cyy / cxx) * q)
    (rx, ix), (ry, iy) = ((-k.real / (ht * h), k.imag / (ht * h))
                          for k, h in ((k1, hx), (k2, hy)))
    tx, ty = rx * m[0] + ix * m[1], ry * m[0] + iy * m[1]
    p = _wrap(v)

    def d(plus, minus=()):
        t = at(plus[0]) + at(plus[1])
        for o in minus:
            t = t - at(o)
        return t

    def at(o):
        return p[1 + o[0]:n + 1 + o[0], 1 + o[1]:nx + 1 + o[1],
                 1 + o[2]:ny + 1 + o[2]]

    q_sum = d(((0, 0, 1), (0, 0, -1)))      # Horner-wise: xy, yy, xx
    if cxy:
        q_sum = d(((0, 1, 1), (0, -1, -1)), ((0, 1, -1), (0, -1, 1)))
        q_sum = q_sum * (cxy / cyy) + at((0, 0, 1)) + at((0, 0, -1))
    if cyy / cxx != 1.0:
        q_sum = q_sum * (cyy / cxx)
    q_sum = q_sum + at((0, 1, 0)) + at((0, -1, 0))
    out = at((0, 0, 0)) * centre
    out += d(((1, 0, 0), (-1, 0, 0))) * g
    out += q_sum * q
    out += d(((1, 1, 0), (-1, -1, 0)), ((1, -1, 0), (-1, 1, 0))) * tx
    out += d(((1, 0, 1), (-1, 0, -1)), ((1, 0, -1), (-1, 0, 1))) * ty
    return out


class TestChunkedStencil:
    def test_chunks_cover_the_interior_once(self):
        for g in chunk_grids(1j):
            step = max(1, hcma.grid.CHUNK_NODES // (g.nx * g.ny))
            for n in (None, 1, step - 1, step, step + 1):
                if n == 0:
                    continue
                chunks = list(t_chunks(g, n))
                assert [i for c0, c1 in chunks for i in range(c0, c1)] == list(
                    range(1, (g.nt - 2 if n is None else n) + 1))
                assert all(0 < c1 - c0 <= step for c0, c1 in chunks)
        assert ([len(list(t_chunks(g))) for g in chunk_grids(1j)]
                == [2, 3, 1, 5])

    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_whole_grid(self, modulus, dtype):
        for g in chunk_grids(modulus):
            rng = np.random.default_rng(g.nt)
            g_, m_r, m_i, q = rng.standard_normal((4, g.nt - 2, g.nx, g.ny))
            v = rng.standard_normal(g.shape).astype(dtype)
            if dtype is complex:
                v += 1j * rng.standard_normal(g.shape)

            def stencil(k):     # the stencil of the arrays' planes k
                return second_order_stencil(
                    g, g_[k].copy(), (m_r[k].copy(), m_i[k].copy()),
                    q[k].copy())

            want = whole_grid_apply(g, g_, (m_r, m_i), q, v)
            apply = stencil(slice(None))
            got = apply(v[1:-1], v[0], v[-1])
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(apply(v[1:-1], v[0], v[-1]), want)
            # Dirichlet neighbours: one zero plane below and above
            zero, d = np.zeros((g.nx, g.ny)), v.copy()
            d[0] = d[-1] = 0.0
            assert np.array_equal(apply(v[1:-1], zero, zero),
                                  whole_grid_apply(g, g_, (m_r, m_i), q, d))
            # the stencil of one t-chunk's planes, on the chunk's planes and
            # their neighbours, gives the chunk's planes of the whole
            for c0, c1 in t_chunks(g):
                k = slice(c0 - 1, c1 - 1)
                part = stencil(k)(v[c0:c1], v[c0 - 1], v[c1])
                assert part.dtype == got.dtype
                assert part.tobytes() == got[k].tobytes()

    @pytest.mark.parametrize("extra", [-1, 1], ids=["n+1", "n+3"])
    def test_window_of_another_length_raises(self, extra):
        # n planes and their two neighbours make a window of n+2; one
        # plane fewer or more, or a neighbour of another shape, raises
        g = make_grid(9, 16, 16)
        n, plane = g.nt - 2, np.zeros((g.nx, g.ny))
        g_, m_r, m_i, q = np.ones((4, n, g.nx, g.ny))
        apply = second_order_stencil(g, g_, (m_r, m_i), q)
        assert apply(np.zeros((n, g.nx, g.ny)), plane, plane).shape == (
            n, g.nx, g.ny)
        with pytest.raises(ValueError):
            apply(np.zeros((n + extra, g.nx, g.ny)), plane, plane)
        for ends in ((plane[None], plane), (plane, plane[:-1])):
            with pytest.raises(ValueError):
                apply(np.zeros((n, g.nx, g.ny)), *ends)


class TestWirtingerJet:
    def test_constant_field(self):
        g = make_grid(5, 8, 8)
        jet = wirtinger_jet(field_from(g, lambda t, x, y: 0 * t + 5.0), (2, 3, 3))
        for name in ("d_t", "d_tt", "d_z", "a", "b", "d_tz", "d_tzb"):
            assert np.allclose(getattr(jet, name), 0.0)

    def test_quadratic_radial(self):
        # x^2 + y^2 away from the periodic seam: a = 1, b = 0
        g = make_grid(5, 16, 16)
        fld = field_from(g, lambda t, x, y: x**2 + y**2 + 0 * t)
        jet = wirtinger_jet(fld, (2, 8, 8))
        assert jet.a == pytest.approx(1.0)
        assert jet.b == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_mixed(self):
        g = make_grid(5, 16, 16)
        fld = field_from(g, lambda t, x, y: x * y + 0 * t)
        jet = wirtinger_jet(fld, (2, 8, 8))
        assert jet.a == pytest.approx(0.0, abs=1e-12)
        assert jet.b == pytest.approx(-0.5j)

    def test_cosine_against_analytic(self):
        g = make_grid(5, 64, 64)
        fld = field_from(g, lambda t, x, y: np.cos(2 * np.pi * x) + 0 * t)
        jet = wirtinger_jet(fld, (2, 5, 0))
        exact = -np.pi**2 * np.cos(2 * np.pi * g.x_values[5])
        assert jet.a == pytest.approx(exact, abs=5e-2)
        assert jet.b == pytest.approx(exact, abs=5e-2)

    def test_boundary_jets_flagged_one_sided(self):
        g = make_grid(5, 8, 8)
        fld = field_from(g, lambda t, x, y: t**2 + 0 * x)
        assert wirtinger_jet(fld, (0, 0, 0)).one_sided_t
        assert wirtinger_jet(fld, (4, 0, 0)).one_sided_t
        assert not wirtinger_jet(fld, (2, 0, 0)).one_sided_t
        # one-sided stencils are still exact on quadratics in t
        assert wirtinger_jet(fld, (0, 0, 0)).d_tt == pytest.approx(2.0)

    def test_out_of_range_node(self):
        g = make_grid(5, 8, 8)
        fld = ScalarField.zeros(g)
        with pytest.raises(Exception):
            wirtinger_jet(fld, (5, 0, 0))

    def test_stencil_convergence_order(self):
        # trig polynomial, every second-order jet entry decays at order >= 1.9
        def f(t, x, y):
            return (np.sin(2 * np.pi * t) * np.cos(2 * np.pi * x)
                    + np.sin(2 * np.pi * (x + y)))

        errs = []
        for n in (8, 16, 32):
            g = make_grid(2 * n + 1, 2 * n, 2 * n)
            fld = field_from(g, f)
            node = (n, n // 2, n // 4)
            t0, x0, y0 = (g.t_values[node[0]], g.x_values[node[1]],
                          g.y_values[node[2]])
            jet = wirtinger_jet(fld, node)
            c = np.cos(2 * np.pi * t0) * np.cos(2 * np.pi * x0)
            s = np.sin(2 * np.pi * t0) * np.sin(2 * np.pi * x0)
            sxy = np.sin(2 * np.pi * (x0 + y0))
            d_t = 2 * np.pi * c
            d_tt = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * t0) * np.cos(2 * np.pi * x0)
            # Wirtinger combinations of the analytic x, y derivatives
            fx = -2 * np.pi * s * 0 - 2 * np.pi * np.sin(2 * np.pi * x0) * np.sin(2 * np.pi * t0) + 2 * np.pi * np.cos(2 * np.pi * (x0 + y0))
            fy = 2 * np.pi * np.cos(2 * np.pi * (x0 + y0))
            fxx = -(2 * np.pi) ** 2 * (np.cos(2 * np.pi * x0) * np.sin(2 * np.pi * t0) + sxy)
            fyy = -(2 * np.pi) ** 2 * sxy
            fxy = -(2 * np.pi) ** 2 * sxy
            a_ex = 0.25 * (fxx + fyy)
            b_ex = 0.25 * (fxx - fyy - 2j * fxy)
            z_ex = 0.5 * (fx - 1j * fy)
            err = max(abs(jet.d_t - d_t), abs(jet.d_tt - d_tt),
                      abs(jet.a - a_ex), abs(jet.b - b_ex),
                      abs(jet.d_z - z_ex))
            errs.append(err)
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(slopes) >= 1.9

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_reality_and_conjugacy(self, ix, iy, it):
        g = make_grid(5, 8, 8)
        rng = np.random.default_rng(ix * 64 + iy * 8 + it)
        vals = rng.standard_normal(g.shape)
        jet = wirtinger_jet(ScalarField(g, vals), (it, ix, iy))
        assert np.isreal(jet.a)
        assert jet.d_tzb == pytest.approx(np.conj(jet.d_tz))

    def test_periodicity_bitwise(self):
        g = make_grid(5, 8, 8)
        fld = field_from(g, lambda t, x, y: np.sin(2 * np.pi * x) * np.cos(
            2 * np.pi * y) + t)
        shifted = field_from(g, lambda t, x, y: np.sin(2 * np.pi * (x + 1.0))
                             * np.cos(2 * np.pi * (y + 1.0)) + t)
        j0 = wirtinger_jet(fld, (2, 3, 5))
        j1 = wirtinger_jet(shifted, (2, 3, 5))
        assert j0.a == pytest.approx(j1.a, abs=1e-12)
        assert j0.b == pytest.approx(j1.b, abs=1e-12)

    # nt = 3 takes dt2's fallback, nt = 4 is the tightest four-plane window
    @pytest.mark.parametrize("nt", [3, 4, 5, 7])
    @pytest.mark.parametrize("modulus", [1j, 0.3 + 1.1j])
    def test_every_node_class_bitwise_equal_to_whole_grid(self, nt, modulus):
        g = make_grid(nt, 8, 6, modulus)
        v = np.random.default_rng(nt).standard_normal(g.shape)
        a, b = wirt_zzbar(g, v), wirt_zz(g, v)
        tz_r, tz_i = wirt_parts(g, dt1(g, dx1(g, v)), dt1(g, dy1(g, v)))
        z_r, z_i = wirt_parts(g, dx1(g, v), dy1(g, v))
        whole = {"value": v, "d_t": dt1(g, v), "d_tt": dt2(g, v),
                 "d_z": z_r + 1j * z_i, "a": a, "b": b,
                 "d_tz": tz_r + 1j * tz_i, "d_tzb": tz_r - 1j * tz_i}
        third = {"d_zzzb": wirt_zbar(g, b), "d_zzbz": wirt_z(g, a),
                 "d_tzz": dt1(g, b), "d_tzzb": dt1(g, a)}
        fld = ScalarField(g, v)
        for order in (2, 3):
            want = {**whole, **third} if order == 3 else whole
            for it in range(nt):            # one-sided at it = 0, nt - 1
                for ix, iy in ((0, 0), (3, 5), (7, 2)):
                    jet = wirtinger_jet(fld, (it, ix, iy), order)
                    assert jet.order == order
                    assert jet.one_sided_t == (it in (0, nt - 1))
                    for name, arr in want.items():
                        got = getattr(jet, name)
                        ref = type(got)(arr[it, ix, iy])
                        assert np.array(got).tobytes() == np.array(
                            ref).tobytes(), (name, it, ix, iy)

    def test_field_freed_without_cyclic_gc(self):
        fld = field_from(make_grid(5, 8, 8), lambda t, x, y: t * x + y)
        assert np.isfinite(wirtinger_jet(fld, (2, 3, 3), order=3).d_tzz)
        ref = weakref.ref(fld)
        gc.disable()
        try:
            del fld
            assert ref() is None
        finally:
            gc.enable()


class TestInterpolate:
    def test_constant(self):
        g = make_grid(5, 8, 8)
        fld = field_from(g, lambda t, x, y: 0 * t + 5.0)
        value = interpolate_array(fld.grid, fld.values, 0.3, 0.7, 0.2)
        assert value == pytest.approx(5.0)

    def test_linear_in_t_midpoint(self):
        g = make_grid(5, 8, 8)
        fld = field_from(g, lambda t, x, y: 3.0 * t + 0 * x)
        tm = g.t_values[1] + g.ht / 2
        value = interpolate_array(fld.grid, fld.values, tm, 0.0, 0.0)
        assert value == pytest.approx(3.0 * tm)

    def test_cosine_accuracy(self):
        g = make_grid(5, 64, 8)
        fld = field_from(g, lambda t, x, y: np.cos(2 * np.pi * x) + 0 * t)
        rng = np.random.default_rng(7)
        for _ in range(20):
            t, x, y = rng.uniform(0, 1, 3)
            err = abs(interpolate_array(fld.grid, fld.values, t, x, y)
                      - np.cos(2 * np.pi * x))
            assert err < 5 * g.hx**2 * (2 * np.pi) ** 2

    def test_periodic_wrap(self):
        g = make_grid(5, 8, 8)
        fld = field_from(g, lambda t, x, y: np.sin(2 * np.pi * x) + 0 * t)
        wrapped = interpolate_array(fld.grid, fld.values, 0.5, 1.25, 0.0)
        assert wrapped == pytest.approx(
            interpolate_array(fld.grid, fld.values, 0.5, 0.25, 0.0))

    def test_t_out_of_range(self):
        g = make_grid(5, 8, 8)
        fld = ScalarField.zeros(g)
        with pytest.raises(Exception):
            interpolate_array(fld.grid, fld.values, 1.5, 0.0, 0.0)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_trilinear(self, t, x, y):
        # trilinear in (t, x, y) within one periodic cell pattern:
        # use a field linear in t only, which trilinear interp reproduces
        g = make_grid(5, 8, 8)
        fld = field_from(g, lambda tt, xx, yy: 2.0 * tt + 1.0 + 0 * xx)
        value = interpolate_array(fld.grid, fld.values, t, x, y)
        assert value == pytest.approx(2.0 * t + 1.0)
