"""Discretization of [0,1]_t x T^2 (flat torus, one complex dimension).

The torus is the quotient of the z-plane by the lattice generated by 1 and a
modulus lam with Im(lam) != 0, parametrized as z = x + lam*y with x, y in
[0,1).  All spatial derivatives are second-order central differences with
periodic wrap; t-derivatives are central in the interior and one-sided
second-order on the two Dirichlet planes t=0, t=1.  Wirtinger combinations
are obtained from the (x, y) derivatives through the constant Jacobian of
z = x + lam*y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or node access."""


class DegenerateLatticeError(GridError):
    """Lattice modulus that is not finite or has vanishing imaginary part."""


class DimensionTooSmallError(GridError):
    """Grid dimensions below the minimum stencil support."""


@dataclass(frozen=True)
class TorusLattice:
    """Flat torus C / (Z + modulus*Z); fundamental domain z = x + modulus*y."""

    modulus: complex = 1j

    def __post_init__(self):
        if not (np.isfinite(self.modulus) and self.modulus.imag != 0.0):
            raise DegenerateLatticeError(
                f"lattice modulus {self.modulus} must be finite with Im != 0")
        # the stencils scale products of two coefficients by up to 8, so
        # |c1| + |c2| < 1e153 keeps every product a finite float
        c1, c2 = self.dz_coefficients
        if not (abs(c2) > 0.0 and abs(c1) + abs(c2) < 1e153):
            raise DegenerateLatticeError(
                f"lattice modulus {self.modulus}: Wirtinger coefficients "
                f"({c1}, {c2}) out of the float range")

    @property
    def dz_coefficients(self) -> tuple[complex, complex]:
        """(c1, c2) such that d/dz = c1*d/dx + c2*d/dy.

        From d/dx = d/dz + d/dzbar and d/dy = lam*d/dz + conj(lam)*d/dzbar.
        For the square lattice (modulus=i) this is (1/2, -i/2), i.e. the
        familiar d/dz = (d/dx - i*d/dy)/2.
        """
        lam = complex(self.modulus)
        denom = lam.conjugate() - lam  # -2i Im(lam), nonzero
        return lam.conjugate() / denom, -1.0 / denom


@dataclass(frozen=True)
class Grid:
    """Tensor grid on [0,1]_t x T^2 with Dirichlet t-planes at both ends."""

    nt: int
    nx: int
    ny: int
    lattice: TorusLattice = field(default_factory=TorusLattice)

    def __post_init__(self):
        if self.nt < 3 or self.nx < 4 or self.ny < 4:
            raise DimensionTooSmallError(
                f"grid ({self.nt},{self.nx},{self.ny}) below minimum (3,4,4)")
        if self.nt * self.nx * self.ny * 8 > np.iinfo(np.intp).max:
            raise GridError(f"grid {self.shape} too large for numpy to index")

    @property
    def ht(self) -> float:
        return 1.0 / (self.nt - 1)

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nt, self.nx, self.ny)

    @property
    def n_nodes(self) -> int:
        return self.nt * self.nx * self.ny

    @property
    def t_values(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nt)

    @property
    def x_values(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @property
    def y_values(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy


def make_grid(nt: int, nx: int, ny: int, modulus: complex = 1j) -> Grid:
    """Build a Grid; raises on degenerate lattice or undersized dimensions."""
    return Grid(nt=nt, nx=nx, ny=ny, lattice=TorusLattice(modulus=complex(modulus)))


# --- stencil primitives (operate on (nt, nx, ny) arrays, real or complex) ---

# Node budget of one t-chunk: the strip frame and the stencil walk the
# interior t-planes CHUNK_NODES // (nx ny) at a time, so each chunk's window
# and temporaries stay cache-sized (3 planes at 96x96, the whole interior
# at 32x32).
CHUNK_NODES = 2**15


def t_chunks(grid: Grid, n: int | None = None):
    """(c0, c1) per chunk of planes c0..c1-1, covering the planes 1..n of
    an (n+2)-plane window (default n = nt-2: the interior); each but the
    last holds CHUNK_NODES // (nx ny) planes, at least one."""
    step = max(1, CHUNK_NODES // (grid.nx * grid.ny))
    n = grid.nt - 2 if n is None else n
    for c0 in range(1, n + 1, step):
        yield c0, min(c0 + step, n + 1)


def _wrap(*blocks: np.ndarray) -> np.ndarray:
    """The blocks stacked in t and padded periodically by one cell in x and
    y: np.pad(mode="wrap") of their concatenation, in one np.empty."""
    nx, ny = blocks[0].shape[1:]
    p = np.empty((sum(map(len, blocks)), nx + 2, ny + 2),
                 np.result_type(*blocks))
    np.concatenate(blocks, out=p[:, 1:-1, 1:-1])
    p[:, 0, 1:-1], p[:, -1, 1:-1] = p[:, -2, 1:-1], p[:, 1, 1:-1]
    p[:, :, 0], p[:, :, -1] = p[:, :, -2], p[:, :, 1]   # corners come along
    return p


# dx1, dy1 and second_diffs difference p, the _wrap copy of the array
# they act on, so one pad serves all three; each jet reader pads its input.

def dx1(grid: Grid, p: np.ndarray):
    return (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) / (2 * grid.hx)


def dy1(grid: Grid, p: np.ndarray):
    return (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) / (2 * grid.hy)


def second_diffs(grid: Grid, p: np.ndarray):
    """(d_xx, d_xy, d_yy) of v from p = _wrap(v): central second
    differences and the 4-point centered cross stencil."""
    c = p[:, 1:-1, 1:-1]                                # v itself
    return ((p[:, 2:, 1:-1] - 2 * c + p[:, :-2, 1:-1]) / grid.hx**2,
            (p[:, 2:, 2:] - p[:, 2:, :-2] - p[:, :-2, 2:]
             + p[:, :-2, :-2]) / (4 * grid.hx * grid.hy),
            (p[:, 1:-1, 2:] - 2 * c + p[:, 1:-1, :-2]) / grid.hy**2)


def dt1(grid: Grid, v: np.ndarray) -> np.ndarray:
    """First t-derivative: central interior, one-sided O(ht^2) on t-planes."""
    h = grid.ht
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return out


def dt2(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Second t-derivative: central interior, one-sided O(ht^2) on t-planes."""
    h = grid.ht
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    if grid.nt >= 4:
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    else:
        # nt == 3: fall back to the plain second difference (exact on quadratics)
        out[0] = (v[0] - 2 * v[1] + v[2]) / h**2
        out[-1] = out[0]
    return out


# --- Wirtinger combinations --------------------------------------------------

def wirt_z(grid: Grid, v: np.ndarray):
    c1, c2 = grid.lattice.dz_coefficients
    p = _wrap(v)
    return c1 * dx1(grid, p) + c2 * dy1(grid, p)


def wirt_zbar(grid: Grid, v: np.ndarray):
    c1, c2 = grid.lattice.dz_coefficients
    p = _wrap(v)
    return np.conj(c1) * dx1(grid, p) + np.conj(c2) * dy1(grid, p)


def wirt_parts(grid: Grid, px, py):
    """(Re, Im) of c1*px + c2*py for real px, py (arrays or numbers): d/dz
    from real x and y derivatives, in real arithmetic.  d/dzbar is (Re, -Im).
    """
    c1, c2 = grid.lattice.dz_coefficients
    return c1.real * px + c2.real * py, c1.imag * px + c2.imag * py


def wirt_zz(grid: Grid, diffs) -> np.ndarray:
    """Phi_zz from the second_diffs triple of Phi."""
    c1, c2 = grid.lattice.dz_coefficients
    xx, xy, yy = diffs
    return c1**2 * xx + 2 * c1 * c2 * xy + c2**2 * yy


def wirt_zzbar(grid: Grid, diffs) -> np.ndarray:
    """Phi_zzbar from the second_diffs triple of Phi."""
    c1, c2 = grid.lattice.dz_coefficients
    xx, xy, yy = diffs
    return (abs(c1)**2 * xx + 2 * (c1 * np.conj(c2)).real * xy
            + abs(c2)**2 * yy)


def spatial_ab(grid: Grid, v: np.ndarray):
    """(a, b) = (Phi_zzbar, Phi_zz) of v, from one periodic pad of v."""
    diffs = second_diffs(grid, _wrap(v))
    return wirt_zzbar(grid, diffs), wirt_zz(grid, diffs)


def plane_jets(grid: Grid, w: np.ndarray):
    """(a, b, d_x, d_y) of a real field on the t-planes w: bitwise the
    whole-grid spatial_ab, dx1 and dy1, differenced on one periodic pad
    of w."""
    p = _wrap(w)
    diffs = second_diffs(grid, p)
    return (wirt_zzbar(grid, diffs), wirt_zz(grid, diffs),
            dx1(grid, p), dy1(grid, p))


def strip_jets(grid: Grid, window: np.ndarray):
    """(a, d_x, d_y) of a real field on an (n+2)-plane window of its
    values: a on the planes 1..n, d_x and d_y on every plane, all from
    one periodic pad of the window, bitwise the whole-grid values."""
    p = _wrap(window)
    return (wirt_zzbar(grid, second_diffs(grid, p[1:-1])),
            dx1(grid, p), dy1(grid, p))


def second_order_stencil(grid: Grid, g, m, q, out):
    """Stencil of 4 adj(h) = 4 [[g, -m], [-m*, q]] for a strip h-matrix
    [[q, m], [m*, g]] on n t-planes, from real (n, nx, ny) arrays g, m =
    (Re m, Im m) and q: with w_zetazetabar = w_tt/4, w_z zetabar = w_tz/2
    and d/dz = k1 d/dx + k2 d/dy, g w_tt + q (4|k1|^2 w_xx + 8 Re(k1 k2*)
    w_xy + 4|k2|^2 w_yy) - 4 Re(m k1) w_tx - 4 Re(m k2) w_ty, through the
    differences of dt2, second_diffs, dt1(dx1) and dt1(dy1).  Every
    constant is real, so it is exact on complex w; a zero one drops its
    term (w_xy on the square lattice).

    It writes the coefficients of its four legs and of the centre into
    out, a real (5, n, nx, ny) block, and keeps no grid of its own.  out
    is either apart from g, m and q, which it then leaves as they are, or
    strip_h's block of their frame, slots (g, Re m, Im m, q, det), which
    it then turns into the coefficients in place: each t-chunk's m legs
    are formed before either m slot is written, and the centre goes into
    the det slot.

    apply(w, below, above) takes w on the n planes and the planes below
    and above them (zero planes for a Newton correction, a window's ends
    for a field) and returns a new (n, nx, ny) array; any other shape
    raises ValueError.  It pads each of the t_chunks' windows on its own
    and sums through one chunk-sized buffer, so it copies no full grid.
    """
    nx, ny = grid.nx, grid.ny
    ht, hx, hy = grid.ht, grid.hx, grid.hy
    k1, k2 = grid.lattice.dz_coefficients
    n = len(g)
    chunks = [slice(c0 - 1, c1 - 1) for c0, c1 in t_chunks(grid, n)]
    cxx, cyy = 4.0 * abs(k1)**2 / hx**2, 4.0 * abs(k2)**2 / hy**2
    cxy = 2.0 * (k1 * np.conj(k2)).real / (hx * hy)
    # the coefficients of w_tx and w_ty, -4 Re(m k1) and -4 Re(m k2) over
    # 4 ht hx and 4 ht hy
    (rx, ix), (ry, iy) = ((-k.real / (ht * h), k.imag / (ht * h))
                          for k, h in ((k1, hx), (k2, hy)))
    gt, tx, ty, qs, centre = out
    for k in chunks:
        tx[k], ty[k] = (rx * m[0][k] + ix * m[1][k],
                        ry * m[0][k] + iy * m[1][k])
    np.multiply(q, cxx, out=qs)
    np.multiply(qs, 1.0 + cyy / cxx, out=centre)
    np.multiply(g, 1.0 / ht**2, out=gt)
    centre += gt
    centre *= -2.0
    # per leg its array and per term the (t, x, y) offsets d, e of the +-d
    # added and +-e subtracted, then a scale; summed Horner-wise, last first
    xy = [((0, 1, 1), (0, 1, -1), cxy / cyy)] if cxy else []
    legs = ((gt, [((1, 0, 0), None, 1.0)]),
            (qs, xy + [((0, 0, 1), None, cyy / cxx), ((0, 1, 0), None, 1.0)]),
            (tx, [((1, 1, 0), (1, -1, 0), 1.0)]),
            (ty, [((1, 0, 1), (1, 0, -1), 1.0)]))

    def apply(w: np.ndarray, below: np.ndarray,
              above: np.ndarray) -> np.ndarray:
        if (w.shape, below.shape, above.shape) != ((n, nx, ny),
                                                   (nx, ny), (nx, ny)):
            raise ValueError(f"planes {w.shape}, {below.shape} and "
                             f"{above.shape} do not fit {(n, nx, ny)}")
        out = np.empty((n, nx, ny), np.result_type(w, below, above, centre))
        buf = np.empty_like(out[chunks[0]])
        for k in chunks:
            lo, hi = k.start, k.stop
            p = _wrap(w[lo - 1:lo] if lo else below[None], w[k],
                      w[hi:hi + 1] if hi < n else above[None])

            def at(d, s=1):
                t, x, y = (s * c for c in d)
                return p[1 + t:len(p) - 1 + t, 1 + x:nx + 1 + x,
                         1 + y:ny + 1 + y]

            o, tmp = out[k], buf[:hi - lo]
            np.multiply(at((0, 0, 0)), centre[k], out=o)
            for coeff, terms in legs:
                for j, (d, e, s) in enumerate(terms):
                    if j:
                        tmp += at(d)
                        tmp += at(d, -1)
                    else:
                        np.add(at(d), at(d, -1), out=tmp)
                    if e:
                        tmp -= at(e)
                        tmp -= at(e, -1)
                    if s != 1.0:
                        tmp *= s
                tmp *= coeff[k]
                o += tmp
        return out

    return apply


# --- fields ------------------------------------------------------------------

class ScalarField:
    """Real-valued function sampled on a Grid; immutable after construction.

    It holds the values without a copy when no writeable array can reach
    them: a read-only array that owns its memory, or a read-only view of
    one or of a bytes object (Snapshot.load's payload).  A caller hands a
    fresh array over by marking it read-only and keeping no writeable view
    of it, as newton_solve does with each start and line-search candidate
    it builds.  Any other array, a writeable one or a read-only view of a
    writeable one, is copied."""

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.size != grid.n_nodes:
            raise GridError(
                f"value count {values.size} != node count {grid.n_nodes}")
        if not np.all(np.isfinite(values)):
            raise GridError("field contains non-finite values")
        values = values.reshape(grid.shape)
        root = values
        while isinstance(root, np.ndarray) and not root.flags.writeable:
            root = root.base
        if not (root is None or isinstance(root, bytes)):
            values = values.copy()
            values.setflags(write=False)
        self.grid = grid
        self.values = values


def interpolate_array(grid: Grid, values: np.ndarray, t: float, x: float,
                      y: float):
    """Trilinear interpolation of a (possibly complex) array, periodic in
    x, y; t must lie in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise GridError(f"t={t} outside [0, 1]")
    st = min(t / grid.ht, grid.nt - 1 - 1e-12)
    it = min(int(st), grid.nt - 2)      # st may round to nt - 1
    ft = st - it
    sx = (x % 1.0) / grid.hx
    ix = int(sx) % grid.nx
    fx = sx - int(sx)
    sy = (y % 1.0) / grid.hy
    iy = int(sy) % grid.ny
    fy = sy - int(sy)
    ixp = (ix + 1) % grid.nx
    iyp = (iy + 1) % grid.ny
    out = 0.0
    for dit, wt in ((0, 1 - ft), (1, ft)):
        for jx, wx in ((ix, 1 - fx), (ixp, fx)):
            for jy, wy in ((iy, 1 - fy), (iyp, fy)):
                out = out + wt * wx * wy * values[it + dit, jx, jy]
    return out
