"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from conftest import (COS_BOUNDARY, closed_form_annulus,
                      closed_form_constant, manufactured, run_check)
from hcma import (AnnulusProfile, BoundarySpec, ConstantProfile,
                  continuation_solve, lambda_sweep, make_grid, newton_solve)
from hcma.leaves import leaf_fields, qb_along_leaf, trace_leaf
from hcma.quantities import sigma_roots
from hcma.verify import (LadderFold, check_eps_monotone_limit,
                         check_lambda_monotonicity, check_u_identity)
from oracle import (FlatJet, TorusPointState, general_flat_state, m_matrix,
                    rk4_path)

EPSILONS = (1e-2, 1e-3, 1e-4)


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {name}: {tag}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def eps_runs(grid_mid):
    """One converged run per epsilon of the test-boundary family."""
    return {eps: newton_solve(grid_mid, COS_BOUNDARY, AnnulusProfile(eps))
            for eps in EPSILONS}


def test_criterion_01_closed_forms(grid_mid):
    t0 = time.perf_counter()
    sol_c = newton_solve(grid_mid, BoundarySpec(), ConstantProfile(0.25))
    sol_a = newton_solve(grid_mid, BoundarySpec(), AnnulusProfile(0.01))
    elapsed = time.perf_counter() - t0
    err_c = np.abs(sol_c.phi.values - closed_form_constant(grid_mid)).max()
    err_a = np.abs(sol_a.phi.values - closed_form_annulus(grid_mid)).max()
    ok = (sol_c.converged and sol_a.converged and err_c <= 1e-8
          and err_a <= 5 * grid_mid.ht**2 and elapsed <= 10.0)
    report(1, "closed forms",
           ok, f"const {err_c:.2e} <= 1e-8, annulus {err_a:.2e} <= "
           f"{5 * grid_mid.ht**2:.2e}, {elapsed:.1f}s <= 10s")


def test_criterion_02_manufactured_convergence():
    # Phi_tzbar != 0 exercises the t-mixed stencil legs, and the (1, 1)
    # mode on modulus 0.3+1.1j the xy leg
    t0 = time.perf_counter()
    slopes = {}
    for modulus in (1j, 0.3 + 1.1j):
        for (kx, ky), amp in (((1, 0), 0.01), ((1, 1), 0.005)):
            errs, hs = [], []
            for n in (9, 17, 33):
                g = make_grid(n, 2 * (n - 1), 2 * (n - 1), modulus)
                bnd, rhs, exact = manufactured(g, kx, ky, amp)
                sol = newton_solve(g, bnd, rhs)
                assert sol.converged
                errs.append(np.abs(sol.phi.values - exact).max())
                hs.append(g.ht)
            slopes[modulus, kx, ky] = [
                np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
                for i in range(2)]
    elapsed = time.perf_counter() - t0
    worst = min(min(v) for v in slopes.values())
    ok = worst >= 1.9 and elapsed <= 300.0
    report(2, "manufactured-solution convergence", ok,
           ", ".join(f"{k}: {v[0]:.2f}, {v[1]:.2f}"
                     for k, v in slopes.items())
           + f" >= 1.9, {elapsed:.1f}s <= 300s")


def test_criterion_03_convexity_preservation(eps_runs):
    worst = []
    for eps, sol in eps_runs.items():
        rec = run_check(sol, "convexity")
        worst.append((eps, rec.passed, rec.measured))
    ok = all(p for _, p, _ in worst)
    report(3, "convexity preservation", ok,
           "; ".join(f"eps={e:g} gap {m:.2e}" for e, _, m in worst))


def test_criterion_04_max_principle_Q(eps_runs):
    details, ok = [], True
    ident = check_u_identity(2 * np.e)
    ok &= ident.passed
    for eps, sol in eps_runs.items():
        plain = run_check(sol, "max_principle_Q")
        weighted = run_check(sol, "weighted_max_principle")
        ok &= plain.passed and plain.extra["factor2_pass"] and weighted.passed
        details.append(f"eps={eps:g} Q {plain.measured:.2e} <= "
                       f"{plain.bound:.2e}+tol")
    report(4, "maximum principle for Q (plain, factor-2, weighted)", ok,
           f"u-identity {ident.measured:.1e}; " + "; ".join(details))


def test_criterion_05_lower_bound(eps_runs):
    minima, ok = [], True
    for eps, sol in eps_runs.items():
        rec = run_check(sol, "metric_lower_bound")
        ok &= rec.passed
        minima.append(rec.measured)
    spread = max(abs(a - b) for a in minima for b in minima)
    ok &= spread <= 0.05
    report(5, "epsilon-independent lower bound", ok,
           f"minima {', '.join(f'{m:.4f}' for m in minima)}, "
           f"pairwise spread {spread:.3f} <= 0.05")


def test_criterion_06_upper_bound(eps_runs):
    ok, details = True, []
    for eps, sol in eps_runs.items():
        rec = run_check(sol, "upper_bound")
        ok &= rec.passed
        details.append(f"eps={eps:g} {rec.measured:.4f} <= "
                       f"{rec.bound:.4f}+{rec.tolerance:.1e}")
    report(6, "upper bound vs boundary S", ok, "; ".join(details))


def test_criterion_07_appendix_algebra():
    s1_2, s2_2 = sigma_roots(2.0)
    ok = abs(s2_2 - 0.8090170) <= 1e-6
    ok &= sigma_roots(1e6)[1] > 1.0 - 1e-5
    ok &= all(sigma_roots(K)[0] < 0 for K in (0.5, 1, 2, 10, 100))
    rng = np.random.default_rng(7)
    worst_det, worst_eig = 0.0, 0.0
    for _ in range(10**4):
        a = rng.uniform(-0.5, 2.0)
        b = rng.uniform(0, 1.5) * (1.0 + a) * np.exp(
            2j * np.pi * rng.uniform())
        _, det, closed = m_matrix(5.0, TorusPointState.from_ab(a, b))
        scale = max(1.0, abs(closed))
        worst_det = max(worst_det, abs(det - closed) / scale)
    for K in (3, 5, 10):
        s2 = sigma_roots(K)[1]
        # state exactly at the root: lambda_min of M vanishes
        b0 = np.sqrt(s2)
        M, _, _ = m_matrix(K, TorusPointState.from_ab(0.0, b0))
        worst_eig = max(worst_eig,
                        abs(np.linalg.eigvalsh(M).min()))
    ok &= worst_det <= 1e-12 and worst_eig <= 1e-8
    report(7, "appendix algebra (sigma roots, det M, PSD sharpness)", ok,
           f"sigma2(2) err {abs(s2_2 - 0.8090170):.1e}, det rel "
           f"{worst_det:.1e} <= 1e-12, |lambda_min| {worst_eig:.1e} <= 1e-8")


def test_criterion_08_derived_pde_residuals():
    res = []
    for nt, nx, ny in [(9, 16, 16), (17, 32, 32)]:
        g = make_grid(nt, nx, ny)
        sol = newton_solve(g, COS_BOUNDARY, AnnulusProfile(1e-3))
        rec = run_check(sol, "ab_equations")
        res.append(rec.measured)
        assert rec.passed
    slope = np.log2(res[0] / res[1])
    ok = slope >= 0.9
    report(8, "derived a/b equation residuals", ok,
           f"residuals {res[0]:.2e} -> {res[1]:.2e}, slope {slope:.2f} >= 0.9")


def test_criterion_09_ekq_subharmonic(eps_runs):
    ok, details = True, []
    for eps, sol in eps_runs.items():
        rec = run_check(sol, "ekq_subharmonic")
        ok &= rec.passed and not rec.vacuous
        details.append(f"eps={eps:g} K={rec.extra['K']} "
                       f"min {rec.measured:.2e} >= -{rec.tolerance:.1e}")
    report(9, "e^{KQ} discrete subharmonicity", ok, "; ".join(details))


def test_criterion_10_continuity_machinery(grid_mid, eps_sweep):
    sols = lambda_sweep(grid_mid, COS_BOUNDARY, [0, 0.25, 0.5, 0.75, 1.0],
                        AnnulusProfile(1e-3))
    lam = check_lambda_monotonicity(LadderFold(sols))
    eps = check_eps_monotone_limit(LadderFold(eps_sweep))
    ok = lam.passed and eps.passed and eps.extra["gaps_decreasing"]
    report(10, "continuity machinery (lambda ladder, eps schedule)", ok,
           f"max-Q drops {lam.measured:.1e} <= 1e-8; eps worst increase "
           f"{eps.measured:.1e} <= 1e-8, gaps decreasing "
           f"{eps.extra['gaps_decreasing']}")


def test_criterion_11_lq_ratio_stability(eps_sweep):
    # witness of LQ >= -C eps Q: C_k = max(0, -rho_k) per rung; the implied
    # constants must agree across the schedule within a factor 2 (plus a
    # floor so that all-zero constants trivially agree)
    rhos = [run_check(sol, "lq_ratio").measured for sol in eps_sweep]
    consts = [max(0.0, -r) for r in rhos]
    floor = 1e-6
    ok = max(consts) <= 2.0 * min(consts) + floor
    report(11, "LQ ratio stability", ok,
           f"rho per rung {', '.join(f'{r:.3g}' for r in rhos)}; implied "
           f"constants {consts} within 2x + {floor:g}")


def test_criterion_12_leaf_diagnostics(sol_zero_const, sol_cos):
    path = trace_leaf(sol_zero_const.grid, leaf_fields(sol_zero_const.phi),
                      (0.0, 0.3 + 0.4j), step=0.05)
    vertical = np.abs(path.zs - path.zs[0]).max()
    errs = []
    for step in (0.1, 0.05, 0.025):
        _, zs = rk4_path(lambda t, z: z, 0.0, 1.0 + 0j, step=step)
        errs.append(abs(zs[-1] - np.e))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    path2 = trace_leaf(sol_cos.grid, leaf_fields(sol_cos.phi),
                       (0.0, 0.25 + 0.5j), step=0.02)
    _, _, rec = qb_along_leaf(path2)
    g = sol_cos.grid
    tol = 10.0 * max(g.ht, g.hx) ** 2 * max(1.0, rec["max_qb"] / g.ht**2)
    ok = (vertical == 0.0 and min(orders) >= 3.8 and rec["in_hypothesis"]
          and rec["min_second_diff"] >= -tol)
    report(12, "leaf diagnostics", ok,
           f"vertical drift {vertical:.1e}, RK4 orders "
           f"{orders[0]:.2f}/{orders[1]:.2f}, min (Q_B)_XX "
           f"{rec['min_second_diff']:.2e} >= -{tol:.1e}")


def test_criterion_13_general_n_consistency():
    rng = np.random.default_rng(13)
    worst = 0.0
    cplx = lambda: rng.standard_normal() + 1j * rng.standard_normal()
    for _ in range(10**3):
        a = rng.uniform(-0.8, 2.0)
        b = rng.uniform(0, 1.5) * (1.0 + a) * np.exp(
            2j * np.pi * rng.uniform())
        jet = FlatJet(
            A=np.array([[a]], dtype=complex),
            B=np.array([[b]], dtype=complex),
            grad=np.array([cplx()]),
            tau_alphabar=np.array([cplx()]),
            tau_alpha=np.array([cplx()]),
            A_d=np.array([[[cplx()]], [[cplx()]]]),
            B_dbar=np.array([[[cplx()]], [[cplx()]]]))
        flat = general_flat_state(jet, rng.uniform(0.01, 1.0))
        opa = 1.0 + a
        ts = TorusPointState.from_ab(a, b)
        worst = max(worst, abs(flat.Q_B - ts.Q),
                    abs(flat.Q_A - a**2 / opa**2),
                    abs(flat.Q_G - abs(jet.grad[0]) ** 2 / opa),
                    abs(flat.T - (abs(jet.tau_alphabar[0]) ** 2
                                  + abs(jet.tau_alpha[0]) ** 2) / opa))
    ok = worst <= 1e-12
    report(13, "n=1 vs general-n consistency", ok,
           f"worst deviation {worst:.2e} <= 1e-12 over 1000 jets")


def test_criterion_14_infrastructure(tmp_path, grid_small):
    from hcma import cli
    from hcma.io import ExperimentConfig, Snapshot
    cfg_text = ("[grid]\nnt = 9\nnx = 16\nny = 16\n\n"
                "[profile]\nkind = annulus\nepsilon = 1e-3\n\n"
                "[boundary]\nphi1 = 1,0,0.005,0\n\n"
                "[trace]\nstarts = 0.0,0.25,0.5\nstep = 0.05\n")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text)
    out = str(tmp_path / "out")

    # snapshot bitwise round-trip
    cfg = ExperimentConfig.parse(cfg_text)
    sol = newton_solve(grid_small, cfg.make_boundary(), cfg.make_profile())
    snap = Snapshot.from_solution(sol, cfg)
    p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
    snap.save(p1)
    Snapshot.load(p1).save(p2)
    bitwise = p1.read_bytes() == p2.read_bytes()

    # exit codes end to end
    codes = [cli.main(["solve", "--config", str(cfg_path), "--out", out])]
    snap_file = os.path.join(out, "solution.snap")
    codes.append(cli.main(["verify", "--snapshot", snap_file, "--out", out]))
    bad = tmp_path / "bad.ini"
    bad.write_text("[nope]\nx = 1\n")
    code_cfg = cli.main(["solve", "--config", str(bad), "--out", out])
    broken = tmp_path / "broken.snap"
    broken.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    code_snap = cli.main(["verify", "--snapshot", str(broken), "--out", out])

    # report determinism under fixed seed (timestamp excluded by design)
    o1, o2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    cli.main(["verify", "--snapshot", snap_file, "--out", o1, "--seed", "0"])
    cli.main(["verify", "--snapshot", snap_file, "--out", o2, "--seed", "0"])
    r1 = json.loads(pathlib.Path(o1, "report.json").read_text())
    r2 = json.loads(pathlib.Path(o2, "report.json").read_text())
    r1["meta"].pop("timestamp")
    r2["meta"].pop("timestamp")
    deterministic = r1 == r2

    ok = (bitwise and codes == [0, 0] and code_cfg == 2 and code_snap == 2
          and deterministic)
    report(14, "infrastructure (snapshot, determinism, exit codes)", ok,
           f"bitwise {bitwise}, solve/verify {codes}, config-error "
           f"{code_cfg}, snapshot-error {code_snap}, deterministic "
           f"{deterministic}")
