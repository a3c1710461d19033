"""Command-line driver: solve / verify / sweep / trace / plotdata.

Exit codes: 0 success, 2 config or I/O error, 3 solver failure,
4 verification check failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import io as hio
from .leaves import LeafError, qb_along_leaf, trace_leaf
from .quantities import NonConvexBoundaryError
from .solver import (ContinuationFailure, continuation_solve, lambda_sweep,
                     newton_solve)
from .verify import (CheckRecord, check_eps_monotone_limit,
                     check_lambda_monotonicity, jet_map_export, q_field,
                     run_checks, solution_meta)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _ensure_out(args, config) -> str:
    out = args.out or (config.out_dir if config else "out")
    os.makedirs(out, exist_ok=True)
    return out


def _load_problem(args):
    if not args.config:
        raise hio.ConfigError("--config is required")
    config = hio.load_config(args.config)
    grid = config.make_grid()
    boundary = config.make_boundary()
    boundary.validate(grid)
    return config, grid, boundary


def _save_snapshots(out, config, sols, stem, lone=False) -> list[str]:
    names = ([f"{stem}.snap"] if lone and len(sols) == 1 else
             [f"{stem}_{k:03d}.snap" for k in range(len(sols))])
    for name, sol in zip(names, sols):
        hio.Snapshot.from_solution(sol, config).save(os.path.join(out, name))
    return names


def cmd_solve(args) -> int:
    try:
        config, grid, boundary = _load_problem(args)
    except (hio.ConfigError, NonConvexBoundaryError, ValueError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    out = _ensure_out(args, config)
    solver_cfg = config.make_solver_config()

    solutions = []
    failed = None
    if config.schedule:
        try:
            solutions = continuation_solve(
                grid, boundary, config.schedule, solver_cfg,
                make_profile=config.make_profile)
        except ContinuationFailure as exc:
            failed = exc.solution
            solutions = []
        except ValueError as exc:
            return _fail(EXIT_CONFIG, str(exc))
    else:
        sol = newton_solve(grid, boundary, config.make_profile(), solver_cfg)
        if sol.converged:
            solutions = [sol]
        else:
            failed = sol

    if failed is not None:
        hio.Snapshot.from_solution(failed, config).save(
            os.path.join(out, "diagnostics.snap"))
        hio.write_report(
            {"meta": solution_meta(failed, config.seed),
             "checks": [],
             "failure": {"message": failed.message,
                         "final_residual": failed.final_residual,
                         "iterations": failed.iterations}},
            os.path.join(out, "summary.json"))
        return _fail(EXIT_SOLVER, f"solver failed: {failed.message}")

    names = _save_snapshots(out, config, solutions, "solution", lone=True)
    last = solutions[-1]
    summary = {
        "meta": solution_meta(last, config.seed),
        "checks": [],
        "summary": {
            "final_residual": last.final_residual,
            "iterations": last.iterations,
            "min_one_plus_a": float(last.interior_one_plus_a().min()),
            "max_Q": float(q_field(last).max()),
            "snapshots": names,
        },
    }
    hio.write_report(summary, os.path.join(out, "summary.json"))
    print(f"solved: residual {last.final_residual:.3e} in "
          f"{last.iterations} iterations -> {out}")
    return EXIT_OK


def _load_snapshot_solution(args):
    if not args.snapshot:
        raise hio.SnapshotError("--snapshot is required")
    snap = hio.Snapshot.load(args.snapshot)
    return snap.to_solution()


def cmd_verify(args) -> int:
    try:
        solution, config = _load_snapshot_solution(args)
    except (hio.SnapshotError, hio.ConfigError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    out = _ensure_out(args, config)
    checks = config.checks
    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(","))
    seed = args.seed if args.seed is not None else config.seed
    try:
        report = run_checks(solution, names=checks, seed=seed)
    except KeyError as exc:
        return _fail(EXIT_CONFIG, f"unknown check {exc}")
    hio.write_report(report.to_dict(), os.path.join(out, "report.json"))

    from .solver import residual
    j = solution.phi.jets
    hio.write_fields_csv(
        os.path.join(out, "fields.csv"), solution.grid,
        {"Q": q_field(solution), "a": j.a, "abs_b": np.abs(j.b),
         "residual": residual(solution.phi, solution.profile).values})
    for rec in report.checks:
        tag = "vacuous" if rec.vacuous else ("pass" if rec.passed else "FAIL")
        print(f"{rec.name}: {tag} (measured {rec.measured:.6e}, "
              f"bound {rec.bound:.6e}, tol {rec.tolerance:.3e})")
    if not report.all_pass:
        return _fail(EXIT_CHECK, "verification checks failed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        config, grid, boundary = _load_problem(args)
        if not config.schedule and not config.lambdas:
            raise hio.ConfigError(
                "sweep needs a [profile] schedule or [sweep] lambdas")
    except (hio.ConfigError, NonConvexBoundaryError, ValueError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    out = _ensure_out(args, config)
    solver_cfg = config.make_solver_config()
    checks = []
    meta = {"grid": [grid.nt, grid.nx, grid.ny],
            "boundary": boundary.describe(), "seed": config.seed}

    try:
        if config.lambdas:
            sols = lambda_sweep(grid, boundary, config.lambdas,
                                config.make_profile(), solver_cfg)
            _save_snapshots(out, config, sols, "lambda")
            checks.append(check_lambda_monotonicity(sols).to_dict())
        if config.schedule:
            sols = continuation_solve(grid, boundary, config.schedule,
                                      solver_cfg,
                                      make_profile=config.make_profile)
            _save_snapshots(out, config, sols, "eps")
            checks.append(check_eps_monotone_limit(sols).to_dict())
            minima = [float(s.interior_one_plus_a().min()) for s in sols]
            spread = max(minima) - min(minima)
            checks.append(CheckRecord(
                name="metric_lower_bound_stability", passed=spread <= 0.05,
                measured=spread, bound=0.05, tolerance=0.0,
                extra={"min_one_plus_a_per_rung": minima}).to_dict())
    except (ContinuationFailure, ValueError) as exc:
        return _fail(EXIT_SOLVER, str(exc))

    hio.write_report({"meta": meta, "checks": checks},
                     os.path.join(out, "sweep_report.json"))
    bad = [c["name"] for c in checks if not (c["pass"] or c["vacuous"])]
    if bad:
        return _fail(EXIT_CHECK, f"sweep checks failed: {', '.join(bad)}")
    print(f"sweep complete -> {out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    try:
        solution, config = _load_snapshot_solution(args)
        if args.config:
            config = hio.load_config(args.config)
        if not config.trace_starts:
            raise hio.ConfigError("no [trace] starts configured")
        for t0, x0, y0 in config.trace_starts:
            if not (0.0 <= t0 < 1.0):
                raise hio.ConfigError(f"trace start t={t0} outside [0, 1)")
    except (hio.SnapshotError, hio.ConfigError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    out = _ensure_out(args, config)
    modulus = solution.grid.lattice.modulus
    diag = []
    for k, (t0, x0, y0) in enumerate(config.trace_starts):
        z0 = x0 + modulus * y0
        try:
            path = trace_leaf(solution, (t0, z0), step=config.trace_step)
            _, second, rec = qb_along_leaf(solution, path)
        except LeafError as exc:
            return _fail(EXIT_CONFIG, f"leaf {k}: {exc}")
        hio.write_leaf_csv(os.path.join(out, f"leaf_{k:03d}.csv"), path)
        rec.update({"leaf": k, "aborted": path.aborted,
                    "message": path.message, "samples": path.n_samples})
        diag.append(rec)
    hio.write_report({"meta": {"starts": [list(s) for s in
                                          config.trace_starts],
                              "step": config.trace_step},
                      "checks": diag},
                     os.path.join(out, "trace_diagnostics.json"))
    print(f"traced {len(diag)} leaves -> {out}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    try:
        solution, config = _load_snapshot_solution(args)
    except (hio.SnapshotError, hio.ConfigError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    out = _ensure_out(args, config)
    points, record = jet_map_export(solution)
    a_ref = float(np.median(points[:, 2]))
    delta = record.extra.get("delta")
    radii = (("cone_C0", 1.0 + a_ref),
             ("cone_intersection",
              None if delta is None else 1.0 + a_ref - delta),
             ("upper_bound", record.extra["S"] - 1.0 - a_ref))
    thetas = np.linspace(0.0, 2.0 * math.pi, 129)
    path = os.path.join(out, "jetmap.csv")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["section", "col1", "col2", "col3"])
            for re_b, im_b, a in points:
                w.writerow(["jets", repr(float(re_b)), repr(float(im_b)),
                            repr(float(a))])
            for section, r in radii:
                if r is None:
                    w.writerow(["note", f"{section} omitted",
                                record.extra.get("delta_note", ""), ""])
                    continue
                for th in thetas:
                    w.writerow([section, repr(r * math.cos(th)),
                                repr(r * math.sin(th)), repr(a_ref)])
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot write {path}: {exc}")
    print(f"jet-map data -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcma",
        description="Regularized Monge-Ampere geodesic solver and verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("verify", cmd_verify),
                     ("sweep", cmd_sweep), ("trace", cmd_trace),
                     ("plotdata", cmd_plotdata)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--snapshot", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--checks", default=None)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
