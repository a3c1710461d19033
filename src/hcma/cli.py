"""Command-line driver: solve / verify / sweep / trace / plotdata.

Exit codes: 0 success, 2 config, snapshot or I/O error (every value the
solver would reject is caught before anything is solved or written),
3 solver failure or out of memory (one error line from any subcommand),
4 verification check failure.  main alone maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io as hio
from .grid import GridError, spatial_ab
from .leaves import LeafError, leaf_fields, qb_along_leaf, trace_leaf
from .solver import (ContinuationFailure, SolverError, check_lambdas,
                     check_schedule, continuation_solve, lambda_sweep,
                     newton_solve, rhs_floor)
from .verify import (LadderFold, check_eps_monotone_limit,
                     check_lambda_monotonicity,
                     check_metric_lower_bound_stability, jet_map_export,
                     q_from_ab, run_checks, solution_meta)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _ensure_out(args, config) -> str:
    out = args.out or config.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _load_problem(path, lambdas: bool):
    """Config, grid, boundary and solver settings of a config file; a value
    the solver would reject (lambda ladder only if lambdas) is a ConfigError."""
    config = hio.load_config(path)
    try:
        grid = config.make_grid()
        boundary = config.make_boundary()
        boundary.validate(grid)
        if config.schedule:
            check_schedule(config.schedule)
        if lambdas:
            check_lambdas(config.lambdas)
        for eps in (None,) + config.schedule:
            rhs_floor(config.make_profile(eps), grid)
        return config, grid, boundary, config.make_solver_config()
    except ValueError as exc:
        raise hio.ConfigError(str(exc)) from None


def _save_rung(out, config, sol, stem, k=None) -> str:
    """Saves a rung's snapshot as stem_<k>.snap, or stem.snap if k is
    None, and returns the file name."""
    name = f"{stem}.snap" if k is None else f"{stem}_{k:03d}.snap"
    hio.Snapshot.from_solution(sol, config).save(os.path.join(out, name))
    return name


def _sweep_ladder(out, config, ladder, stem, checks) -> list[dict]:
    """Saves each rung of a ladder as it is drawn and folds it, so no more
    than the ladder's own two rungs are held, then runs the sweep checks
    on the fold: the records of checks."""
    fold = LadderFold()
    for k, sol in enumerate(ladder):
        _save_rung(out, config, sol, stem, k)
        fold.add(sol)
    return [check(fold).to_dict() for check in checks]


def cmd_solve(args) -> int:
    config, grid, boundary, solver_cfg = _load_problem(args.config,
                                                       lambdas=False)
    out = _ensure_out(args, config)
    rungs = (continuation_solve(grid, boundary, config.schedule, solver_cfg,
                                make_profile=config.make_profile)
             if config.schedule else
             [newton_solve(grid, boundary, config.make_profile(), solver_cfg)])
    lone = len(config.schedule) <= 1       # saved as solution.snap
    names = []
    try:                # each rung is saved as it converges
        for k, last in enumerate(rungs):
            if last.converged:      # else a lone solve; a ladder raises
                names.append(_save_rung(out, config, last, "solution",
                                        None if lone else k))
    except ContinuationFailure as exc:
        last = exc.solution
    if not last.converged:
        hio.Snapshot.from_solution(last, config).save(
            os.path.join(out, "diagnostics.snap"))
        hio.write_report(
            {"meta": solution_meta(last, config.seed),
             "checks": [],
             "failure": {"message": last.message,
                         "final_residual": last.final_residual,
                         "iterations": last.iterations}},
            os.path.join(out, "summary.json"))
        return _fail(EXIT_SOLVER, f"solver failed: {last.message}")

    fold = LadderFold([last])
    summary = {
        "meta": solution_meta(last, config.seed),
        "checks": [],
        "summary": {
            "final_residual": last.final_residual,
            "iterations": last.iterations,
            "min_one_plus_a": fold.min_one_plus_a[0],
            "max_Q": fold.max_q[0],
            "snapshots": names,
        },
    }
    hio.write_report(summary, os.path.join(out, "summary.json"))
    print(f"solved: residual {last.final_residual:.3e} in "
          f"{last.iterations} iterations -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    solution, config = hio.Snapshot.load(args.snapshot).to_solution()
    checks = (hio.parse_checks(args.checks) if args.checks is not None
              else config.checks)
    seed = args.seed if args.seed is not None else config.seed
    try:
        report = run_checks(solution, names=checks, seed=seed)
    except KeyError as exc:
        raise hio.ConfigError(exc.args[0]) from None
    out = _ensure_out(args, config)
    hio.write_report(report.to_dict(), os.path.join(out, "report.json"))

    # perfbench's tracer wraps hcma.solver.residual at call time: a
    # top-level import would bind the unwrapped function
    from .solver import residual
    a, b = spatial_ab(solution.grid, solution.phi.values)
    res = np.zeros(solution.grid.shape)     # 0 on the Dirichlet planes
    try:
        residual(solution.grid, solution.phi.values, solution.profile,
                 np.empty((5, *res[1:-1].shape)), res[1:-1])
    except GridError:                   # 4 det h - eps_tilde overflowed
        res.fill(np.nan)
    hio.write_fields_csv(
        os.path.join(out, "fields.csv"), solution.grid,
        {"Q": q_from_ab(a, b), "a": a, "abs_b": np.abs(b),
         "residual": res})
    for rec in report.checks:
        tag = "vacuous" if rec.vacuous else ("pass" if rec.passed else "FAIL")
        print(f"{rec.name}: {tag} (measured {rec.measured:.6e}, "
              f"bound {rec.bound:.6e}, tol {rec.tolerance:.3e})")
    if not report.all_pass:
        return _fail(EXIT_CHECK, "verification checks failed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, grid, boundary, solver_cfg = _load_problem(args.config,
                                                       lambdas=True)
    if not config.schedule and not config.lambdas:
        raise hio.ConfigError(
            "sweep needs a [profile] schedule or [sweep] lambdas")
    out = _ensure_out(args, config)
    checks = []
    meta = {"grid": [grid.nt, grid.nx, grid.ny],
            "boundary": boundary.describe(), "seed": config.seed}

    if config.lambdas:
        checks += _sweep_ladder(
            out, config, lambda_sweep(grid, boundary, config.lambdas,
                                      config.make_profile(), solver_cfg),
            "lambda", (check_lambda_monotonicity,))
    if config.schedule:
        checks += _sweep_ladder(
            out, config, continuation_solve(grid, boundary, config.schedule,
                                            solver_cfg,
                                            make_profile=config.make_profile),
            "eps", (check_eps_monotone_limit,
                    check_metric_lower_bound_stability))

    hio.write_report({"meta": meta, "checks": checks},
                     os.path.join(out, "sweep_report.json"))
    bad = [c["name"] for c in checks if not (c["pass"] or c["vacuous"])]
    if bad:
        return _fail(EXIT_CHECK, f"sweep checks failed: {', '.join(bad)}")
    print(f"sweep complete -> {out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    solution, config = hio.Snapshot.load(args.snapshot).to_solution()
    if args.config:
        config = hio.load_config(args.config)
    if not config.trace_starts:
        raise hio.ConfigError("no [trace] starts configured")
    grid, fields = solution.grid, leaf_fields(solution.phi)
    modulus = grid.lattice.modulus
    paths, diag = [], []
    for k, (t0, x0, y0) in enumerate(config.trace_starts):
        try:
            path = trace_leaf(grid, fields, (t0, x0 + modulus * y0),
                              step=config.trace_step)
            _, second, rec = qb_along_leaf(path)
        except LeafError as exc:
            raise hio.ConfigError(f"leaf {k}: {exc}") from None
        rec.update({"leaf": k, "aborted": path.aborted,
                    "message": path.message, "samples": path.n_samples})
        paths.append(path)
        diag.append(rec)
    # every leaf is traced before anything is written
    out = _ensure_out(args, config)
    for k, path in enumerate(paths):
        hio.write_leaf_csv(os.path.join(out, f"leaf_{k:03d}.csv"), path)
    hio.write_report({"meta": {"starts": [list(s) for s in
                                          config.trace_starts],
                              "step": config.trace_step},
                      "checks": diag},
                     os.path.join(out, "trace_diagnostics.json"))
    print(f"traced {len(diag)} leaves -> {out}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    solution, config = hio.Snapshot.load(args.snapshot).to_solution()
    out = _ensure_out(args, config)
    points, record = jet_map_export(solution)
    a_ref = float(np.median(points[:, 2]))
    delta = record.extra.get("delta")
    radii = (("cone_C0", 1.0 + a_ref),
             ("cone_intersection",
              None if delta is None else 1.0 + a_ref - delta),
             ("upper_bound", record.extra["S"] - 1.0 - a_ref))
    thetas = np.linspace(0.0, 2.0 * math.pi, 129)
    # the table's row sections: the jets, then per radius its cone section,
    # or a note row where the radius is unknown
    sections = [(["jets"] * len(points), *points.T)]
    for section, r in radii:
        sections.append(
            (["note"], [f"{section} omitted"],
             [record.extra.get("delta_note", "")], [""]) if r is None else
            ([section] * len(thetas), [r * math.cos(th) for th in thetas],
             [r * math.sin(th) for th in thetas], [a_ref] * len(thetas)))
    path = os.path.join(out, "jetmap.csv")
    hio.write_csv(path, ["section", "col1", "col2", "col3"],
                  list(zip(*sections)))
    print(f"jet-map data -> {path}")
    return EXIT_OK


# subcommand -> (handler, its required input, its flags besides --out)
COMMANDS = {
    "solve": (cmd_solve, "--config", {}),
    "verify": (cmd_verify, "--snapshot", {"--seed": int, "--checks": str}),
    "sweep": (cmd_sweep, "--config", {}),
    "trace": (cmd_trace, "--snapshot", {"--config": str}),
    "plotdata": (cmd_plotdata, "--snapshot", {}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcma",
        description="Regularized Monge-Ampere geodesic solver and verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, required, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument(required, required=True)
        for flag, kind in {"--out": str, **flags}.items():
            p.add_argument(flag, type=kind)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (hio.ConfigError, hio.SnapshotError, OSError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except SolverError as exc:      # a failed rung, or a cold start overflow
        return _fail(EXIT_SOLVER, str(exc))
    except MemoryError as exc:
        return _fail(EXIT_SOLVER,
                     f"out of memory: {str(exc) or 'allocation failed'}")


if __name__ == "__main__":
    sys.exit(main())
