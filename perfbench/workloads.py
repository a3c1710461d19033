"""The benchmark's workloads: inputs made from a seed, one op, and its gate.

Each workload makes its inputs once in ``prepare`` and then runs the same
op again and again in ``run``; every op is checked by a correctness gate
that reads the program's outputs, and an op counts as failed unless the
gate passes.  Every hcma function is looked up on its module at call time,
so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field

import hcma.cli
import hcma.solver
import hcma.verify
import numpy as np
from hcma import AnnulusProfile, BoundarySpec, make_grid

# The README problem: 0.005 cos(2 pi x) at t = 1, AnnulusProfile(1e-3).
PHI1_MODE = (1, 0, 0.005)
EPSILON = 1e-3


@dataclass
class OpResult:
    wall_s: float
    stages: dict
    failures: list
    bytes_written: int = 0
    artifacts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _tree_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def call_cli(argv):
    """Run ``hcma.cli.main`` in-process; returns (exit code, stdout+stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = hcma.cli.main(argv)
        except SystemExit as exc:        # argparse rejected the arguments
            rc = exc.code
    return rc, buf.getvalue()


def gate_checks(checks, expected_names, label) -> list:
    """Failures in a list of check dicts: every record passes, none vacuous."""
    failures = []
    names = [c["name"] for c in checks]
    if sorted(names) != sorted(expected_names):
        failures.append(f"{label}: checks {names}, expected {expected_names}")
    for c in checks:
        if c.get("vacuous"):
            failures.append(f"{label}: {c['name']} vacuous: {c.get('note')}")
        elif not c.get("pass"):
            failures.append(f"{label}: {c['name']} failed "
                            f"(measured {c.get('measured')})")
    return failures


def gate_snapshot(path, shape, tol) -> list:
    """Read a snapshot's header and payload without hcma's own loader."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return [f"{path}: {exc}"]
    if len(raw) < 60 or raw[:8] != b"HCMASNAP":
        return [f"{path}: bad magic"]
    _, nt, nx, ny = struct.unpack_from("<IIII", raw, 8)
    converged, _, res = struct.unpack_from("<IId", raw, 40)
    (cfg_len,) = struct.unpack_from("<I", raw, 56)
    failures = []
    if (nt, nx, ny) != tuple(shape):
        failures.append(f"{path}: shape {(nt, nx, ny)} != {tuple(shape)}")
    if not converged or not res <= tol:
        failures.append(f"{path}: converged={converged} residual={res}")
    if len(raw) - 60 - cfg_len != 8 * nt * nx * ny:
        failures.append(f"{path}: payload is not {nt * nx * ny} values")
    return failures


def _expect_files(out_dir, expected, label) -> list:
    found = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if found != sorted(expected):
        return [f"{label}: wrote {found}, expected {sorted(expected)}"]
    return []


def _config_text(shape, seed, extra=""):
    nt, nx, ny = shape
    kx, ky, amp = PHI1_MODE
    return (f"[grid]\nnt = {nt}\nnx = {nx}\nny = {ny}\n\n"
            f"[profile]\nkind = annulus\nepsilon = {EPSILON!r}\n{extra}"
            f"\n[boundary]\nphi1 = {kx},{ky},{amp!r},0\n\n"
            f"[run]\nseed = {seed}\n")


class Quickstart:
    """The README problem solved from the default guess, then verified."""

    name = "quickstart-49"

    def __init__(self, shape=(49, 96, 96)):
        self.shape = tuple(shape)

    def prepare(self, seed, workdir):
        self.check_seed = _seed_int(np.random.default_rng(seed))
        self.grid = make_grid(*self.shape)
        self.boundary = BoundarySpec(phi1=(PHI1_MODE,))
        self.profile = AnnulusProfile(EPSILON)
        self.tol = hcma.solver.SolverConfig().newton_tol

    def run(self, out_dir) -> OpResult:
        t0 = time.perf_counter()
        sol = hcma.solver.newton_solve(self.grid, self.boundary, self.profile)
        t1 = time.perf_counter()
        report = hcma.verify.run_checks(sol, seed=self.check_seed)
        t2 = time.perf_counter()
        failures = []
        if not (sol.converged and sol.final_residual <= self.tol
                and sol.admissible):
            failures.append(f"solve: converged={sol.converged} residual="
                            f"{sol.final_residual} admissible={sol.admissible}"
                            f" ({sol.message})")
        failures += gate_checks([c.to_dict() for c in report.checks],
                                list(hcma.verify.CHECKS) + ["jet_map"],
                                "run_checks")
        if not report.all_pass:
            failures.append("run_checks: all_pass is false")
        stages = {"solve_s": t1 - t0, "checks_s": t2 - t1}
        if sol.iterations:
            stages["newton_step_s"] = (t1 - t0) / sol.iterations
        return OpResult(wall_s=t2 - t0, stages=stages, failures=failures,
                        artifacts={"phi": sol.phi.values,
                                   "iterations": sol.iterations,
                                   "residual_history": sol.residual_history})


class Sweep:
    """``hcma sweep``: an 11-rung lambda ladder and a 4-rung eps schedule."""

    name = "sweep-17"
    LAMBDAS = tuple(k / 10 for k in range(11))
    SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)

    def __init__(self, shape=(17, 32, 32), lambdas=LAMBDAS, schedule=SCHEDULE):
        self.shape = tuple(shape)
        self.lambdas = tuple(lambdas)
        self.schedule = tuple(schedule)

    def prepare(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        self.config = os.path.join(workdir, "sweep.ini")
        schedule = ", ".join(repr(e) for e in self.schedule)
        lambdas = ", ".join(repr(v) for v in self.lambdas)
        text = _config_text(self.shape, _seed_int(np.random.default_rng(seed)),
                            extra=f"schedule = {schedule}\n")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(text + f"\n[sweep]\nlambdas = {lambdas}\n")
        self.tol = hcma.solver.SolverConfig().newton_tol

    def run(self, out_dir) -> OpResult:
        t0 = time.perf_counter()
        rc, log = call_cli(["sweep", "--config", self.config, "--out", out_dir])
        wall = time.perf_counter() - t0
        snaps = ([f"lambda_{k:03d}.snap" for k in range(len(self.lambdas))]
                 + [f"eps_{k:03d}.snap" for k in range(len(self.schedule))])
        failures = [] if rc == 0 else [f"sweep: exit {rc}: {log[-300:]}"]
        failures += _expect_files(out_dir, snaps + ["sweep_report.json"],
                                  "sweep")
        if not failures:
            for name in snaps:
                failures += gate_snapshot(os.path.join(out_dir, name),
                                          self.shape, self.tol)
            with open(os.path.join(out_dir, "sweep_report.json"),
                      encoding="utf-8") as fh:
                checks = json.load(fh)["checks"]
            failures += gate_checks(
                checks, ["lambda_monotonicity", "eps_monotone_limit",
                         "metric_lower_bound_stability"], "sweep_report")
        return OpResult(wall_s=wall, stages={"sweep_s": wall},
                        failures=failures, bytes_written=_tree_bytes(out_dir))


class Post:
    """``hcma verify``, ``trace`` and ``plotdata`` on one solved snapshot."""

    name = "post-33"
    N_STARTS = 32
    STEP = 0.005
    T0_MAX = 0.9      # keeps every leaf at least 20 RK4 steps long
    N_THETA = 129     # cone-section samples cmd_plotdata writes per section

    def __init__(self, shape=(33, 64, 64), n_starts=N_STARTS):
        self.shape = tuple(shape)
        self.n_starts = n_starts

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        # stratified start times keep the total leaf length, and so the
        # work per op, nearly the same for every seed
        k = np.arange(self.n_starts)
        t0 = self.T0_MAX * (k + rng.random(self.n_starts)) / self.n_starts
        xy = rng.random((self.n_starts, 2))
        self.starts = [(float(t), float(x), float(y))
                       for t, (x, y) in zip(t0, xy)]
        self.verify_seed = _seed_int(rng)
        starts = "; ".join(f"{t!r},{x!r},{y!r}" for t, x, y in self.starts)
        os.makedirs(workdir, exist_ok=True)
        self.config = os.path.join(workdir, "post.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(_config_text(self.shape, self.verify_seed)
                     + f"\n[trace]\nstarts = {starts}\nstep = {self.STEP!r}\n")
        self.tol = hcma.solver.SolverConfig().newton_tol
        snap_dir = os.path.join(workdir, "solved")
        # the snapshot is solved by a separate process, as a user would
        src = os.path.dirname(os.path.dirname(hcma.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "hcma.cli", "solve", "--config",
             self.config, "--out", snap_dir],
            capture_output=True, text=True, timeout=150, env=env)
        self.snapshot = os.path.join(snap_dir, "solution.snap")
        failures = gate_snapshot(self.snapshot, self.shape, self.tol)
        if proc.returncode != 0 or failures:
            raise RuntimeError(f"hcma solve exit {proc.returncode}: "
                               f"{failures} {proc.stderr[-300:]}")

    def run(self, out_dir) -> OpResult:
        dirs = {s: os.path.join(out_dir, s)
                for s in ("verify", "trace", "plotdata")}
        t0 = time.perf_counter()
        rc_v, log_v = call_cli(["verify", "--snapshot", self.snapshot,
                                "--seed", str(self.verify_seed),
                                "--out", dirs["verify"]])
        t1 = time.perf_counter()
        rc_t, log_t = call_cli(["trace", "--snapshot", self.snapshot,
                                "--config", self.config,
                                "--out", dirs["trace"]])
        t2 = time.perf_counter()
        rc_p, log_p = call_cli(["plotdata", "--snapshot", self.snapshot,
                                "--out", dirs["plotdata"]])
        t3 = time.perf_counter()
        failures = [f"{name}: exit {rc}: {log[-300:]}" for name, rc, log in
                    (("verify", rc_v, log_v), ("trace", rc_t, log_t),
                     ("plotdata", rc_p, log_p)) if rc != 0]
        if not failures:
            failures = (self._gate_verify(dirs["verify"])
                        + self._gate_trace(dirs["trace"])
                        + self._gate_plotdata(dirs["plotdata"]))
        return OpResult(wall_s=t3 - t0,
                        stages={"verify_s": t1 - t0, "trace_s": t2 - t1,
                                "plotdata_s": t3 - t2},
                        failures=failures, bytes_written=_tree_bytes(out_dir))

    def _gate_verify(self, out) -> list:
        failures = _expect_files(out, ["report.json", "fields.csv"], "verify")
        if failures:
            return failures
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        failures += gate_checks(report["checks"],
                                list(hcma.verify.CHECKS) + ["jet_map"],
                                "verify")
        if not report["meta"].get("converged"):
            failures.append("verify: report meta says not converged")
        rows = _count_lines(os.path.join(out, "fields.csv")) - 1
        if rows != math.prod(self.shape):
            failures.append(f"verify: fields.csv has {rows} rows")
        return failures

    def _gate_trace(self, out) -> list:
        leaves = [f"leaf_{k:03d}.csv" for k in range(self.n_starts)]
        failures = _expect_files(out, leaves + ["trace_diagnostics.json"],
                                 "trace")
        if failures:
            return failures
        with open(os.path.join(out, "trace_diagnostics.json"),
                  encoding="utf-8") as fh:
            records = json.load(fh)["checks"]
        if [r["leaf"] for r in records] != list(range(self.n_starts)):
            return ["trace: diagnostics do not list every leaf"]
        for rec, name, (t0, _, _) in zip(records, leaves, self.starts):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            first_t = float(rows[0].split(",")[0]) if rows else None
            last_t = float(rows[-1].split(",")[0]) if rows else None
            if (rec["aborted"] or len(rows) != rec["samples"]
                    or first_t != t0 or abs(last_t - 1.0) > 1e-9):
                failures.append(f"trace: {name} rows={len(rows)} "
                                f"samples={rec['samples']} t=[{first_t}, "
                                f"{last_t}] aborted={rec['aborted']}")
        return failures

    def _gate_plotdata(self, out) -> list:
        failures = _expect_files(out, ["jetmap.csv"], "plotdata")
        if failures:
            return failures
        counts = {}
        with open(os.path.join(out, "jetmap.csv"), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                section = line[:line.index(",")]
                counts[section] = counts.get(section, 0) + 1
        nt, nx, ny = self.shape
        n = self.N_THETA
        expected = {"jets": (nt - 2) * nx * ny, "cone_C0": n, "upper_bound": n}
        expected.update({"cone_intersection": n} if "note" not in counts
                        else {"note": 1})
        if counts != expected:
            failures.append(f"plotdata: sections {counts}, expected {expected}")
        return failures


WORKLOADS = {w.name: w for w in (Quickstart, Sweep, Post)}


def clear_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
