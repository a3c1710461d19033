"""Benchmark for hcma: every workload in its own memory-capped child process.

    python3 perfbench/run.py
        runs every workload untraced and then traced, prints every
        end-to-end and per-layer metric, and writes one results file.
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        runs one workload; the last line of output is one JSON object.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quickstart-49", "sweep-17", "post-33")

SETUP_REPLICATES = 3      # set-ups per untraced run; setup_s is their median
MEMORY_CAP_MB = 2048      # RLIMIT_AS of each child
DEADLINE_S = 170          # one workload run, every child included
# one client, no extra threads: the BLAS and OpenMP pools are pinned to one
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def summarise(values, unit):
    """Median, the highest percentile with ten samples beyond it, count."""
    out = {"unit": unit, "samples": len(values),
           "median": statistics.median(values) if values else None,
           "percentile": None, "percentile_value": None}
    ordered = sorted(values)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))      # nearest rank
        if rank >= 1 and len(ordered) - rank >= 10:
            out["percentile"], out["percentile_value"] = p, ordered[rank - 1]
            break
    return out


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(workload, seed, seconds, trace, setup_only, workdir, deadline):
    """Run one child to completion; returns what it left in workdir."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--workdir", str(workdir), "--cap-mb",
           str(MEMORY_CAP_MB)] + (["--setup-only"] if setup_only else [])
    with open(workdir / "child.log", "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the child and its solver
            proc.wait()
            rc = "timeout"

    def load(name):
        try:
            return json.loads((workdir / name).read_text())
        except (OSError, ValueError):
            return None

    ops_path = workdir / "ops.jsonl"
    ops = ([json.loads(line) for line in ops_path.read_text().splitlines()]
           if ops_path.exists() else [])
    setup = load("setup.json")
    result = load("result.json")
    crashed = rc != 0 or result is None
    if crashed:
        tail = (workdir / "child.log").read_text(errors="replace")[-1500:]
        print(f"child for {workload} ended with {rc}:\n{tail}",
              file=sys.stderr)
    set_up = bool(setup and setup["ok"])
    return {"ops": ops, "result": result, "crashed": crashed,
            "setup_s": setup["setup_end"] - spawn if set_up else None,
            "setup_rss_mb": setup["maxrss_mb"] if set_up else None,
            "spans": workdir / "spans.jsonl.gz"}


def run_workload(workload, seed, seconds, trace, results_dir, stamp):
    """Run one workload untraced (trace 0) or traced (trace 1)."""
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / f"{workload}-{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    n_children = 1 if trace else SETUP_REPLICATES
    try:
        children = [run_child(workload, seed, seconds, trace,
                              i < n_children - 1, work / f"child{i}", deadline)
                    for i in range(n_children)]
        spans_file = None
        if trace and children[-1]["spans"].exists():
            results_dir.mkdir(parents=True, exist_ok=True)
            spans_file = results_dir / f"{stamp}-{workload}-seed{seed}-spans.jsonl.gz"
            shutil.move(children[-1]["spans"], spans_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                  # another run is using it

    ops = [op for c in children for op in c["ops"]]
    # a child that died counts the op it was running as failed
    attempted = len(ops) + sum(c["crashed"] for c in children)
    failed = (sum(not op["ok"] for op in ops)
              + sum(c["crashed"] for c in children))
    last = children[-1]
    timed = [op for op in last["ops"] if op["phase"] == "timed" and op["ok"]]
    plain = [op for op in timed if not op["traced"]]
    traced = [op for op in timed if op["traced"]]

    e2e = {"op_s": summarise([op["wall_s"] for op in plain], "s")}
    for stage in (plain[0]["stages"] if plain else {}):
        e2e[stage] = summarise([op["stages"][stage] for op in plain], "s")
    set_up = [c for c in children if c["setup_s"] is not None]
    if set_up:
        # the peak over set-up, cold op included: later ops keep adding to
        # ru_maxrss, so the peak at the end depends on how many ops fitted
        e2e["peak_rss_mb"] = summarise([c["setup_rss_mb"] for c in set_up],
                                       "MB")
    if last["result"]:
        e2e["peak_rss_run_mb"] = summarise([last["result"]["maxrss_mb"]],
                                           "MB")
    if set_up and not trace:
        e2e["setup_s"] = summarise([c["setup_s"] for c in set_up], "s")
    e2e["fail_frac"] = {"unit": "ratio", "samples": attempted,
                        "median": failed / attempted if attempted else None}

    layers, overhead = {}, None
    if trace:
        import tracing
        for metric, (unit, _) in tracing.LAYER_METRICS.items():
            values = [op["layers"][metric] for op in traced]
            layers[metric] = (summarise(values, unit)
                              if values and None not in values else
                              {"unit": unit, "samples": 0, "median": None})
        if plain and traced:
            overhead = (statistics.median(op["wall_s"] for op in traced)
                        - statistics.median(op["wall_s"] for op in plain))

    failures = [f"op {op['op']} ({op['phase']}): {f}"
                for op in ops if not op["ok"] for f in op["failures"]]
    failures += [f"child {i} ended early" for i, c in enumerate(children)
                 if c["crashed"]]
    result = last["result"] or {}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "per_layer": layers,
        "tracing_overhead_s": overhead,
        "missing_wrapped_names": result.get("missing", []),
        "versions": result.get("versions"),
        "spans_file": spans_file.name if spans_file else None,
        "failures": failures[:50],
        "ops": ops,
    }


def environment():
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in dict(os.environ, **THREAD_ENV).items()
                       if k.endswith("_THREADS")},
        "memory_cap_mb": MEMORY_CAP_MB,
        "setup_replicates": SETUP_REPLICATES,
        "machine": os.uname().machine,
        "cpu_model": cpu_model(),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(run):
    title = f"{run['workload']}  seed {run['seed']}  " \
            f"{'traced' if run['trace'] else 'untraced'}"
    print(title)
    rows = run["per_layer"] if run["trace"] else run["end_to_end"]
    print(f"  {'metric':32} {'unit':10} {'samples':>7} {'median':>12}"
          f"  highest percentile with 10 beyond")
    for name, m in rows.items():
        pct = (f"p{m['percentile']:g} = {fmt(m['percentile_value'])}"
               if m.get("percentile") else "-")
        label = name + (" (computed)" if name == "io.bytes_written" else "")
        print(f"  {label:32} {m['unit']:10} {m['samples']:>7} "
              f"{fmt(m['median']):>12}  {pct}")
    if run["trace"]:
        print(f"  tracing overhead per op: {fmt(run['tracing_overhead_s'])} s"
              f"; absent (wrapped name gone): "
              f"{', '.join(run['missing_wrapped_names']) or 'none'}")
    for line in run["failures"]:
        print(f"  FAILED {line}")


def benchmark_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


def main(argv=None):
    spec = benchmark_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec.get("run_seconds", 15))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hcma" / "__init__.py").is_file():
        print(f"error: no hcma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S")
    results_dir = HERE / "results"
    if args.workload:
        plan = [(args.workload, args.trace)]
        name = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}"
    else:
        plan = [(w, t) for t in (0, 1) for w in WORKLOADS]
        name = f"{stamp}-all-seed{args.seed}"
    runs = []
    for workload, trace in plan:
        run = run_workload(workload, args.seed, args.seconds, trace,
                           results_dir, stamp)
        print_table(run)
        runs.append(run)

    results_dir.mkdir(parents=True, exist_ok=True)
    results_file = results_dir / f"{name}.json"
    results_file.write_text(json.dumps(
        {"environment": environment(), "runs": runs}, indent=1) + "\n")
    print(f"results: {results_file.relative_to(ROOT)}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not args.workload:
        return 0 if failed == 0 else 1
    run = runs[0]
    key = "per_layer" if run["trace"] else "end_to_end"
    wanted = [m["name"] for m in spec.get(key, [])] or list(run[key])
    metrics = {m: {"value": run[key][m]["median"], "unit": run[key][m]["unit"]}
               for m in wanted
               if m in run[key] and run[key][m]["median"] is not None}
    if len(metrics) < len(wanted) and not run["trace"]:
        print("error: end-to-end metrics missing; no op succeeded",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
