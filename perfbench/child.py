"""One child process of the benchmark: one workload, one client, capped memory.

Started by run.py, one child per set-up.  The child caps its own address
space (RLIMIT_AS) before it imports numpy, makes the workload's inputs, runs
the cold first op, and stamps the end of set-up with ``time.monotonic()``,
a clock shared by every process on Linux, so the parent can subtract its own
spawn stamp.  Unless it is a set-up-only child it then runs ops back to back
(a closed loop with one client) until ``--seconds`` have passed; with
``--trace 1`` every second op runs under the tracer.  Each finished op is
appended to ops.jsonl at once, so a child that dies leaves its record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
import traceback


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--cap-mb", type=int, required=True)
    args = p.parse_args(argv)
    cap = args.cap_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import numpy
    import scipy
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    path = lambda name: os.path.join(args.workdir, name)
    ops_log = open(path("ops.jsonl"), "a", encoding="utf-8")

    def record(rec):
        ops_log.write(json.dumps(rec) + "\n")
        ops_log.flush()

    def run_op(k, phase, traced):
        """Run and gate one op; returns (ok, fatal)."""
        op_dir = path("op")
        workloads.clear_dir(op_dir)
        rec = {"op": k, "phase": phase, "traced": traced}
        if traced:
            tracer.install()
            tracer.begin_op(k)
        cpu0 = time.process_time()
        try:
            res = workload.run(op_dir)
        except Exception as exc:     # a failed op is recorded, not fatal
            record(dict(rec, ok=False,
                        failures=[f"{type(exc).__name__}: {exc}"],
                        traceback=traceback.format_exc()[-2000:]))
            return False, isinstance(exc, MemoryError)
        finally:
            if traced:
                tracer.uninstall()
        rec.update(ok=res.ok, failures=res.failures[:10], wall_s=res.wall_s,
                   cpu_s=time.process_time() - cpu0, stages=res.stages,
                   bytes_written=res.bytes_written, maxrss_mb=maxrss_mb())
        if traced:
            rec["layers"] = tracer.layer_metrics(res.wall_s, res.bytes_written)
        record(rec)
        return res.ok, False

    try:
        workload.prepare(args.seed, path("inputs"))
    except Exception as exc:
        record({"op": 0, "phase": "setup", "traced": False, "ok": False,
                "failures": [f"prepare: {type(exc).__name__}: {exc}"],
                "traceback": traceback.format_exc()[-2000:]})
        return 1
    ok, fatal = run_op(0, "setup", False)
    with open(path("setup.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_end": time.monotonic(), "ok": ok,
                   "maxrss_mb": maxrss_mb()}, fh)

    if not (args.setup_only or fatal):
        wanted = {False, True} if args.trace else {False}
        seen = set()
        start = time.monotonic()
        k = 1
        while time.monotonic() - start < args.seconds or not wanted <= seen:
            traced = bool(args.trace) and k % 2 == 0
            _, fatal = run_op(k, "timed", traced)
            seen.add(traced)
            k += 1
            if fatal:
                break
    ops_log.close()

    if tracer is not None:
        tracer.write_spans(path("spans.jsonl.gz"))
    result = {
        "maxrss_mb": maxrss_mb(),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "missing": sorted(tracer.missing) if tracer else [],
    }
    with open(path("result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
