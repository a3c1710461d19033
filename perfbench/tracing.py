"""Per-layer spans for hcma, recorded from outside the package.

The tracer swaps the names hcma looks up at call time (module globals,
class attributes, the ``CHECKS`` table, and the scipy module object that
``hcma.solver`` calls GMRES through) for thin wrappers that record one span
per call, and puts the originals back on ``uninstall``.  No file of the
package changes, and untraced code runs the original objects.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; spans are kept
in memory and written out once at the end.  A layer's self time is its span
durations minus the durations of their child spans.  A wrapped name that no
longer exists is recorded in ``missing`` and the metrics that depend on it
are reported as absent (``None``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import types

# (module, attribute path inside it, span name).  The module named is the
# one whose code looks the attribute up, so only calls made from there are
# timed: JetFields in hcma.grid calls its stencils through hcma.grid's
# globals, hcma.leaves calls interpolate_array through its own import, and
# so on.
TARGETS = (
    ("hcma.grid", "dt1", "grid.stencil"),
    ("hcma.grid", "dt2", "grid.stencil"),
    ("hcma.grid", "wirt_z", "grid.stencil"),
    ("hcma.grid", "wirt_zbar", "grid.stencil"),
    ("hcma.grid", "wirt_zz", "grid.stencil"),
    ("hcma.grid", "wirt_zzbar", "grid.stencil"),
    ("hcma.leaves", "interpolate_array", "grid.interp"),
    ("hcma.solver", "newton_solve", "solver.newton"),
    ("hcma.solver", "linearize", "solver.linearize"),
    ("hcma.solver", "residual", "solver.residual"),
    ("hcma.verify", "h_contract", "quantities.h_contract"),
    ("hcma.verify", "apply_L", "quantities.apply_L"),
    ("hcma.verify", "run_checks", "verify.run_checks"),
    ("hcma.cli", "run_checks", "verify.run_checks"),
    ("hcma.verify", "check_weighted_max_principle",
     "verify.weighted_max_principle"),
    ("hcma.verify", "jet_map_export", "verify.jet_map"),
    ("hcma.cli", "jet_map_export", "verify.jet_map"),
    ("hcma.cli", "check_lambda_monotonicity", "verify.sweep_checks"),
    ("hcma.cli", "check_eps_monotone_limit", "verify.sweep_checks"),
    ("hcma.io", "write_fields_csv", "io.fields_csv"),
    ("hcma.io", "write_report", "io.report"),
    ("hcma.io", "write_leaf_csv", "io.leaf_csv"),
    ("hcma.io", "Snapshot.save", "io.snapshot_save"),
    ("hcma.io", "Snapshot.load", "io.snapshot_load"),
    ("hcma.io", "Snapshot.to_solution", "io.snapshot_load"),
    ("hcma.cli", "trace_leaf", "leaves.trace_leaf"),
    ("hcma.cli", "main", "cli.main"),
)

# run_checks looks its checks up in this table at call time; the weighted
# maximum principle is called through the module global instead.
CHECK_NAMES = ("convexity", "max_principle_Q", "weighted_max_principle",
               "metric_lower_bound", "upper_bound", "ab_equations",
               "ekq_subharmonic", "lq_ratio")

# hcma.solver calls scipy through ``spla.gmres`` / ``spla.splu``.
SPLA_TARGETS = (("gmres", "solver.gmres"), ("splu", "solver.splu"))

# Counters filled by the wrappers, per op.
COUNTERS = ("newton_steps", "gmres_iters", "matvecs", "precond_applies",
            "rk4_steps", "aborted")


# metric name -> (unit, source).  "self:<span>" is the summed self time of
# a span name, "calls:<span>" its call count, "count:<counter>" a counter;
# a unit of count/step divides the source by the op's Newton steps.
LAYER_METRICS = {
    "grid.stencil_s": ("s", "self:grid.stencil"),
    "grid.stencil_calls": ("count", "calls:grid.stencil"),
    "grid.interp_s": ("s", "self:grid.interp"),
    "grid.interp_calls": ("count", "calls:grid.interp"),
    "solver.newton_self_s": ("s", "self:solver.newton"),
    "solver.newton_steps": ("count", "count:newton_steps"),
    "solver.linearize_s": ("s", "self:solver.linearize"),
    "solver.linearize_calls": ("count", "calls:solver.linearize"),
    "solver.gmres_s": ("s", "self:solver.gmres"),
    "solver.gmres_iters_per_step": ("count/step", "count:gmres_iters"),
    "solver.matvecs": ("count", "count:matvecs"),
    "solver.precond_applies": ("count", "count:precond_applies"),
    "solver.precond_apply_s": ("s", "self:solver.precond_apply"),
    "solver.splu_calls": ("count", "calls:solver.splu"),
    "solver.residual_s": ("s", "self:solver.residual"),
    "solver.residual_per_step": ("count/step", "calls:solver.residual"),
    "quantities.h_contract_s": ("s", "self:quantities.h_contract"),
    "quantities.apply_L_s": ("s", "self:quantities.apply_L"),
    "verify.run_checks_s": ("s", "self:verify.run_checks"),
    **{f"verify.{name}_s": ("s", f"self:verify.{name}")
       for name in CHECK_NAMES},
    "verify.jet_map_s": ("s", "self:verify.jet_map"),
    "verify.sweep_checks_s": ("s", "self:verify.sweep_checks"),
    "io.fields_csv_s": ("s", "self:io.fields_csv"),
    "io.snapshot_save_s": ("s", "self:io.snapshot_save"),
    "io.snapshot_load_s": ("s", "self:io.snapshot_load"),
    "io.report_s": ("s", "self:io.report"),
    "io.leaf_csv_s": ("s", "self:io.leaf_csv"),
    "io.bytes_written": ("B", "bytes_written"),
    "leaves.trace_leaf_s": ("s", "self:leaves.trace_leaf"),
    "leaves.rk4_steps": ("count", "count:rk4_steps"),
    "leaves.aborted": ("count", "count:aborted"),
    "cli.self_s": ("s", "self:cli.main"),
    "bench.unattributed_s": ("s", "unattributed"),
}

# Counters and nested spans, and the wrapped span that produces them, so
# that they are reported absent when that span's target is missing.
_PRODUCED_BY = {
    "solver.precond_apply": "solver.gmres",
    "newton_steps": "solver.newton",
    "gmres_iters": "solver.gmres",
    "matvecs": "solver.gmres",
    "precond_applies": "solver.gmres",
    "rk4_steps": "leaves.trace_leaf",
    "aborted": "leaves.trace_leaf",
}


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class _ModuleProxy(types.ModuleType):
    """Stands in for a module, overriding some attributes."""

    def __init__(self, real, overrides):
        super().__init__(real.__name__)
        self.__dict__.update(overrides)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = set()
        self.op_id = -1
        self._op_first = 0
        self._stack = []
        self._undo = []

    # --- spans ---------------------------------------------------------
    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_first = len(self.spans)
        self.counters = dict.fromkeys(COUNTERS, 0)

    # --- installing wrappers -------------------------------------------
    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, path, span in TARGETS:
            self._patch(module_name, path, span)
        self._patch_checks()
        self._patch_spla()

    def uninstall(self):
        while self._undo:
            owner, attr, original, is_item = self._undo.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _patch(self, module_name, path, span):
        owner = _module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.add(span)
            return
        on_result = {"solver.newton": self._count_newton,
                     "leaves.trace_leaf": self._count_leaf}.get(span)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(span, raw.__func__, on_result))
        else:
            new = self.wrap(span, raw, on_result)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw, False))

    def _patch_checks(self):
        table = getattr(_module("hcma.verify"), "CHECKS", None)
        for name in CHECK_NAMES:
            span = f"verify.{name}"
            if name == "weighted_max_principle":
                continue            # wrapped through the module global
            if table is None or name not in table:
                self.missing.add(span)
                continue
            original = table[name]
            table[name] = self.wrap(span, original)
            self._undo.append((table, name, original, True))

    def _patch_spla(self):
        solver = _module("hcma.solver")
        real = getattr(solver, "spla", None)
        if real is None:
            self.missing.update(span for _, span in SPLA_TARGETS)
            return
        overrides = {}
        for attr, span in SPLA_TARGETS:
            fn = getattr(real, attr, None)
            if fn is None:
                self.missing.add(span)
            elif attr == "gmres":
                overrides[attr] = self.wrap(span, self._counting_gmres(real, fn))
            else:
                overrides[attr] = self.wrap(span, fn)
        solver.spla = _ModuleProxy(real, overrides)
        self._undo.append((solver, "spla", real, False))

    def _counting_gmres(self, spla, gmres):
        """GMRES with the operator and preconditioner applies counted.

        The operator and preconditioner are re-wrapped as LinearOperators
        that call the originals, so GMRES does the same arithmetic; the
        iteration count comes from a residual-norm callback.
        """
        def counted(A, b, *args, M=None, callback=None, callback_type=None,
                    **kwargs):
            c = self.counters
            op = spla.aslinearoperator(A)

            def matvec(x):
                c["matvecs"] += 1
                return op.matvec(x)

            A_counted = spla.LinearOperator(op.shape, matvec=matvec,
                                            dtype=op.dtype)
            if M is not None:
                pre = spla.aslinearoperator(M)
                apply_pre = self.wrap("solver.precond_apply", pre.matvec)

                def psolve(x):
                    c["precond_applies"] += 1
                    return apply_pre(x)

                M = spla.LinearOperator(pre.shape, matvec=psolve,
                                        dtype=pre.dtype)
            if callback is None:
                def callback(_):
                    c["gmres_iters"] += 1
                callback_type = "pr_norm"
            return gmres(A_counted, b, *args, M=M, callback=callback,
                         callback_type=callback_type, **kwargs)

        return counted

    def _count_newton(self, solution):
        self.counters["newton_steps"] += int(solution.iterations)

    def _count_leaf(self, path):
        self.counters["rk4_steps"] += max(path.n_samples - 1, 0)
        self.counters["aborted"] += int(bool(path.aborted))

    # --- per-op summary ------------------------------------------------
    def op_totals(self):
        """(self_s, calls, top_level_s) per span name for the current op."""
        spans = self.spans
        first = self._op_first
        child = {}
        for i in range(first, len(spans)):
            parent = spans[i][3]
            if parent >= first:
                child[parent] = child.get(parent, 0) + spans[i][2] - spans[i][1]
        self_ns, calls, top_ns = {}, {}, 0
        for i in range(first, len(spans)):
            name, start, end, parent, _ = spans[i]
            dur = end - start
            self_ns[name] = self_ns.get(name, 0) + dur - child.get(i, 0)
            calls[name] = calls.get(name, 0) + 1
            if parent < first:
                top_ns += dur
        return ({k: v / 1e9 for k, v in self_ns.items()}, calls, top_ns / 1e9)

    def layer_metrics(self, wall_s, bytes_written):
        """Every LAYER_METRICS value for the current op (None if absent)."""
        self_s, calls, top_s = self.op_totals()
        steps = self.counters["newton_steps"]
        out = {}
        for metric, (unit, source) in LAYER_METRICS.items():
            kind, _, name = source.partition(":")
            span = _PRODUCED_BY.get(name, name)
            if source == "bytes_written":
                value = bytes_written
            elif source == "unattributed":
                value = wall_s - top_s
            elif span in self.missing:
                value = None
            elif kind == "self":
                value = self_s.get(name, 0.0)
            elif kind == "calls":
                value = calls.get(name, 0)
            else:
                value = self.counters[name]
            if unit == "count/step" and value is not None:
                value = value / steps if steps else 0.0
            out[metric] = value
        return out

    def write_spans(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent",
                                 "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
