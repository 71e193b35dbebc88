"""Span tracing around the public functions of each mghankel layer.

`Tracer.installed()` replaces each traced function with a wrapper in every
mghankel module that holds it (modules import names directly, so the
defining module alone is not enough) and restores the originals on exit.
A wrapper records one span: id, parent span, id of the enclosing `run()`
call, span name, start and end in integer nanoseconds.  Spans stay in
memory; `write_spans` writes them out once the run has ended.

A span's self time is its duration minus the durations of its direct child
spans.  Spans nest strictly (one thread), so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time

from mghankel.harness import CHECK_NAMES as CHECKS

# (owner module, attribute or Class.method, span name)
TARGETS = (
    ("numerics", "solve_dense", "numerics.solve_dense"),
    ("numerics", "invert_dense", "numerics.invert_dense"),
    ("weights", "WeightFamily.eval_weight", "weights.eval_weight"),
    ("weights", "validate_family", "weights.validate_family"),
    ("blockops", "build_moment_matrix", "blockops.build_moment_matrix"),
    ("factorize", "lu_factorize", "factorize.lu_factorize"),
    ("factorize", "invert_block_triangular", "factorize.invert_block_triangular"),
    ("factorize", "nested_truncation_residual", "factorize.nested_truncation_residual"),
    ("families", "associated_plus", "families.associated"),
    ("families", "associated_minus", "families.associated"),
    ("families", "dual_associated_plus", "families.associated"),
    ("families", "dual_associated_minus", "families.associated"),
    ("families", "check_biorthogonality", "families.check"),
    ("families", "check_connection_formulas", "families.check"),
    ("families", "check_modified_orthogonality", "families.check"),
    ("families", "check_matrix_notation", "families.check"),
    ("families", "eval_form", "families.eval_form"),
    ("families", "eval_poly", "families.eval_poly"),
    ("families", "pair_poly_form", "families.pair_poly_form"),
    ("families", "primary_family", "families.primary_dual"),
    ("families", "dual_family", "families.primary_dual"),
    ("cdkernel", "KernelEvaluator.__init__", "cdkernel.evaluator_init"),
    ("cdkernel", "KernelEvaluator.kernel_sum", "cdkernel.kernel_sum"),
    ("cdkernel", "KernelEvaluator.kernel_abc", "cdkernel.kernel_abc"),
    ("cdkernel", "KernelEvaluator.cd_lhs", "cdkernel.cd_lhs"),
    ("cdkernel", "KernelEvaluator.cd_rhs_schur", "cdkernel.cd_rhs_schur"),
    ("cdkernel", "KernelEvaluator.cd_rhs_associated", "cdkernel.cd_rhs_associated"),
    ("cdkernel", "KernelEvaluator.cd_entry_quotient", "cdkernel.cd_entry_quotient"),
    ("cdkernel", "KernelEvaluator.reproducing_residual", "cdkernel.reproducing_residual"),
    ("cdkernel", "KernelEvaluator.project_poly", "cdkernel.project"),
    ("cdkernel", "KernelEvaluator.project_form", "cdkernel.project"),
    ("cdkernel", "classical_cd", "cdkernel.classical_cd"),
    ("harness", "run", "harness.run"),
) + tuple(
    ("harness", "_Runner.check_%s" % check.replace("-", "_"), "harness.check.%s" % check)
    for check in CHECKS
)

RUN_SPAN = "harness.run"

# Per-layer metrics of a traced run: (name, unit).  `<span>.s` is the summed
# self time of that span name, `<span>.calls` its count; `harness.self.s` is
# the self time of `run()` itself.
LAYER_METRICS = (
    ("blockops.build_moment_matrix.s", "s"),
    ("weights.eval_weight.s", "s"),
    ("weights.eval_weight.calls", "count"),
    ("factorize.lu_factorize.s", "s"),
    ("factorize.invert_block_triangular.s", "s"),
    ("factorize.invert_block_triangular.calls", "count"),
    ("factorize.nested_truncation_residual.s", "s"),
    ("families.associated.s", "s"),
    ("families.associated.calls", "count"),
    ("families.check.s", "s"),
    ("families.eval_form.s", "s"),
    ("families.eval_form.calls", "count"),
    ("families.eval_poly.s", "s"),
    ("families.pair_poly_form.s", "s"),
    ("families.pair_poly_form.calls", "count"),
    ("families.primary_dual.s", "s"),
    ("cdkernel.evaluator_init.s", "s"),
    ("cdkernel.kernel_sum.s", "s"),
    ("cdkernel.kernel_abc.s", "s"),
    ("cdkernel.cd_lhs.s", "s"),
    ("cdkernel.cd_rhs_schur.s", "s"),
    ("cdkernel.cd_rhs_associated.s", "s"),
    ("cdkernel.cd_rhs_associated.calls", "count"),
    ("cdkernel.cd_entry_quotient.s", "s"),
    ("cdkernel.reproducing_residual.s", "s"),
    ("cdkernel.project.s", "s"),
    ("cdkernel.classical_cd.s", "s"),
    ("numerics.solve_dense.s", "s"),
    ("numerics.solve_dense.calls", "count"),
    ("numerics.invert_dense.calls", "count"),
) + tuple(("harness.check.%s.s" % check, "s") for check in CHECKS) + (
    ("harness.self.s", "s"),
)


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, run id, name, start ns, end ns)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._run_id = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            if name == RUN_SPAN:
                tracer._run_id = span_id
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, tracer._run_id, name, start, end))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mghankel"]
        try:
            for owner, attr, name in TARGETS:
                module = sys.modules["mghankel." + owner]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self.wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                for holder in modules:
                    if holder.__dict__.get(attr) is original:
                        restore.append((holder, attr, original))
                        setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)


def self_times(spans) -> dict:
    """name -> (self seconds, calls) over the given spans."""
    covered = {}
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + (end - start)
    totals = {}
    for span_id, _, _, name, start, end in spans:
        own_ns, calls = totals.get(name, (0, 0))
        totals[name] = (own_ns + (end - start) - covered.get(span_id, 0), calls + 1)
    return {name: (ns / 1e9, calls) for name, (ns, calls) in totals.items()}


def layer_metrics(spans) -> dict:
    """Values of LAYER_METRICS over one traced pass; absent spans give 0."""
    totals = self_times(spans)
    values = {}
    for metric, _ in LAYER_METRICS:
        span, kind = metric.rsplit(".", 1)
        if span == "harness.self":
            span = RUN_SPAN
        seconds, calls = totals.get(span, (0.0, 0))
        values[metric] = seconds if kind == "s" else calls
    return values


def write_spans(path: str, passes) -> None:
    """Write spans as gzip'd CSV: pass, span id, parent, run id, name, start, end."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,span,parent,run,name,start_ns,end_ns\n")
        for index, spans in enumerate(passes):
            for span in spans:
                fh.write("%d,%d,%d,%d,%s,%d,%d\n" % ((index,) + span))
