"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced public function is rebound in every ``ldbounds`` module
namespace that holds it: the package imports names with
``from .queryfn import eval_batch``, so patching only the defining module
would miss the callers in ``norms``, ``models`` and ``constructions``.
Calls made through a module global (``multiset_unrank`` inside
``cover_decode``) see the rebinding too.

Every call made while the tracer is active records a span (name, start,
end, parent).  Spans stay in memory until the run ends; self time is a
span's duration minus the time its child spans cover.  Counters that
describe the work (box cells, training steps, bytes written) are taken
from argument shapes and results at the same boundary, inside the span;
their cost is small next to the call they count.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"

# Every per-layer metric the traced run reports, with its unit and the
# direction an optimisation should move it.  Layers with no work in a
# workload report zeros.
PER_LAYER = [
    ("queryfn.eval_batch.calls", "count", "lower"),
    ("queryfn.eval_batch.self_s", "s", "lower"),
    ("queryfn.box_kernel.calls", "count", "lower"),
    ("queryfn.box_kernel.self_s", "s", "lower"),
    ("queryfn.box_cells", "count", "lower"),
    ("queryfn.ns_per_box_cell", "ns", "lower"),
    ("queryfn.single_axis_share", "fraction", "higher"),
    ("queryfn.distinct_share", "fraction", "higher"),
    ("models.train.calls", "count", "lower"),
    ("models.train.steps", "count", "lower"),
    ("models.train.self_s", "s", "lower"),
    ("models.predict.calls", "count", "lower"),
    ("models.predict.self_s", "s", "lower"),
    ("norms.model_error.calls", "count", "lower"),
    ("norms.model_error.self_s", "s", "lower"),
    ("norms.model_error.samples", "count", "lower"),
    ("norms.mc_l1.calls", "count", "lower"),
    ("norms.mc_l1.self_s", "s", "lower"),
    ("norms.mc_l1.samples", "count", "lower"),
    ("norms.card1d_l1.calls", "count", "lower"),
    ("norms.card1d_l1.self_s", "s", "lower"),
    ("norms.card1d_l1.cells", "count", "lower"),
    ("norms.card1d_linf.self_s", "s", "lower"),
    ("norms.rank_l1.self_s", "s", "lower"),
    ("bounds.eps_star.calls", "count", "lower"),
    ("bounds.eps_star.self_s", "s", "lower"),
    ("bounds.log2_binomial.calls", "count", "lower"),
    ("bounds.log2_binomial.self_s", "s", "lower"),
    ("constructions.packing.self_s", "s", "lower"),
    ("constructions.certify.self_s", "s", "lower"),
    ("constructions.multiset_rank.calls", "count", "lower"),
    ("constructions.multiset_rank.self_s", "s", "lower"),
    ("constructions.multiset_unrank.calls", "count", "lower"),
    ("constructions.multiset_unrank.self_s", "s", "lower"),
    ("constructions.cover_encode.self_s", "s", "lower"),
    ("constructions.cover_decode.self_s", "s", "lower"),
    ("constructions.write_cover.self_s", "s", "lower"),
    ("constructions.write_cover.bytes", "bytes", "lower"),
    ("constructions.read_cover.self_s", "s", "lower"),
    ("constructions.read_cover.bytes", "bytes", "lower"),
    ("data.sample.self_s", "s", "lower"),
    ("data.grid_digits.self_s", "s", "lower"),
    ("data.load_csv.self_s", "s", "lower"),
    ("data.load_csv.bytes", "bytes", "lower"),
    ("data.save_csv.self_s", "s", "lower"),
    ("data.save_csv.bytes", "bytes", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.cells", "count", "lower"),
    ("harness.emit_csv.self_s", "s", "lower"),
    ("harness.emit_csv.bytes", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("rng.rand_below.calls", "count", "lower"),
    ("bench.op.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


# -- counters taken at the call boundary -------------------------------------


def _box_kernel(tracer, args, kwargs, result):
    values, C = args[0], args[1]
    n, m, dq = values.shape[0], C.shape[0], C.shape[1]
    cells = m * n * dq
    tracer.counts["queryfn.box_cells"] += cells
    if dq == 1:
        tracer.counts["queryfn.single_axis_cells"] += cells
    tracer.counts["queryfn.kernel_rows"] += n
    tracer.counts["queryfn.kernel_distinct_rows"] += tracer.distinct_rows(values)


def _train_steps(tracer, args, kwargs, result):
    model, cfg = args[0], args[3]
    if model.spec.kind != "sample":
        tracer.counts["models.train.steps"] += cfg.steps


def _samples(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += result.samples

    return count


def _card1d_cells(tracer, args, kwargs, result):
    # the (a-cells x b-cells) matrix card1d_l1 builds from merged breakpoints
    bps = np.unique(np.concatenate([args[0].values[:, 0], args[1].values[:, 0]]))
    a_edges = np.unique(np.concatenate([[0.0], bps[(bps > 0.0) & (bps < 1.0)], [1.0]]))
    b_edges = np.unique(np.concatenate([[-1.0], bps, [1.0]]))
    tracer.counts["norms.card1d_l1.cells"] += (a_edges.size - 1) * (b_edges.size - 1)


def _file_bytes(name, path_arg):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += os.path.getsize(args[path_arg])

    return count


def _cells(tracer, args, kwargs, result):
    tracer.counts["harness.cells"] += len(result.rows) + len(result.failures)


# (module, function, span name, counter)
TARGETS = [
    ("queryfn", "eval_batch", "queryfn.eval_batch", None),
    ("queryfn", "cardinality_batch", "queryfn.box_kernel", _box_kernel),
    ("queryfn", "range_sum_batch", "queryfn.box_kernel", _box_kernel),
    ("models", "train", "models.train", _train_steps),
    ("models", "predict", "models.predict", None),
    ("norms", "model_error", "norms.model_error", _samples("norms.model_error.samples")),
    ("norms", "mc_l1", "norms.mc_l1", _samples("norms.mc_l1.samples")),
    ("norms", "card1d_l1", "norms.card1d_l1", _card1d_cells),
    ("norms", "card1d_linf", "norms.card1d_linf", None),
    ("norms", "rank_l1", "norms.rank_l1", None),
    ("bounds", "eps_star", "bounds.eps_star", None),
    ("bounds", "log2_binomial", "bounds.log2_binomial", None),
    ("constructions", "packing_linf", "constructions.packing", None),
    ("constructions", "packing_l1_index", "constructions.packing", None),
    ("constructions", "packing_l1_ce", "constructions.packing", None),
    ("constructions", "packing_mu_index", "constructions.packing", None),
    ("constructions", "certify", "constructions.certify", None),
    ("constructions", "multiset_rank", "constructions.multiset_rank", None),
    ("constructions", "multiset_unrank", "constructions.multiset_unrank", None),
    ("constructions", "cover_encode", "constructions.cover_encode", None),
    ("constructions", "cover_decode", "constructions.cover_decode", None),
    ("constructions", "write_cover", "constructions.write_cover",
     _file_bytes("constructions.write_cover.bytes", 1)),
    ("constructions", "read_cover", "constructions.read_cover",
     _file_bytes("constructions.read_cover.bytes", 0)),
    ("data", "sample_uniform", "data.sample", None),
    ("data", "sample_gmm", "data.sample", None),
    ("data", "grid_digits", "data.grid_digits", None),
    ("data", "load_csv", "data.load_csv", _file_bytes("data.load_csv.bytes", 0)),
    ("data", "save_csv", "data.save_csv", _file_bytes("data.save_csv.bytes", 1)),
    ("harness", "run_experiment", "harness.run_experiment", _cells),
    ("harness", "emit_csv", "harness.emit_csv", _file_bytes("harness.emit_csv.bytes", 1)),
    ("cli", "main", "cli.main", None),
    ("rng", "rand_below", "rng.rand_below", None),
]


class Tracer:
    """Span recorder; wrappers record only while `active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._distinct: dict[int, tuple[np.ndarray, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in each loaded ldbounds module namespace."""
        modules = [m for name, m in sys.modules.items()
                   if name == "ldbounds" or name.startswith("ldbounds.")]
        for mod_name, fn_name, span_name, counter in TARGETS:
            original = getattr(sys.modules[f"ldbounds.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, counter)

        return wrapper

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs, counter=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent)
        return result

    def distinct_rows(self, values: np.ndarray) -> int:
        """Distinct records of an array, cached per array object."""
        hit = self._distinct.get(id(values))
        if hit is not None and hit[0] is values:
            return hit[1]
        distinct = int(np.unique(values, axis=0).shape[0])
        self._distinct[id(values)] = (values, distinct)
        return distinct

    def mark(self) -> int:
        """Start of a repetition: where its spans begin, with fresh counters."""
        self.counts = defaultdict(float)
        self._distinct.clear()
        return len(self.spans)

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, first_span: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since `first_span`."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _parent), covered in zip(spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        out = {}
        for metric, _unit, _better in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = float(calls.get(base, 0))
            elif kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            else:
                out[metric] = float(self.counts.get(metric, 0.0))
        c = self.counts
        out["queryfn.ns_per_box_cell"] = _ratio(
            1e9 * out["queryfn.box_kernel.self_s"], c.get("queryfn.box_cells", 0.0))
        out["queryfn.single_axis_share"] = _ratio(
            c.get("queryfn.single_axis_cells", 0.0), c.get("queryfn.box_cells", 0.0))
        out["queryfn.distinct_share"] = _ratio(
            c.get("queryfn.kernel_distinct_rows", 0.0), c.get("queryfn.kernel_rows", 0.0))
        out["trace.wall_s"] = wall
        out["trace.self_sum_s"] = sum(self_s.values())
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}
