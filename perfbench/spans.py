"""Span recording around the public functions of each rankreg layer.

The program carries no instrumentation of its own, so the traced run wraps
functions from the outside.  A module that did ``from .kernels import
comparison_weighted_sums`` holds its own reference, so each wrapped function
is replaced in every rankreg namespace that holds it; patching only the
defining module would let kernel time vanish from the trace.

Spans (name, start, end, parent, work count, bytes) stay in memory while
the program runs and are written out and reduced to per-layer self times
afterwards.
"""

import contextlib
import json
import statistics
import time

# (span name, defining module, attribute).  The span name says which layer
# the time is charged to.
TARGETS = (
    ("cli.ingest_csv", "cli", "ingest_csv"),
    ("cli.emit", "cli", "_emit_json"),
    ("cli.emit", "cli", "_emit_csv"),
    ("ranks.rank_transform", "ranks", "rank_transform"),
    ("kernels.comparison_counts", "kernels", "comparison_counts"),
    ("kernels.comparison_weighted_sums", "kernels", "comparison_weighted_sums"),
    ("estimators.fit", "estimators", "fit_spec"),
    ("estimators.fit", "estimators", "fit_rank_rank"),
    ("estimators.ols", "estimators", "ols"),
    ("inference.plugin", "inference", "plugin_covariance"),
    ("inference.plugin", "inference", "plugin_slope_variance"),
    ("inference.naive", "inference", "hom_covariance"),
    ("inference.naive", "inference", "ew_covariance"),
    ("bootstrap.report", "bootstrap", "bootstrap_report"),
    ("bootstrap.distribution", "bootstrap", "bootstrap_distribution"),
    ("bootstrap.replicate", "bootstrap", "replicate_statistic"),
    ("bootstrap.resample", "bootstrap", "_resample"),
    ("copulas.coverage", "copulas", "coverage_experiment"),
)
LAYER_MODULES = ("cli", "ranks", "kernels", "estimators", "inference", "bootstrap",
                 "copulas")


def _count(name, args, result):
    """(work count, bytes computed) of one span, read from its arguments or result."""
    try:
        if name == "kernels.comparison_counts":
            return len(args[0]), 0
        if name == "kernels.comparison_weighted_sums":
            # points, data and weights read plus the result written, 8 bytes each
            return len(args[1]), 8 * (2 * len(args[0]) + 2 * len(args[1]))
        if name == "cli.ingest_csv":
            return result[1]["rows_used"], 0
        if name == "inference.plugin":
            return result.influence.psi.size, 0
        if name == "bootstrap.replicate":
            return result[1], 0
    except (AttributeError, IndexError, KeyError, TypeError):
        pass  # a changed signature loses the count, never the traced call
    return 0, 0


class Tracer:
    """Records nested spans; ``install`` patches rankreg, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count, bytes]
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.missing = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body; yields its record for counts."""
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record[4], record[5] = _count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        modules = [getattr(package, name, None) for name in LAYER_MODULES] + [package]
        modules = [module for module in modules if module is not None]
        for name, module_name, attribute in TARGETS:
            original = getattr(getattr(package, module_name, None), attribute, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        model = getattr(getattr(package, "copulas", None), "CopulaModel", None)
        if model is None or not hasattr(model, "sample"):
            self.missing.append("copulas.CopulaModel.sample")
        else:
            original = model.sample
            self._patched.append((model, "sample", original))
            model.sample = self._wrap("copulas.sample", original)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def dump(self, path, invocation):
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, count, nbytes in self.spans:
                fh.write(json.dumps({"invocation": invocation, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "count": count, "bytes": nbytes}) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one traced invocation from its spans.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {}
    calls = {}
    counts = {}
    nbytes = {}
    replicate_ms = []
    for k, (name, start, end, parent, count, size) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[k]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
        nbytes[name] = nbytes.get(name, 0) + size
        if name == "bootstrap.replicate":
            replicate_ms.append(1000.0 * (end - start))

    def s(name):
        return self_s.get(name, 0.0)

    ingest_s = s("cli.ingest_csv")
    rows = counts.get("cli.ingest_csv", 0)
    return {
        "cli.ingest_s": ingest_s,
        "cli.ingest_rows_per_s": rows / ingest_s if ingest_s > 0 else 0.0,
        "cli.emit_s": s("cli.emit"),
        "ranks.rank_transform_s": s("ranks.rank_transform"),
        "ranks.rank_transform_calls": calls.get("ranks.rank_transform", 0),
        "kernels.counts_s": s("kernels.comparison_counts"),
        "kernels.counts_calls": calls.get("kernels.comparison_counts", 0),
        "kernels.sums_s": s("kernels.comparison_weighted_sums"),
        "kernels.sums_calls": calls.get("kernels.comparison_weighted_sums", 0),
        "kernels.sorted_elements": counts.get("kernels.comparison_counts", 0)
        + counts.get("kernels.comparison_weighted_sums", 0),
        "kernels.sums_bytes_computed": nbytes.get("kernels.comparison_weighted_sums", 0),
        "estimators.fit_self_s": s("estimators.fit"),
        "estimators.fit_calls": calls.get("estimators.fit", 0),
        "estimators.ols_s": s("estimators.ols"),
        "estimators.ols_calls": calls.get("estimators.ols", 0),
        "inference.plugin_self_s": s("inference.plugin"),
        "inference.plugin_calls": calls.get("inference.plugin", 0),
        "inference.naive_s": s("inference.naive"),
        "inference.influence_cells": counts.get("inference.plugin", 0),
        "bootstrap.replicate_ms": statistics.median(replicate_ms) if replicate_ms else 0.0,
        "bootstrap.replicates": calls.get("bootstrap.replicate", 0),
        "bootstrap.resample_s": s("bootstrap.resample"),
        "bootstrap.redraws": counts.get("bootstrap.replicate", 0),
        "copulas.sample_s": s("copulas.sample"),
        "copulas.sample_calls": calls.get("copulas.sample", 0),
        "trace.unattributed_s": s("invocation"),
    }
