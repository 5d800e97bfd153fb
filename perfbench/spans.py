"""Span tracing at the boundaries between mubcert's modules.

The tracer wraps every public function that one package module imported
from another, under the name of the module that defines it: the
``simulate_counts`` that ``mubcert.cli`` calls becomes the span
``photonics.simulate_counts``, the ``psd_sqrt`` that ``mubcert.mub`` calls
becomes ``linalg.psd_sqrt``.  Calls inside a module stay unwrapped, so a
module's internal helpers cost nothing extra.  ``mubcert.cli.main`` itself
is wrapped as the root span ``cli.main`` of each op.

Spans are kept in memory as ``(op, parent, name, t0, t1)`` and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; the self times of one op add up to its root span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "photonics", "counts", "qrac", "certify", "mub", "linalg")


def _simulate_counters(args, kwargs, table) -> dict:
    config = args[0] if args else kwargs["config"]
    rounds = args[1] if len(args) > 1 else kwargs.get("rounds")
    if rounds is None:
        rounds = config.default_rounds()
    return {"photonics.pulses": rounds, "photonics.detections": table.total()}


def _rows_of(table) -> int:
    return 2 * table.dim ** 3


# Counts recorded at the same boundaries as the spans, from a wrapped call's
# arguments and result.
COUNTERS = {
    "photonics.simulate_counts": _simulate_counters,
    "counts.write_counts_csv": lambda a, k, r: {
        "counts.rows_written": _rows_of(a[0] if a else k["table"])},
    "counts.read_counts_csv": lambda a, k, r: {"counts.rows_read": _rows_of(r)},
    "certify.full_certificate": lambda a, k, r: {
        "certify.certificates": 1,
        "certify.bounds_applicable": sum(
            reason == "ok" for reason in r.applicability().values()),
    },
}

# Function spans whose inclusive time is reported as its own metric.
FUNCTION_METRICS = {
    "photonics.simulate_counts_ms": ("photonics.simulate_counts",),
    "photonics.calibrate_drift_sigma_ms": ("photonics.calibrate_drift_sigma",),
    "photonics.mean_fringe_visibility_ms": ("photonics.mean_fringe_visibility",),
    "counts.write_counts_csv_ms": ("counts.write_counts_csv",),
    "counts.read_counts_csv_ms": ("counts.read_counts_csv",),
    "qrac.optimal_states_ms": ("qrac.optimal_states",),
    "qrac.estimate_asp_ms": ("qrac.estimate_asp",),
    "certify.full_certificate_ms": ("certify.full_certificate",),
    "certify.min_asp_for_nontrivial_eta_ms": ("certify.min_asp_for_nontrivial_eta",),
    "certify.report_table_ms": ("certify.report_table",),
    "mub.construct_ms": ("mub.fourier_mub_pair", "mub.hadamard_mub_pair_d4"),
    "mub.metrics_ms": ("mub.is_mutually_unbiased", "mub.overlap_entropy",
                       "mub.norm_sum", "mub.max_sqrt_overlap"),
}

_METRIC_OF = {name: metric for metric, names in FUNCTION_METRICS.items()
              for name in names}

PER_OP_COUNTS = ("photonics.pulses", "photonics.detections",
                 "counts.rows_written", "counts.rows_read")


class Tracer:
    """Records spans and boundary counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack: list = []
        self._patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"mubcert.{layer}")
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn):
                    continue
                owner = fn.__module__
                if owner == module.__name__ and attr != "main":
                    continue
                if not owner.startswith("mubcert."):
                    continue
                name = f"{owner.rsplit('.', 1)[1]}.{fn.__name__}"
                self._patches.append((module, attr, fn, self._wrap(name, fn)))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (self.op, parent, name, t0, t1)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[self.op][key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times in microseconds."""
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (op, parent, name, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({
                    "op": op, "id": sid, "parent": parent, "name": name,
                    "start_us": round((t0 - base) * 1e6, 3),
                    "end_us": round((t1 - base) * 1e6, 3),
                }) + "\n")

    def per_op(self) -> dict:
        """Per-layer figures of each traced op, keyed by op id."""
        ops: dict = defaultdict(lambda: defaultdict(float))
        child_cover = defaultdict(float)
        for op, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_cover[parent] += t1 - t0
        for sid, (op, parent, name, t0, t1) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            dur_ms = (t1 - t0) * 1e3
            fig = ops[op]
            fig[f"{layer}.self_ms"] += dur_ms - child_cover[sid] * 1e3
            fig[f"{layer}.calls"] += 1
            if not self._inside_layer(parent, layer):
                fig[f"{layer}.busy_ms"] += dur_ms
            if name in _METRIC_OF:
                fig[_METRIC_OF[name]] += dur_ms
        for op, counts in self.counts.items():
            ops[op].update(counts)
        return ops

    def _inside_layer(self, sid: int, layer: str) -> bool:
        while sid >= 0:
            _, parent, name, _, _ = self.spans[sid]
            if name.split(".", 1)[0] == layer:
                return True
            sid = parent
        return False


def layer_metrics(per_op: dict, traced_ms: dict, untraced_ms: list) -> dict:
    """Medians per traced op of every per-layer metric, plus trace figures.

    ``traced_ms`` maps op id to the op's wall time with tracing on;
    ``untraced_ms`` holds the wall times of the same ops with tracing off.
    """
    figs = [per_op[op] for op in traced_ms]
    keys = [f"{layer}.{kind}" for layer in LAYERS
            for kind in ("busy_ms", "self_ms", "calls")]
    keys += list(FUNCTION_METRICS) + list(PER_OP_COUNTS)
    out = {key: statistics.median(f.get(key, 0.0) for f in figs) for key in keys}

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        total = sum(f.get(den, 0) for f in figs)
        return sum(f.get(num, 0) for f in figs) / (scale * total) if total else 0.0

    out["photonics.detections_per_pulse"] = ratio(
        "photonics.detections", "photonics.pulses")
    out["certify.bounds_applicable_ratio"] = ratio(
        "certify.bounds_applicable", "certify.certificates", 5.0)
    traced_p50 = statistics.median(traced_ms.values())
    untraced_p50 = statistics.median(untraced_ms)
    out["trace.op_ms"] = traced_p50
    out["trace.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
    return out
