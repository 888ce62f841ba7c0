"""Spans and counters around mono3d's public functions, installed from outside.

A :class:`Tracer` replaces each function named in :data:`SPANS` at every
``mono3d`` module attribute that holds it (so ``toy_trainer.build_graph``
and ``evaluation.bev_footprint``, imported by name, are covered too) with
a wrapper that records a span: name, start, end and parent. Leaving the
``with`` block puts the original functions back. Spans stay in memory;
:func:`summarize` turns them into per-function call counts and self times.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "mono3d"

# Defining module -> public functions to wrap.
SPANS = {
    "evaluation": ("iou_3d", "bev_iou", "clip_convex", "polygon_area",
                   "evaluate_frames", "match_frame", "average_precision",
                   "localization_report", "monte_carlo_iou_3d"),
    "geometry": ("bev_footprint", "box3d_corners"),
    "kitti_io": ("parse_label_file", "parse_calib_file"),
    "toy_trainer": ("run_paired_experiment", "generate_scene", "train",
                    "neighbor_order_violations"),
    "locality": ("build_graph",),
    "cli": ("cmd_eval", "cmd_train_toy", "cmd_iou_oracle", "write_json"),
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in SPANS.items() for fn in fns)
COMMAND_SPANS = ("cli.cmd_eval", "cli.cmd_train_toy", "cli.cmd_iou_oracle")
IOU_SPANS = ("evaluation.iou_3d", "evaluation.bev_iou")

# Counter name -> (unit, better).
COUNTERS = {
    "evaluation.iou.pairs_distinct": ("count", "lower"),
    "evaluation.iou.useful_ratio": ("ratio", "higher"),
    "evaluation.mc_samples": ("count", "lower"),
    "kitti_io.lines_parsed": ("count", "lower"),
    "toy_trainer.epochs_run": ("count", "lower"),
    "toy_trainer.violation_pairs": ("count", "lower"),
    "locality.graph_entries": ("count", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
}


def unit(metric: str) -> str:
    """Unit of a per-module metric."""
    if metric.endswith("_s"):
        return "s"
    return COUNTERS.get(metric, ("count",))[0]


def _argument_getter(fn, name):
    """Fetch argument ``name`` of a call to ``fn`` from its args and kwargs."""
    parameters = list(inspect.signature(fn).parameters.values())
    position = [p.name for p in parameters].index(name)
    default = parameters[position].default

    def get(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get(name, default)

    return get


def _box_key(box) -> tuple:
    return (*map(float, box.center), *map(float, box.dims), float(box.yaw))


class Tracer:
    """Records spans and counters while installed (``with tracer: ...``)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.iou_pairs: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _counter(self, name, fn):
        """The counting hook of span ``name``, or None."""
        counts = self.counts
        if name in IOU_SPANS:
            get_a, get_b = _argument_getter(fn, "a"), _argument_getter(fn, "b")
            pairs = self.iou_pairs

            def count(args, kwargs, result):
                pairs.add((_box_key(get_a(args, kwargs)), _box_key(get_b(args, kwargs))))
        elif name == "evaluation.monte_carlo_iou_3d":
            get = _argument_getter(fn, "n_samples")

            def count(args, kwargs, result):
                counts["evaluation.mc_samples"] += get(args, kwargs)
        elif name == "kitti_io.parse_label_file":
            def count(args, kwargs, result):
                counts["kitti_io.lines_parsed"] += len(result)
        elif name == "toy_trainer.train":
            def count(args, kwargs, result):
                counts["toy_trainer.epochs_run"] += len(result[1].loss_curve)
        elif name == "toy_trainer.neighbor_order_violations":
            get = _argument_getter(fn, "scene")

            def count(args, kwargs, result):
                m = get(args, kwargs).size
                counts["toy_trainer.violation_pairs"] += m * (m - 1) // 2
        elif name == "locality.build_graph":
            get = _argument_getter(fn, "batch")

            def count(args, kwargs, result):
                m = len(get(args, kwargs).u2d)
                counts["locality.graph_entries"] += m * m
        else:
            count = None
        return count

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for short, fns in SPANS.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:
                    self.missing.append(f"{short}.{fn}")
                    continue
                wrapper = self._wrap(f"{short}.{fn}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], cursor), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def subtree_self_time(spans, selfs, root: int) -> float:
    """Sum of the self times of ``root`` and every span below it."""
    below = {root}
    total = selfs[root]
    for index in range(root + 1, len(spans)):
        if spans[index][3] in below:
            below.add(index)
            total += selfs[index]
    return total


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-execution metrics: ``<span>.calls``, ``<span>.self_s`` and counters."""
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, _, _, _), own in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += own
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    iou_calls = sum(calls[name] for name in IOU_SPANS)
    metrics["evaluation.iou.pairs_distinct"] = len(tracer.iou_pairs)
    metrics["evaluation.iou.useful_ratio"] = (len(tracer.iou_pairs) / iou_calls
                                              if iou_calls else 0.0)
    for name in COUNTERS:
        metrics.setdefault(name, tracer.counts[name])
    return metrics


def command_span_error(tracer: Tracer) -> float:
    """Largest gap between a command span's duration and the self times
    summed over its subtree; zero when the span tree is consistent."""
    selfs = self_times(tracer.spans)
    worst = 0.0
    for index, (name, start, end, _) in enumerate(tracer.spans):
        if name in COMMAND_SPANS:
            worst = max(worst, abs(subtree_self_time(tracer.spans, selfs, index)
                                   - (end - start)))
    return worst


def median_metrics(per_execution: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over executions."""
    return {name: statistics.median(m[name] for m in per_execution)
            for name in per_execution[0]}
