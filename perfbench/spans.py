"""In-memory span tracing of flatfold's public functions, from outside.

Each target is wrapped at the name its callers look it up by, so a call
made inside flatfold is seen as well as the benchmark's own calls. A span
records its name, its parent span, start and end; an op's spans are folded
into per-name totals when the op ends. Self time is a span's duration minus
the time its direct child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (module of flatfold, attribute, span name, sizes taken from the call)
TARGETS = [
    ("patternio", "load_text", "patternio.load",
     lambda a, r: {"patternio.bytes": len(a[0])}),
    ("patternio", "build_crease_pattern", "cp.build", None),
    ("cp", "segments_conflict", "geometry.conflict", None),
    ("patternio", "emit", "patternio.emit",
     lambda a, r: {"patternio.bytes": len(r)}),
    ("tiling", "tile", "tiling.tile",
     lambda a, r: {"saw.vertices": len(r.vertices), "saw.edges": len(r.edges)}),
    ("tiling", "clip_order", "tiling.clip_order", None),
    ("tiling", "cone_at", "cp.cone_at", None),
    ("oracle", "cone_at", "cp.cone_at", None),
    ("tiling", "single_vertex_saw", "saw.single_vertex_saw", None),
    ("saw", "crimp_trace", "single_vertex.crimp_trace", None),
    ("tiling", "insert_triangle", "saw.triangle", None),
    ("tiling", "insert_prism", "saw.prism", None),
    ("coloring", "count_colorings", "coloring.count",
     lambda a, r: {"coloring.colorings": r}),
    ("coloring", "verify_bijection", "coloring.verify", None),
    ("coloring", "enumerate_colorings", "coloring.enumerate",
     lambda a, r: {"coloring.enumerated": len(r)}),
    ("coloring", "coloring_to_mv", "coloring.to_mv", None),
    ("coloring", "mv_to_coloring", "coloring.lift", None),
    ("oracle", "count_locally_valid", "oracle.count",
     lambda a, r: {"oracle.assignments": r}),
    ("oracle", "enumerate_locally_valid", "oracle.enumerate",
     lambda a, r: {"oracle.witnesses": len(r.witnesses)}),
]

# Per-layer metric -> (unit, how it is derived, span or size names).
# "self": self time in ms per traced op; "calls" and "errors": per traced op;
# "size": a size from TARGETS per traced op; "per": self time in us per unit
# of a size.
LAYER_METRICS = {
    "patternio.load_ms": ("ms", "self", ["patternio.load"]),
    "patternio.emit_ms": ("ms", "self", ["patternio.emit"]),
    "patternio.bytes": ("bytes", "size", ["patternio.bytes"]),
    "cp.build_ms": ("ms", "self", ["cp.build"]),
    "cp.build_calls": ("count", "calls", ["cp.build"]),
    "cp.cone_at_calls": ("count", "calls", ["cp.cone_at"]),
    "cp.cone_at_ms": ("ms", "self", ["cp.cone_at"]),
    "geometry.conflict_calls": ("count", "calls", ["geometry.conflict"]),
    "geometry.conflict_ms": ("ms", "self", ["geometry.conflict"]),
    "single_vertex.crimp_trace_calls": ("count", "calls", ["single_vertex.crimp_trace"]),
    "single_vertex.crimp_trace_ms": ("ms", "self", ["single_vertex.crimp_trace"]),
    "saw.single_vertex_saw_calls": ("count", "calls", ["saw.single_vertex_saw"]),
    "saw.single_vertex_saw_ms": ("ms", "self", ["saw.single_vertex_saw"]),
    "saw.triangles": ("count", "calls", ["saw.triangle"]),
    "saw.prisms": ("count", "calls", ["saw.prism"]),
    "saw.surgery_ms": ("ms", "self", ["saw.triangle", "saw.prism"]),
    "saw.vertices": ("count", "size", ["saw.vertices"]),
    "saw.edges": ("count", "size", ["saw.edges"]),
    "tiling.clip_order_ms": ("ms", "self", ["tiling.clip_order"]),
    "tiling.tile_ms": ("ms", "self", ["tiling.tile"]),
    "coloring.count_ms": ("ms", "self", ["coloring.count"]),
    "coloring.count_us_per_coloring": ("us", "per", ["coloring.count", "coloring.colorings"]),
    "coloring.enumerate_ms": ("ms", "self", ["coloring.enumerate"]),
    "coloring.enumerated": ("count", "size", ["coloring.enumerated"]),
    "coloring.to_mv_ms": ("ms", "self", ["coloring.to_mv"]),
    "coloring.lift_ms": ("ms", "self", ["coloring.lift"]),
    "coloring.lift_calls": ("count", "calls", ["coloring.lift"]),
    "coloring.lift_failed": ("count", "errors", ["coloring.lift"]),
    "coloring.verify_ms": ("ms", "self", ["coloring.verify"]),
    "oracle.count_ms": ("ms", "self", ["oracle.count"]),
    "oracle.count_us_per_assignment": ("us", "per", ["oracle.count", "oracle.assignments"]),
    "oracle.enumerate_ms": ("ms", "self", ["oracle.enumerate"]),
    "oracle.witnesses": ("count", "size", ["oracle.witnesses"]),
}


class Tracer:
    """Collects spans of the traced ops and folds them into totals."""

    def __init__(self, ff):
        self.ff = ff
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self.by_label: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._spans: list[list] = []    # [name, parent index, start, end]
        self._stack: list[int] = []

    def _wrap(self, fn, name, sizes):
        spans, stack = self._spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if sizes is not None:
                for key, value in sizes(args, result).items():
                    self.sizes[key] += value
            return result

        return traced

    @contextmanager
    def op(self):
        """Trace one op: wrap every target, then restore the originals.
        The op's spans stay in memory until fold() is called."""
        saved = []
        try:
            for mod_name, attr, name, sizes in TARGETS:
                mod = getattr(self.ff, mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, sizes))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def fold(self, label: str, scale: float) -> None:
        """Add the last op's spans to the totals, times multiplied by scale
        (the host-speed adjustment of the op)."""
        spans = self._spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        per_label = self.by_label[label]
        per_label["ops"] += 1
        for (name, _, start, end), covered in zip(spans, child):
            own = (end - start - covered) * scale
            self.calls[name] += 1
            self.self_s[name] += own
            per_label[name] += own
        self.ops += 1
        spans.clear()
        self._stack.clear()

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric, averaged over the traced ops."""
        n = max(self.ops, 1)
        out = {}
        for metric, (unit, how, names) in LAYER_METRICS.items():
            if how == "self":
                value = sum(self.self_s[s] for s in names) * 1e3 / n
            elif how == "calls":
                value = self.calls[names[0]] / n
            elif how == "errors":
                value = self.errors[names[0]] / n
            elif how == "size":
                value = self.sizes[names[0]] / n
            else:
                units = self.sizes[names[1]]
                value = self.self_s[names[0]] * 1e6 / units if units else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out
