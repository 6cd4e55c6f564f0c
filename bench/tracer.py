"""Spans recorded from outside girthgeom.

The tracer replaces public library functions at every module attribute
that holds them (``girthgeom.lines.forbidden_offsets``, the re-export in
``girthgeom``, the name imported into ``girthgeom.cli``, ...), so calls
made inside the library are caught as well as the benchmark's own calls.
Each call records one span (name, start, end, parent span, op id) in
memory.  Private per-pair helpers (``_relation_kind``, ``dot``, ``cross``)
are never wrapped: their cost shows up as the self time of their callers.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# --- counters read from arguments and return values ------------------------


def _count_offset_pairs(counts, args, kwargs, result):
    images, placed = args[0], args[1]
    counts["lines.offset_pairs"] += len(images) * len(placed)


def _count_line_sweep(counts, args, kwargs, result):
    counts["lines.sweep_pairs"] += _pairs(len(args[0]))
    counts["lines.sweep_edges"] += len(result)


def _count_shift_verify(counts, args, kwargs, result):
    counts["lines.verify_shift_calls"] += 1


def _count_coloring(counts, args, kwargs, result):
    counts["graphs.coloring_nodes"] += result.nodes
    counts["graphs.coloring_vertices"] += args[0].n


def _count_box_sweep(counts, args, kwargs, result):
    counts["boxes.sweep_calls"] += 1
    counts["boxes.sweep_pairs"] += _pairs(len(args[0]))
    counts["boxes.sweep_edges"] += len(result)


def _count_refutation(counts, args, kwargs, result):
    counts["gallai.refutation_nodes"] += result.nodes


def _count_copies(counts, args, kwargs, result):
    counts["gallai.copies"] += len(result)


def _count_file_bytes(counts, args, kwargs, result):
    counts["scenes.bytes"] += os.path.getsize(args[0])


# (module, function, span name, counter); the span name prefix is the layer
WRAPPED = [
    ("lines", "recursion_step_lines", "lines.recursion_step", None),
    ("lines", "choose_frame", "lines.choose_frame", None),
    ("lines", "forbidden_offsets", "lines.forbidden_offsets", _count_offset_pairs),
    ("lines", "embed_copy_lines", "lines.embed_copy_lines", None),
    ("lines", "check_line_structure", "lines.check_line_structure", None),
    ("lines", "line_intersection_edges", "lines.intersection_edges", _count_line_sweep),
    ("lines", "build_shift_system", "lines.build_shift_system", None),
    ("lines", "verify_shift_system", "lines.verify_shift_system", _count_shift_verify),
    ("boxes", "recursion_step_boxes", "boxes.recursion_step", None),
    ("boxes", "normalize_traces", "boxes.normalize_traces", None),
    ("boxes", "embed_copy_boxes", "boxes.embed_copy_boxes", None),
    ("boxes", "check_box_structure", "boxes.check_box_structure", None),
    ("boxes", "box_intersection_edges", "boxes.intersection_edges", _count_box_sweep),
    ("graphs", "intersection_graph", "graphs.intersection_graph", None),
    ("graphs", "girth", "graphs.girth", None),
    ("graphs", "is_k_colorable", "graphs.coloring", _count_coloring),
    ("graphs", "graph_equals_expected", "graphs.graph_equals_expected", None),
    ("graphs", "to_dimacs", "graphs.to_dimacs", None),
    ("gallai", "vdw_certificate", "gallai.vdw_certificate", None),
    ("gallai", "verify_certificate", "gallai.verify_certificate", _count_refutation),
    ("gallai", "find_avoiding_coloring", "gallai.refutation", None),
    ("gallai", "find_copy_cycle", "gallai.find_copy_cycle", None),
    ("gallai", "enumerate_copies", "gallai.enumerate_copies", _count_copies),
    ("scenes", "save_scene", "scenes.save", None),
    ("scenes", "write_doc", "scenes.save", _count_file_bytes),
    ("scenes", "load_scene", "scenes.load", _count_file_bytes),
    ("scenes", "load_certificate", "scenes.load", _count_file_bytes),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Wraps the functions in WRAPPED between ``install`` and
    ``uninstall``; spans and counters of every call are kept in memory,
    tagged with ``op_id``, until ``write``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "girthgeom"]
        for modname, attr, span_name, counter in WRAPPED:
            original = getattr(sys.modules[f"girthgeom.{modname}"], attr)
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def _wrap(self, original, span_name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts[self.op_id], args, kwargs, result)
            return result

        return wrapper

    def self_times(self, op_ids) -> dict[str, float]:
        """Self seconds summed per span name over the given ops."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in op_ids:
                out[name] += (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
