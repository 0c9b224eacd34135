"""Span tracer that wraps kneser's public functions from the outside.

Each wrapper records a span (name, start, end, parent span, op id) and
feeds a few counters.  Spans stay in memory until the run writes them out.
A wrapper replaces the function at every module that binds it, so calls
through `from .x import f` copies are seen too.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs, in the order the per-layer table lists them
LAYERS = (
    ("fileio", "parse_tri"),
    ("fileio", "parse_patch"),
    ("triangulation", "validate"),
    ("triangulation", "skeleton"),
    ("normal", "matching_system"),
    ("normal", "check_coordinates"),
    ("vertex_enum", "enumerate_vertex_solutions"),
    ("vertex_enum", "is_vertex_ray"),
    ("reconstruct", "build_complex"),
    ("reconstruct", "reconstruct"),
    ("pl_area", "pl_area"),
    ("pl_area", "verify_diameter_bound"),
    ("decomposition", "sphere_witnesses"),
    ("surgery", "crush"),
    ("surgery", "cut_and_cap"),
    ("homology", "homology"),
    ("projection", "projected_area"),
    ("projection", "triangle_distances"),
    ("rng", "ball_samples"),
    ("reports", "emit_json"),
)

# summed counters, and ratios as (numerator, denominator) counter names
COUNTS = ("vertex_enum.rays_out", "surgery.crush.tets_out", "surgery.cut_and_cap.tets_out")
RATIOS = {
    "vertex_enum.is_vertex_ray.accept_ratio": ("is_vertex_ray.accepted", "is_vertex_ray.tested"),
    "decomposition.witness_ratio": ("sphere_witnesses.out", "sphere_witnesses.in"),
    "projection.near_tri_ratio": ("projected_area.near", "projected_area.triangles"),
}


# Hooks run when a traced call returns, with its op's counters, its
# arguments and result, and (name, args) of the traced call it ran inside
# (None at top level).
def _after_enumerate(counts, args, kwargs, result, parent):
    counts["vertex_enum.rays_out"] += len(result)


def _after_is_vertex_ray(counts, args, kwargs, result, parent):
    counts["is_vertex_ray.tested"] += 1
    counts["is_vertex_ray.accepted"] += bool(result)


def _after_witnesses(counts, args, kwargs, result, parent):
    solutions = args[1] if len(args) > 1 else kwargs["solutions"]
    counts["sphere_witnesses.in"] += len(solutions)
    counts["sphere_witnesses.out"] += len(result)


def _after_crush(counts, args, kwargs, result, parent):
    counts["surgery.crush.tets_out"] += sum(t.size for t in result)


def _after_cut_and_cap(counts, args, kwargs, result, parent):
    counts["surgery.cut_and_cap.tets_out"] += sum(t.size for t in result)


def _after_triangle_distances(counts, args, kwargs, result, parent):
    # projected_area splits its triangles into near and far at 2r; count the
    # split from the distances it asked for, with r from its config.  It asks
    # twice per call (once through patch_distance) for the same centre and
    # triangles, which leaves the ratio unchanged.
    if parent is not None and parent[0] == "projection.projected_area":
        config = parent[1][0]
        counts["projected_area.triangles"] += len(result)
        counts["projected_area.near"] += int((result < 2.0 * config.r).sum())


AFTER = {
    "vertex_enum.enumerate_vertex_solutions": _after_enumerate,
    "vertex_enum.is_vertex_ray": _after_is_vertex_ray,
    "decomposition.sphere_witnesses": _after_witnesses,
    "surgery.crush": _after_crush,
    "surgery.cut_and_cap": _after_cut_and_cap,
    "projection.triangle_distances": _after_triangle_distances,
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.op: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[tuple] = []  # (span index, args) of the open spans
        self.counts: dict[int | None, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.originals: dict[str, object] = {}
        self.sites: dict[str, list[str]] = {}
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1][0] if self.stack else -1, self.op]
            self.spans.append(span)
            self.stack.append((index, args))
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                parent = None
                if self.stack:
                    parent_index, parent_args = self.stack[-1]
                    parent = (self.spans[parent_index][0], parent_args)
                after(self.counts[self.op], args, kwargs, result, parent)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each LAYERS function in the loaded
        kneser modules with its traced wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "kneser" or n.startswith("kneser."))]
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules[f"kneser.{module_name}"], func_name)
            wrapper = self.wrap(name, original)
            self.originals[name] = original
            self.sites[name] = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))
                        self.sites[name].append(f"{module.__name__}.{attr}")

    def uninstall(self) -> None:
        """Put back every binding `install` replaced."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def summary(self, ops: set[int]) -> dict[str, float]:
        """Per-layer calls, time and self time, counts and ratios over the
        spans of the given op ids."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0 and op in ops:
                child_time[parent] += end - start
        out = {}
        for module_name, func_name in LAYERS:
            for suffix in ("calls", "s", "self_s"):
                out[f"{module_name}.{func_name}.{suffix}"] = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
        totals = defaultdict(float)
        for op in ops:
            for key, value in self.counts[op].items():
                totals[key] += value
        for key in COUNTS:
            out[key] = totals[key]
        for key, (num, den) in RATIOS.items():
            out[key] = totals[num] / totals[den] if totals[den] else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


def per_layer_units() -> dict[str, str]:
    units = {}
    for module_name, func_name in LAYERS:
        units[f"{module_name}.{func_name}.calls"] = "count"
        units[f"{module_name}.{func_name}.s"] = "s"
        units[f"{module_name}.{func_name}.self_s"] = "s"
    for key in COUNTS:
        units[key] = "count"
    for key in RATIOS:
        units[key] = "ratio"
    return units
