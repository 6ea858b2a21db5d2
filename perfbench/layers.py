"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each named public function with a wrapper in
every ``shiftlab`` module that binds it (``is_shifted``, for example, is
imported by name into several modules), so internal calls are traced too
and no file of the library changes.  Spans stay in memory until the run
ends.

A span's self time is its duration minus the time of its child spans.  The
time a wrapper spends reading counters off a call's arguments and result is
charged to neither the span nor its parent.

Spans nest on one stack, so the traced code must run on one thread:
``run.py`` pins ``SHIFTLAB_THREADS`` to 1, which keeps ``hochster_betti``
off its thread pool.

``faces`` is left unwrapped: ``section4`` makes tens of millions of
``max_index`` calls, so a wrapper there would measure itself.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

# layer -> public functions traced in that layer
LAYERS = {
    "gfp": ("pivot_columns",),
    "exterior": ("gin", "phi_image_matrix", "random_gl"),
    "homology": ("hochster_betti", "reduced_homology_dims", "boundary_matrix", "shifted_betti"),
    "complexes": ("restriction", "m_leq", "ideal_slices", "ideal_degree_slice", "is_shifted"),
    "shifting": ("enumerate_shifted", "shift_ij"),
    "section4": (
        "section4_enumerate_and_classify",
        "section4_negative_results",
        "terminal_segment",
        "classify_complex",
        "section4_build",
    ),
}


def _pivot_attrs(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"rows": rows, "cols": cols, "rank": len(result)}


def _phi_attrs(args, kwargs, result):
    rows, cols = result[0].shape
    return {"rows": rows, "cols": cols}


# span name -> reader of counters from (args, kwargs, result)
_ATTRS = {
    "gfp.pivot_columns": _pivot_attrs,
    "exterior.phi_image_matrix": _phi_attrs,
    "homology.boundary_matrix": lambda a, k, r: {"cells": r.size},
    "homology.reduced_homology_dims": lambda a, k, r: {"zero": not any(r)},
    "shifting.shift_ij": lambda a, k, r: {"moved": r.faces != a[0].faces},
}


class Tracer:
    """In-memory spans: (op, name, parent index, start, end, self seconds, attrs)."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "shiftlab" or key.startswith("shiftlab.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"shiftlab.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        read_attrs = _ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.op, name, parent, start, end, end - start - frame[1], {"raised": True})
                if stack:
                    stack[-1][1] += end - start
                raise
            end = perf_counter()
            stack.pop()
            attrs = read_attrs(args, kwargs, result) if read_attrs else None
            spans[index] = (self.op, name, parent, start, end, end - start - frame[1], attrs)
            if stack:
                stack[-1][1] += perf_counter() - start
            return result

        return traced

    def write(self, path) -> None:
        keys = ("op", "name", "parent", "start", "end", "self_s", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics summed over the run; absent layers read 0."""
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for fname in names:
                out[f"{layer}.{fname}.calls"] = 0
                out[f"{layer}.{fname}.self_s"] = 0.0
        sums = {
            "pivot_rows": 0, "pivot_rank": 0, "pivot_cells": 0, "pivot_flops": 0,
            "phi_rows": 0, "phi_cells": 0, "boundary_cells": 0, "zero_dims": 0,
            "moved": 0, "gin_draws": 0, "states": 0,
        }
        for op, name, parent, start, end, self_s, attrs in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            parent_name = self.spans[parent][1] if parent >= 0 else None
            if attrs is None or attrs.get("raised"):
                pass
            elif name == "gfp.pivot_columns":
                cells = attrs["rows"] * attrs["cols"]
                sums["pivot_rows"] += attrs["rows"]
                sums["pivot_rank"] += attrs["rank"]
                sums["pivot_cells"] += cells
                sums["pivot_flops"] += 2 * cells * attrs["rank"]
            elif name == "exterior.phi_image_matrix":
                sums["phi_rows"] += attrs["rows"]
                sums["phi_cells"] += attrs["rows"] * attrs["cols"]
            elif name == "homology.boundary_matrix":
                sums["boundary_cells"] += attrs["cells"]
            elif name == "homology.reduced_homology_dims":
                sums["zero_dims"] += attrs["zero"]
            elif name == "shifting.shift_ij":
                sums["moved"] += attrs["moved"]
            # gin draws two coordinate changes per attempt; enumerate_shifted
            # tests shiftedness once for its start and once per new state
            if name == "exterior.random_gl" and parent_name == "exterior.gin":
                sums["gin_draws"] += 1
            if name == "complexes.is_shifted" and parent_name == "shifting.enumerate_shifted":
                sums["states"] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        out["gfp.pivot_columns.cells"] = sums["pivot_cells"]
        out["gfp.pivot_columns.rank_ratio"] = ratio(sums["pivot_rank"], sums["pivot_rows"])
        out["gfp.pivot_columns.flop_est"] = sums["pivot_flops"]
        out["exterior.phi_image_matrix.rows"] = sums["phi_rows"]
        out["exterior.phi_image_matrix.cells"] = sums["phi_cells"]
        out["exterior.gin.attempts"] = sums["gin_draws"] // 2
        out["homology.boundary_matrix.cells"] = sums["boundary_cells"]
        out["homology.reduced_homology_dims.zero_ratio"] = ratio(
            sums["zero_dims"], out["homology.reduced_homology_dims.calls"]
        )
        out["shifting.enumerate_shifted.states"] = sums["states"]
        out["shifting.shift_ij.moved_ratio"] = ratio(sums["moved"], out["shifting.shift_ij.calls"])
        return out
