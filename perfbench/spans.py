"""In-memory spans around calls into minksum's public functions.

The tracer patches the package from outside: each target function is
replaced, in every minksum module namespace that binds it, by a wrapper
that records (name, start, end, parent span, op id, count).  `bounds`
imports `sym_eigen` by name, so patching only `spd.sym_eigen` would miss
most calls.  SpdMatrix validation is traced through its __post_init__,
and CLI command bodies through their click callbacks.  Arguments and
results pass through untouched, so traced outputs equal untraced ones.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    normals = args[1] if len(args) > 1 else kwargs["normals"]
    return int(np.atleast_2d(normals).shape[0])


def _nodes(args, kwargs, result):
    return int(result.nodes.shape[0])


# (module, function, counter of work done per call or None)
TARGETS = (
    ("spd", "sym_eigen", None),
    ("spd", "geometric_mean", None),
    ("bounds", "volume_bounds", None),
    ("bounds", "minvol_outer", None),
    ("bounds", "best_inner_john", None),
    ("bounds", "john_inner_pair", None),
    ("bounds", "containment_check", None),
    ("geometry", "support_values", _rows),
    ("geometry", "boundary_points", _rows),
    ("geometry", "sum_boundary_point", None),
    ("geometry", "scene_from_json", None),
    ("curvature", "curvature_stack", None),
    ("curvature", "reduced_stack", _rows),
    ("quadrature", "build_quadrature", _nodes),
    ("quadrature", "volume_divergence", None),
    ("quadrature", "surface_area", None),
    ("quadrature", "gaussian_curvature_integral", None),
    ("oracle", "monte_carlo_volume", None),
    ("steiner", "area_sum_2d_recursive", None),
    ("steiner", "volume_sum_3d_bounds", None),
    ("svgfig", "render_scene_svg", None),
)


class Tracer:
    """Records spans while installed; `op` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "minksum" or k.startswith("minksum.")]
        for mod, attr, counter in TARGETS:
            if f"minksum.{mod}" not in sys.modules:  # svgfig loads with the CLI only
                continue
            original = getattr(sys.modules[f"minksum.{mod}"], attr)
            wrapped = self._wrap(f"{mod}.{attr}", original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        spd_matrix = sys.modules["minksum.spd"].SpdMatrix
        self._patch(
            spd_matrix, "__post_init__", self._wrap("spd.SpdMatrix", spd_matrix.__post_init__, None)
        )
        cli = sys.modules.get("minksum.cli")
        if cli is not None:
            for name, command in cli.main.commands.items():
                self._patch(command, "callback", self._wrap(f"cli.{name}", command.callback, None))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layers(self) -> dict:
        """Per span name: calls, summed self time, summed total time, count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child[i]
            agg["total_s"] += end - start
            agg["count"] += count
        return out

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,op,count\n")
            for i, (name, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op},{count}\n")
