"""Spans around calls into the package's layers, recorded from outside it.

Each traced function is replaced at every module attribute that holds it,
so a call from `bounds.bracket` to `constructions.best_construction`, or
from `solver` to `occurrence.count_word`, opens a child span. Hot helpers
(point arithmetic, line decoding, per-sample draws) are left unwrapped;
their time counts toward the layer that calls them. Only the main thread
records spans, and only while a timed op runs.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("core", "lines", "occurrence", "constructions", "bounds", "solver", "verify", "cli")

TRACED = {
    "core": ("all_symmetries", "apply_symmetry", "parse_grid", "serialize_grid",
             "symmetry_cell_tables"),
    "lines": ("count_lines", "count_segments"),
    "occurrence": ("count_segments_word", "count_word", "count_word_set", "estimate_fraction",
                   "is_diagonal_latin"),
    "constructions": ("best_construction", "counterpoint_grid", "cross_grid", "parity_grid",
                      "product_grid", "quad_grid", "rows_grid", "stripe_grid"),
    "bounds": ("bracket", "exact_formula", "exact_formula_d", "f1_exact",
               "f1_subadditivity_check", "sandwich_2d", "upper_bound_2d", "upper_bound_d"),
    "solver": ("solve", "solve_oracle", "solve_set"),
    "verify": ("run_suite",),
    "cli": ("main",),
}


class Tracer:
    """In-memory spans: (id, parent id, layer, name, op index, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.main = threading.get_ident()

    def install(self, package: str = "wordgrid") -> None:
        """Wrap every traced function wherever a package module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        targets = {}
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if callable(fn):
                    targets[id(fn)] = (fn, self._wrap(fn, layer, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or threading.get_ident() != self.main:
                return fn(*args, **kwargs)
            with self.span(layer, name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def span(self, layer: str, name: str):
        if not self.active:
            yield
            return
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, layer, name, self.op, start, end)

    def self_seconds(self, scales: list[float]) -> dict[str, float]:
        """Per-layer self time, each span scaled by the factor of its op.

        A span's self time is its duration minus its children's; children
        run inside the parent one after another, so their durations add.
        """
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for sid, _, layer, _, op, start, end in self.spans:
            out[layer] += (end - start - child[sid]) * scales[op]
        return out

    def inclusive_seconds(self, layer: str, name: str, scales: list[float]) -> float:
        """Time inside outermost spans of one function, children included."""
        names = {sid: (lyr, nm) for sid, _, lyr, nm, _, _, _ in self.spans}
        total = 0.0
        for sid, parent, lyr, nm, op, start, end in self.spans:
            if (lyr, nm) != (layer, name):
                continue
            up = parent
            while up >= 0 and names[up] != (layer, name):
                up = self.spans[up][1]
            if up < 0:
                total += (end - start) * scales[op]
        return total
