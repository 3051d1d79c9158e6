"""Spans around the library's public calls, recorded from outside it.

`Tracer.install` replaces each traced public function or method with a
wrapper that records a span (name, start, end, parent span, op id) and the
layer's work counts.  Functions are replaced in every loaded `symlen`
module and in the op module that bound them by name, so calls between
library modules are traced too.  Spans stay in memory until `write`.
A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from math import comb

from symlen import bounds, builders, decompose, milnor, scheme

# (layer, owner, attribute); an owner that is a class has a method traced
TRACED = (
    ("builders.build", builders, "build_from_text"),
    ("scheme.invariants", scheme.Scheme, "invariants"),
    ("milnor.relations", milnor, "kn_space"),
    ("milnor.pure_symbols", milnor.SymbolAlgebra, "pure_symbols"),
    ("milnor.bfs", milnor, "sl_field"),
    ("scheme.pfister_classes", scheme, "pfister_classes"),
    ("bounds.report", bounds, "make_bound_report"),
    ("bounds.report", bounds.BoundReport, "check_dominance"),
    ("decompose.chain", decompose, "build_basis_chain"),
    ("decompose.rewrite", decompose, "rewrite_to_basis"),
    ("decompose.merge", decompose, "merge_linked"),
    ("decompose.certify", decompose, "certify"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TRACED))
COUNTS = ("builders.schemes", "milnor.kn_dim", "milnor.projections",
          "milnor.generators", "milnor.bfs_states", "milnor.bfs_edges",
          "scheme.slot_tuples", "scheme.anisotropic_classes",
          "decompose.entries_in", "decompose.entries_rewritten",
          "decompose.entries_out")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.counts: Counter = Counter()
        self.op = None
        self.active = True
        self._stack: list[int] = []
        self._generators: dict[tuple[int, int], int] = {}
        self._seen: set = set()

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), None, parent, self.op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    def _wrap(self, layer: str, func):
        count = getattr(self, "_count_" + layer.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = self.begin(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        """Trace every function in TRACED wherever it was bound by name."""
        modules = [m for name, m in sys.modules.items()
                   if name == "symlen" or name.startswith("symlen.")]
        modules.extend(extra_modules)
        for layer, owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    # -- counts --------------------------------------------------------------

    def _first(self, key) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _count_builders_build(self, args, result):
        self.counts["builders.schemes"] += 1

    def _count_milnor_relations(self, args, algebra):
        if self._first(("kn", id(algebra))):
            self.counts["milnor.kn_dim"] += algebra.dim

    def _count_milnor_pure_symbols(self, args, pures):
        algebra = args[0]
        if self._first(("pures", id(algebra))):
            size = algebra.scheme.size
            self.counts["milnor.projections"] += (size - 1) ** algebra.n
            self.counts["milnor.generators"] += len(pures)
            self._generators[(id(algebra.scheme), algebra.n)] = len(pures)

    def _count_milnor_bfs(self, args, result):
        s, n = args[0], args[1]
        if self._first(("bfs", id(s), n)):
            states = 1 << result[1].dim
            self.counts["milnor.bfs_states"] += states
            self.counts["milnor.bfs_edges"] += states * self._generators[(id(s), n)]

    def _count_scheme_pfister_classes(self, args, classes):
        s, n = args[0], args[1]
        self.counts["scheme.slot_tuples"] += comb(s.size + n - 1, n)
        self.counts["scheme.anisotropic_classes"] += len(classes)

    def _count_decompose_rewrite(self, args, rewritten):
        self.counts["decompose.entries_in"] += args[1].length
        self.counts["decompose.entries_rewritten"] += rewritten.length

    def _count_decompose_merge(self, args, merged):
        self.counts["decompose.entries_out"] += merged.length

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: {"calls", "self_s"}} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
