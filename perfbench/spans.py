"""Span recorder for the traced run.

Wraps arbor's public layer functions wherever a module has bound them, so a
call made through ``arbor.experiments.prufer_decode`` or through
``arbor.equitable.verify_equitable`` is recorded under its defining module.
Each span is a row ``[layer, start, end, parent row]`` kept in memory.  Every
wrapper is removed again when the ``installed()`` block ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from collections import Counter

LAYERS = (
    ("random_trees", "trial_rng"),
    ("random_trees", "random_prufer"),
    ("random_trees", "prufer_decode"),
    ("trees", "parse_tree_text"),
    ("trees", "induced_subtree"),
    ("trees", "complete_forest_to_tree"),
    ("equitable", "equitable_coloring"),
    ("equitable", "equitable_three"),
    ("equitable", "verify_equitable"),
    ("balance", "balance_exact"),
    ("balance", "ones_twos_partition"),
    ("balance", "is_balanced_graph"),
    ("balance", "verify_balanced"),
    ("experiments", "run_equitable_fraction"),
    ("experiments", "run_balanced_fraction"),
    ("cli", "main"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)
COLORING = NAMES.index("equitable.equitable_coloring")
VERIFY = NAMES.index("equitable.verify_equitable")
SHORTCUT = NAMES.index("balance.ones_twos_partition")
DECIDE = NAMES.index("balance.is_balanced_graph")

# Every route token the constructions write into EquitableCertificate.trace
# (reduce:k* up to the largest k a workload uses); anything else counts as
# "other", so a new route shows up instead of vanishing.
ROUTES = (
    "direct:trivial",
    "direct:path",
    "direct:search",
    "direct:spine",
    "delegate:hubs",
    "peel:hub-safe",
    "ext:leaf",
    "ext:triple",
    "ext:triple-capped",
    "ext:pendant",
    "ext:pendant-capped",
    "ext:special",
    "ext:special-swap",
    "reduce:k4",
    "reduce:k5",
    "reduce:k6",
)
SCAN_MODULES = (
    "arbor",
    "arbor.trees",
    "arbor.balance",
    "arbor.equitable",
    "arbor.random_trees",
    "arbor.experiments",
    "arbor.cli",
)


def percentile(xs, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


class Recorder:
    def __init__(self):
        self.rows: list = []
        self.routes: Counter = Counter()
        self._open: list = []

    def _wrap(self, layer: int, fn):
        rows, open_ = self.rows, self._open
        clock = time.perf_counter
        keep_routes = layer == COLORING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [layer, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                open_.pop()
            if keep_routes:
                self.routes.update(out.trace)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every layer function, and restore them all."""
        funcs = [getattr(importlib.import_module("arbor." + mod), fn) for mod, fn in LAYERS]
        patched = []
        try:
            for mod in map(importlib.import_module, SCAN_MODULES):
                for attr, val in list(vars(mod).items()):
                    for layer, fn in enumerate(funcs):
                        if val is fn:
                            setattr(mod, attr, self._wrap(layer, fn))
                            patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    def metrics(self) -> dict:
        """Per-layer calls, total and self seconds, plus the derived counts."""
        child = [0.0] * len(self.rows)
        for _, start, end, parent in self.rows:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(NAMES)
        total = [0.0] * len(NAMES)
        own = [0.0] * len(NAMES)
        coloring_ms = []
        for i, (layer, start, end, _) in enumerate(self.rows):
            calls[layer] += 1
            total[layer] += end - start
            own[layer] += end - start - child[i]
            if layer == COLORING:
                coloring_ms.append((end - start) * 1000)
        out = {}
        for layer, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[layer]
            out[f"{name}.s"] = total[layer]
            out[f"{name}.self_s"] = own[layer]
        colorings = calls[COLORING]
        steps = sum(c for tok, c in self.routes.items() if tok.startswith(("ext:", "peel:")))
        out["equitable.verify_equitable.calls_per_coloring"] = calls[VERIFY] / colorings if colorings else 0.0
        out["equitable.peel_steps_per_coloring"] = steps / colorings if colorings else 0.0
        out["equitable.equitable_coloring.p50_ms"] = percentile(coloring_ms, 50)
        out["equitable.equitable_coloring.p99_ms"] = percentile(coloring_ms, 99)
        for tok in ROUTES:
            out["equitable.route." + tok.replace(":", ".")] = self.routes[tok]
        out["equitable.route.other"] = sum(c for tok, c in self.routes.items() if tok not in ROUTES)
        out["balance.shortcut_ratio"] = calls[SHORTCUT] / calls[DECIDE] if calls[DECIDE] else 0.0
        return out

    def counts(self) -> dict:
        """The deterministic part of ``metrics()``: a run with the same seed
        must reproduce it exactly."""
        m = self.metrics()
        return {
            k: v
            for k, v in m.items()
            if k.endswith((".calls", "_per_coloring")) or k.startswith(("equitable.route.", "balance.shortcut"))
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": NAMES, "columns": ["layer", "start", "end", "parent"], "spans": self.rows}, fh)
