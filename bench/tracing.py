"""Per-layer counters and timers for the traced benchmark run.

The tracer wraps each layer function where its caller looks it up: the
engine in `cvckit.bb` imports its primitives by name, so the cut-vertex
pass is wrapped as `cvckit.bb.articulation_points_mask`, not in
`cvckit.graph`.  The model path is called by the benchmark itself, so its
functions are wrapped in the benchmark's `corpus` module.  Nothing under
`src/` is modified; `remove()` restores every original binding.

Spans are aggregated as they close (a count and a time total per layer)
instead of being stored one by one, which keeps memory flat over the
hundreds of thousands of bound calls a pass makes.  The nesting is fixed:
every bb-module span is a child of the solve span that the benchmark
times, so the engine's self time is the solve time minus those children.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import cvckit.bb

import corpus

# (module, attribute, layer) for every wrapped call site
SOLVER_SITES = (
    (cvckit.bb, "articulation_points_mask", "graph.cut_pass"),
    (cvckit.bb, "color_bound_cached", "bounds.color"),
    (cvckit.bb, "bipartite_alpha", "bounds.match"),
    (cvckit.bb, "check_cvc", "oracle.check"),
)
MODEL_SITES = (
    (corpus, "gnp_random", "graph.gen"),
    (corpus, "bipartite_random", "graph.gen"),
    (corpus, "write_dimacs", "graph.dimacs"),
    (corpus, "parse_dimacs", "graph.dimacs"),
    (corpus, "build_parb", "mip.build_parb"),
    (corpus, "write_lp", "mip.write_lp"),
)


class Tracer:
    """Counts and times calls at the wrapped sites while installed.

    calls[layer] and secs[layer] accumulate; `extra` holds the derived
    counts: fresh colorings, generator pairs drawn, LP bytes and rows
    written.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.secs: Counter = Counter()
        self.extra: Counter = Counter()
        self._saved: list = []

    def reset(self) -> None:
        self.calls.clear()
        self.secs.clear()
        self.extra.clear()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, name, layer in SOLVER_SITES + MODEL_SITES:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, name, layer))

    def remove(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        calls, secs, extra = self.calls, self.secs, self.extra

        if name == "color_bound_cached":
            def wrapped(masks, umask, cache):
                t = perf_counter()
                result = fn(masks, umask, cache)
                secs[layer] += perf_counter() - t
                calls[layer] += 1
                if result[1] is not cache:
                    extra["bounds.color.fresh"] += 1
                return result
        elif name in ("gnp_random", "bipartite_random"):
            def wrapped(*args):
                t = perf_counter()
                g = fn(*args)
                secs[layer] += perf_counter() - t
                calls[layer] += 1
                n1 = args[0]
                extra["graph.gen.pairs"] += (
                    n1 * (n1 - 1) // 2 if name == "gnp_random" else n1 * args[1]
                )
                return g
        elif name == "write_lp":
            def wrapped(model):
                t = perf_counter()
                text = fn(model)
                secs[layer] += perf_counter() - t
                calls[layer] += 1
                extra["mip.lp_bytes"] += len(text)
                extra["mip.rows"] += len(model.constraints)
                return text
        else:
            def wrapped(*args, **kwargs):
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    secs[layer] += perf_counter() - t
                    calls[layer] += 1
        wrapped.__wrapped__ = fn
        return wrapped

    def snapshot(self) -> dict:
        """Copy of the current totals as one flat dict."""
        snap = {f"{layer}.calls": n for layer, n in self.calls.items()}
        snap.update({f"{layer}.s": s for layer, s in self.secs.items()})
        snap.update(self.extra)
        return snap
