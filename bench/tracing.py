"""Per-layer spans recorded from outside the package.

:meth:`Tracer.install` replaces the public functions that ``colour_graph``
calls with timing wrappers, in the module namespace where the pipeline looks
them up, and :meth:`Tracer.uninstall` puts the originals back.  No code of
the package changes.  A wrapped name that the package no longer has is
listed in ``Tracer.absent`` instead of raising, and its metrics read 0.

A span is ``(name, start, end, parent, graph)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``graph`` the index of the graph
being processed.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter


def _odd_cycles(tf, _args) -> dict[str, int]:
    return {"two_factor.odd_cycles": len(tf.odd_cycles())}


def _matchings(found, args) -> dict[str, int]:
    return {
        "two_factor.matchings": len(found),
        "two_factor.limit_hits": int(len(found) == args.get("limit")),
    }


def _eligible(edges, _args) -> dict[str, int]:
    return {"selection.eligible_edges": len(edges)}


def _reduce_steps(result, _args) -> dict[str, int]:
    return {"reduce.steps": len(result[1])}


def _three_colour(colouring) -> str:
    return "three_colour.refute" if colouring is None else "three_colour.find"


# (module, function, span name or namer of the result, counter)
WRAPS = (
    ("nearnormal.pipeline", "validate_input", "validate", None),
    ("nearnormal.reductions", "reduce_fully", "reduce", _reduce_steps),
    ("nearnormal.pipeline", "try_3_edge_colouring", _three_colour, None),
    ("nearnormal.pipeline", "choose_two_factor", "two_factor", _odd_cycles),
    ("nearnormal.factor", "enumerate_perfect_matchings", "two_factor.enumerate", _matchings),
    ("nearnormal.pipeline", "find_optimal_selection", "selection", None),
    ("nearnormal.selection", "eligible_edges", "selection.eligible", _eligible),
    ("nearnormal.pipeline", "s_components", "selection", None),
    ("nearnormal.pipeline", "construct_colouring", "construct", None),
    ("nearnormal.pipeline", "run_audit", "audit", None),
    ("nearnormal.reductions", "lift", "lift", None),
    ("nearnormal.pipeline", "class_counts", "verify", None),
    ("nearnormal.pipeline", "medium_count", "verify", None),
    ("nearnormal.pipeline", "is_petersen_graph", "verify", None),
)

# Per-layer metric -> span name summed for it (seconds).
SPAN_METRICS = {
    "three_colour.find_s": "three_colour.find",
    "three_colour.refute_s": "three_colour.refute",
    "two_factor.s": "two_factor",
    "selection.s": "selection",
    "construct.s": "construct",
    "audit.s": "audit",
    "reduce.s": "reduce",
    "lift.s": "lift",
    "validate.s": "validate",
    "verify.s": "verify",
    "oracle.s": "oracle",
}
COUNT_METRICS = (
    "two_factor.matchings",
    "two_factor.limit_hits",
    "two_factor.odd_cycles",
    "selection.eligible_edges",
    "reduce.steps",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.graph = -1
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; ``name`` may be a function of the result."""
        label = name if isinstance(name, str) else fn.__name__
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (label, start, end, parent, self.graph)
        if not isinstance(name, str):
            self.spans[idx] = (name(result),) + self.spans[idx][1:]
        return result

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counter(result, bound.arguments))
            return result

        return wrapper

    def install(self) -> None:
        for modname, attr, name, counter in WRAPS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                mod = None
            if mod is None or not callable(getattr(mod, attr, None)):
                self.absent.append(f"{modname}.{attr}")
                continue
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the recorded spans and counts;
        ``pipeline.self_s`` is the time of the ``pipeline`` spans not
        covered by their direct children."""
        by_name: Counter[str] = Counter()
        child_time: Counter[int] = Counter()
        for name, start, end, parent, _graph in self.spans:
            by_name[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        out = {metric: by_name[span] for metric, span in SPAN_METRICS.items()}
        out["pipeline.self_s"] = sum(
            end - start - child_time[idx]
            for idx, (name, start, end, _p, _g) in enumerate(self.spans)
            if name == "pipeline"
        )
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        return out
