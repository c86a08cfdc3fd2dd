"""Per-layer tracing of one ``setdiff`` job, and the self-time arithmetic.

Run as a job process in place of ``python -m setdifflab.cli``:

    python e2ebench/tracer.py JOB_ID SPANS_PATH <setdiff arguments>

It imports every layer module, wraps each public function at every module
name that binds it (``setdifflab.extremal.find_pattern_pair`` and
``setdifflab.increment.find_pattern_pair`` get the same wrapper), runs
``setdifflab.cli.main`` and, at exit, writes the spans it kept in memory,
each tagged with the job's ID, plus call counts, result counts and the
``fpforms`` cache statistics, to SPANS_PATH as JSON.

A wrapped call records a span (id, parent id, name, start, end).  The
innermost per-element calls are only counted: a span each would cost more
than the call.  Calls made beneath a count-only call are counted too, not
timed, so the span list stays small and the caller's self time absorbs them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("universe", "patterns", "covering", "fpforms", "increment",
          "reductions", "extremal", "cli")

# Innermost per-element calls: counted, never timed.  SubsetMask
# construction is counted too (see install).  cyclic_interval_bits joins the
# list because the interval demo calls it n^2 * 2^n times.
COUNT_ONLY = {"patterns.find_witness", "fpforms.eval_on_bits",
              "patterns.interval_mod_n_witness", "patterns.cyclic_interval_bits"}

# Counts read off a call's result.
RESULT_COUNTS = {
    "extremal.build_forbidden_graph": lambda g: {
        "extremal.graph.vertices": g.vertex_count,
        "extremal.graph.edges": g.edge_count},
    "covering.interval_demo_cells": lambda cells: {
        "covering.interval_demo_cells.cells": len(cells)},
}

# lru_cache tables in fpforms whose cache_info() is read at exit.
CACHES = {"cell_coefficients": "_cell_coefficients",
          "class_masks": "coefficient_class_masks"}


class Tracer:
    """Spans and counters of one job process; the wrappers close over it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()   # calls counted without a span
        self.counts: Counter = Counter()  # other named quantities
        self.quiet = 0                    # depth inside count-only calls

    def timed(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            if self.quiet:
                self.calls[name] += 1
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                self.counts.update(on_result(result))
            return result
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.quiet += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.quiet -= 1
        return wrapper


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the layers' public functions at every name that binds them."""
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                wrappers[id(fn)] = (fn, tracer.counted(name, fn))
            else:
                wrappers[id(fn)] = (fn, tracer.timed(name, fn, RESULT_COUNTS.get(name)))
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(module, attr, wrappers[id(obj)][1])

    mask = modules["universe"].SubsetMask
    post_init = mask.__post_init__

    def created(self):
        tracer.counts["universe.SubsetMask.created"] += 1
        post_init(self)

    mask.__post_init__ = created


def cache_stats(caches: dict) -> dict:
    out = {}
    for label, fn in caches.items():
        info = fn.cache_info()
        out[f"fpforms.cache.{label}.hits"] = info.hits
        out[f"fpforms.cache.{label}.misses"] = info.misses
        out[f"fpforms.cache.{label}.size"] = info.currsize
    return out


# ---------------------------------------------------------------------------
# self-time arithmetic


def summarize(spans, calls=(), counts=()) -> dict:
    """Per-function and per-layer calls, total and self time of one job.

    ``spans`` holds (id, parent id, name, start, end) rows with unique ids,
    parent -1 at the root.  A span's self time is its duration minus the
    durations of its direct children, which nest without overlap in a
    single thread.  A function's total time adds only its outermost spans,
    so recursion is not counted twice; a layer's total likewise adds only
    spans with no ancestor in the same layer.  ``calls`` adds calls counted
    without a span; ``counts`` passes named quantities through.
    """
    rows = {sid: (parent, name, end - start)
            for sid, parent, name, start, end in spans}
    child_time: dict = {}
    for parent, _, duration in rows.values():
        child_time[parent] = child_time.get(parent, 0.0) + duration
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for sid, (parent, name, duration) in rows.items():
        layer = name.split(".", 1)[0]
        own = duration - child_time.get(sid, 0.0)
        ancestors = []
        while parent != -1:
            parent, p_name, _ = rows[parent]
            ancestors.append(p_name)
        for key in (name, layer):
            add(f"{key}.calls", 1)
            add(f"{key}.self_s", own)
        if name not in ancestors:
            add(f"{name}.total_s", duration)
        if all(a.split(".", 1)[0] != layer for a in ancestors):
            add(f"{layer}.total_s", duration)
    for name, value in dict(calls).items():
        add(f"{name}.calls", value)
        add(f"{name.split('.', 1)[0]}.calls", value)
    for key, value in dict(counts).items():
        add(key, value)
    return out


def main(argv) -> int:
    job_id, out_path, cli_argv = argv[0], argv[1], argv[2:]
    modules = {name: importlib.import_module(f"setdifflab.{name}")
               for name in LAYERS}
    caches = {label: getattr(modules["fpforms"], attr)
              for label, attr in CACHES.items()
              if hasattr(getattr(modules["fpforms"], attr, None), "cache_info")}
    begin = time.perf_counter()
    tracer = Tracer()
    install(tracer, modules)
    install_s = time.perf_counter() - begin
    entered = time.monotonic()
    code = 1
    try:
        code = modules["cli"].main(cli_argv)
    finally:
        doc = {
            "job": job_id,
            "install_s": install_s,
            "main_entered": entered,
            "spans": [[job_id, *span] for span in tracer.spans if span],
            "calls": tracer.calls,
            "counts": {**tracer.counts, **cache_stats(caches)},
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
