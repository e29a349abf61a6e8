"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces public functions with timing wrappers for the length
of a traced round and restores them afterwards, so untraced rounds run the
package untouched. Modules that bind a function at import (`pgvrp.exact`
imports `solve`, `warm_solve`, `resolve_with_added_row`, `solve_MmI` and
`expected_length`; `pgvrp.evaluation` imports `check_feasible`) get the
wrapper under the name they look up. Spans stay in memory as
(name, start, end, parent, detail), with start and end read from the
process's CPU clock, and are written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import process_time


def _pivots(args, kwargs, result):
    return {"pivots": getattr(result, "iterations", 0), "rows": args[0].n_rows}


def _root(args, kwargs, result):
    rows, cols = result.lp.A.shape
    return {"root_lp_mb": rows * cols * 8 / 1e6}


def _stats(args, kwargs, result):
    return dict(result.stats)


# (span name, detail extractor, [(module, attribute), ...]); every listed
# attribute refers to the same function and gets the same wrapper
TARGETS = [
    ("heuristics.insertion", None, [("pgvrp.heuristics", "expected_insertion_value")]),
    ("heuristics.construct", None, [("pgvrp.heuristics", "solve_MmI"), ("pgvrp.exact", "solve_MmI")]),
    ("heuristics.construct", None, [("pgvrp.heuristics", "solve_mmI")]),
    ("evaluation.expected_length", None, [("pgvrp.evaluation", "expected_length"), ("pgvrp.exact", "expected_length")]),
    ("model.check_feasible", None, [("pgvrp.evaluation", "check_feasible")]),
    ("model.load_instance", None, [("pgvrp.model", "load_instance")]),
    ("bounds.detour", None, [("pgvrp.bounds", "ub_simple")]),
    ("bounds.detour", None, [("pgvrp.bounds", "ub_clustered")]),
    ("bounds.b_matrix", None, [("pgvrp.bounds", "b_matrix")]),
    ("simplex.cold", _pivots, [("pgvrp.simplex", "solve"), ("pgvrp.exact", "solve")]),
    ("simplex.warm", _pivots, [("pgvrp.simplex", "warm_solve"), ("pgvrp.exact", "warm_solve")]),
    ("simplex.resolve", None, [("pgvrp.simplex", "resolve_with_added_row"), ("pgvrp.exact", "resolve_with_added_row")]),
    ("exact.build_root", _root, [("pgvrp.exact", "build_root")]),
    ("exact.separate_gsec", None, [("pgvrp.exact", "separate_gsec")]),
    ("exact.solve_exact", _stats, [("pgvrp.exact", "solve_exact")]),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name, detail, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = process_time()
                stack.pop()
                info = detail(args, kwargs, result) if detail and result is not None else None
                spans[idx] = (name, t0, t1, parent, info)

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for name, detail, places in TARGETS:
                found = [
                    (mod, attr)
                    for mod, attr in (
                        (importlib.import_module(m), a) for m, a in places
                    )
                    if hasattr(mod, attr)
                ]
                if not found:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = self._wrap(name, detail, getattr(*found[0]))
                for mod, attr in found:
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path):
        """Spans as gzipped CSV: index,name,start,end,parent,detail."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,detail\n")
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in (info or {}).items())
                fh.write(f"{i},{name},{t0 - base:.9f},{t1 - base:.9f},{parent},{extra}\n")


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round.

    Self time is a span's duration minus the durations of its direct
    children (children never overlap: the program is single-threaded). A
    cold `solve` whose parent is a `warm_solve` is the warm start falling
    back, and is counted as a fallback, not as a cold call.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_time = defaultdict(float)
    pivots = defaultdict(int)
    warm_max = max_rows = fallbacks = 0
    root_mb = 0.0
    exact = defaultdict(float)
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        info = info or {}
        if name == "simplex.cold" and parent >= 0 and spans[parent][0] == "simplex.warm":
            fallbacks += 1
            max_rows = max(max_rows, info.get("rows", 0))
            continue
        calls[name] += 1
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - child[i]
        if name.startswith("simplex.") and "pivots" in info:
            pivots[name] += info["pivots"]
            max_rows = max(max_rows, info["rows"])
            if name == "simplex.warm":
                warm_max = max(warm_max, info["pivots"])
        elif name == "exact.build_root" and info:
            root_mb = max(root_mb, info["root_lp_mb"])
        elif name == "exact.solve_exact":
            for key in ("nodes", "lp_solves", "gsec_cuts", "opt_cuts"):
                exact[key] += info.get(key, 0)
    gsec_calls = calls["exact.separate_gsec"]
    lp_s = total["simplex.cold"] + total["simplex.warm"]
    all_pivots = pivots["simplex.cold"] + pivots["simplex.warm"]

    def ratio(a, b):
        return a / b if b else 0.0

    per_round = {
        "heuristics.insertion.calls": calls["heuristics.insertion"],
        "heuristics.insertion.s": total["heuristics.insertion"],
        "heuristics.construct.self_s": self_time["heuristics.construct"],
        "evaluation.expected_length.calls": calls["evaluation.expected_length"],
        "evaluation.expected_length.s": total["evaluation.expected_length"],
        "model.check_feasible.calls": calls["model.check_feasible"],
        "model.check_feasible.s": total["model.check_feasible"],
        "model.load_instance.s": total["model.load_instance"],
        "bounds.detour.s": total["bounds.detour"],
        "bounds.b_matrix.s": total["bounds.b_matrix"],
        "simplex.cold.calls": calls["simplex.cold"],
        "simplex.cold.pivots": pivots["simplex.cold"],
        "simplex.cold.s": total["simplex.cold"],
        "simplex.warm.calls": calls["simplex.warm"],
        "simplex.warm.pivots": pivots["simplex.warm"],
        "simplex.warm.s": total["simplex.warm"],
        "simplex.warm.fallbacks": fallbacks,
        "simplex.resolve.s": total["simplex.resolve"],
        "exact.build_root.s": total["exact.build_root"],
        "exact.separate_gsec.calls": gsec_calls,
        "exact.separate_gsec.s": total["exact.separate_gsec"],
        "exact.gsec_cuts": exact["gsec_cuts"],
        "exact.opt_cuts": exact["opt_cuts"],
        "exact.nodes": exact["nodes"],
        "exact.lp_solves": exact["lp_solves"],
        "exact.self_s": self_time["exact.solve_exact"],
    }
    out = {k: v / rounds for k, v in per_round.items()}
    # ratios and maxima are the same per round as over all rounds
    out.update(
        {
            "simplex.warm.max_pivots": warm_max,
            "simplex.warm.fallback_ratio": ratio(fallbacks, calls["simplex.warm"]),
            "simplex.pivots_per_s": ratio(all_pivots, lp_s),
            "simplex.max_rows": max_rows,
            "exact.root_lp_mb": root_mb,
            "exact.cuts_per_separation": ratio(exact["gsec_cuts"], gsec_calls),
            "exact.nodes_per_s": ratio(exact["nodes"], total["exact.solve_exact"]),
        }
    )
    return out


def note_missing(tracer: Tracer):
    if tracer.missing:
        print(
            "trace: not found in the package, reads 0: " + ", ".join(tracer.missing),
            file=sys.stderr,
        )
