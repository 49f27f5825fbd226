"""Spans around the package's public functions, installed from outside.

``install`` wraps every public function of every package module wherever the
function object is bound: in its defining module and at each ``from .x import
f`` site, so ``chebotarev.frobenius_data``, ``artin.frobenius_data`` and
``cli.frobenius_data`` all record.  The one exception is gfpoly's own
namespace: its public functions are per-coefficient primitives that call one
another thousands of times per factorization, so only calls entering gfpoly
from another module record a span.

A span is (name, start, end, parent, operation id), kept in flat arrays in
memory and written out once at the end with ``save``.  A layer's self time is
its spans' durations minus the time their child spans cover (``self_times``).
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
import tracemalloc
import types
from array import array
from collections import Counter

import numpy as np

PACKAGE = "chebotarev_lab"
UNWRAPPED_HOMES = {"gfpoly"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self.pairs: set = set()  # distinct (poly, p) given to gfpoly.factor_degrees
        self.msq_peak = 0

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        name_ix, start, end, parent, op, stack = (self.name_ix, self.start, self.end, self.parent,
                                                  self.op, self.stack)
        measure_memory = name == "large_sieve.msq_integral"

        def span(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            if measure_memory:
                tracemalloc.start()
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if measure_memory:
                    self.msq_peak = max(self.msq_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if observe is not None:
                observe(self, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name_ix=np.frombuffer(self.name_ix, dtype=np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64), op=np.frombuffer(self.op, dtype=np.int64),
                 pairs=np.array(sorted(f"{poly}:{p}" for poly, p in self.pairs), dtype=str),
                 counters=json.dumps({**self.counters, "large_sieve.msq.peak_bytes": self.msq_peak}))


def _observe_frobenius(tracer: Tracer, args, result) -> None:
    fd = args[0]
    if result.ramified:
        route = "ramified"
    elif fd.residue_action is not None:
        route = "residue"
    elif result.conjugacy_class is None:
        route = "ambiguous"
    else:
        route = "poly"
    tracer.counters["fields.route." + route] += 1


def _observe_factor(tracer: Tracer, args, result) -> None:
    tracer.pairs.add((tuple(args[0]), args[1]))


def _observe_msq(tracer: Tracer, args, result) -> None:
    tracer.counters["large_sieve.msq.terms"] += len(args[0].support)


OBSERVERS = {
    "fields.frobenius_data": _observe_frobenius,
    "gfpoly.factor_degrees": _observe_factor,
    "large_sieve.msq_integral": _observe_msq,
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions at every site that binds them."""
    package = importlib.import_module(PACKAGE)
    modules = [package] + [importlib.import_module(f"{PACKAGE}.{m.name}")
                           for m in pkgutil.iter_modules(package.__path__)]
    wrappers = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ and not name.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for module in modules:
        home = module.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                if home in UNWRAPPED_HOMES and obj.__module__ == module.__name__:
                    continue
                setattr(module, name, wrappers[obj])


# -- reading spans back -------------------------------------------------------


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up to the time they cover.
    """
    dur = end - start
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def load(path: str) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in ("names", "name_ix", "start", "end", "parent", "op", "pairs")}
        spans["counters"] = json.loads(str(data["counters"]))
    return spans


def summarize(span_files: list[str]) -> dict:
    """Counts and self times by layer and by function over span files."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    pairs: set = set()
    peak = 0
    for path in span_files:
        spans = load(path)
        names = [str(n) for n in spans["names"]]
        own = self_times(spans["start"], spans["end"], spans["parent"])
        by_name = np.bincount(spans["name_ix"], minlength=len(names))
        time_by_name = np.bincount(spans["name_ix"], weights=own, minlength=len(names))
        for i, name in enumerate(names):
            if by_name[i]:
                layer = name.split(".", 1)[0]
                for key in (name, layer):
                    calls[key] += int(by_name[i])
                    self_s[key] += float(time_by_name[i])
        file_counters = spans["counters"]
        peak = max(peak, file_counters.pop("large_sieve.msq.peak_bytes"))
        counters.update(file_counters)
        pairs.update(spans["pairs"].tolist())
    return {"calls": calls, "self_s": self_s, "counters": counters, "distinct_pairs": len(pairs),
            "msq_peak_bytes": peak}
