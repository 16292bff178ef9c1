"""Outside-in tracer: wraps the library's public functions at every place
they are bound and records one span per call.

The library imports most layers by name (``from .symmat import eigh``),
so replacing a function in its defining module alone would miss the
calls made through those copies.  ``Tracer.install`` therefore scans
every loaded ``nsdpcq`` module, and the ``NsdpProblem`` class for the
evaluation methods, and swaps each binding of an original for its
wrapper; ``remove`` puts every original back.

Spans live in flat arrays (name, start, end, parent) until the run
ends.  Spans nest strictly because the benchmark runs one thread, so
self time (a span minus its direct children) is accumulated on the fly
as each span closes.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name); "Class.method" attributes are wrapped on
# the class.  Names are the metric prefixes of the per-layer report.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("nsdpcq.symmat", "eigh", "symmat.eigh"),
    ("nsdpcq.lp", "phase_one", "lp.phase_one"),
    ("nsdpcq.cqcheck", "feasibility_data", "cqcheck.feasibility_data"),
    ("nsdpcq.cqcheck", "li_test", "cqcheck.li_test"),
    ("nsdpcq.cqcheck", "pli_test", "cqcheck.pli_test"),
    ("nsdpcq.cqcheck", "check_nondegeneracy", "cqcheck.check_nondegeneracy"),
    ("nsdpcq.cqcheck", "check_robinson", "cqcheck.check_robinson"),
    ("nsdpcq.sparse", "check_sparse_ndg", "sparse.check_sparse_ndg"),
    ("nsdpcq.sparse", "check_forsgren", "sparse.check_forsgren"),
    ("nsdpcq.sparse", "facial_reduce", "sparse.facial_reduce"),
    ("nsdpcq.penalty", "inner_minimize", "penalty.inner_minimize"),
    ("nsdpcq.penalty", "run_penalty", "penalty.run_penalty"),
    ("nsdpcq.penalty", "make_path_trace", "penalty.make_path_trace"),
    ("nsdpcq.penalty", "default_trace_family", "penalty.default_trace_family"),
    ("nsdpcq.penalty", "probe_weak_ndg", "penalty.probe_weak_ndg"),
    ("nsdpcq.penalty", "probe_weak_robinson", "penalty.probe_weak_robinson"),
    ("nsdpcq.report", "analyze_problem", "report.analyze_problem"),
    ("nsdpcq.model", "NsdpProblem.from_json", "model.from_json"),
    ("nsdpcq.model", "NsdpProblem.constraint_value", "model.eval"),
    ("nsdpcq.model", "NsdpProblem.constraint_partials", "model.eval"),
    ("nsdpcq.model", "NsdpProblem.adjoint", "model.eval"),
    ("nsdpcq.model", "NsdpProblem.objective_value", "model.eval"),
    ("nsdpcq.model", "NsdpProblem.objective_gradient", "model.eval"),
    ("nsdpcq.model", "NsdpProblem.equality_values", "model.eval"),
    ("nsdpcq.model", "NsdpProblem.equality_gradients", "model.eval"),
)

CHECKER_SPANS = frozenset((
    "cqcheck.check_nondegeneracy", "cqcheck.check_robinson",
    "sparse.check_sparse_ndg", "sparse.check_forsgren",
    "penalty.probe_weak_ndg", "penalty.probe_weak_robinson"))


class Stats:
    """Per-name aggregates of a set of spans.

    ``s`` counts only the outermost span of a name, so a layer that
    calls itself (directly or through another layer) is not counted
    twice; ``self_s`` sums every span's own time.  ``root_self`` splits
    self time by the outermost span (the benchmark operation) and
    ``root_checkers`` is the time inside any checker span, counted once
    where checkers nest, per outermost span.
    """

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.root_self: Dict[Tuple[str, str], float] = defaultdict(float)
        self.root_checkers: Dict[str, float] = defaultdict(float)


class Tracer:
    """Spans, per-pass aggregates and the bindings swapped to record them."""

    def __init__(self):
        self.names: List[str] = []
        self._name_idx: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._child_time: List[float] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._checker_depth = 0
        self._root = ""
        self.stats = Stats()
        self.originals: Dict[int, object] = {}     # id(original) -> original
        self.wrappers: Dict[int, object] = {}      # id(wrapper) -> wrapper
        self._swapped: List[Tuple[object, str, object]] = []

    # ---- spans --------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn: Callable, *args,
             post: Optional[Callable] = None, **kwargs):
        """Call fn inside a span; post(tracer, result) may add counters."""
        idx = self._intern(name)
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(parent)
        self.end.append(0.0)
        if parent < 0:
            self._root = name
        self._stack.append(sid)
        self._child_time.append(0.0)
        self._depth[name] += 1
        checker = name in CHECKER_SPANS
        self._checker_depth += checker
        t0 = time.perf_counter()
        self.start.append(t0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[sid] = t1
            self._stack.pop()
            children = self._child_time.pop()
            self._depth[name] -= 1
            self._checker_depth -= checker
            dur = t1 - t0
            st = self.stats
            st.calls[name] += 1
            st.self_s[name] += dur - children
            st.root_self[(self._root, name)] += dur - children
            if self._depth[name] == 0:
                st.s[name] += dur
            if checker and self._checker_depth == 0:
                st.root_checkers[self._root] += dur
            if self._child_time:
                self._child_time[-1] += dur
        if post is not None:
            post(self, result)
        return result

    def reset_stats(self) -> Stats:
        """Start a fresh aggregate (one per pass); returns the old one."""
        old, self.stats = self.stats, Stats()
        return old

    # ---- installation -------------------------------------------------

    def _make_wrapper(self, fn: Callable, name: str) -> Callable:
        post = _POST_HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, post=post, **kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every binding of each target in the loaded nsdpcq modules."""
        modules = nsdpcq_modules()
        for modname, attr, name in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[modname], cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._make_wrapper(orig.__func__,
                                                             name))
                else:
                    wrapped = self._make_wrapper(orig, name)
                self._swap(cls, meth, orig, wrapped)
                continue
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._make_wrapper(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._swap(mod, key, orig, wrapped)

    def _swap(self, holder, key: str, orig, wrapped) -> None:
        setattr(holder, key, wrapped)
        self._swapped.append((holder, key, orig))
        self.originals[id(orig)] = orig
        self.wrappers[id(wrapped)] = wrapped

    def remove(self) -> None:
        for holder, key, orig in reversed(self._swapped):
            setattr(holder, key, orig)
        self._swapped.clear()

    # ---- coverage audits ------------------------------------------------

    def bindings_of(self, pool: Dict[int, object]) -> List[str]:
        """Every nsdpcq binding (module global or class attribute) that
        holds one of the objects in ``pool``."""
        hits = []
        for mod in nsdpcq_modules():
            for key, val in vars(mod).items():
                if id(val) in pool and pool[id(val)] is val:
                    hits.append(f"{mod.__name__}.{key}")
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    for ckey, cval in vars(val).items():
                        if id(cval) in pool and pool[id(cval)] is cval:
                            hits.append(f"{mod.__name__}.{key}.{ckey}")
        return hits

    def unwrapped_originals(self) -> List[str]:
        """Bindings still holding an original while installed."""
        return self.bindings_of(self.originals)

    def leftover_wrappers(self) -> List[str]:
        """Bindings still holding a wrapper after removal."""
        return self.bindings_of(self.wrappers)

    # ---- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """A JSON header line with the span names, then one line per span:
        name index, start, end (perf_counter seconds) and parent index,
        -1 for an outermost span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.name)):
                fh.write(f"{self.name[i]} {self.start[i]!r} {self.end[i]!r} "
                         f"{self.parent[i]}\n")


def nsdpcq_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "nsdpcq" or k.startswith("nsdpcq."))]


def _count_inner_iters(tracer: Tracer, result) -> None:
    tracer.stats.counters["penalty.inner_minimize.iters"] += int(
        result.iterations)


def _count_built_traces(tracer: Tracer, result) -> None:
    if tracer._depth["penalty.default_trace_family"] > 0:
        tracer.stats.counters["penalty.trace_built"] += 1


def _count_kept_traces(tracer: Tracer, result) -> None:
    tracer.stats.counters["penalty.trace_kept"] += sum(
        1 for t in result if t.kind == "penalty")


_POST_HOOKS = {
    "penalty.inner_minimize": _count_inner_iters,
    "penalty.run_penalty": _count_built_traces,
    "penalty.default_trace_family": _count_kept_traces,
}
