"""Spans for the benchmark's traced run.

For the traced run only, the public functions of each layer are replaced,
in the module where their callers look them up, by wrappers that open a
span around the call; ``regenerate`` and the rest of the program run
unmodified. A span records its name, start, end, parent span and run id.
Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _keep_view_rows(args, kwargs, out):
    # make_consistent edits the view summaries in place, so keep the rows
    # as they leave align/merge.
    return {v: (s.attrs, list(s.rows)) for v, s in out.items()}


#: (module, function, span name, capture) — ``capture(args, kwargs, result)``
#: keeps what the per-layer counters need; it runs after the span closes.
LAYER_FUNCTIONS = [
    ("repro.core.workload", "derive_ccs_pandas", "workload.derive_ccs_pandas",
     lambda a, k, out: len(out)),
    ("repro.core.workload", "base_size_ccs", "workload.base_size_ccs", None),
    ("repro.core.preprocess", "rewrite_ccs", "preprocess.rewrite_ccs", None),
    ("repro.core.hydra", "regenerate", "hydra.regenerate", None),
    ("repro.core.hydra", "plan_views", "preprocess.plan_views", None),
    ("repro.core.hydra", "formulate_view", "lp.formulate_view",
     lambda a, k, out: out.view),
    ("repro.core.hydra", "solve_view", "solver.solve_view",
     lambda a, k, out: out.view),
    ("repro.core.hydra", "build_database_summary", "summary.build_database_summary", None),
    ("repro.core.lp", "partition_lp_regions", "regions.partition_lp_regions", None),
    ("repro.core.lp", "grid_partition", "grid.grid_partition", None),
    ("repro.core.lp", "solve_feasible", "solver.solve_feasible",
     lambda a, k, out: out),
    ("repro.core.lp", "round_solution", "solver.round_solution", None),
    ("repro.core.summary", "view_summaries_from_formulations",
     "summary.view_summaries_from_formulations", _keep_view_rows),
    ("repro.core.summary", "build_view_solution", "align.build_view_solution",
     lambda a, k, out: a[0]),
    ("repro.core.summary", "make_consistent", "summary.make_consistent", None),
    ("repro.core.summary", "extract_relation_summaries",
     "summary.extract_relation_summaries", None),
    ("repro.core.datasynth", "regenerate_datasynth", "datasynth.regenerate_datasynth", None),
    ("repro.core.datasynth", "regenerate", "datasynth.grid_lp", None),
    ("repro.core.tuplegen", "database_to_pandas", "tuplegen.database_to_pandas", None),
    ("repro.core.tuplegen", "relation_to_pandas", "tuplegen.relation_to_pandas", None),
    ("repro.core.materialize", "materialize_relation", "materialize.materialize_relation", None),
    ("repro.core.metrics", "achieved_counts_pandas", "metrics.achieved_counts_pandas", None),
]


class Tracer:
    """In-memory spans of one run, plus the values the wrappers captured."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.captured: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (module, attribute, function, wrapper)

    @contextmanager
    def span(self, name: str):
        s = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            run_id=self.run_id,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, capture=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if capture is not None:
                self.captured[s.id] = capture(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Route every function in :data:`LAYER_FUNCTIONS` through a span."""
        self._saved = []
        try:
            for mod_name, attr, name, capture in LAYER_FUNCTIONS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn, self.wrap(fn, name, capture)))
                setattr(mod, attr, self._saved[-1][3])
            yield self
        finally:
            for mod, attr, fn, _ in reversed(self._saved):
                setattr(mod, attr, fn)
            self._saved = []

    @contextmanager
    def suspended(self):
        """Inside :meth:`patched`, run the unwrapped functions: the untraced
        side of the tracing-overhead measurement."""
        for mod, attr, fn, _ in self._saved:
            setattr(mod, attr, fn)
        try:
            yield
        finally:
            for mod, attr, _, wrapped in self._saved:
                setattr(mod, attr, wrapped)

    # -- queries over the recorded spans ------------------------------------

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def subtree(self, root: Span) -> list[Span]:
        ids = {root.id}
        out = []
        for s in self.spans[root.id + 1:]:  # children start after parents
            if s.parent in ids:
                ids.add(s.id)
                out.append(s)
        return out

    def last(self, name: str) -> Span:
        return [s for s in self.spans if s.name == name][-1]

    def total(self, spans: list[Span], name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that the span's children cover."""
        covered, reach = 0.0, span.start
        for c in sorted(self.children(span), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        acc: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            a = acc[s.name]
            a[0] += 1
            a[1] += s.duration
            a[2] += self.self_time(s)
        return {k: tuple(v) for k, v in acc.items()}

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


class NoTracer:
    """Stand-in for untraced runs: spans cost nothing and record nothing."""

    def span(self, name: str):
        return nullcontext()

    def suspended(self):
        return nullcontext()
