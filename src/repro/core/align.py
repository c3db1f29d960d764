"""Deterministic view-solution construction (paper §5.1, Algorithm 3).

Replaces DataSynth's sampling with HYDRA's alignment strategy:

1. **Ordering** — sub-view solutions arrive in the order of the view's
   junction tree (:attr:`repro.core.preprocess.ViewPlan.tree`, built once
   by the preprocessor), so each new sub-view's intersection with the
   already-merged attributes is contained in a single previous sub-view
   (the running-intersection property; §5.1.1's separator condition).
2. **Align** — the current view solution and the next sub-view solution are
   sorted on their common attributes. Each sorted side is then a run of
   tuple positions 1..N, a row holding the positions up to its cumulative
   count; the rows are split at every position where either side's
   cumulative count ends, so corresponding rows carry identical NumTuples
   (§5.1.2).
3. **Merge** — a positional join of the aligned solutions, common attributes
   represented once (§5.1.3).

The LP's consistency constraints make both totals equal, up to integer
rounding. Where they differ, the left side's total wins: positions past
the right total take the last right row that has tuples, and positions
past the left total are dropped. The resulting (tiny) volumetric error is
measured by the metrics module, not hidden.

A :class:`ViewSolution` holds every stage's rows: a sub-view's solution,
the merged view and its summary. Rows are (point, count) pairs. A point is
a tuple of values in the solution's attribute order: the lows of a solved
region's box, where §5.2 places its NumTuples
(:meth:`repro.core.lp.ViewFormulation.subview_solutions`).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .preprocess import junction_tree

Point = tuple[int, ...]


@dataclass
class ViewSolution:
    """Solved rows: points over ``attrs`` with NumTuples counts."""

    attrs: tuple[str, ...]
    rows: list[tuple[Point, int]]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.rows)

    def project(self, attrs) -> list[Point]:
        """Each row's point on ``attrs``, in row order."""
        cols = [self.attrs.index(a) for a in attrs]
        return [tuple(p[k] for k in cols) for p, _ in self.rows]

    def coalesce(self) -> None:
        """Sum the counts of equal points; drop zero counts; sort the rows."""
        agg: dict[Point, int] = {}
        for v, c in self.rows:
            agg[v] = agg.get(v, 0) + c
        self.rows = sorted((v, c) for v, c in agg.items() if c > 0)


def order_subviews(sols: list[ViewSolution]) -> list[ViewSolution]:
    """The solutions in the merge order of their :func:`junction_tree`;
    raises ``ValueError`` where the sub-views have none."""
    return [sols[i] for i, _ in junction_tree([s.attrs for s in sols])]


def _sorted_rows(sol: ViewSolution, common: list[str]) -> list[int]:
    """Row indices of ``sol`` sorted on the values of ``common``, then on
    the whole point."""
    keys = sol.project(common)
    return sorted(range(len(sol.rows)), key=lambda i: (keys[i], sol.rows[i][0]))


def align_and_merge(view: ViewSolution, sub: ViewSolution) -> ViewSolution:
    """One iteration of Algorithm 3: align ``sub`` with the partial view
    solution and merge positionally.

    Both sides are sorted on their common attributes' values (in view
    order), then on the whole point. A merged row covers the positions
    between two consecutive cuts, where a cut is every left cumulative
    count and every right one below the left total. It is the left point
    followed by the right point's values on the new attributes. Raises
    ``ValueError`` when the left side has tuples and the right side none.
    With an empty partial solution the sub-view solution is adopted
    wholesale.
    """
    if not view.attrs:
        return ViewSolution(tuple(sub.attrs), list(sub.rows))
    common = [a for a in view.attrs if a in sub.attrs]
    new = tuple(a for a in sub.attrs if a not in view.attrs)
    left, right = _sorted_rows(view, common), _sorted_rows(sub, common)
    lends = list(accumulate(view.rows[i][1] for i in left))
    rends = list(accumulate(sub.rows[j][1] for j in right))
    total = view.total
    if total and not sub.total:
        raise ValueError("cannot align: right side empty")
    rnew = sub.project(new)
    rows: list[tuple[Point, int]] = []
    start = 0
    for end in sorted(set(lends).union(e for e in rends if e < total)):
        if end > start:
            i = left[bisect_left(lends, end)]
            j = right[bisect_left(rends, min(end, rends[-1]))]
            rows.append((view.rows[i][0] + rnew[j], end - start))
        start = end
    return ViewSolution(view.attrs + new, rows)


def build_view_solution(sols: list[ViewSolution]) -> ViewSolution:
    """Algorithm 3 end-to-end: align and merge the sub-view solutions in
    the order given, a junction-tree order
    (:attr:`repro.core.preprocess.ViewPlan.tree`)."""
    view = ViewSolution((), [])
    for sub in sols:
        view = align_and_merge(view, sub)
    return view
