"""Deterministic view-solution construction (paper §5.1, Algorithm 3).

Replaces DataSynth's sampling with HYDRA's alignment strategy:

1. **Ordering** — sub-view solutions arrive in the order of the view's
   junction tree (:attr:`repro.core.preprocess.ViewPlan.tree`, built once
   by the preprocessor), so each new sub-view's intersection with the
   already-merged attributes is contained in a single previous sub-view
   (the running-intersection property; §5.1.1's separator condition).
2. **Align** — the current view solution and the next sub-view solution are
   sorted on their common attributes, then rows are *split* so corresponding
   rows carry identical NumTuples (§5.1.2). The LP's consistency constraints
   guarantee the marginals match, so splitting is always possible (up to the
   integer-rounding slack, which is absorbed into the last row and measured
   by the metrics module).
3. **Merge** — a positional join of the aligned solutions, common attributes
   represented once (§5.1.3).

Rows are (point, count) pairs. A point is a tuple of values in the
solution's attribute order: the lows of a solved region's box, where §5.2
places its NumTuples (:meth:`repro.core.lp.ViewFormulation.subview_solutions`).
"""
from __future__ import annotations

from dataclasses import dataclass

from .preprocess import junction_tree

Point = tuple[int, ...]


@dataclass
class SubViewSolution:
    """One sub-view's solved rows: points over ``attrs`` with NumTuples counts."""

    attrs: tuple[str, ...]
    rows: list[tuple[Point, int]]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.rows)


def order_subviews(sols: list[SubViewSolution]) -> list[SubViewSolution]:
    """The solutions in the merge order of their :func:`junction_tree`;
    raises ``ValueError`` where the sub-views have none."""
    return [sols[i] for i, _ in junction_tree([s.attrs for s in sols])]


def align_and_merge(
    view_rows: list[tuple[Point, int]],
    view_attrs: tuple[str, ...],
    sub: SubViewSolution,
) -> tuple[list[tuple[Point, int]], tuple[str, ...]]:
    """One iteration of Algorithm 3: align ``sub`` with the partial view
    solution and merge positionally.

    Both sides are sorted on their common attributes' values (in view
    order), then on the whole point; with nothing in common only the equal
    totals matter. A merged row is the left point followed by the right
    point's values on the new attributes. Returns the new (rows, attrs).
    With an empty partial solution the sub-view solution is adopted wholesale.
    """
    if not view_attrs:
        return list(sub.rows), tuple(sub.attrs)

    common = [a for a in view_attrs if a in sub.attrs]
    new = [k for k, a in enumerate(sub.attrs) if a not in view_attrs]
    new_attrs = view_attrs + tuple(sub.attrs[k] for k in new)

    lcols = [view_attrs.index(a) for a in common]
    rcols = [sub.attrs.index(a) for a in common]
    left = sorted(view_rows, key=lambda rc: (tuple(rc[0][k] for k in lcols), rc[0]))
    right = sorted(sub.rows, key=lambda rc: (tuple(rc[0][k] for k in rcols), rc[0]))

    merged: list[tuple[Point, int]] = []
    i = j = 0
    li, lj = 0, 0  # counts already consumed from left[i] / right[j]
    while i < len(left) and j < len(right):
        lpoint, lc = left[i]
        rpoint, rc = right[j]
        take = min(lc - li, rc - lj)
        if take > 0:
            merged.append((lpoint + tuple(rpoint[k] for k in new), take))
        li += take
        lj += take
        if li >= lc:
            i, li = i + 1, 0
        if lj >= rc:
            j, lj = j + 1, 0
    # Rounding slack: one side may have leftover counts. Attach them to the
    # last row of the exhausted side so no tuples are dropped; the resulting
    # (tiny) volumetric error is measured, not hidden.
    while i < len(left):
        lpoint, lc = left[i]
        rem = lc - li
        if rem > 0 and merged:
            merged.append((lpoint + merged[-1][0][len(view_attrs):], rem))
        elif rem > 0:
            raise ValueError("cannot align: right side empty")
        i, li = i + 1, 0
    # Leftover on the right adds no left-side rows; totals equal the view
    # total by construction, so this only happens via rounding slack and the
    # extra counts are dropped (bounded by the rounding error).
    return merged, new_attrs


def build_view_solution(
    sols: list[SubViewSolution],
) -> tuple[list[tuple[Point, int]], tuple[str, ...]]:
    """Algorithm 3 end-to-end: align and merge the sub-view solutions in
    the order given, a junction-tree order
    (:attr:`repro.core.preprocess.ViewPlan.tree`)."""
    rows: list[tuple[Point, int]] = []
    attrs: tuple[str, ...] = ()
    for sub in sols:
        rows, attrs = align_and_merge(rows, attrs, sub)
    return rows, attrs
