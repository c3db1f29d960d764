"""DataSynth's grid-partitioning (the paper's comparative baseline, §3.2).

Grid-partitioning intervalizes each attribute's domain at the constants
appearing in the CCs and crosses the per-attribute intervals into a grid of
``∏ ℓᵢ`` cells, one LP variable per cell. The variable count therefore grows
multiplicatively with predicate complexity — the paper reports 5.5M variables
for catalog_sales and ~10¹¹ for item on WLc, where the Z3 solver crashed.

Two entry points mirror how the paper uses the construction:

- :func:`grid_variable_count` computes ``∏ ℓᵢ`` analytically, so the blowup
  can be *reported* without materializing cells (Fig 12 / Fig 13 "crash");
- :func:`grid_partition` materializes the cells as labelled single-box
  regions for LPs small enough to solve (the WLs path), raising
  :class:`GridTooLarge` above a cap to emulate the solver crash. Shared
  attributes are cut at the LP's consistency boundaries as well, so each
  cell is keyed by its own interval there, as HYDRA's regions are.
"""
from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .constraints import CC, Interval, sub_constraints
from .regions import Region

#: Above this many cells the LP is declared unsolvable, standing in for the
#: paper's observed Z3 crash on multi-billion-variable formulations.
DEFAULT_CELL_CAP = 2_000_000


class GridTooLarge(RuntimeError):
    """Raised when the grid formulation exceeds the solvable-cell cap."""

    def __init__(self, n_cells: int, cap: int):
        super().__init__(f"grid has {n_cells} cells (cap {cap}): LP solver would fail")
        self.n_cells = n_cells
        self.cap = cap


def _cut_points(attr: str, domain: Interval, ccs: Sequence[CC]) -> set[int]:
    points = {domain.lo, domain.hi}
    for c in sub_constraints(ccs):
        r = c.restriction(attr)
        if r is not None:
            for p in (r.lo, r.hi):
                if domain.lo < p < domain.hi:
                    points.add(p)
    return points


def _intervals(points: set[int]) -> list[Interval]:
    cuts = sorted(points)
    return [Interval(a, b) for a, b in zip(cuts, cuts[1:])]


def attribute_intervals(
    attr: str, domain: Interval, ccs: Sequence[CC]
) -> list[Interval]:
    """Intervalize one attribute's domain at all CC constants mentioning it."""
    return _intervals(_cut_points(attr, domain, ccs))


def grid_variable_count(
    attrs: Sequence[str], domain: Mapping[str, Interval], ccs: Sequence[CC]
) -> int:
    """Analytic ``∏ ℓᵢ`` — the number of LP variables DataSynth would create."""
    n = 1
    for a in attrs:
        n *= len(attribute_intervals(a, domain[a], ccs))
    return n


def grid_partition(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
    shared: Sequence[str],
    boundaries: Mapping[str, Sequence[int]],
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> list[Region]:
    """Materialize the grid as single-box labelled regions.

    Each shared attribute is also cut at ``boundaries[a]``, the CC
    boundaries the LP's consistency constraints equate marginals on, so
    every cell's interval on a shared attribute is exactly one boundary
    cell. The cap applies to the unrefined ``∏ ℓᵢ``. Returned regions are
    interchangeable with HYDRA's in the LP builder — the formulation
    differs only in how many variables it takes to express the same CCs.
    """
    n_cells = grid_variable_count(attrs, domain, ccs)
    if n_cells > cell_cap:
        raise GridTooLarge(n_cells, cell_cap)
    per_attr = []
    for a in attrs:
        points = _cut_points(a, domain[a], ccs)
        if a in shared:
            points |= set(boundaries[a])
        per_attr.append(_intervals(points))
    regions = []
    for combo in itertools.product(*per_attr):
        box = dict(zip(attrs, combo))
        label = frozenset(
            i for i, cc in enumerate(ccs) if cc.predicate.matches_box(box)
        )
        regions.append(Region(box, label))
    return regions
