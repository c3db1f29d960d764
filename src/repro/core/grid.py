"""DataSynth's grid-partitioning (the paper's comparative baseline, §3.2).

Grid-partitioning intervalizes each attribute's domain at the constants
appearing in the CCs and crosses the per-attribute intervals into a grid of
``∏ ℓᵢ`` cells, one LP variable per cell. The variable count therefore grows
multiplicatively with predicate complexity — the paper reports 5.5M variables
for catalog_sales and ~10¹¹ for item on WLc, where the Z3 solver crashed.

The grid is the special case of HYDRA's region partition in which every
attribute is cut. :func:`grid_variable_count` computes ``∏ ℓᵢ``
analytically, so the blowup can be *reported* without materializing cells
(Fig 12 / Fig 13 "crash"). :func:`grid_partition` raises
:class:`GridTooLarge` when the grid it would build (cut also at the LP's
consistency boundaries) exceeds :data:`CELL_CAP` cells, to emulate the
solver crash, and otherwise partitions through HYDRA's sweep
(:func:`~repro.core.regions.partition_lp_regions`) with every attribute
passed as shared, so each grid cell is its own region, in the same columnar
:class:`~repro.core.regions.Regions` container as HYDRA's regions.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

from .constraints import CC, Interval
from .regions import Regions, cut_points, partition_lp_regions

#: Above this many cells the LP is declared unsolvable, standing in for the
#: paper's observed Z3 crash on multi-billion-variable formulations.
CELL_CAP = 2_000_000


class GridTooLarge(RuntimeError):
    """Raised when the grid formulation exceeds the solvable-cell cap."""

    def __init__(self, n_cells: int, cap: int):
        super().__init__(f"grid has {n_cells} cells (cap {cap}): LP solver would fail")
        self.n_cells = n_cells
        self.cap = cap


def attribute_intervals(
    attr: str, domain: Interval, ccs: Sequence[CC]
) -> list[Interval]:
    """Intervalize one attribute's domain at all CC constants mentioning it."""
    cuts = [domain.lo, *cut_points(attr, domain, ccs), domain.hi]
    return [Interval(a, b) for a, b in zip(cuts, cuts[1:])]


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
) -> Regions:
    """Materialize the grid as single-box labelled regions.

    Each shared attribute is also cut at ``boundaries[a]``, the CC
    boundaries the LP's consistency constraints equate marginals on, so
    every cell's interval on a shared attribute is exactly one boundary
    cell. The cap applies to the grid so cut, which can be several times
    the unrefined ``∏ ℓᵢ``. With every attribute cut and passed to the
    sweep as shared, no two cells share a state: cells come one region
    each, in ``itertools.product`` order of the per-attribute intervals,
    each labelled with the CCs the cell satisfies.
    Returned regions are interchangeable with HYDRA's in the LP builder —
    the formulation differs only in how many variables it takes to express
    the same CCs.
    """
    cuts = {}
    for a in attrs:
        points = set(cut_points(a, domain[a], ccs))
        if a in shared:
            points |= set(boundaries[a])
        cuts[a] = sorted(points)
    n_cells = math.prod(len(cuts[a]) + 1 for a in attrs)
    if n_cells > CELL_CAP:
        raise GridTooLarge(n_cells, CELL_CAP)
    return partition_lp_regions(attrs, domain, ccs, attrs, cuts)
