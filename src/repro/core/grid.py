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
  cell is keyed by its own interval there, as HYDRA's regions are. Cells
  are enumerated and labelled on arrays and returned in the same columnar
  :class:`~repro.core.regions.Regions` container as HYDRA's regions.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .constraints import CC, Interval, sub_constraints
from .regions import Regions

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


def _label_rows(sat: np.ndarray) -> tuple[np.ndarray, list[frozenset[int]]]:
    """Label ids and distinct labels of the rows of an n × k boolean matrix,
    row *i*'s label being the set of its True columns."""
    if sat.shape[1] == 0:
        return np.zeros(len(sat), dtype=np.int64), [frozenset()]
    packed = np.packbits(sat, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    return ids.ravel(), [frozenset(np.flatnonzero(sat[i]).tolist()) for i in first]


def grid_partition(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
    shared: Sequence[str],
    boundaries: Mapping[str, Sequence[int]],
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> Regions:
    """Materialize the grid as single-box labelled regions.

    Each shared attribute is also cut at ``boundaries[a]``, the CC
    boundaries the LP's consistency constraints equate marginals on, so
    every cell's interval on a shared attribute is exactly one boundary
    cell. The cap applies to the unrefined ``∏ ℓᵢ``. Cells come in
    ``itertools.product`` order of the per-attribute intervals, each
    labelled with the CCs whose predicate contains it. Returned regions are
    interchangeable with HYDRA's in the LP builder — the formulation
    differs only in how many variables it takes to express the same CCs.
    """
    n_cells = grid_variable_count(attrs, domain, ccs)
    if n_cells > cell_cap:
        raise GridTooLarge(n_cells, cell_cap)
    cuts = []
    for a in attrs:
        points = _cut_points(a, domain[a], ccs)
        if a in shared:
            points |= set(boundaries[a])
        cuts.append(np.array(sorted(points), dtype=np.int64))
    # Per attribute, each cell's interval number; the last attribute varies
    # fastest, as in itertools.product.
    cell = np.indices([len(c) - 1 for c in cuts]).reshape(len(attrs), -1)
    los = np.stack([c[:-1][k] for c, k in zip(cuts, cell)], axis=1)
    his = np.stack([c[1:][k] for c, k in zip(cuts, cell)], axis=1)
    sat = np.zeros((len(los), len(ccs)), dtype=bool)
    for j, cc in enumerate(ccs):
        sat[:, j] = cc.predicate.box_mask(attrs, los, his)
    label_ids, labels = _label_rows(sat)
    return Regions(attrs, los, his, label_ids, labels)
