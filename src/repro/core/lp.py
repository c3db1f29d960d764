"""LP formulation per view (paper §4), for both partitioning strategies.

For each sub-view the domain is partitioned — by HYDRA's region-partitioning
(Algorithm 1) or DataSynth's grid-partitioning — into labelled regions, one
LP variable per region. A region is one label class (within one
shared-attribute cell), carried by its lexicographically first box. The LP
then contains (Figure 7):

- non-negativity (implicit in the solver),
- per sub-view, ``sum of its variables = |R|`` (the total-size CC),
- per CC and per sub-view that covers the CC's attributes, an equality over
  the variables whose region label includes the CC,
- *consistency constraints* (§4.2 end): both modes cut each shared
  attribute at the CC boundaries of every sub-view carrying it, so a
  region's interval on a shared attribute is exactly one cell of that
  grid; for every pair of sub-views sharing attributes, the marginals are
  equated cell by cell, keyed by each region's own shared-attribute
  interval. The shared attributes are those on the edges of the plan's
  junction tree. Rows on tree edges alone would suffice, but every pair
  keeps its rows: dropping the redundant ones moves the simplex vertex.

The rows are built from the partitions' arrays (:class:`~repro.core.regions.Regions`):
a CC's row takes the regions whose label id is one of the labels holding the
CC, and a consistency row groups the regions by their shared-attribute
``(lo, hi)`` columns. A solved region leaves the LP as a point, the row of
its box's lows where §5.2 places its NumTuples, with its count: a row of the
sub-view's :class:`~repro.core.align.ViewSolution`
(:meth:`ViewFormulation.subview_solutions`). Every non-TRUE CC must fit in
some sub-view; :func:`formulate_view` raises otherwise.

CCs arriving from executed AQPs always admit the client data itself as a
witness, so these LPs are feasible by construction; the solver returns one
feasible point which, rounded, becomes the NumTuples assignment.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .align import ViewSolution
from .grid import grid_partition, grid_variable_count
from .preprocess import ViewPlan
from .regions import Regions, cut_points, partition_lp_regions
from .solver import LinearSystem, Terms, round_solution, solve_feasible


@dataclass
class SubViewFormulation:
    """One sub-view's partition and its slice of the LP variable vector."""

    attrs: tuple[str, ...]
    regions: Regions
    ccs: list[int]  # indices into the view's CC list that this sub-view encodes
    offset: int = 0

    @property
    def n_vars(self) -> int:
        return len(self.regions)


@dataclass
class ViewFormulation:
    """The full LP for one view, plus its solved (rounded) solution."""

    view: str
    plan: ViewPlan
    subviews: list[SubViewFormulation]
    system: LinearSystem
    solution: np.ndarray | None = None

    @property
    def n_vars(self) -> int:
        return sum(s.n_vars for s in self.subviews)

    @property
    def grid_vars_analytic(self) -> int:
        """Analytic grid size (∏ℓᵢ summed over sub-views), the same in both
        modes, so Fig 12 can compare without materializing the grid."""
        return sum(
            grid_variable_count(s.attrs, self.plan.domain, [self.plan.ccs[i] for i in s.ccs])
            for s in self.subviews
        )

    def subview_solutions(self) -> list[ViewSolution]:
        """Per sub-view, in the merge order of ``plan.tree``, its solution
        over the sub-view's attributes: a row for every nonzero variable,
        its region's lows (``Regions.los``) and its integer count."""
        assert self.solution is not None
        sols = []
        for i, _ in self.plan.tree:
            s = self.subviews[i]
            x = self.solution[s.offset : s.offset + s.n_vars]
            nz = np.flatnonzero(x > 0)
            points = map(tuple, s.regions.los[nz].tolist())
            sols.append(ViewSolution(s.attrs, list(zip(points, x[nz].tolist()))))
        return sols


def _cells(
    s: SubViewFormulation, cell_ids: dict[str, np.ndarray], common: tuple[str, ...],
    boundaries: dict[str, list[int]],
) -> dict[tuple, np.ndarray]:
    """Variables of ``s`` by their region's interval on each attribute of
    ``common`` — one shared-attribute boundary cell per region.

    ``cell_ids[a]`` is each region's cell index on ``a`` among
    ``boundaries[a]``; a region's cells on ``common`` form one mixed-radix
    key. Keys are ``((lo, hi), …)`` tuples of Python ints, inserted in the
    order the cells first appear among the regions, and each cell's
    variables are ascending: the consistency rows' order and terms follow
    from both.
    """
    key = np.zeros(len(s.regions), dtype=np.int64)
    radix = 1
    for a in common:
        cells = len(boundaries[a]) + 1
        if radix * cells >= 2**62:  # renumber the keys so far densely
            key = np.unique(key, return_inverse=True)[1]
            radix = len(key)
        key = key * cells + cell_ids[a]
        radix *= cells
    # Stable, so members stay ascending; numpy radix-sorts 16-bit keys.
    order = np.argsort(key.astype(np.uint16) if radix <= 1 << 16 else key, kind="stable")
    ks = key[order]
    new_cell = np.ones(len(order), dtype=bool)
    new_cell[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new_cell)
    members = np.split(order, starts[1:])
    firsts = order[starts]
    by_first = np.argsort(firsts)
    r = s.regions
    cols = [r.attrs.index(a) for a in common]
    los = r.los[firsts[by_first]][:, cols].tolist()
    his = r.his[firsts[by_first]][:, cols].tolist()
    return {
        tuple(zip(lo, hi)): s.offset + members[g]
        for g, lo, hi in zip(by_first.tolist(), los, his)
    }


def formulate_view(plan: ViewPlan, *, mode: str = "region") -> ViewFormulation:
    """Build the LP for one view. ``mode`` ∈ {"region", "grid"}.

    Raises :class:`repro.core.grid.GridTooLarge` in grid mode when a
    sub-view's cell count exceeds :data:`repro.core.grid.CELL_CAP` — the
    reproduction of the paper's solver crash.
    """
    if mode not in ("region", "grid"):
        raise ValueError(f"unknown mode {mode!r}")

    # 1. Assign CCs to sub-views and find the shared-attribute boundaries
    #    needed for cross-sub-view consistency. Boundaries come from
    #    CC-predicate constants only (those of every non-TRUE CC, each of
    #    which some sub-view carries): alignment pairs rows within a cell,
    #    and a cell that straddles no CC boundary pairs only CC-equivalent
    #    values — finer (incidental box-edge) refinement would multiply LP
    #    variables without improving fidelity.
    sv_cc_idx: list[list[int]] = []
    for sv in plan.subviews:
        sv_attrs = set(sv)
        sv_cc_idx.append(
            [
                i
                for i, cc in enumerate(plan.ccs)
                if cc.predicate.attrs <= sv_attrs and not cc.predicate.is_true
            ]
        )
    encoded = set().union(*sv_cc_idx)
    for i, cc in enumerate(plan.ccs):
        if not cc.predicate.is_true and i not in encoded:
            raise ValueError(
                f"view {plan.view}: CC {i} on {sorted(cc.predicate.attrs)} "
                "fits in no sub-view, so the LP cannot encode it"
            )
    # The sub-views holding an attribute form a subtree of the junction
    # tree, so the attributes on its edges are all the shared ones.
    shared_attrs = {
        a
        for i, parent in plan.tree
        if parent is not None
        for a in set(plan.subviews[i]) & set(plan.subviews[parent])
    }
    encoded_ccs = [plan.ccs[i] for i in sorted(encoded)]
    boundaries = {a: cut_points(a, plan.domain[a], encoded_ccs) for a in shared_attrs}

    # 2. Partition each sub-view against the CCs it can express, cut at
    #    the shared-attribute boundaries.
    sub_forms: list[SubViewFormulation] = []
    for sv, sv_ccs in zip(plan.subviews, sv_cc_idx):
        cc_objs = [plan.ccs[i] for i in sv_ccs]
        domain = {a: plan.domain[a] for a in sv}
        sh = tuple(a for a in sv if a in shared_attrs)
        if mode == "region":
            regions = partition_lp_regions(sv, domain, cc_objs, sh, boundaries)
        else:
            regions = grid_partition(sv, domain, cc_objs, sh, boundaries)
        # Partitioning labels regions with indices into cc_objs; rename them
        # to indices into the view's full CC list.
        regions = regions.relabel(sv_ccs)
        sub_forms.append(SubViewFormulation(attrs=sv, regions=regions, ccs=sv_ccs))

    # 3. Assign variable offsets.
    off = 0
    for s in sub_forms:
        s.offset = off
        off += s.n_vars

    # 4. Constraints.
    system = LinearSystem(n_vars=off)
    for s in sub_forms:
        system.add_sum(np.arange(s.offset, s.offset + s.n_vars), plan.total)
        # CC × label membership, built once: row k marks the labels holding
        # s.ccs[k] (every label lists CCs of s.ccs only).
        labels = s.regions.labels
        row_of = {cc_idx: k for k, cc_idx in enumerate(s.ccs)}
        member = np.zeros((len(s.ccs), len(labels)), dtype=bool)
        for li, lb in enumerate(labels):
            member[[row_of[c] for c in lb], li] = True
        for has_cc, cc_idx in zip(member, s.ccs):
            idxs = s.offset + np.flatnonzero(has_cc[s.regions.label_ids])
            system.add_sum(idxs, plan.ccs[cc_idx].count)

    # Pairwise marginal equality on shared attributes, keyed by each
    # region's boundary cell, found once per sub-view and attribute.
    cell_ids = [
        {a: np.searchsorted(boundaries[a], s.regions.los[:, k], side="right")
         for k, a in enumerate(s.attrs) if a in shared_attrs}
        for s in sub_forms
    ]
    for (s1, c1), (s2, c2) in itertools.combinations(zip(sub_forms, cell_ids), 2):
        common = tuple(a for a in s1.attrs if a in s2.attrs)
        if not common:
            continue
        cells1 = _cells(s1, c1, common, boundaries)
        cells2 = _cells(s2, c2, common, boundaries)
        empty = np.zeros(0, dtype=np.int64)
        for cell in set(cells1) | set(cells2):
            left, right = cells1.get(cell, empty), cells2.get(cell, empty)
            coef = np.concatenate([np.ones(len(left)), -np.ones(len(right))])
            system.add(Terms(np.concatenate([left, right]), coef), 0.0)

    return ViewFormulation(view=plan.view, plan=plan, subviews=sub_forms, system=system)


def solve_view(form: ViewFormulation) -> ViewFormulation:
    """Solve the view's LP and store the rounded NumTuples vector."""
    x = solve_feasible(form.system)
    form.solution = round_solution(x)
    return form
