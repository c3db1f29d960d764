"""HYDRA's region-partitioning (paper §4.2, Algorithms 1 and 2).

A *box* is an axis-aligned product of integer intervals. Algorithm 1
("Optimal Partition") labels each point of a sub-view's domain with the set
of CCs it satisfies; the points of one label are a *region*, an equivalence
class of :math:`R_\\mathcal{C}` (Lemma 4.3), so the label classes are the
minimum number of LP variables that encode the CCs exactly. The LP's
consistency constraints also need each shared attribute cut at its CC
boundaries, so an LP region is one (label, shared-attribute cell) class.

:func:`partition_lp_regions` finds these classes in one sweep over the
sub-view's attributes, in order: Algorithm 2's per-dimension refinement,
with pieces keyed by their *state* rather than their geometry. A state is
the set of sub-constraints still alive (satisfied on every attribute swept
so far) plus the shared-attribute cells chosen so far. Each attribute's
domain is cut into elementary intervals at every CC constant on it
(:func:`cut_points`), and at the boundaries if it is shared; a state's
child on an interval drops the sub-constraints whose interval misses it.
Points in one state have the same future, so children with equal states
are one piece, and the working set follows the states, not box fragments.
A final state's label is the TRUE CCs plus every CC with a live
sub-constraint. DataSynth's grid is the sweep with every attribute shared
(:func:`repro.core.grid.grid_partition`): each cell is then its own state.

A region is carried by the elementary cell at its lexicographically first
point: the LP assigns it one variable, and a solved region leaves the LP as
that cell's lows, where the summary generator places its NumTuples (§5.2's
deterministic choice). The sweep keeps each state's first point, so regions
come out in the lexicographic order of their lows. A region's interval on a
shared attribute is exactly one boundary cell, which the LP's consistency
constraints key on; on the other attributes the box is one elementary
interval, not the class's extent.

Regions stay columnar from the partitioner to the solution: :class:`Regions`
holds every region's box as a row of int64 ``los``/``his`` arrays and its
label as an id into a list of the distinct labels. The LP builder and the
solution read the arrays; indexing or iterating a :class:`Regions` builds
:class:`Region` objects, whose ``box`` is a ``dict`` attribute →
:class:`~repro.core.constraints.Interval`, for inspecting a partition.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence as SequenceABC
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .constraints import CC, Interval, sub_constraints


@dataclass(frozen=True)
class Region:
    """One LP variable: a (label, shared cell) class, carried by the
    elementary cell at its lexicographically first point.

    ``label`` is the frozenset of CC indices (into the formulation's CC
    list) that every point of the class, and so of ``box``, satisfies.
    """

    box: dict[str, Interval]
    label: frozenset[int]


class Regions(SequenceABC):
    """A sub-view's regions as arrays: a read-only sequence of :class:`Region`.

    Row *i* of the int64 ``los``/``his`` arrays (n × d, columns in ``attrs``
    order) is region *i*'s box — the elementary cell at its class's
    lexicographically first point — and ``labels[label_ids[i]]`` its label.
    ``labels`` holds each distinct label once. Indexing and iteration build
    the :class:`Region` objects on access.
    """

    def __init__(
        self,
        attrs: Sequence[str],
        los: np.ndarray,
        his: np.ndarray,
        label_ids: np.ndarray,
        labels: Iterable[frozenset[int]],
    ):
        self.attrs = tuple(attrs)
        self.los = los
        self.his = his
        self.label_ids = label_ids
        self.labels = list(labels)

    def __len__(self) -> int:
        return len(self.label_ids)

    def _region(self, i: int) -> Region:
        lo, hi = self.los[i].tolist(), self.his[i].tolist()
        box = {a: Interval(l, h) for a, l, h in zip(self.attrs, lo, hi)}
        return Region(box, self.labels[self.label_ids[i]])

    def __getitem__(self, i: int) -> Region:
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"region index {i} out of range for {n} regions")
        return self._region(i % n)

    def __iter__(self) -> Iterator[Region]:
        return map(self._region, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Regions):
            return NotImplemented
        return (
            self.attrs == other.attrs
            and np.array_equal(self.los, other.los)
            and np.array_equal(self.his, other.his)
            and [self.labels[i] for i in self.label_ids.tolist()]
            == [other.labels[i] for i in other.label_ids.tolist()]
        )

    def relabel(self, names: Sequence[int]) -> "Regions":
        """The same boxes, with each CC index ``j`` of a label renamed ``names[j]``."""
        labels = [frozenset(names[j] for j in lb) for lb in self.labels]
        return Regions(self.attrs, self.los, self.his, self.label_ids, labels)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bit rows packed into uint8 rows of at least one byte."""
    out = np.zeros((len(bits), max(1, -(-bits.shape[1] // 8))), dtype=np.uint8)
    packed = np.packbits(bits, axis=1)
    out[:, : packed.shape[1]] = packed
    return out


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a uint8 array, and each row's index into them."""
    width = rows.shape[1]
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.frombuffer(distinct.tobytes(), np.uint8).reshape(-1, width), inverse


def _first_occurrences(key: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each value of ``key``."""
    return np.sort(np.unique(key, return_index=True)[1])


def cut_points(attr: str, domain: Interval, ccs: Sequence[CC]) -> list[int]:
    """Where ``attr`` is cut: the constants of the CCs' sub-constraints on it
    that lie strictly inside ``domain``, ascending."""
    points = set()
    for c in sub_constraints(ccs):
        r = c.restriction(attr)
        if r is not None:
            points.update(p for p in (r.lo, r.hi) if domain.lo < p < domain.hi)
    return sorted(points)


def partition_lp_regions(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
    shared: Sequence[str],
    boundaries: Mapping[str, Sequence[int]],
) -> Regions:
    """The LP's regions: one per (CC label × shared-attribute boundary cell).

    ``boundaries[a]`` cuts every shared attribute ``a``; it must hold every
    constant of ``ccs`` on ``a`` inside the domain (the LP builder passes the
    constants of all sub-views' CCs), else ``ValueError``. Each region's
    interval on ``a`` is then exactly one boundary cell. A region's box is
    the elementary cell at its class's lexicographically first point, and
    regions are ordered by their boxes' lows in ``attrs`` order.

    One sweep over ``attrs``, one attribute at a time: a state is the set of
    sub-constraints still alive plus the shared cells chosen so far, held as
    an id into a table of distinct alive bit sets and a cell-prefix id. The
    attribute's elementary intervals map each alive set to its successor;
    each state's children are enumerated parent-major and interval-ascending
    and equal children merged into the first, which carries the state's
    lexicographically first point (kept as a pointer to its parent and
    interval, so the boxes are rebuilt only for the regions at the end).
    """
    subs = sub_constraints(ccs)
    sub_cc = np.array(
        [j for j, cc in enumerate(ccs) for c in cc.predicate.conjuncts if c.restrictions],
        dtype=np.int64,
    )
    # Per attribute: the sub-constraints restricting it, with their bounds.
    restricting: dict[str, tuple[list[int], list[int], list[int]]] = {}
    for si, c in enumerate(subs):
        for a in c.attrs:
            r = c.restriction(a)
            idx, rlo, rhi = restricting.setdefault(a, ([], [], []))
            idx.append(si)
            rlo.append(r.lo)
            rhi.append(r.hi)
    alive = _pack(np.ones((1, len(subs)), dtype=bool))  # distinct alive sets
    state_alive = np.zeros(1, dtype=np.int64)  # states in first-point order
    state_cell = np.zeros(1, dtype=np.int64)
    n_cells = 1
    levels = []  # per attribute: each state's parent and interval, the intervals
    for a in attrs:
        dom = domain[a]
        idx, rlo, rhi = (np.array(v, dtype=np.int64) for v in restricting.get(a, ([], [], [])))
        points = {p for p in rlo.tolist() + rhi.tolist() if dom.lo < p < dom.hi}  # = cut_points
        if a in shared:
            bounds = {p for p in boundaries[a] if dom.lo < p < dom.hi}
            if not points <= bounds:
                raise ValueError(
                    f"boundaries of shared attribute {a!r} lack CC constants "
                    f"{sorted(points - bounds)}"
                )
            points = bounds
        cuts = np.array(sorted(points | {dom.lo, dom.hi}), dtype=np.int64)
        lo, hi = cuts[:-1], cuts[1:]
        n_iv = len(lo)
        kill = np.zeros((n_iv, len(subs)), dtype=bool)
        kill[:, idx] = (lo[:, None] < rlo) | (hi[:, None] > rhi)
        # Successor of every (alive set, interval) pair.
        successors = alive[:, None, :] & ~_pack(kill)[None, :, :]
        alive, succ = _distinct_rows(successors.reshape(-1, alive.shape[1]))
        succ = succ.reshape(-1, n_iv)
        n = len(state_alive)
        parent = np.repeat(np.arange(n), n_iv)
        iv = np.tile(np.arange(n_iv), n)
        cell = state_cell[parent]
        if a in shared:
            _, cell = np.unique(cell * n_iv + iv, return_inverse=True)
            n_cells = int(cell.max()) + 1
        child_alive = succ[state_alive[parent], iv]
        keep = _first_occurrences(child_alive * n_cells + cell)
        state_alive, state_cell = child_alive[keep], cell[keep]
        levels.append((parent[keep], iv[keep], lo, hi))

    # Labels: the TRUE CCs plus every CC with a live sub-constraint.
    has = np.zeros((len(alive), len(ccs)), dtype=bool)
    has[:, [j for j, cc in enumerate(ccs) if cc.predicate.is_true]] = True
    if len(subs):
        with_subs, starts = np.unique(sub_cc, return_index=True)
        bits = np.unpackbits(alive, axis=1, count=len(subs)).astype(bool)
        has[:, with_subs] |= np.logical_or.reduceat(bits, starts, axis=1)
    label_bits, label_of = _distinct_rows(_pack(has))
    lab = label_of[state_alive]
    first = _first_occurrences(lab * n_cells + state_cell)
    lab = lab[first]
    # Number the labels in order of first appearance.
    order = lab[_first_occurrences(lab)]
    renumber = np.empty(len(label_bits), dtype=np.int64)
    renumber[order] = np.arange(len(order))
    bits = np.unpackbits(label_bits[order], axis=1, count=len(ccs))
    members = np.nonzero(bits)[1].tolist()
    ends = np.cumsum(bits.sum(axis=1)).tolist()
    labels = [frozenset(members[b:e]) for b, e in zip([0] + ends[:-1], ends)]

    los = np.empty((len(first), len(attrs)), dtype=np.int64)
    his = np.empty_like(los)
    idx = first
    for d in range(len(attrs) - 1, -1, -1):
        parent, iv, lo, hi = levels[d]
        los[:, d], his[:, d] = lo[iv[idx]], hi[iv[idx]]
        idx = parent[idx]
    return Regions(attrs, los, his, renumber[lab], labels)
