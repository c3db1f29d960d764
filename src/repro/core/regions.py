"""HYDRA's region-partitioning (paper §4.2, Algorithms 1 and 2).

A *box* is an axis-aligned product of integer intervals, represented as a
``dict`` attribute → :class:`~repro.core.constraints.Interval`.
:func:`label_partition` runs both algorithms on arrays of boxes. Algorithm 2
("Valid-Partition") refines the domain box one dimension at a time, cutting
a box at a sub-constraint's boundaries only while the box still satisfies
that sub-constraint on every earlier dimension. Algorithm 1 ("Optimal
Partition") labels each box with the set of CCs it satisfies; the boxes of
one label are a *region*, an equivalence class of :math:`R_\\mathcal{C}`
(Lemma 4.3), so the label classes are the minimum number of LP variables
that encode the CCs exactly.

A region is one label class carried by its lexicographically first box: the
LP assigns it one variable, and the summary generator places its NumTuples
on that box (§5.2's deterministic choice). :func:`partition_lp_regions`
first cuts the label classes at the shared attributes' CC boundaries, so a
region's interval on a shared attribute is exactly one boundary cell; the
LP's consistency constraints key on that interval.

Regions stay columnar from the partitioner to the LP: :class:`Regions`
holds every region's box as a row of int64 ``los``/``his`` arrays and its
label as an id into a list of the distinct labels. The LP builder reads the
arrays; a :class:`Region` object is built only where one is read (indexing
or iterating a :class:`Regions`), e.g. for the nonzero entries of a solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence as SequenceABC
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .constraints import CC, Interval, sub_constraints

Box = dict[str, Interval]


def box_key(box: Box, attrs: Sequence[str]) -> tuple[int, ...]:
    """Deterministic sort key: interval lows in sub-view attribute order."""
    return tuple(box[a].lo for a in attrs)


@dataclass(frozen=True)
class Region:
    """One LP variable: a label class, carried by its first box.

    ``label`` is the frozenset of CC indices (into the formulation's CC
    list) that every point of the region satisfies.
    """

    box: Box
    label: frozenset[int]


class Regions(SequenceABC):
    """A sub-view's regions as arrays: a read-only sequence of :class:`Region`.

    Row *i* of the int64 ``los``/``his`` arrays (n × d, columns in ``attrs``
    order) is region *i*'s box, and ``labels[label_ids[i]]`` its label.
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


def _cut(los, his, extra, dim, p, where=True):
    """Cut the boxes selected by ``where`` that straddle ``p`` along ``dim``.

    Left pieces stay in place; right pieces are appended, and so are copies
    of their rows of every per-box array in ``extra``.
    """
    strad = where & (los[:, dim] < p) & (his[:, dim] > p)
    if not strad.any():
        return los, his, extra
    right_los = los[strad].copy()
    right_los[:, dim] = p
    right_his = his[strad].copy()
    his[strad, dim] = p
    return (
        np.vstack([los, right_los]),
        np.vstack([his, right_his]),
        [np.concatenate([e, e[strad]]) for e in extra],
    )


def _merge_adjacent(los, his, sig_ids, dim):
    """Coalesce boxes identical except for contiguity along ``dim``.

    Constraints that die on a late dimension leave adjacent fragments
    with re-converged signatures; re-merging them after every
    dimension pass is what keeps the intermediate working set near
    the final region count instead of exploding combinatorially.
    """
    if len(los) < 2:
        return los, his, sig_ids
    other = [d for d in range(los.shape[1]) if d != dim]
    keys = (
        [los[:, dim]]
        + [his[:, d] for d in reversed(other)]
        + [los[:, d] for d in reversed(other)]
        + [sig_ids]
    )
    order = np.lexsort(keys)
    lo_s, hi_s, sg_s = los[order], his[order], sig_ids[order]
    same = (sg_s[1:] == sg_s[:-1])
    for d in other:
        same &= (lo_s[1:, d] == lo_s[:-1, d]) & (hi_s[1:, d] == hi_s[:-1, d])
    contiguous = same & (lo_s[1:, dim] == hi_s[:-1, dim])
    if not contiguous.any():
        return los, his, sig_ids
    new_group = np.concatenate([[True], ~contiguous])
    starts = np.flatnonzero(new_group)
    out_lo = lo_s[starts]
    out_hi = hi_s[starts].copy()
    # Chain end index per group: position before the next start.
    ends = np.concatenate([starts[1:], [len(lo_s)]]) - 1
    out_hi[:, dim] = hi_s[ends, dim]
    return out_lo, out_hi, sg_s[starts]


def label_partition(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
):
    """Algorithms 1+2: the optimal partition w.r.t. ``ccs``, as box arrays.

    Returns ``(los, his, labels)``: row *i* of the int64 arrays ``los`` and
    ``his`` is a box (columns in ``attrs`` order), and ``labels[i]`` is the
    frozenset of CC indices it satisfies. The boxes tile the domain; the
    boxes of one label make up one region.

    Each box carries its *alive signature*, the set of sub-constraints it
    still fully satisfies on all processed dimensions. A sub-constraint
    only cuts boxes still alive for it (dead ones are uniformly false
    whatever the later dimensions), and contiguous boxes with equal
    signatures are re-merged after every dimension, so the working set
    tracks the final region count rather than the refined block count.
    Labels follow from signatures: a DNF CC is satisfied iff any of its
    sub-constraints stays alive (Lemma 4.4's label construction).
    """
    subs = sub_constraints(ccs)
    cc_of_sub: list[list[int]] = [[] for _ in subs]
    si = 0
    for j, cc in enumerate(ccs):
        for c in cc.predicate.conjuncts:
            if c.restrictions:
                cc_of_sub[si].append(j)
                si += 1
    true_ccs = frozenset(j for j, cc in enumerate(ccs) if cc.predicate.is_true)

    los = np.array([[domain[a].lo for a in attrs]], dtype=np.int64)
    his = np.array([[domain[a].hi for a in attrs]], dtype=np.int64)
    sig_table: list[frozenset[int]] = [frozenset(range(len(subs)))]
    sig_index: dict[frozenset[int], int] = {sig_table[0]: 0}
    sig_ids = np.zeros(1, dtype=np.int64)

    for di, a in enumerate(attrs):
        for ci, c in enumerate(subs):
            proj = c.restriction(a)
            if proj is None:
                continue
            alive_tab = np.fromiter(
                (ci in s for s in sig_table), dtype=bool, count=len(sig_table)
            )
            mask_alive = alive_tab[sig_ids]
            for p in (proj.lo, proj.hi):
                los, his, (sig_ids, mask_alive) = _cut(
                    los, his, (sig_ids, mask_alive), di, p, mask_alive
                )
            inside = (los[:, di] >= proj.lo) & (his[:, di] <= proj.hi)
            out_mask = mask_alive & ~inside
            if out_mask.any():
                lut = np.arange(len(sig_table), dtype=np.int64)
                for s in np.unique(sig_ids[out_mask]):
                    ns = sig_table[s] - {ci}
                    if ns not in sig_index:
                        sig_index[ns] = len(sig_table)
                        sig_table.append(ns)
                        lut = np.concatenate([lut, [0]])  # placeholder, grown
                    lut[s] = sig_index[ns]
                sig_ids = sig_ids.copy()
                sig_ids[out_mask] = lut[sig_ids[out_mask]]
        # Re-coalesce fragments along every processed dimension.
        for d in range(di + 1):
            los, his, sig_ids = _merge_adjacent(los, his, sig_ids, d)
    label_of_sig = np.empty(len(sig_table), dtype=object)
    for s, sig in enumerate(sig_table):
        label_of_sig[s] = true_ccs | frozenset(j for ci in sig for j in cc_of_sub[ci])
    return los, his, label_of_sig[sig_ids]


def partition_lp_regions(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
    shared: Sequence[str],
    boundaries: Mapping[str, Sequence[int]],
) -> Regions:
    """The LP's regions: one per (CC label × shared-attribute boundary cell).

    The boxes of :func:`label_partition` are cut at ``boundaries[a]`` for
    every shared attribute ``a``. Those must include every constant of
    ``ccs`` on ``a`` inside the domain (the LP builder passes the constants
    of all sub-views' CCs), so each cut box's interval on ``a`` is exactly
    one boundary cell, named by its low end. Each region keeps only its
    lexicographically first box; regions are ordered by their boxes' lows
    in ``attrs`` order (:func:`box_key`).
    """
    los, his, labels = label_partition(attrs, domain, ccs)
    label_index: dict[frozenset[int], int] = {}
    lab = np.fromiter(
        (label_index.setdefault(lb, len(label_index)) for lb in labels),
        dtype=np.int64,
        count=len(labels),
    )
    for a in shared:
        di = attrs.index(a)
        for p in sorted(boundaries[a]):
            los, his, (lab,) = _cut(los, his, (lab,), di, p)

    # The boxes tile the domain, so no two share their lows: sorting by
    # (label, shared cells, lows) puts each region's lexicographically
    # first box at the start of its run.
    lows = tuple(los[:, d] for d in range(len(attrs) - 1, -1, -1))
    key = [lab] + [los[:, attrs.index(a)] for a in shared]
    order = np.lexsort(lows + tuple(reversed(key)))
    new_run = np.zeros(len(order), dtype=bool)
    new_run[:1] = True
    for k in key:
        ks = k[order]
        new_run[1:] |= ks[1:] != ks[:-1]
    first = order[new_run]
    first = first[np.lexsort(tuple(lo[first] for lo in lows))]
    return Regions(attrs, los[first], his[first], lab[first], label_index)
