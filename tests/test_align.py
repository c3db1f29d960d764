"""Align/merge tests — the deterministic replacement for sampling (§5.1)."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.align import (
    ViewSolution,
    align_and_merge,
    build_view_solution,
    order_subviews,
)
from repro.core.preprocess import (
    MAX_SEPARATOR,
    _fuse_fat_separators,
    _maximal_cliques,
    junction_tree,
)


def satisfies_rip(order: list[ViewSolution]) -> bool:
    """Each sub-view's overlap with the earlier ones lies in one of them."""
    for i, s in enumerate(order):
        earlier = order[:i]
        common = set(s.attrs) & {a for o in earlier for a in o.attrs}
        if common and not any(common <= set(o.attrs) for o in earlier):
            return False
    return True


def all_pairs_fusion(cliques: list[frozenset[str]]) -> list[frozenset[str]]:
    """Reference fusion: merge the first pair of sub-views overlapping in
    more than ``MAX_SEPARATOR`` attributes and rescan until no pair does;
    then drop sub-views inside another."""
    out = [set(c) for c in cliques]
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if len(out[i] & out[j]) > MAX_SEPARATOR:
                    out[i] |= out[j]
                    del out[j]
                    changed = True
                    break
            if changed:
                break
    fs = sorted((frozenset(c) for c in out), key=len, reverse=True)
    kept: list[frozenset[str]] = []
    for c in fs:
        if not any(c <= k for k in kept):
            kept.append(c)
    return kept


@st.composite
def graphs(draw):
    """A random graph of at most 9 nodes: (nodes, edge set)."""
    nodes = [f"v{i}" for i in range(draw(st.integers(1, 9)))]
    pairs = list(itertools.combinations(nodes, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return nodes, {frozenset(p) for p, k in zip(pairs, keep) if k}


class TestOrderSubviews:
    def test_running_intersection_chain(self):
        # Cliques (a,b), (b,c), (c,d): valid orders must keep the chain.
        sols = [
            ViewSolution(("a", "b"), []),
            ViewSolution(("b", "c"), []),
            ViewSolution(("c", "d"), []),
        ]
        order = [s.attrs for s in order_subviews(sols)]
        assert order.index(("b", "c")) == 1  # must sit between the two

    def test_disconnected_components_allowed(self):
        sols = [
            ViewSolution(("a", "b"), []),
            ViewSolution(("x", "y"), []),
        ]
        assert len(order_subviews(sols)) == 2

    def test_star_order(self):
        # (a,b,c) is the hub; (a,d) and (b,e) both intersect it.
        sols = [
            ViewSolution(("a", "d"), []),
            ViewSolution(("a", "b", "c"), []),
            ViewSolution(("b", "e"), []),
        ]
        order = [s.attrs for s in order_subviews(sols)]
        assert order[0] == ("a", "b", "c")  # largest first (deterministic)

    def test_empty(self):
        assert order_subviews([]) == []

    @settings(max_examples=400, deadline=None)
    @given(graph=graphs(), fuse=st.booleans())
    def test_rip_on_random_chordalized_graphs(self, graph, fuse):
        """The sub-views of any view graph, chordalized, split into maximal
        cliques and optionally fused, are ordered with the running
        intersection property, and each one's overlap with the earlier ones
        lies in its junction-tree parent."""
        nodes, edges = graph
        cliques = _maximal_cliques(nodes, edges)
        if fuse:
            cliques = _fuse_fat_separators(cliques)
        cliques = [tuple(sorted(c)) for c in cliques]
        sols = [ViewSolution(c, []) for c in cliques]
        order = order_subviews(sols)
        assert sorted(s.attrs for s in order) == sorted(s.attrs for s in sols)
        assert satisfies_rip(order)
        tree = junction_tree(cliques)
        assert [cliques[i] for i, _ in tree] == [s.attrs for s in order]
        for k, (i, parent) in enumerate(tree):
            earlier = {a for j, _ in tree[:k] for a in cliques[j]}
            common = set(cliques[i]) & earlier
            if parent is None:
                assert not common
            else:
                assert parent in [j for j, _ in tree[:k]]
                assert common <= set(cliques[parent])

    @settings(max_examples=400, deadline=None)
    @given(graph=graphs())
    def test_fusion_equals_all_pairs_fixpoint(self, graph):
        """Contracting the junction tree's fat edges fuses the same
        sub-views as merging any two that overlap in more than
        ``MAX_SEPARATOR`` attributes until none do."""
        nodes, edges = graph
        cliques = _maximal_cliques(nodes, edges)
        fused = _fuse_fat_separators(cliques)
        assert sorted(map(sorted, fused)) == sorted(map(sorted, all_pairs_fusion(cliques)))

    def test_raises_without_junction_tree(self):
        # A triangle's edges as sub-views: the third's overlap {a, c} with
        # the first two lies in neither.
        sols = [
            ViewSolution(("a", "b"), []),
            ViewSolution(("b", "c"), []),
            ViewSolution(("a", "c"), []),
        ]
        with pytest.raises(ValueError, match="running intersection"):
            order_subviews(sols)


class TestAlignAndMerge:
    def test_adopts_first_subview(self):
        sub = ViewSolution(("a",), [((0,), 5)])
        merged = align_and_merge(ViewSolution((), []), sub)
        rows, attrs = merged.rows, merged.attrs
        assert attrs == ("a",)
        assert rows == [((0,), 5)]

    def test_figure8_style_alignment(self):
        """§5.1.2's example shape: solutions (A,B) and (A,C) aligned on A,
        rows split so NumTuples match pairwise, then merged positionally."""
        ab = [((0, 0), 30), ((40, 0), 30), ((40, 10), 0)]
        ac = ViewSolution(("a", "c"), [((0, 0), 10), ((0, 5), 20), ((40, 0), 30)])
        merged = align_and_merge(ViewSolution(("a", "b"), ab), ac)
        rows, attrs = merged.rows, merged.attrs
        assert attrs == ("a", "b", "c")
        # Row splitting: A=0 row (30) splits into 10 + 20.
        counts = [(point[0], c) for point, c in rows]
        assert counts == [(0, 10), (0, 20), (40, 30)]
        # Total preserved.
        assert sum(c for _, c in rows) == 60

    def test_merge_keeps_common_attr_once(self):
        ab = [((0, 0), 7)]
        ac = ViewSolution(("a", "c"), [((0, 0), 7)])
        merged = align_and_merge(ViewSolution(("a", "b"), ab), ac)
        rows, attrs = merged.rows, merged.attrs
        assert attrs == ("a", "b", "c")
        assert len(rows) == 1
        point, c = rows[0]
        assert len(point) == 3 and c == 7

    def test_disconnected_merge_positional(self):
        ab = [((0,), 4), ((10,), 6)]
        xy = ViewSolution(("x",), [((0,), 10)])
        merged = align_and_merge(ViewSolution(("a",), ab), xy)
        rows, attrs = merged.rows, merged.attrs
        assert attrs == ("a", "x")
        assert sum(c for _, c in rows) == 10
        assert all(len(point) == 2 for point, _ in rows)

    def test_rounding_slack_absorbed(self):
        # Left has 10, right has 9: the extra left tuple must survive.
        ab = [((0,), 10)]
        ac = ViewSolution(("a", "c"), [((0, 0), 9)])
        rows = align_and_merge(ViewSolution(("a",), ab), ac).rows
        assert sum(c for _, c in rows) == 10

    def test_zero_count_rows_dropped(self):
        ab = [((0,), 0), ((10,), 5)]
        ac = ViewSolution(("a", "c"), [((10, 0), 5)])
        rows = align_and_merge(ViewSolution(("a",), ab), ac).rows
        assert all(c > 0 for _, c in rows)
        assert sum(c for _, c in rows) == 5


@st.composite
def matched_solutions(draw):
    """Rows over (a, b) and over (a, c), in drawn order, whose per-``a``
    totals are equal; counts may be zero."""

    def split(total: int) -> list[tuple[int, int]]:
        vals = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=len(vals) - 1,
                                    max_size=len(vals) - 1)))
        return list(zip(vals, [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]))

    totals = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 6), min_size=1, max_size=4))
    ab = [((a, b), c) for a, t in totals.items() for b, c in split(t)]
    ac = [((a, c), n) for a, t in totals.items() for c, n in split(t)]
    return draw(st.permutations(ab)), draw(st.permutations(ac))


def coalesced(rows, attrs, onto):
    """Nonzero counts of ``rows`` projected onto the attributes ``onto``."""
    cols = [attrs.index(a) for a in onto]
    agg: dict[tuple[int, ...], int] = {}
    for point, c in rows:
        key = tuple(point[k] for k in cols)
        agg[key] = agg.get(key, 0) + c
    return {k: c for k, c in agg.items() if c}


class TestAlignAndMergeProperties:
    @settings(max_examples=300, deadline=None)
    @given(sols=matched_solutions())
    def test_merge_preserves_both_sides(self, sols):
        ab, ac = sols
        merged = align_and_merge(ViewSolution(("a", "b"), ab), ViewSolution(("a", "c"), ac))
        rows, attrs = merged.rows, merged.attrs
        assert attrs == ("a", "b", "c")
        assert coalesced(rows, attrs, ("a", "b")) == coalesced(ab, ("a", "b"), ("a", "b"))
        assert coalesced(rows, attrs, ("a", "c")) == coalesced(ac, ("a", "c"), ("a", "c"))
        assert sum(c for _, c in rows) == sum(c for _, c in ab)

    @settings(max_examples=300, deadline=None)
    @given(sols=matched_solutions(), data=st.data())
    def test_rounding_slack_keeps_left_total(self, sols, data):
        """With the right total one off, the left side survives whole."""
        ab, ac = list(sols[0]), list(sols[1])
        i = data.draw(st.integers(0, len(ac) - 1))
        delta = data.draw(st.sampled_from([-1, 1] if ac[i][1] > 0 else [1]))
        ac[i] = (ac[i][0], ac[i][1] + delta)
        if sum(c for _, c in ab) == 0:
            ab[0] = (ab[0][0], 1)
        if sum(c for _, c in ac) == 0:
            ac[i] = (ac[i][0], 1)
        merged = align_and_merge(ViewSolution(("a", "b"), ab), ViewSolution(("a", "c"), ac))
        rows, attrs = merged.rows, merged.attrs
        assert coalesced(rows, attrs, ("a", "b")) == coalesced(ab, ("a", "b"), ("a", "b"))
        assert sum(c for _, c in rows) == sum(c for _, c in ab)


def two_counter_merge(view_rows, view_attrs, sub):
    """Reference align/merge, the former two-counter walk: returns
    (rows, attrs). Leftover left counts take the right part of the last
    merged row; leftover right counts are dropped."""
    if not view_attrs:
        return list(sub.rows), tuple(sub.attrs)

    common = [a for a in view_attrs if a in sub.attrs]
    new = [k for k, a in enumerate(sub.attrs) if a not in view_attrs]
    new_attrs = view_attrs + tuple(sub.attrs[k] for k in new)

    lcols = [view_attrs.index(a) for a in common]
    rcols = [sub.attrs.index(a) for a in common]
    left = sorted(view_rows, key=lambda rc: (tuple(rc[0][k] for k in lcols), rc[0]))
    right = sorted(sub.rows, key=lambda rc: (tuple(rc[0][k] for k in rcols), rc[0]))

    merged = []
    i = j = 0
    li, lj = 0, 0
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
    while i < len(left):
        lpoint, lc = left[i]
        rem = lc - li
        if rem > 0 and merged:
            merged.append((lpoint + merged[-1][0][len(view_attrs):], rem))
        elif rem > 0:
            raise ValueError("cannot align: right side empty")
        i, li = i + 1, 0
    return merged, new_attrs


@st.composite
def any_solution(draw, pool=("a", "b", "c", "d")):
    """A solution over up to three attributes of ``pool`` (possibly none),
    with up to five rows (possibly none) of counts that may be zero."""
    attrs = tuple(draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)))
    point = st.tuples(*[st.integers(0, 2) for _ in attrs])
    rows = draw(st.lists(st.tuples(point, st.integers(0, 4)), max_size=5))
    return ViewSolution(attrs, rows)


class TestAlignAndMergeOracle:
    @settings(max_examples=2000, deadline=None)
    @given(view=any_solution(), sub=any_solution())
    def test_equals_two_counter_merge(self, view, sub):
        """Cutting at both sides' cumulative counts gives the two-counter
        walk's rows, row for row, and raises where it raises — with zero
        counts, unequal totals, disjoint attributes and empty sides."""
        try:
            rows, attrs = two_counter_merge(list(view.rows), view.attrs, sub)
        except ValueError:
            with pytest.raises(ValueError, match="right side empty"):
                align_and_merge(view, sub)
            return
        merged = align_and_merge(view, sub)
        assert merged.attrs == attrs
        assert merged.rows == rows


class TestBuildViewSolution:
    def test_chain_of_three_subviews(self):
        sols = [
            ViewSolution(("a", "b"), [((0, 0), 6), ((1, 1), 4)]),
            ViewSolution(("b", "c"), [((0, 0), 6), ((1, 1), 4)]),
            ViewSolution(("c", "d"), [((0, 0), 2), ((0, 1), 4), ((1, 0), 4)]),
        ]
        merged = build_view_solution(sols)
        rows, attrs = merged.rows, merged.attrs
        assert set(attrs) == {"a", "b", "c", "d"}
        assert sum(c for _, c in rows) == 10
        # b=0 tuples must all carry c=0 (consistency through the chain).
        ib, ic = attrs.index("b"), attrs.index("c")
        for point, _ in rows:
            if point[ib] == 0:
                assert point[ic] == 0
