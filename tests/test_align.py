"""Align/merge tests — the deterministic replacement for sampling (§5.1)."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.align import (
    SubViewSolution,
    align_and_merge,
    build_view_solution,
    order_subviews,
)
from repro.core.constraints import Interval
from repro.core.preprocess import (
    _fuse_fat_separators,
    _maximal_cliques_chordal,
    _min_fill_chordalize,
)


def iv(lo, hi):
    return Interval(lo, hi)


def satisfies_rip(order: list[SubViewSolution]) -> bool:
    """Each sub-view's overlap with the earlier ones lies in one of them."""
    for i, s in enumerate(order):
        earlier = order[:i]
        common = set(s.attrs) & {a for o in earlier for a in o.attrs}
        if common and not any(common <= set(o.attrs) for o in earlier):
            return False
    return True


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
            SubViewSolution(("a", "b"), []),
            SubViewSolution(("b", "c"), []),
            SubViewSolution(("c", "d"), []),
        ]
        order = [s.attrs for s in order_subviews(sols)]
        assert order.index(("b", "c")) == 1  # must sit between the two

    def test_disconnected_components_allowed(self):
        sols = [
            SubViewSolution(("a", "b"), []),
            SubViewSolution(("x", "y"), []),
        ]
        assert len(order_subviews(sols)) == 2

    def test_star_order(self):
        # (a,b,c) is the hub; (a,d) and (b,e) both intersect it.
        sols = [
            SubViewSolution(("a", "d"), []),
            SubViewSolution(("a", "b", "c"), []),
            SubViewSolution(("b", "e"), []),
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
        intersection property."""
        nodes, edges = graph
        chordal, elim = _min_fill_chordalize(nodes, edges)
        adj = {v: set() for v in nodes}
        for a, b in map(tuple, chordal):
            adj[a].add(b)
            adj[b].add(a)
        cliques = _maximal_cliques_chordal(nodes, adj, elim)
        if fuse:
            cliques = _fuse_fat_separators(cliques)
        sols = [SubViewSolution(tuple(sorted(c)), []) for c in cliques]
        order = order_subviews(sols)
        assert sorted(s.attrs for s in order) == sorted(s.attrs for s in sols)
        assert satisfies_rip(order)

    def test_raises_without_junction_tree(self):
        # A triangle's edges as sub-views: the third's overlap {a, c} with
        # the first two lies in neither.
        sols = [
            SubViewSolution(("a", "b"), []),
            SubViewSolution(("b", "c"), []),
            SubViewSolution(("a", "c"), []),
        ]
        with pytest.raises(ValueError, match="running intersection"):
            order_subviews(sols)


class TestAlignAndMerge:
    def test_adopts_first_subview(self):
        sub = SubViewSolution(("a",), [({"a": iv(0, 10)}, 5)])
        rows, attrs = align_and_merge([], (), sub)
        assert attrs == ("a",)
        assert rows == [({"a": iv(0, 10)}, 5)]

    def test_figure8_style_alignment(self):
        """§5.1.2's example shape: solutions (A,B) and (A,C) aligned on A,
        rows split so NumTuples match pairwise, then merged positionally."""
        ab = [
            ({"a": iv(0, 40), "b": iv(0, 10)}, 30),
            ({"a": iv(40, 60), "b": iv(0, 10)}, 30),
            ({"a": iv(40, 60), "b": iv(10, 20)}, 0),
        ]
        ac = SubViewSolution(
            ("a", "c"),
            [
                ({"a": iv(0, 40), "c": iv(0, 5)}, 10),
                ({"a": iv(0, 40), "c": iv(5, 9)}, 20),
                ({"a": iv(40, 60), "c": iv(0, 5)}, 30),
            ],
        )
        rows, attrs = align_and_merge(ab, ("a", "b"), ac)
        assert attrs == ("a", "b", "c")
        # Row splitting: A=[0,40) row (30) splits into 10 + 20.
        counts = [(r["a"].lo, c) for r, c in rows]
        assert counts == [(0, 10), (0, 20), (40, 30)]
        # Total preserved.
        assert sum(c for _, c in rows) == 60

    def test_merge_keeps_common_attr_once(self):
        ab = [({"a": iv(0, 10), "b": iv(0, 5)}, 7)]
        ac = SubViewSolution(("a", "c"), [({"a": iv(0, 10), "c": iv(0, 2)}, 7)])
        rows, attrs = align_and_merge(ab, ("a", "b"), ac)
        assert attrs == ("a", "b", "c")
        assert len(rows) == 1
        box, c = rows[0]
        assert set(box) == {"a", "b", "c"} and c == 7

    def test_disconnected_merge_positional(self):
        ab = [({"a": iv(0, 10)}, 4), ({"a": iv(10, 20)}, 6)]
        xy = SubViewSolution(("x",), [({"x": iv(0, 1)}, 10)])
        rows, attrs = align_and_merge(ab, ("a",), xy)
        assert attrs == ("a", "x")
        assert sum(c for _, c in rows) == 10
        assert all("x" in box for box, _ in rows)

    def test_rounding_slack_absorbed(self):
        # Left has 10, right has 9: the extra left tuple must survive.
        ab = [({"a": iv(0, 10)}, 10)]
        ac = SubViewSolution(("a", "c"), [({"a": iv(0, 10), "c": iv(0, 2)}, 9)])
        rows, _ = align_and_merge(ab, ("a",), ac)
        assert sum(c for _, c in rows) == 10

    def test_zero_count_rows_dropped(self):
        ab = [({"a": iv(0, 10)}, 0), ({"a": iv(10, 20)}, 5)]
        ac = SubViewSolution(("a", "c"), [({"a": iv(10, 20), "c": iv(0, 2)}, 5)])
        rows, _ = align_and_merge(ab, ("a",), ac)
        assert all(c > 0 for _, c in rows)
        assert sum(c for _, c in rows) == 5


class TestBuildViewSolution:
    def test_chain_of_three_subviews(self):
        sols = [
            SubViewSolution(
                ("a", "b"),
                [
                    ({"a": iv(0, 1), "b": iv(0, 1)}, 6),
                    ({"a": iv(1, 2), "b": iv(1, 2)}, 4),
                ],
            ),
            SubViewSolution(
                ("b", "c"),
                [
                    ({"b": iv(0, 1), "c": iv(0, 1)}, 6),
                    ({"b": iv(1, 2), "c": iv(1, 2)}, 4),
                ],
            ),
            SubViewSolution(
                ("c", "d"),
                [
                    ({"c": iv(0, 1), "d": iv(0, 1)}, 2),
                    ({"c": iv(0, 1), "d": iv(1, 2)}, 4),
                    ({"c": iv(1, 2), "d": iv(0, 1)}, 4),
                ],
            ),
        ]
        rows, attrs = build_view_solution(sols)
        assert set(attrs) == {"a", "b", "c", "d"}
        assert sum(c for _, c in rows) == 10
        # b=0 tuples must all carry c=0 (consistency through the chain).
        for box, c in rows:
            if box["b"].lo == 0:
                assert box["c"].lo == 0
