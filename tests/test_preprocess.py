"""Preprocessor tests: CC rewriting, view-graph, chordalization, sub-views."""
import pytest

from repro.core.constraints import CC, Conjunct, Interval, Predicate, total_cc
from repro.core.preprocess import RawCC, ViewPlan, _maximal_cliques, plan_views, rewrite_ccs
from repro.core.workload import base_size_ccs

from .toy import toy_schema


def _raw(tables, pred, count):
    return RawCC(tables=frozenset(tables), predicate=pred, count=count)


class TestRewriteCCs:
    def test_join_cc_rewritten_to_root_view(self):
        sch = toy_schema()
        ccs = rewrite_ccs(
            sch, [_raw({"r", "s"}, Predicate.of(a=(20, 60)), 50000)]
        )
        assert len(ccs) == 1
        assert ccs[0].view == "r"
        assert ccs[0].tables == {"r", "s"}

    def test_single_table_cc_stays(self):
        sch = toy_schema()
        ccs = rewrite_ccs(sch, [_raw({"s"}, Predicate.of(a=(20, 60)), 400)])
        assert ccs[0].view == "s"

    def test_duplicates_collapsed(self):
        sch = toy_schema()
        ccs = rewrite_ccs(
            sch,
            [
                _raw({"s"}, Predicate.true(), 700),
                _raw({"s"}, Predicate.true(), 700),
            ],
        )
        assert len(ccs) == 1

    def test_conflicting_duplicates_rejected(self):
        sch = toy_schema()
        with pytest.raises(ValueError):
            rewrite_ccs(
                sch,
                [
                    _raw({"s"}, Predicate.true(), 700),
                    _raw({"s"}, Predicate.true(), 800),
                ],
            )

    def test_attrs_outside_view_rejected(self):
        sch = toy_schema()
        with pytest.raises(ValueError):
            # CC on S mentioning T's attribute c.
            rewrite_ccs(sch, [_raw({"s"}, Predicate.of(c=(0, 1)), 1)])


class TestChordalize:
    def test_triangle_already_chordal(self):
        nodes = ["a", "b", "c"]
        edges = {frozenset(p) for p in (("a", "b"), ("b", "c"), ("a", "c"))}
        assert _maximal_cliques(nodes, edges) == [frozenset(nodes)]

    def test_four_cycle_gets_fill_edge(self):
        nodes = ["a", "b", "c", "d"]
        edges = {
            frozenset(p) for p in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
        }
        cliques = _maximal_cliques(nodes, edges)
        # two triangles sharing one chord, which is not an input edge
        assert [len(c) for c in cliques] == [3, 3]
        chord = cliques[0] & cliques[1]
        assert len(chord) == 2 and chord not in edges

    def test_cliques_of_path_graph(self):
        nodes = ["a", "b", "c"]
        edges = {frozenset(p) for p in (("a", "b"), ("b", "c"))}
        cliques = _maximal_cliques(nodes, edges)
        assert sorted(sorted(c) for c in cliques) == [["a", "b"], ["b", "c"]]

    def test_isolated_vertices_become_singletons(self):
        nodes = ["a", "b", "c"]
        cliques = _maximal_cliques(nodes, set())
        assert sorted(sorted(c) for c in cliques) == [["a"], ["b"], ["c"]]


class TestPlanViews:
    def _ccs(self):
        sch = toy_schema()
        raw = [
            _raw({"r", "s"}, Predicate.of(a=(20, 60)), 50000),
            _raw({"r", "s", "t"}, Predicate.of(a=(20, 60)).conjoin(Predicate.of(c=(2, 3))), 30000),
            _raw({"s"}, Predicate.of(a=(20, 60)), 400),
            _raw({"t"}, Predicate.of(c=(2, 3)), 900),
        ]
        raw = base_size_ccs(sch, {"r": 80000, "s": 700, "t": 150}, raw)
        return sch, rewrite_ccs(sch, raw)

    def test_every_relation_gets_a_plan(self):
        sch, ccs = self._ccs()
        plans = plan_views(sch, ccs)
        assert set(plans) == {"r", "s", "t"}
        assert plans["r"].total == 80000

    def test_missing_total_cc_raises(self):
        sch = toy_schema()
        ccs = rewrite_ccs(sch, [_raw({"s"}, Predicate.true(), 700)])
        with pytest.raises(ValueError):
            plan_views(sch, ccs)

    def test_subviews_cover_all_view_attrs(self):
        sch, ccs = self._ccs()
        plans = plan_views(sch, ccs)
        for plan in plans.values():
            covered = set().union(*(set(sv) for sv in plan.subviews))
            assert covered == set(plan.attrs)

    def test_cc_attrs_within_one_subview(self):
        """Every CC's attribute set must fit inside some sub-view (cliques
        of the chordal graph contain every CC clique)."""
        sch, ccs = self._ccs()
        plans = plan_views(sch, ccs)
        for plan in plans.values():
            for cc in plan.ccs:
                if cc.predicate.is_true:
                    continue
                assert any(cc.predicate.attrs <= set(sv) for sv in plan.subviews)

    def test_r_view_has_ac_subview(self):
        """CC on (a, c) forces a+c into one sub-view of r's view."""
        sch, ccs = self._ccs()
        plan = plan_views(sch, ccs)["r"]
        assert any({"a", "c"} <= set(sv) for sv in plan.subviews)

    def test_unconstrained_attr_is_singleton_subview(self):
        sch, ccs = self._ccs()
        plan = plan_views(sch, ccs)["s"]
        # b is not in any CC → it must be a singleton sub-view.
        assert ("b",) in [tuple(sv) for sv in plan.subviews]

    def test_plan_without_junction_tree_cannot_be_built(self):
        # A triangle's edges as sub-views: the third's overlap {a, c} with
        # the first two lies in neither.
        with pytest.raises(ValueError, match="running intersection"):
            ViewPlan(
                view="v",
                attrs=("a", "b", "c"),
                domain={a: Interval(0, 10) for a in "abc"},
                subviews=[("a", "b"), ("b", "c"), ("a", "c")],
                ccs=[total_cc("v", 10)],
                total=10,
            )
