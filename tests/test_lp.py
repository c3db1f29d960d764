"""LP formulation tests: CC encodings, consistency constraints, solutions."""
import numpy as np
import pytest

from repro.core.constraints import CC, Interval, Predicate, total_cc
from repro.core import grid
from repro.core.grid import GridTooLarge
from repro.core.lp import SubViewFormulation, _cells, formulate_view, solve_view
from repro.core.preprocess import ViewPlan, plan_views, rewrite_ccs, RawCC
from repro.core.regions import Regions
from repro.core.workload import base_size_ccs

from .toy import toy_schema


def person_plan() -> ViewPlan:
    ccs = [
        CC("person", Predicate.of(age=(0, 40), salary=(0, 40)), 1000),
        CC("person", Predicate.of(age=(20, 60), salary=(20, 60)), 2000),
        total_cc("person", 8000),
    ]
    return ViewPlan(
        view="person",
        attrs=("age", "salary"),
        domain={"age": Interval(0, 100), "salary": Interval(0, 100)},
        subviews=[("age", "salary")],
        ccs=ccs,
        total=8000,
    )


class TestFormulatePersonView:
    def test_region_mode_has_4_vars(self):
        form = formulate_view(person_plan(), mode="region")
        assert form.n_vars == 4

    def test_grid_mode_has_16_vars(self):
        form = formulate_view(person_plan(), mode="grid")
        assert form.n_vars == 16

    def test_grid_analytic_count_recorded_in_region_mode(self):
        form = formulate_view(person_plan(), mode="region")
        assert form.grid_vars_analytic == 16

    def test_solution_satisfies_ccs_region(self):
        form = solve_view(formulate_view(person_plan(), mode="region"))
        x = form.solution
        s = form.subviews[0]
        for cc_idx, expect in ((0, 1000), (1, 2000)):
            got = sum(
                int(x[s.offset + i])
                for i, r in enumerate(s.regions)
                if cc_idx in r.label
            )
            assert got == expect
        assert int(x.sum()) == 8000

    def test_solution_satisfies_ccs_grid(self):
        form = solve_view(formulate_view(person_plan(), mode="grid"))
        x = form.solution
        s = form.subviews[0]
        got = sum(
            int(x[s.offset + i]) for i, r in enumerate(s.regions) if 0 in r.label
        )
        assert got == 1000

    def test_grid_cap_propagates(self, monkeypatch):
        monkeypatch.setattr(grid, "CELL_CAP", 4)
        with pytest.raises(GridTooLarge):
            formulate_view(person_plan(), mode="grid")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            formulate_view(person_plan(), mode="hexagon")


class TestConsistencyAcrossSubviews:
    def _plan(self) -> ViewPlan:
        """View (a,b,c) decomposed into sub-views (a,b) and (b,c) — the
        §3.2 sampling example's shape, but solved deterministically."""
        ccs = [
            CC("v", Predicate.of(a=(0, 50), b=(0, 25)), 300),
            CC("v", Predicate.of(b=(0, 25), c=(0, 5)), 200),
            total_cc("v", 1000),
        ]
        return ViewPlan(
            view="v",
            attrs=("a", "b", "c"),
            domain={
                "a": Interval(0, 100),
                "b": Interval(0, 50),
                "c": Interval(0, 10),
            },
            subviews=[("a", "b"), ("b", "c")],
            ccs=ccs,
            total=1000,
        )

    def test_marginals_match_on_shared_attr(self):
        form = solve_view(formulate_view(self._plan(), mode="region"))
        x = form.solution
        s1, s2 = form.subviews

        def marginal(s):
            out = {}
            for i, r in enumerate(s.regions):
                box = r.box
                cell = (box["b"].lo, box["b"].hi)
                out[cell] = out.get(cell, 0) + int(x[s.offset + i])
            return {k: v for k, v in out.items() if v}

        m1, m2 = marginal(s1), marginal(s2)
        assert sum(m1.values()) == sum(m2.values()) == 1000
        # Cell-level equality — the consistency constraints at work.
        for cell in set(m1) | set(m2):
            assert m1.get(cell, 0) == m2.get(cell, 0)

    def test_both_subview_totals_equal_view_total(self):
        form = solve_view(formulate_view(self._plan(), mode="region"))
        x = form.solution
        for s in form.subviews:
            assert int(x[s.offset : s.offset + s.n_vars].sum()) == 1000

    def test_ccs_satisfied_in_their_subviews(self):
        form = solve_view(formulate_view(self._plan(), mode="region"))
        x = form.solution
        for s in form.subviews:
            for cc_idx in s.ccs:
                got = sum(
                    int(x[s.offset + i])
                    for i, r in enumerate(s.regions)
                    if cc_idx in r.label
                )
                assert got == form.plan.ccs[cc_idx].count


    def test_subview_solution_is_nonzero_regions(self):
        """Each nonzero variable leaves as its region's left boundaries (§5.2)
        and its count, in variable order, one solution per sub-view."""
        form = solve_view(formulate_view(self._plan(), mode="region"))
        x = form.solution
        sols = form.subview_solutions()
        assert [sol.attrs for sol in sols] == [s.attrs for s in form.subviews]
        for s, sol in zip(form.subviews, sols):
            expected = [
                (tuple(r.box[a].lo for a in s.attrs), int(x[s.offset + i]))
                for i, r in enumerate(s.regions)
                if x[s.offset + i] > 0
            ]
            assert expected and sol.rows == expected

    @pytest.mark.parametrize("mode", ["region", "grid"])
    def test_cc_fitting_no_subview_raises(self, mode):
        """A CC on (a, c) spans both sub-views but fits in neither: the LP
        cannot encode it, so formulation fails instead of dropping it."""
        plan = self._plan()
        plan.ccs.append(CC("v", Predicate.of(a=(0, 50), c=(0, 5)), 100))
        with pytest.raises(ValueError, match="fits in no sub-view"):
            formulate_view(plan, mode=mode)


class TestToySchemaFormulation:
    def test_all_views_solvable_from_derived_ccs(self):
        sch = toy_schema()
        raw = [
            RawCC(frozenset({"r", "s"}), Predicate.of(a=(20, 60)), 5000),
            RawCC(frozenset({"s"}), Predicate.of(a=(20, 60)), 300),
            RawCC(frozenset({"t"}), Predicate.of(c=(2, 3)), 30),
        ]
        raw = base_size_ccs(sch, {"r": 8000, "s": 700, "t": 150}, raw)
        plans = plan_views(sch, rewrite_ccs(sch, raw))
        for plan in plans.values():
            form = solve_view(formulate_view(plan, mode="region"))
            x = form.solution
            # The rounded solution satisfies every LP row exactly ...
            assert np.array_equal(form.system.residuals(x), np.zeros(len(form.system.rows)))
            # ... and every sub-view holds the whole view.
            for s in form.subviews:
                assert int(x[s.offset : s.offset + s.n_vars].sum()) == plan.total

    def test_region_vars_fewer_than_grid_vars(self):
        sch = toy_schema()
        raw = [
            RawCC(frozenset({"r", "s"}), Predicate.of(a=(20, 60), b=(10, 30)), 5000),
            RawCC(frozenset({"r", "t"}), Predicate.of(c=(2, 5)), 3000),
            RawCC(frozenset({"r"}), Predicate.of(d=(0, 10)), 4000),
        ]
        raw = base_size_ccs(sch, {"r": 8000, "s": 700, "t": 150}, raw)
        plans = plan_views(sch, rewrite_ccs(sch, raw))
        form = formulate_view(plans["r"], mode="region")
        assert form.n_vars <= form.grid_vars_analytic


def test_consistency_cells_renumber_before_the_key_overflows():
    """Four shared attributes of 2**17 cells each span 2**68 mixed-radix
    keys: the key is renumbered densely before it would wrap, so cells
    2**13 apart on the first attribute (2**64 apart as keys) stay apart."""
    attrs = ("a", "b", "c", "d")
    ids = np.array([[0, 0, 0, 0], [2**13, 0, 0, 0], [0, 0, 0, 0], [0, 5, 0, 1]])
    regions = Regions(attrs, ids, ids + 1, np.zeros(4, dtype=np.int64), [frozenset()])
    s = SubViewFormulation(attrs, regions, [], offset=10)
    boundaries = {a: range(2**17 - 1) for a in attrs}
    cells = _cells(s, {a: ids[:, k] for k, a in enumerate(attrs)}, attrs, boundaries)
    assert list(cells) == [
        ((0, 1),) * 4,
        ((2**13, 2**13 + 1), (0, 1), (0, 1), (0, 1)),
        ((0, 1), (5, 6), (0, 1), (1, 2)),
    ]
    assert [v.tolist() for v in cells.values()] == [[10, 12], [11], [13]]
