"""Summary-generator tests: instantiation, referential repair, relation
summaries, FK correctness — §5.2–§5.4 — plus the toy end-to-end pipeline."""
import numpy as np
import pandas as pd
import pytest

from repro.core import hydra, workload
from repro.core.constraints import CC, Interval, Predicate, total_cc
from repro.core.hydra import regenerate
from repro.core.lp import formulate_view, solve_view
from repro.core.metrics import achieved_counts_pandas, max_abs_error
from repro.core.preprocess import ViewPlan, plan_views, rewrite_ccs
from repro.core.align import ViewSolution
from repro.core.summary import make_consistent, view_summaries_from_formulations
from repro.core.tuplegen import database_to_pandas, decode_rows, relation_to_pandas
from repro.core.workload import base_size_ccs, derive_ccs_pandas

from .test_substrates import GOLDEN, TREE_PLANS
from .toy import toy_client_data, toy_queries, toy_schema


class TestInstantiateView:
    def test_left_boundary_assignment(self):
        # §5.2: the 3rd row of Figure 8c, A∈[40,60) B∈[5,9) C∈[2,7), becomes
        # A=40,B=5,C=2 (all-left). The sub-views merge as (a, c, b); the
        # summary is in view order.
        plan = ViewPlan(
            view="v",
            attrs=("a", "b", "c"),
            domain={"a": Interval(0, 100), "b": Interval(0, 50), "c": Interval(0, 10)},
            subviews=[("a", "c"), ("b", "c")],
            ccs=[
                CC("v", Predicate.of(a=(40, 60), c=(2, 7)), 10000),
                CC("v", Predicate.of(b=(5, 9), c=(2, 7)), 10000),
                total_cc("v", 10000),
            ],
            total=10000,
        )
        form = solve_view(formulate_view(plan))
        vs = view_summaries_from_formulations({"v": form})["v"]
        assert vs.attrs == ("a", "b", "c")
        assert vs.rows == [((40, 5, 2), 10000)]

    def test_coalesce_merges_equal_values(self):
        vs = ViewSolution(("a",), [((0,), 3), ((5,), 1), ((0,), 4)])
        vs.coalesce()
        assert vs.rows == [((0,), 7), ((5,), 1)]

    def test_zero_rows_dropped(self):
        vs = ViewSolution(("a",), [((0,), 0)])
        vs.coalesce()
        assert vs.rows == []


class TestMakeConsistent:
    def test_missing_combo_added_with_count_1(self):
        sch = toy_schema()
        summaries = {
            "r": ViewSolution(("a", "b", "c", "d"), [((7, 1, 2, 3), 100)]),
            "s": ViewSolution(("a", "b"), [((0, 0), 700)]),  # (7,1) missing
            "t": ViewSolution(("c",), [((2,), 150)]),
        }
        # (7, 1) misses the CC that (0, 0) meets: no donor.
        view_ccs = {
            "s": [total_cc("s", 700), CC("s", Predicate.of(a=(0, 5)), 700)],
            "t": [total_cc("t", 150)],
        }
        extras = make_consistent(sch, summaries, view_ccs)
        assert extras["s"] == 1
        assert ((7, 1), 1) in summaries["s"].rows
        assert extras["t"] == 0  # (2,) already present

    def test_transitive_repair_through_dag(self):
        """fact → dim → subdim: a combo added to dim must itself be
        repaired against subdim (reverse-topological processing)."""
        from repro.core.schema import Attribute, Relation, Schema

        sch = Schema(
            [
                Relation("u", pk="u_pk", attrs=(Attribute("x", 0, 10),)),
                Relation("s", pk="s_pk", attrs=(Attribute("a", 0, 10),), fks={"s_u": "u"}),
                Relation("r", pk="r_pk", attrs=(Attribute("d", 0, 10),), fks={"r_s": "s"}),
            ]
        )
        summaries = {
            "r": ViewSolution(("x", "a", "d"), [((9, 9, 0), 5)]),
            "s": ViewSolution(("x", "a"), [((0, 0), 10)]),
            "u": ViewSolution(("x",), [((0,), 10)]),
        }
        # The missing combinations miss the CCs the existing rows meet: no donor.
        view_ccs = {
            "s": [total_cc("s", 10), CC("s", Predicate.of(a=(0, 5)), 10)],
            "u": [total_cc("u", 10), CC("u", Predicate.of(x=(0, 5)), 10)],
        }
        extras = make_consistent(sch, summaries, view_ccs)
        assert extras["s"] == 1  # (9,9) added to s
        assert extras["u"] == 1  # (9,) then added to u

    def test_no_extras_when_consistent(self):
        sch = toy_schema()
        summaries = {
            "r": ViewSolution(("a", "b", "c", "d"), [((1, 2, 3, 4), 10)]),
            "s": ViewSolution(("a", "b"), [((1, 2), 10)]),
            "t": ViewSolution(("c",), [((3,), 10)]),
        }
        view_ccs = {"s": [total_cc("s", 10)], "t": [total_cc("t", 10)]}
        extras = make_consistent(sch, summaries, view_ccs)
        assert extras == {"r": 0, "s": 0, "t": 0}

    S_CCS = {
        "s": [total_cc("s", 8), CC("s", Predicate.of(a=(0, 50)), 5)],
        "t": [total_cc("t", 150)],
    }

    def _cc_counts(self, vs: ViewSolution) -> list[int]:
        return [
            sum(c for vals, c in vs.rows if cc.predicate.matches_point(dict(zip(vs.attrs, vals))))
            for cc in self.S_CCS["s"]
        ]

    def test_donor_row_gives_one_tuple(self):
        """A missing combination takes a tuple from a row of equal CC
        signature with count >= 2: no extra tuple, no CC count moves."""
        sch = toy_schema()
        summaries = {
            "r": ViewSolution(("a", "b", "c", "d"), [((7, 1, 2, 3), 100)]),
            "s": ViewSolution(("a", "b"), [((0, 0), 5), ((60, 0), 3)]),
            "t": ViewSolution(("c",), [((2,), 150)]),
        }
        before = self._cc_counts(summaries["s"])
        extras = make_consistent(sch, summaries, self.S_CCS)
        assert extras["s"] == 0
        assert summaries["s"].rows == [((0, 0), 4), ((7, 1), 1), ((60, 0), 3)]
        assert self._cc_counts(summaries["s"]) == before == [8, 5]

    @pytest.mark.parametrize(
        "rows", [[((0, 0), 1), ((60, 0), 5)], [((60, 0), 6)]], ids=["count-1", "other-signature"]
    )
    def test_no_donor_adds_an_extra_tuple(self, rows):
        """A row of count 1, or of another CC signature, gives nothing."""
        sch = toy_schema()
        summaries = {
            "r": ViewSolution(("a", "b", "c", "d"), [((7, 1, 2, 3), 100)]),
            "s": ViewSolution(("a", "b"), list(rows)),
            "t": ViewSolution(("c",), [((2,), 150)]),
        }
        extras = make_consistent(sch, summaries, self.S_CCS)
        assert extras["s"] == 1
        assert sorted(summaries["s"].rows) == sorted(rows + [((7, 1), 1)])


def _reference_make_consistent(schema, summaries, view_ccs) -> dict[str, int]:
    """Referential repair as it was before the CC signatures were computed
    column-wise: one ``Predicate.matches_point`` call per CC and point, a
    signature per donor row while indexing them and per missing combination
    while repairing."""

    def signature(ccs, attrs, vals):
        point = dict(zip(attrs, vals))
        return tuple(cc.predicate.matches_point(point) for cc in ccs)

    extras = {r: 0 for r in schema.relations}
    keysets = {v: {vals for vals, _ in s.rows} for v, s in summaries.items()}
    for rel in schema.reverse_topo_order():
        vi = summaries[rel]
        for target in sorted(schema.dependencies(rel)):
            vj, ccs = summaries[target], view_ccs[target]
            missing = set(vi.project(vj.attrs)) - keysets[target]
            donors = {}
            for i, (vals, c) in enumerate(vj.rows):
                if c >= 2:
                    donors.setdefault(signature(ccs, vj.attrs, vals), []).append(i)
            for combo in sorted(missing):
                for di in donors.get(signature(ccs, vj.attrs, combo), []):
                    vals, c = vj.rows[di]
                    if c >= 2:
                        vj.rows[di] = (vals, c - 1)
                        break
                else:
                    extras[target] += 1
                vj.rows.append((combo, 1))
                keysets[target].add(combo)
        vi.coalesce()
    for s in summaries.values():
        s.coalesce()
    return extras


#: name: ((schema, client DB, queries) makers, CC scale)
REPAIR_CASES = {
    "wlc-101": GOLDEN["wlc-101"][:2],
    "wls-202": (TREE_PLANS["wls-202"], 1),
    "job-lite-303-x10": GOLDEN["job-lite-303-x10"][:2],
}


@pytest.mark.parametrize("name", sorted(REPAIR_CASES))
def test_make_consistent_equals_per_point_reference(name):
    """Column-wise signatures repair exactly as the per-point loop: the same
    extra tuples, and every view's rows equal, in order."""
    (make_schema, make_db, make_queries), scale = REPAIR_CASES[name]
    schema, db = make_schema(), make_db()
    ccs = hydra.scale_ccs(workload.client_ccs(schema, db, make_queries()), scale)
    forms = {view: solve_view(formulate_view(plan))
             for view, plan in plan_views(schema, ccs).items()}
    view_ccs = {view: list(form.plan.ccs) for view, form in forms.items()}
    got = view_summaries_from_formulations(forms)
    want = view_summaries_from_formulations(forms)
    extras = make_consistent(schema, got, view_ccs)
    assert extras == _reference_make_consistent(schema, want, view_ccs)
    assert sum(extras.values()) > 0
    assert {v: s.rows for v, s in got.items()} == {v: s.rows for v, s in want.items()}


class TestToyEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        sch = toy_schema()
        tables = toy_client_data()
        raw = derive_ccs_pandas(sch, tables, toy_queries())
        raw = base_size_ccs(sch, {k: len(v) for k, v in tables.items()}, raw)
        ccs = rewrite_ccs(sch, raw)
        return sch, ccs, regenerate(sch, ccs)

    def test_timings_per_view_sum_to_stage_totals(self, result):
        _, _, res = result
        t = res.timings
        assert list(t.views) == list(res.formulations)
        assert sum(f for f, _ in t.views.values()) == pytest.approx(t.formulate_s)
        assert sum(s for _, s in t.views.values()) == pytest.approx(t.solve_s)

    def test_relation_sizes_close_to_original(self, result):
        sch, ccs, res = result
        # r is exact; s and t may gain repair tuples (positive-only error).
        tot = {r: s.total_rows for r, s in res.summary.relations.items()}
        assert tot["r"] == 8000
        assert 700 <= tot["s"] <= 700 + res.summary.extra_tuples["s"]
        assert 150 <= tot["t"] <= 150 + res.summary.extra_tuples["t"]

    def test_all_ccs_satisfied_on_regenerated_data(self, result):
        sch, ccs, res = result
        relations = database_to_pandas(sch, res.summary)
        errors = achieved_counts_pandas(sch, relations, ccs)
        # Hydra's claim: near-exact, with only positive slack from repair
        # tuples and rounding.
        assert max_abs_error(errors) <= 0.02
        exact = sum(1 for e in errors if e.achieved == e.cc.count)
        assert exact >= int(0.8 * len(errors))

    def test_fks_respect_referential_integrity(self, result):
        sch, ccs, res = result
        relations = database_to_pandas(sch, res.summary)
        r, s, t = relations["r"], relations["s"], relations["t"]
        assert r["s_fk"].isin(set(s["s_pk"])).all()
        assert r["t_fk"].isin(set(t["t_pk"])).all()

    def test_fk_joins_reconstruct_view_values(self, result):
        """Joining regenerated r with s must reproduce exactly the borrowed
        attribute values the summary assigned — FK positions are correct."""
        sch, ccs, res = result
        relations = database_to_pandas(sch, res.summary)
        joined = relations["r"].merge(
            relations["s"], left_on="s_fk", right_on="s_pk"
        )
        assert len(joined) == len(relations["r"])
        # Spot-check a CC through the join against its summary-level count.
        pred = Predicate.of(a=(20, 60))
        target = next(
            cc for cc in ccs if cc.tables == {"r", "s"} and cc.predicate == pred
        )
        assert abs(int(pred.mask(joined).sum()) - target.count) <= max(
            1, 0.02 * target.count
        )

    def test_pks_are_dense_row_numbers(self, result):
        sch, ccs, res = result
        relations = database_to_pandas(sch, res.summary)
        for name, pdf in relations.items():
            pk = sch[name].pk
            assert pdf[pk].tolist() == list(range(1, len(pdf) + 1))

    def test_summary_is_small(self, result):
        sch, ccs, res = result
        # Data-scale-free summary: thousands of tuples, handful of rows.
        assert res.summary.size_rows() < 500

    def test_extras_are_scale_free_magnitude(self, result):
        sch, ccs, res = result
        assert sum(res.summary.extra_tuples.values()) < 100


class TestDecodeRows:
    def test_decode_matches_cumulative_semantics(self):
        from repro.core.summary import RelationSummary

        frame = pd.DataFrame({"a": [10, 20, 30], "numtuples": [2, 3, 1]})
        rs = RelationSummary("x", frame)
        got = decode_rows(rs, np.array([1, 2, 3, 5, 6]))
        assert got["a"].tolist() == [10, 10, 20, 20, 30]

    def test_out_of_range_pk_rejected(self):
        from repro.core.summary import RelationSummary

        rs = RelationSummary("x", pd.DataFrame({"a": [1], "numtuples": [3]}))
        with pytest.raises(IndexError):
            decode_rows(rs, np.array([4]))
        with pytest.raises(IndexError):
            decode_rows(rs, np.array([0]))

    def test_paper_figure5_example(self):
        """'the 120th row of relation S in Figure 5 would be ⟨120, 20, 15⟩':
        S has rows 1-100 (A=10,B=5) and 101-250 (A=20,B=15)."""
        from repro.core.summary import RelationSummary

        frame = pd.DataFrame(
            {"a": [10, 20], "b": [5, 15], "numtuples": [100, 150]}
        )
        rs = RelationSummary("s", frame)
        got = decode_rows(rs, np.array([120]))
        assert got.iloc[0].tolist() == [20, 15]
