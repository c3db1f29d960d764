"""Checks on the real substrates: JOB-lite and TPC-DS-lite WLs at SF 0.01.

The LP's consistency constraints key each region by its own interval on a
shared attribute. That is exact only if every such interval is one cell of
the grid cut at the CCs' constants on that attribute, in both partitioning
modes; this module checks it on every view of both workloads. It also
rebuilds every view's LP rows from the per-region definition and pins them,
in order, to the rows the LP builder makes from the region arrays.

CCs come from query-ordered plans (each AQP's own table order), achieved
counts from set-ordered plans (:func:`repro.core.workload.join_order`).
Re-measuring every CC on the client database it was derived from checks
that both choose the same FK edges on the real schemas.

Finally, the whole summary that ``regenerate`` builds is pinned, byte for
byte, on WLc, WLs and JOB-lite: a change to the partitioner, the LP or the
solver that moves any LP vertex shows there. DataSynth's sampled relations
are pinned the same way on WLs and JOB-lite, for one sampling seed. Each
view plan's junction tree is checked on WLc, WLs and JOB-lite.
"""
import hashlib
import itertools
import json

import numpy as np
import pandas as pd
import pytest

from repro.core import hydra, metrics, preprocess, tuplegen, workload
from repro.core.constraints import Interval
from repro.core.datasynth import regenerate_datasynth
from repro.core.grid import attribute_intervals
from repro.core.lp import formulate_view
from repro.job import generator as job_generator
from repro.job.schema import job_schema
from repro.job.workload import make_job_workload
from repro.tpcds import generator as tpcds_generator
from repro.tpcds.schema import tpcds_schema
from repro.tpcds.workload import make_wlc, make_wls

SUBSTRATES = {
    "job-lite": (job_schema, job_generator.generate_client_db, lambda: make_job_workload(40)),
    "wls": (tpcds_schema, tpcds_generator.generate_client_db, lambda: make_wls(80)),
}


def derive_client(name: str):
    """(schema, client DB, CCs derived on it) of one substrate at SF 0.01"""
    make_schema, make_db, make_queries = SUBSTRATES[name]
    schema = make_schema()
    db = make_db(0.01)
    return schema, db, workload.client_ccs(schema, db, make_queries())


@pytest.fixture(scope="module", params=sorted(SUBSTRATES))
def client(request):
    return derive_client(request.param)


@pytest.fixture(scope="module")
def plans(client):
    schema, _, ccs = client
    return preprocess.plan_views(schema, ccs)


def test_client_db_witnesses_every_cc(client):
    schema, db, ccs = client
    errs = metrics.achieved_counts_pandas(schema, db, ccs)
    assert [e.achieved for e in errs] == [cc.count for cc in ccs]
    assert any(len(cc.tables) > 2 for cc in ccs)


def boundary_cells(plan) -> dict[str, set[tuple[int, int]]]:
    """Per shared attribute, the cells of the grid cut at the constants of
    every CC some sub-view expresses, and at the domain edges."""
    count: dict[str, int] = {}
    for sv in plan.subviews:
        for a in sv:
            count[a] = count.get(a, 0) + 1
    cuts = {a: {plan.domain[a].lo, plan.domain[a].hi} for a, n in count.items() if n > 1}
    for cc in plan.ccs:
        if not any(cc.predicate.attrs <= set(sv) for sv in plan.subviews):
            continue
        for conj in cc.predicate.conjuncts:
            for a, iv in conj.restrictions:
                if a in cuts:
                    dom = plan.domain[a]
                    cuts[a] |= {p for p in (iv.lo, iv.hi) if dom.lo < p < dom.hi}
    return {a: set(zip(sorted(c), sorted(c)[1:])) for a, c in cuts.items()}


@pytest.mark.parametrize("mode", ["region", "grid"])
def test_shared_intervals_are_boundary_cells(plans, mode):
    n_checked = 0
    for plan in plans.values():
        cells = boundary_cells(plan)
        form = formulate_view(plan, mode=mode)
        for s in form.subviews:
            for a in (a for a in s.attrs if a in cells):
                intervals = {(r.box[a].lo, r.box[a].hi) for r in s.regions}
                assert intervals <= cells[a], (plan.view, s.attrs, a)
                n_checked += len(intervals)
    assert n_checked > 0


def test_grid_cells_in_product_order_labelled_per_box(plans):
    """Grid mode at workload scale: every sub-view's regions are the
    ``itertools.product`` of its per-attribute intervals (a shared attribute
    cut at its boundary cells), each cell labelled with the sub-view's CCs
    that ``matches_box`` holds on it."""
    n_cells = 0
    for plan in plans.values():
        cells = boundary_cells(plan)
        form = formulate_view(plan, mode="grid")
        for s in form.subviews:
            ccs = [plan.ccs[i] for i in s.ccs]
            per_attr = [
                [Interval(lo, hi) for lo, hi in sorted(cells[a])]
                if a in cells
                else attribute_intervals(a, plan.domain[a], ccs)
                for a in s.attrs
            ]
            expected = []
            for combo in itertools.product(*per_attr):
                box = dict(zip(s.attrs, combo))
                label = frozenset(i for i in s.ccs if plan.ccs[i].predicate.matches_box(box))
                expected.append((box, label))
            assert [(r.box, r.label) for r in s.regions] == expected, (plan.view, s.attrs)
            n_cells += len(expected)
    assert n_cells > 0


def oracle_rows(form) -> list[tuple[list[tuple[int, float]], float]]:
    """A view's LP rows from the per-region definition, iterating regions:
    per sub-view its sum row, then a row per CC over the regions whose label
    holds it; then per sub-view pair one consistency row per shared cell,
    in ``set(cells1) | set(cells2)`` order of the nested-tuple cell keys."""
    plan = form.plan
    rows = []
    for s in form.subviews:
        regions = list(s.regions)
        rows.append(([(s.offset + i, 1.0) for i in range(len(regions))], float(plan.total)))
        for cc_idx in s.ccs:
            terms = [(s.offset + i, 1.0) for i, r in enumerate(regions) if cc_idx in r.label]
            rows.append((terms, float(plan.ccs[cc_idx].count)))

    def cells(s, common):
        out = {}
        for i, r in enumerate(s.regions):
            key = tuple((r.box[a].lo, r.box[a].hi) for a in common)
            out.setdefault(key, []).append(s.offset + i)
        return out

    for s1, s2 in itertools.combinations(form.subviews, 2):
        common = tuple(a for a in s1.attrs if a in s2.attrs)
        if not common:
            continue
        cells1, cells2 = cells(s1, common), cells(s2, common)
        for cell in set(cells1) | set(cells2):
            terms = [(i, 1.0) for i in cells1.get(cell, [])]
            terms += [(i, -1.0) for i in cells2.get(cell, [])]
            rows.append((terms, 0.0))
    return rows


@pytest.mark.parametrize("mode", ["region", "grid"])
def test_lp_rows_equal_per_region_oracle(plans, mode):
    """Same rows, terms and order as the oracle, so the simplex takes the
    same path whatever the builder's data layout."""
    n_consistency = 0
    for plan in plans.values():
        form = formulate_view(plan, mode=mode)
        expected = oracle_rows(form)
        assert [(list(t), rhs) for t, rhs in form.system.rows] == expected, plan.view
        n_consistency += sum(1 for t, rhs in expected if any(c < 0 for _, c in t))
    assert n_consistency > 0


@pytest.mark.spark
def test_job_lite_x10_generated_equals_driver_decode(spark):
    """Every JOB-lite relation of the summary regenerated from the CCs ×10,
    generated on Spark, equals the driver-side decode row for row."""
    schema, _, ccs = derive_client("job-lite")
    summary = hydra.regenerate(schema, hydra.scale_ccs(ccs, 10)).summary
    for rel in summary.relations:
        pk = schema[rel].pk
        df = tuplegen.generate_relation(spark, schema, summary, rel)
        assert df.schema == tuplegen.relation_schema(schema, rel)
        got = df.toPandas().sort_values(pk).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, tuplegen.relation_to_pandas(schema, summary, rel))


def frames_digest(frames: dict[str, pd.DataFrame], extra_tuples: dict[str, int]) -> str:
    """sha256 over each frame's name, columns and int64 values, in name
    order, then the extra tuples."""
    h = hashlib.sha256()
    for name in sorted(frames):
        frame = frames[name]
        h.update(f"{name}:{','.join(frame.columns)}".encode())
        h.update(np.ascontiguousarray(frame.to_numpy(dtype=np.int64)).tobytes())
    h.update(json.dumps(sorted(extra_tuples.items())).encode())
    return h.hexdigest()


def summary_digest(summary) -> str:
    """The relation summaries' digest (the benchmark's digest)."""
    frames = {name: r.frame for name, r in summary.relations.items()}
    return frames_digest(frames, summary.extra_tuples)


def _tpcds(sf, queries):
    return tpcds_schema, lambda: tpcds_generator.generate_client_db(sf, seed=0), queries


_JOB = (job_schema, lambda: job_generator.generate_client_db(0.01, seed=7),
        lambda: make_job_workload(40, seed=303))

#: name: ((schema, client DB, queries) makers, CC scale, summary digest)
GOLDEN = {
    "wlc-101": (_tpcds(0.01, lambda: make_wlc(80, seed=101)), 1,
                "3f9da8f2b66e2c927fa2982dfeb02e4ff3fd3f925f45ae3e09a2b945014c1e3d"),
    "wlc-104": (_tpcds(0.01, lambda: make_wlc(80, seed=104)), 1,
                "194c8a0622c6ae0bf515f5debc99abafe479b9c5a284a8f6c78f9b20b6ec002e"),
    "wls-202-sf0.1": (_tpcds(0.1, lambda: make_wls(80, seed=202)), 1,
                      "d13df3fb6a0c881ff1ddd75c18a72f0c6e3324c58ccbf8db6f08384cf02ffcd8"),
    "job-lite-303": (_JOB, 1,
                     "180565b65d56d1dbe7bd36c9a1d8613abd6a89396872796b536c5b6398531b8b"),
    "job-lite-303-x10": (_JOB, 10,
                         "ec068b439a2369b815007b9a92262253cff7714481012921b1ef6c4a74938d9e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_summary_digest_is_pinned(name):
    (make_schema, make_db, make_queries), scale, digest = GOLDEN[name]
    schema, db = make_schema(), make_db()
    ccs = hydra.scale_ccs(workload.client_ccs(schema, db, make_queries()), scale)
    assert summary_digest(hydra.regenerate(schema, ccs).summary) == digest


#: name: ((schema, client DB, queries) makers, digest of DataSynth's relations at seed 3)
DATASYNTH_GOLDEN = {
    "job-lite-303": (_JOB, "b6a8b9f627a03645cd79200c53756e382ef5ccb89806934864059cc2c0d39315"),
    "wls-202": (_tpcds(0.01, lambda: make_wls(80, seed=202)),
                "203553d96c68323da2e31f8bc517e4a0e5f994e07990ccba1c0250441f0084d8"),
}


@pytest.mark.parametrize("name", sorted(DATASYNTH_GOLDEN))
def test_datasynth_relations_digest_is_pinned(name):
    (make_schema, make_db, make_queries), digest = DATASYNTH_GOLDEN[name]
    schema, db = make_schema(), make_db()
    result = regenerate_datasynth(schema, workload.client_ccs(schema, db, make_queries()), seed=3)
    assert frames_digest(result.relations, result.extra_tuples) == digest


#: name: (schema, client DB, queries) makers of the plans whose junction trees are checked
TREE_PLANS = {
    "wlc-101": GOLDEN["wlc-101"][0],
    "wls-202": _tpcds(0.01, lambda: make_wls(80, seed=202)),
    "job-lite-303": _JOB,
}


@pytest.mark.parametrize("name", sorted(TREE_PLANS))
def test_plan_tree_lists_every_subview_once_with_rip(name):
    """``ViewPlan.tree`` is a merge order of all sub-views in which each
    sub-view's overlap with the earlier ones lies in its parent."""
    make_schema, make_db, make_queries = TREE_PLANS[name]
    schema, db = make_schema(), make_db()
    plans = preprocess.plan_views(schema, workload.client_ccs(schema, db, make_queries()))
    for plan in plans.values():
        order = [i for i, _ in plan.tree]
        assert sorted(order) == list(range(len(plan.subviews)))
        for k, (i, parent) in enumerate(plan.tree):
            earlier = {a for j in order[:k] for a in plan.subviews[j]}
            common = set(plan.subviews[i]) & earlier
            if parent is None:
                assert not common
            else:
                assert parent in order[:k] and common <= set(plan.subviews[parent])
