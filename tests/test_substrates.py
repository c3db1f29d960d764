"""Checks on the real substrates: JOB-lite and TPC-DS-lite WLs at SF 0.01.

The LP's consistency constraints key each region by its own interval on a
shared attribute. That is exact only if every such interval is one cell of
the grid cut at the CCs' constants on that attribute, in both partitioning
modes; this module checks it on every view of both workloads.

CCs come from query-ordered plans (each AQP's own table order), achieved
counts from set-ordered plans (:func:`repro.core.workload.join_order`).
Re-measuring every CC on the client database it was derived from checks
that both choose the same FK edges on the real schemas.
"""
import pytest

from repro.core import metrics, preprocess, workload
from repro.core.lp import formulate_view
from repro.job import generator as job_generator
from repro.job.schema import job_schema
from repro.job.workload import make_job_workload
from repro.tpcds import generator as tpcds_generator
from repro.tpcds.schema import tpcds_schema
from repro.tpcds.workload import make_wls

SUBSTRATES = {
    "job-lite": (job_schema, job_generator.generate_client_db, lambda: make_job_workload(40)),
    "wls": (tpcds_schema, tpcds_generator.generate_client_db, lambda: make_wls(80)),
}


@pytest.fixture(scope="module", params=sorted(SUBSTRATES))
def client(request):
    """(schema, client DB, CCs derived on it)"""
    make_schema, make_db, make_queries = SUBSTRATES[request.param]
    schema = make_schema()
    db = make_db(0.01)
    raw = workload.derive_ccs_pandas(schema, db, make_queries())
    raw = workload.base_size_ccs(schema, {r: len(df) for r, df in db.items()}, raw)
    return schema, db, preprocess.rewrite_ccs(schema, raw)


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
