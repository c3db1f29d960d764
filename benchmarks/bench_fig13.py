"""Fig 13 (LP processing time on WLc), per view: writes ``BENCH_fig13.json``.

For each WLc query seed (TPC-DS-lite at SF 0.01, 80 queries: seeds 101,
103 and 104) this runs :func:`repro.core.hydra.regenerate` :data:`CALLS`
times and records, per view, the median of its formulate and solve wall
times (``Timings.views``; one call's time of one layer can move by an
order of magnitude with a single pause), its
label-only region count (the sub-views partitioned on their CC labels
alone, the count the benchmark's ``regions.label_regions`` counter reports
in ``hydrabench/layers.py``; repeated here so this script needs only
``repro``), its LP variables, rows and nonzeros, and the analytic size of
DataSynth's grid (``∏ ℓᵢ`` summed over its sub-views, Fig 12), and
``exact_path``: whether phase 1 on the solver's exact revised state
finished the view's LP ("finished"), refused a pivot and restarted on the
dense tableau ("handed over"), or did not start there
(:func:`repro.core.solver.phase1_state` picked the dense tableau: the LP is
below :data:`repro.core.solver.REVISED_MIN_CELLS` or not integral). WLc-100 (``make_wlc()``'s
default: 100 queries) is formulated only: its store_sales LP hands over to
the dense tableau, whose solve takes minutes (ROADMAP item 2).

The paper reports HYDRA's LP processing on WLc at 58 s (TPC-DS 100 GB, 131
queries, Z3); DataSynth's grid LP crashed the solver. The numbers here come
from a different solver, query generator and scale, so they sit next to the
paper's, not against it.

    PYTHONPATH=src python3 benchmarks/bench_fig13.py
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.core import hydra, preprocess, solver, workload
from repro.core.lp import formulate_view
from repro.core.regions import partition_lp_regions
from repro.tpcds import generator as tpcds_generator
from repro.tpcds.schema import tpcds_schema
from repro.tpcds.workload import make_wlc

OUT = Path(__file__).resolve().parent / "BENCH_fig13.json"
SEEDS = (101, 103, 104)
#: ``regenerate`` calls per seed; every wall time recorded is their median.
CALLS = 3
PAPER = {
    "hydra_lp_s": 58,
    "datasynth": "solver crash",
    "setting": "TPC-DS 100 GB, 131-query WLc, Z3 (paper Fig 13)",
}
WLC100_SOLVE = "not run: store_sales needs the dense tableau, ROADMAP item 2"


def label_regions(form) -> int:
    """Regions of the view's sub-views partitioned on their CC labels alone."""
    n = 0
    for s in form.subviews:
        domain = {a: form.plan.domain[a] for a in s.attrs}
        n += len(partition_lp_regions(s.attrs, domain, [form.plan.ccs[i] for i in s.ccs], (), {}))
    return n


def exact_path(system) -> str:
    """How phase 1 fares on ``system`` when it starts on the solver's exact
    revised state."""
    state = solver.phase1_state(system)
    if not isinstance(state, solver._Exact):
        return "not tried"
    return "handed over" if solver._phase1(state, len(system.rows), system.n_vars) is None else "finished"


def lp_size(form) -> dict:
    return {
        "label_regions": label_regions(form),
        "lp_vars": form.n_vars,
        "lp_rows": len(form.system.rows),
        "lp_nnz": sum(len(t) for t, _ in form.system.rows),
        "grid_vars_analytic": form.grid_vars_analytic,
        "exact_path": exact_path(form.system),
    }


def totals(queries: int, seed: int, ccs, views: dict) -> dict:
    out = {"queries": queries, "query_seed": seed, "ccs": len(ccs)}
    for key in ("formulate_s", "label_regions", "lp_vars", "lp_rows", "lp_nnz",
                "grid_vars_analytic"):
        out[key] = round(sum(v[key] for v in views.values()), 3)
    return out


def run_wlc(seed: int) -> dict:
    """WLc with 80 queries of ``seed``, end to end, :data:`CALLS` times."""
    schema = tpcds_schema()
    ccs = workload.client_ccs(
        schema, tpcds_generator.generate_client_db(0.01, seed=0), make_wlc(80, seed=seed))
    results = [hydra.regenerate(schema, ccs) for _ in range(CALLS)]
    timings = [r.timings for r in results]

    def median(get, digits):
        return round(statistics.median(get(t) for t in timings), digits)

    views = {
        view: {"formulate_s": median(lambda t: t.views[view][0], 4),
               "solve_s": median(lambda t: t.views[view][1], 4), **lp_size(form)}
        for view, form in results[0].formulations.items()
    }
    out = totals(80, seed, ccs, views)
    out.update(calls=CALLS, solve_s=median(lambda t: t.solve_s, 3),
               summary_s=median(lambda t: t.summary_s, 3),
               regenerate_s=median(lambda t: t.total_s, 3), views=views)
    return out


def run_wlc100() -> dict:
    """``make_wlc()``'s 100 queries, formulate only."""
    schema = tpcds_schema()
    ccs = workload.client_ccs(schema, tpcds_generator.generate_client_db(0.01, seed=0), make_wlc())
    views = {}
    for view, plan in preprocess.plan_views(schema, ccs).items():
        t0 = time.perf_counter()
        form = formulate_view(plan)
        views[view] = {"formulate_s": round(time.perf_counter() - t0, 4),
                       "solve_s": WLC100_SOLVE, **lp_size(form)}
    out = totals(100, 101, ccs, views)
    out.update(solve_s=WLC100_SOLVE, views=views)
    return out


def main() -> None:
    runs = {}
    for seed in SEEDS:
        runs[f"wlc-{seed}"] = r = run_wlc(seed)
        print(f"wlc-{seed}: formulate {r['formulate_s']} s, solve {r['solve_s']} s, "
              f"{r['lp_vars']} vars", flush=True)
    runs["wlc-100q"] = r = run_wlc100()
    print(f"wlc-100q: formulate {r['formulate_s']} s, {r['lp_vars']} vars", flush=True)
    result = {
        "exhibit": "Fig 13: LP processing time on WLc",
        "paper": PAPER,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "scale": "TPC-DS-lite SF 0.01, client data seed 0",
        "runs": runs,
    }
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
