"""Per-layer numbers of a traced run, from its spans and captured values."""
from __future__ import annotations

import itertools
import statistics

import numpy as np

from repro.core import align, lp, metrics


def _label_regions(forms) -> int:
    """Regions of each sub-view partitioned on its CC labels alone."""
    n = 0
    for form in forms.values():
        for s in form.subviews:
            domain = {a: form.plan.domain[a] for a in s.attrs}
            ccs = [form.plan.ccs[i] for i in s.ccs]
            n += len(lp.partition_lp_regions(s.attrs, domain, ccs, (), {}))
    return n


def _residual_max(forms) -> float:
    """max |A·x − b| over the rounded solutions of every view's LP."""
    worst = 0.0
    for form in forms.values():
        x = form.solution
        for terms, rhs in form.system.rows:
            if terms:
                idx, coef = zip(*terms)
                v = float(np.dot(x[list(idx)], coef))
            else:
                v = 0.0
            worst = max(worst, abs(v - rhs))
    return worst


def _rip_breaks(sols) -> int:
    """Sub-views, in align order, that share no attribute with the earlier
    ones yet overlap a later one."""
    order = [set(s.attrs) for s in align.order_subviews(sols)]
    breaks = 0
    for i in range(1, len(order)):
        earlier = set().union(*order[:i])
        later = set().union(*order[i + 1:]) if i + 1 < len(order) else set()
        if not order[i] & earlier and order[i] & later:
            breaks += 1
    return breaks


def _view_rows_exact(view_rows, forms) -> tuple[int, int]:
    exact = total = 0
    for view, (attrs, rows) in view_rows.items():
        for cc in forms[view].plan.ccs:
            got = sum(
                c for vals, c in rows if cc.predicate.matches_point(dict(zip(attrs, vals)))
            )
            exact += got == cc.count
            total += 1
    return exact, total


def per_layer(run, tracer):
    """Return (metrics, detail lines) for a traced :class:`pipeline.Run`."""
    art = run.artifacts
    supplied = art["supplied"]
    forms = supplied.formulations
    stage = tracer.last("stage.regen_traced_s")
    sub = tracer.subtree(stage)
    regen_span = next(s for s in sub if s.name == "hydra.regenerate")
    total = tracer.total

    formulate = {
        tracer.captured[s.id]: s.duration for s in sub if s.name == "lp.formulate_view"
    }
    solve = {tracer.captured[s.id]: s.duration for s in sub if s.name == "solver.solve_view"}
    n_vars = sum(f.n_vars for f in forms.values())
    label_regions = _label_regions(forms)
    sep = [
        len(set(a) & set(b))
        for f in forms.values()
        for a, b in itertools.combinations(f.plan.subviews, 2)
    ]
    fractional = 0
    for s in sub:
        if s.name == "solver.solve_feasible":
            x = tracer.captured[s.id]
            fractional += int(np.count_nonzero(np.abs(x - np.rint(x)) > 1e-9))
    rip = sum(
        _rip_breaks(tracer.captured[s.id]) for s in sub if s.name == "align.build_view_solution"
    )
    view_rows = next(
        tracer.captured[s.id] for s in sub if s.name == "summary.view_summaries_from_formulations"
    )
    exact, n_ccs = _view_rows_exact(view_rows, forms)

    ds = art["datasynth"]
    ds_errs = metrics.achieved_counts_pandas(run.schema, ds.relations, art["datasynth_ccs"])
    ds_neg, ds_zero, _ = metrics.signed_error_split(ds_errs)
    summary = supplied.summary
    all_spans = tracer.spans

    values = {
        "preprocess.plan_s": total(sub, "preprocess.plan_views"),
        "preprocess.subviews": sum(len(f.plan.subviews) for f in forms.values()),
        "preprocess.max_separator_attrs": max(sep, default=0),
        "regions.partition_s": total(sub, "regions.partition_lp_regions"),
        "regions.label_regions": label_regions,
        "lp.formulate_s": sum(formulate.values()),
        "lp.formulate_max_view_s": max(formulate.values()),
        "lp.vars": n_vars,
        "lp.rows": sum(len(f.system.rows) for f in forms.values()),
        "lp.nnz": sum(len(t) for f in forms.values() for t, _ in f.system.rows),
        "lp.vars_per_label_region": n_vars / label_regions,
        "grid.vars_analytic": sum(f.grid_vars_analytic for f in forms.values()),
        "grid.vars": sum(f.n_vars for f in ds.formulations.values()),
        "solver.solve_s": total(sub, "solver.solve_view"),
        "solver.fractional_vars": fractional,
        "solver.residual_max": _residual_max(forms),
        "align.s": total(sub, "align.build_view_solution"),
        "align.rip_breaks": rip,
        "align.cc_exact_frac": exact / n_ccs,
        "summary.repair_s": total(sub, "summary.make_consistent"),
        "summary.extract_s": total(sub, "summary.extract_relation_summaries"),
        "summary.extra_tuples": sum(summary.extra_tuples.values()),
        "summary.rows": summary.size_rows(),
        "tuplegen.gen_s": art["tuplegen.gen"],
        "tuplegen.gen_cold_s": art["gen_cold_s"],
        "tuplegen.decode_pandas_s": total(all_spans, "tuplegen.database_to_pandas"),
        "materialize.write_s": art["materialize.write"],
        "materialize.bytes_per_row": art["bytes_per_row"],
        "materialize.scan_s": art["materialize.scan"],
        "datasynth.lp_s": total(all_spans, "datasynth.grid_lp"),
        "datasynth.instantiate_s": ds.instantiate_s,
        "datasynth.extra_tuples": sum(ds.extra_tuples.values()),
        "datasynth.cc_exact_frac": ds_zero / len(ds_errs),
        "datasynth.neg_errs": ds_neg,
        "workload.derive_s": total(tracer.subtree(tracer.last("stage.aqp_s")),
                                   "workload.derive_ccs_pandas"),
        "workload.raw_ccs": run.info["raw_ccs"],
        "metrics.eval_s": total(all_spans, "metrics.achieved_counts_pandas"),
        "metrics.ccs": len(art["ccs"]),
        "trace.regen_uncovered_s": tracer.self_time(regen_span),
        "trace.overhead_s": (statistics.median(run.samples["regen_traced_s"])
                             - statistics.median(run.samples["regen_untraced_s"])),
    }

    lines = ["per view (regen_s run): view  subviews  vars  rows  nnz  "
             "grid_analytic  formulate_s  solve_s  extra_tuples"]
    for view, f in forms.items():
        lines.append(
            f"  {view:18s} {len(f.plan.subviews):3d} {f.n_vars:8d} {len(f.system.rows):6d} "
            f"{sum(len(t) for t, _ in f.system.rows):9d} {f.grid_vars_analytic:12d} "
            f"{formulate.get(view, 0.0):9.4f} {solve.get(view, 0.0):9.4f} "
            f"{summary.extra_tuples.get(view, 0):5d}"
        )
    lines.append("spans: name  calls  total_s  self_s")
    for name, (calls, tot, self_s) in sorted(
        tracer.self_times().items(), key=lambda kv: -kv[1][2]
    ):
        lines.append(f"  {name:44s} {calls:5d} {tot:10.4f} {self_s:10.4f}")
    return values, lines
