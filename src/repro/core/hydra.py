"""HYDRA end-to-end driver: CCs in, database summary out (paper §3).

``regenerate`` wires the vendor-site pipeline together: preprocessor
(views, sub-views and their junction tree) → LP formulation
(region-partitioning) → solver → deterministic summary generation, which
merges each view's sub-views along the plan's tree. The DataSynth baseline
runs its own grid LP (:func:`repro.core.datasynth.regenerate`). Timings for each stage
are recorded because the paper's headline results (Figs 13/14, §7.4) are
stage wall-clock times; variable counts per view feed Figs 12/17.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .constraints import CC
from .lp import ViewFormulation, formulate_view, solve_view
from .preprocess import plan_views
from .schema import Schema
from .summary import DatabaseSummary, build_database_summary


@dataclass
class Timings:
    formulate_s: float = 0.0
    solve_s: float = 0.0
    summary_s: float = 0.0
    #: view name → (formulate_s, solve_s) of that view
    views: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def lp_s(self) -> float:
        return self.formulate_s + self.solve_s

    @property
    def total_s(self) -> float:
        return self.lp_s + self.summary_s


@dataclass
class HydraResult:
    """Everything downstream experiments need from one regeneration run."""

    summary: DatabaseSummary
    formulations: dict[str, ViewFormulation]
    timings: Timings = field(default_factory=Timings)

    def n_vars_total(self) -> int:
        return sum(f.n_vars for f in self.formulations.values())


def regenerate(schema: Schema, ccs: list[CC]) -> HydraResult:
    """Run the full vendor-site pipeline and build the database summary."""
    timings = Timings()
    plans = plan_views(schema, ccs)
    forms: dict[str, ViewFormulation] = {}
    for view, plan in plans.items():
        t0 = time.perf_counter()
        form = formulate_view(plan)
        t1 = time.perf_counter()
        solve_view(form)
        t2 = time.perf_counter()
        timings.formulate_s += t1 - t0
        timings.solve_s += t2 - t1
        timings.views[view] = (t1 - t0, t2 - t1)
        forms[view] = form
    t0 = time.perf_counter()
    summary = build_database_summary(schema, forms)
    timings.summary_s = time.perf_counter() - t0
    return HydraResult(summary=summary, formulations=forms, timings=timings)


def scale_ccs(ccs: list[CC], factor: float) -> list[CC]:
    """Scale every CC count by ``factor`` (≥ 1 stays integral by rounding).

    This is the §7.4 exabyte experiment's CODD step: plans are obtained at
    the target metadata scale and intermediate row counts are multiplied by
    the scale factor. Summary construction cost must not change.
    """
    return [
        CC(
            view=cc.view,
            predicate=cc.predicate,
            count=int(round(cc.count * factor)),
            tables=cc.tables,
        )
        for cc in ccs
    ]
