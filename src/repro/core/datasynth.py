"""DataSynth baseline (Arasu et al., 2011) as described by the HYDRA paper.

Differences from HYDRA, all reproduced here because every evaluation table
compares against them:

- **Grid-partitioning** LP formulation: :func:`regenerate` plans the views
  as HYDRA does, then builds each view's LP on the grid
  (``formulate_view(plan, mode="grid")``, ∏ℓᵢ variables per sub-view) and
  solves it; the LP solver fails beyond a cap (paper: Z3 crash on WLc).
- **Sampling-based instantiation** (§3.2, §5.1): instead of deterministic
  align/merge on summaries, DataSynth materializes each *view instance* by
  sampling tuples from the solved sub-views, in the merge order of the
  view's junction tree (``ViewPlan.tree``): each sub-view's new attributes
  come from its distribution over cells conditioned on the attributes
  already sampled, so the first sub-view of each connected component draws
  from Prob(cells) unconditioned.
  Sampling introduces multinomial noise, so CCs are satisfied only in
  expectation (both positive and negative errors; Fig 10).
- **Instance-level referential repair**: missing FK combinations are
  discovered by scanning the full materialized views, and the sampling
  noise inflates how many combos are missing (Fig 11) and how long the
  passes take (Fig 14).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from .constraints import CC
from .lp import ViewFormulation, formulate_view, solve_view
from .preprocess import plan_views
from .schema import Schema


@dataclass
class DataSynthResult:
    """Materialized relation instances plus the comparison metrics."""

    relations: dict[str, pd.DataFrame]
    formulations: dict[str, ViewFormulation]
    extra_tuples: dict[str, int]
    instantiate_s: float = 0.0


def regenerate(schema: Schema, ccs: list[CC]) -> dict[str, ViewFormulation]:
    """DataSynth's LP stage: each view's grid LP, solved.

    Raises :class:`repro.core.grid.GridTooLarge` when a sub-view's grid
    exceeds :data:`repro.core.grid.CELL_CAP` (the paper's WLc outcome).
    """
    return {
        view: solve_view(formulate_view(plan, mode="grid"))
        for view, plan in plan_views(schema, ccs).items()
    }


def _sample_view_instance(
    form: ViewFormulation, rng: np.random.Generator
) -> pd.DataFrame:
    """Sample one full view instance from the solved sub-view distributions.

    Implements the paper's description of DataSynth: for each sub-view, in
    the junction-tree order ``subview_solutions`` gives, sample the new
    attributes of every tuple from the sub-view's distribution conditioned
    on the tuple's values of the attributes already sampled. The first
    sub-view of a connected component shares no attribute with those, so
    all tuples form one group and draw from Prob over its cells. Values are
    cell left boundaries, matching the granularity both systems instantiate
    at.
    """
    n = form.plan.total
    inst: dict[str, np.ndarray] = {}
    for sub in form.subview_solutions():
        common = [a for a in sub.attrs if a in inst]
        new = [a for a in sub.attrs if a not in inst]
        if not new:
            continue
        vals = np.array(sub.project(new), dtype=np.int64)
        counts = np.array([c for _, c in sub.rows], dtype=np.float64)
        rows_of: dict[tuple, list[int]] = {}
        for r, key in enumerate(sub.project(common)):
            rows_of.setdefault(key, []).append(r)
        # The instance's groups of equal shared values, in the order pandas'
        # groupby(sort=False) gives them: by each column's first-appearance
        # code, column after column.
        codes = np.zeros((n, len(common)), dtype=np.int64)
        for k, a in enumerate(common):
            codes[:, k] = pd.factorize(inst[a])[0]
        _, firsts, group = np.unique(codes, axis=0, return_index=True, return_inverse=True)
        members = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
        out = np.zeros((n, len(new)), dtype=np.int64)
        for first, idxs in zip(firsts, members):
            g = rows_of.get(tuple(int(inst[a][first]) for a in common))
            if g is None:
                # Sampled a shared combo the other sub-view never produced
                # (possible only via rounding slack): fall back to the
                # overall marginal, as DataSynth's sampler effectively does.
                g_vals, g_p = vals, counts / counts.sum()
            else:
                g_vals, g_p = vals[g], counts[g] / counts[g].sum()
            draws = rng.multinomial(len(idxs), g_p)
            rows = np.repeat(np.arange(len(g_p)), draws)
            rng.shuffle(rows)
            out[idxs] = g_vals[rows]
        for k, a in enumerate(new):
            inst[a] = out[:, k]
    # Canonical view attribute order; n rows also when the view has no attributes.
    return pd.DataFrame({a: inst[a] for a in form.plan.attrs if a in inst}, index=pd.RangeIndex(n))


def _extract_relations(
    schema: Schema, instances: dict[str, pd.DataFrame]
) -> tuple[dict[str, pd.DataFrame], dict[str, int]]:
    """Instance-level referential repair + relation extraction.

    Mirrors §5.3/§5.4 but over full materialized views: dependents first,
    append a tuple to the referenced view for every distinct combination
    it lacks, in the order the combinations first appear; then assign FKs
    by matching value combinations to referenced row positions (first
    match), PK = row position. Combinations are matched on the referenced
    view's attributes plus a constant column, so that a view with no
    attributes has one (empty) combination.
    """

    def combos(frame: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
        return frame[cols].assign(_k=0)

    extras = {r: 0 for r in schema.relations}
    for rel in schema.reverse_topo_order():
        vi = instances[rel]
        for target in sorted(schema.dependencies(rel)):
            vj = instances[target]
            tcols = list(vj.columns)
            need = combos(vi, tcols).drop_duplicates()
            found = need.merge(combos(vj, tcols).drop_duplicates(), how="left",
                               on=tcols + ["_k"], indicator=True)
            missing = need[(found["_merge"] == "left_only").to_numpy()].drop(columns="_k")
            if len(missing):
                instances[target] = pd.concat([vj, missing], ignore_index=True)
                extras[target] += len(missing)

    relations: dict[str, pd.DataFrame] = {}
    for rel_name in schema.topo_order():
        rel = schema[rel_name]
        vi = instances[rel_name]
        out = pd.DataFrame({rel.pk: np.arange(1, len(vi) + 1, dtype=np.int64)})
        for fk in sorted(rel.fks):
            vj = instances[rel.fks[fk]]
            tcols = list(vj.columns)
            first = combos(vj, tcols).assign(_pos=np.arange(1, len(vj) + 1))
            first = first.drop_duplicates(tcols + ["_k"])
            out[fk] = combos(vi, tcols).merge(first, how="left", on=tcols + ["_k"])["_pos"].to_numpy()
        for a in rel.attrs:
            out[a.name] = vi[a.name].to_numpy()
        relations[rel_name] = out
    return relations, extras


def regenerate_datasynth(
    schema: Schema,
    ccs: list[CC],
    *,
    seed: int = 0,
) -> DataSynthResult:
    """Full DataSynth pipeline: grid LP → sampled views → relations.

    Raises :class:`repro.core.grid.GridTooLarge` when a sub-view's grid
    exceeds :data:`repro.core.grid.CELL_CAP` (the paper's WLc outcome).
    """
    forms = regenerate(schema, ccs)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    instances = {view: _sample_view_instance(form, rng) for view, form in forms.items()}
    relations, extras = _extract_relations(schema, instances)
    inst_s = time.perf_counter() - t0
    return DataSynthResult(
        relations=relations,
        formulations=forms,
        extra_tuples=extras,
        instantiate_s=inst_s,
    )
