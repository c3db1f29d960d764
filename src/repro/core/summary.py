"""Database summary generation (paper §5.2–§5.4).

Pipeline after the per-view LP solutions are integrated by
:mod:`repro.core.align`:

- **Instantiate** (§5.2): every row already sits at its regions' left
  boundaries — the deterministic choice that minimizes later
  referential-integrity repair — so the merged points are only put in the
  view's attribute order, and equal-valued rows coalesced (summing
  NumTuples).
- **Referential repair** (§5.3): views are visited dependents-first
  (reverse topological order); any borrowed value combination missing from
  the referenced view's solution is added there with NumTuples = 1. The
  number of added tuples per relation is recorded — it is the paper's
  "extra tuples" metric (Fig 11) and is independent of data scale.
- **Relation summaries** (§5.4): per relation, own non-key attributes +
  NumTuples are projected out of the view solution; each FK value is the
  1-based cumulative-count position of the matching value combination in
  the referenced view's solution, so FK values land exactly on the PK range
  [1, N] of the referenced relation (PKs are implicit row numbers).

The result, :class:`DatabaseSummary`, is the minuscule artifact from which
the tuple generator regenerates relations of arbitrary size.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from .align import build_view_solution
from .lp import ViewFormulation
from .schema import Schema


@dataclass
class ViewSummary:
    """Instantiated view solution: value rows (tuples over attrs) + counts."""

    view: str
    attrs: tuple[str, ...]
    rows: list[tuple[tuple[int, ...], int]]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.rows)

    def coalesce(self) -> None:
        agg: dict[tuple[int, ...], int] = {}
        for v, c in self.rows:
            agg[v] = agg.get(v, 0) + c
        self.rows = sorted((v, c) for v, c in agg.items() if c > 0)


@dataclass
class RelationSummary:
    """One relation's summary: a tiny pandas frame + implicit PK ranges.

    ``frame`` columns: own non-key attributes, FK columns, ``numtuples``.
    Row *r* of the regenerated relation takes the values of the first
    summary row whose cumulative NumTuples reaches *r* (§6).
    """

    name: str
    frame: pd.DataFrame

    @property
    def total_rows(self) -> int:
        return int(self.frame["numtuples"].sum())


@dataclass
class DatabaseSummary:
    """The complete summary: one :class:`RelationSummary` per relation."""

    relations: dict[str, RelationSummary]
    #: extra tuples inserted per relation for referential integrity (Fig 11)
    extra_tuples: dict[str, int] = field(default_factory=dict)

    def size_rows(self) -> int:
        """Total summary rows — the 'minuscule' footprint the paper claims."""
        return sum(len(r.frame) for r in self.relations.values())


def view_summaries_from_formulations(
    forms: dict[str, ViewFormulation],
) -> dict[str, ViewSummary]:
    """Run align/merge for every solved view formulation; each summary's
    points are in the plan's view attribute order, coalesced."""
    out: dict[str, ViewSummary] = {}
    for view, form in forms.items():
        rows, attrs = build_view_solution(form.subview_solutions())
        canon = form.plan.attrs
        cols = [attrs.index(a) for a in canon]
        vs = ViewSummary(view, canon, [(tuple(p[k] for k in cols), c) for p, c in rows])
        vs.coalesce()
        out[view] = vs
    return out


def _signature(
    ccs: list, attrs: tuple[str, ...], vals: tuple[int, ...]
) -> tuple[bool, ...]:
    """CC-satisfaction signature of a value combination w.r.t. a view's CCs."""
    point = dict(zip(attrs, vals))
    return tuple(cc.predicate.matches_point(point) for cc in ccs)


def make_consistent(
    schema: Schema,
    summaries: dict[str, ViewSummary],
    view_ccs: dict[str, list] | None = None,
) -> dict[str, int]:
    """§5.3: referential repair, dependents first. Returns extras/relation.

    Improvement over the paper's plain "+1 row" repair (documented in
    DESIGN.md): a demanded-but-missing combination is first satisfied by
    *moving* one tuple from an existing row with the identical
    CC-satisfaction signature (so every CC count of the referenced view is
    provably unchanged) — zero net extra tuples. Keeping donors at >= 1
    preserves previously satisfied FK demands. Only when no signature-equal
    row has tuples to spare does the paper's additive +1 fallback fire
    (counted in the returned extras — the Fig 11 metric). ``view_ccs``
    (view → its CC list) enables donor search; without it the repair is
    exactly the paper's additive scheme.
    """
    extras = {r: 0 for r in schema.relations}
    # Index each view's existing value combinations for O(1) membership.
    keysets: dict[str, set[tuple[int, ...]]] = {
        v: {vals for vals, _ in s.rows} for v, s in summaries.items()
    }
    for rel in schema.reverse_topo_order():
        vi = summaries[rel]
        for target in sorted(schema.dependencies(rel)):
            vj = summaries[target]
            ccs_j = (view_ccs or {}).get(target)
            proj_idx = [vi.attrs.index(a) for a in vj.attrs]
            missing: set[tuple[int, ...]] = set()
            for vals, _ in vi.rows:
                combo = tuple(vals[i] for i in proj_idx)
                if combo not in keysets[target]:
                    missing.add(combo)
            # Donor index: signature → row positions with spare tuples.
            donors: dict[tuple[bool, ...], list[int]] = {}
            if ccs_j is not None:
                for i, (vals, c) in enumerate(vj.rows):
                    if c >= 2:
                        donors.setdefault(
                            _signature(ccs_j, vj.attrs, vals), []
                        ).append(i)
            for combo in sorted(missing):
                donated = False
                if ccs_j is not None:
                    sig = _signature(ccs_j, vj.attrs, combo)
                    for di in donors.get(sig, []):
                        vals, c = vj.rows[di]
                        if c >= 2:
                            vj.rows[di] = (vals, c - 1)
                            donated = True
                            break
                if not donated:
                    extras[target] += 1
                vj.rows.append((combo, 1))
                keysets[target].add(combo)
        vi.coalesce()
    for s in summaries.values():
        s.coalesce()
    return extras


def extract_relation_summaries(
    schema: Schema, summaries: dict[str, ViewSummary]
) -> dict[str, RelationSummary]:
    """§5.4: project relation summaries and compute FK values.

    FK values use cumulative-count positions into the referenced view's
    (coalesced, sorted) solution, so every FK hits a valid PK in [1, N].
    """
    # Per view: value-combo → 1-based start position of its PK range.
    starts: dict[str, dict[tuple[int, ...], int]] = {}
    for view, s in summaries.items():
        pos, acc = {}, 1
        for vals, c in s.rows:
            pos[vals] = acc
            acc += c
        starts[view] = pos

    out: dict[str, RelationSummary] = {}
    for rel_name in schema.topo_order():
        rel = schema[rel_name]
        vi = summaries[rel_name]
        own = [a.name for a in rel.attrs]
        own_idx = [vi.attrs.index(a) for a in own]
        fk_cols = sorted(rel.fks)
        fk_proj = {}
        for fk in fk_cols:
            target = rel.fks[fk]
            fk_proj[fk] = (target, [vi.attrs.index(a) for a in summaries[target].attrs])
        records = []
        for vals, c in vi.rows:
            rec = {a: vals[i] for a, i in zip(own, own_idx)}
            for fk in fk_cols:
                target, idxs = fk_proj[fk]
                combo = tuple(vals[i] for i in idxs)
                rec[fk] = starts[target][combo]
            rec["numtuples"] = c
            records.append(rec)
        # Merge *adjacent* identical projections only: the row order defines
        # the relation's PK ranges, and FK values elsewhere are positions
        # into exactly this order — a global groupby would break them.
        merged: list[dict[str, int]] = []
        for rec in records:
            if merged and all(
                merged[-1][k] == rec[k] for k in own + fk_cols
            ):
                merged[-1]["numtuples"] += rec["numtuples"]
            else:
                merged.append(rec)
        frame = pd.DataFrame.from_records(
            merged, columns=own + fk_cols + ["numtuples"]
        )
        out[rel_name] = RelationSummary(name=rel_name, frame=frame.astype("int64"))
    return out


def build_database_summary(
    schema: Schema, forms: dict[str, ViewFormulation]
) -> DatabaseSummary:
    """Full §5 pipeline: view solutions → consistency → relation summaries."""
    summaries = view_summaries_from_formulations(forms)
    view_ccs = {view: list(form.plan.ccs) for view, form in forms.items()}
    extras = make_consistent(schema, summaries, view_ccs)
    rels = extract_relation_summaries(schema, summaries)
    return DatabaseSummary(relations=rels, extra_tuples=extras)
