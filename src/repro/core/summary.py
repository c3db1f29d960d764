"""Database summary generation (paper §5.2–§5.4).

Every view summary is an :class:`repro.core.align.ViewSolution`, the type
align/merge (:mod:`repro.core.align`) hands over; the §5 steps below read
its rows through :meth:`~repro.core.align.ViewSolution.project`.

- **Instantiate** (§5.2): every row already sits at its regions' left
  boundaries — the deterministic choice that minimizes later
  referential-integrity repair — so the merged points are only projected
  onto the view's attribute order, and equal-valued rows coalesced
  (summing NumTuples).
- **Referential repair** (§5.3): views are visited dependents-first
  (reverse topological order); any borrowed value combination missing from
  the referenced view's solution is added there with NumTuples = 1. Its
  tuple is moved from a row with the same CC signature that has one to
  spare; only when none has is it an extra tuple. The number of extra
  tuples per relation is recorded — it is the paper's "extra tuples"
  metric (Fig 11) and is independent of data scale.
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
from itertools import accumulate

import numpy as np
import pandas as pd

from .align import Point, ViewSolution, build_view_solution
from .constraints import match_matrix
from .lp import ViewFormulation
from .schema import Schema


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
) -> dict[str, ViewSolution]:
    """Run align/merge for every solved view formulation; each summary's
    points are in the plan's view attribute order, coalesced."""
    out: dict[str, ViewSolution] = {}
    for view, form in forms.items():
        merged = build_view_solution(form.subview_solutions())
        counts = [c for _, c in merged.rows]
        vs = ViewSolution(form.plan.attrs, list(zip(merged.project(form.plan.attrs), counts)))
        vs.coalesce()
        out[view] = vs
    return out


def _signatures(ccs: list, attrs: tuple[str, ...], points: list[Point]) -> list[bytes]:
    """CC-satisfaction signature of each point w.r.t. a view's CCs: the
    row of :func:`~repro.core.constraints.match_matrix`, packed to bytes."""
    pts = np.array(points, dtype=np.int64).reshape(len(points), len(attrs))
    sat = match_matrix([cc.predicate for cc in ccs], attrs, pts)
    return [row.tobytes() for row in np.packbits(sat, axis=1)]


def make_consistent(
    schema: Schema,
    summaries: dict[str, ViewSolution],
    view_ccs: dict[str, list],
) -> dict[str, int]:
    """§5.3: referential repair, dependents first. Returns extras/relation.

    Improvement over the paper's plain "+1 row" repair (documented in
    DESIGN.md): a demanded-but-missing combination is first satisfied by
    *moving* one tuple from an existing row with the identical
    CC-satisfaction signature under ``view_ccs[target]`` (so every CC count
    of the referenced view is provably unchanged) — zero net extra tuples.
    Keeping donors at >= 1 preserves previously satisfied FK demands. Only
    when no signature-equal row has tuples to spare does the paper's
    additive +1 fallback fire (counted in the returned extras — the Fig 11
    metric).
    """
    extras = {r: 0 for r in schema.relations}
    # Index each view's existing value combinations for O(1) membership.
    keysets: dict[str, set[tuple[int, ...]]] = {
        v: {vals for vals, _ in s.rows} for v, s in summaries.items()
    }
    for rel in schema.reverse_topo_order():
        vi = summaries[rel]
        for target in sorted(schema.dependencies(rel)):
            vj, ccs = summaries[target], view_ccs[target]
            missing = sorted(set(vi.project(vj.attrs)) - keysets[target])
            spare = [i for i, (_, c) in enumerate(vj.rows) if c >= 2]
            sigs = _signatures(ccs, vj.attrs, [vj.rows[i][0] for i in spare] + missing)
            # Donor index: signature → row positions with spare tuples.
            donors: dict[bytes, list[int]] = {}
            for i, sig in zip(spare, sigs):
                donors.setdefault(sig, []).append(i)
            for combo, sig in zip(missing, sigs[len(spare):]):
                for di in donors.get(sig, []):
                    vals, c = vj.rows[di]
                    if c >= 2:
                        vj.rows[di] = (vals, c - 1)
                        break
                else:  # no donor: the paper's +1
                    extras[target] += 1
                vj.rows.append((combo, 1))
                keysets[target].add(combo)
        vi.coalesce()
    for s in summaries.values():
        s.coalesce()
    return extras


def extract_relation_summaries(
    schema: Schema, summaries: dict[str, ViewSolution]
) -> dict[str, RelationSummary]:
    """§5.4: project relation summaries and compute FK values.

    FK values use cumulative-count positions into the referenced view's
    (coalesced, sorted) solution, so every FK hits a valid PK in [1, N].
    """
    # Per view: value-combo → 1-based start position of its PK range.
    starts: dict[str, dict[Point, int]] = {
        view: dict(zip((v for v, _ in s.rows), accumulate((c for _, c in s.rows), initial=1)))
        for view, s in summaries.items()
    }

    out: dict[str, RelationSummary] = {}
    for rel_name in schema.topo_order():
        rel = schema[rel_name]
        vi = summaries[rel_name]
        own = [a.name for a in rel.attrs]
        fk_cols = sorted(rel.fks)
        n = len(vi.rows)
        keys = np.empty((n, len(own) + len(fk_cols)), dtype=np.int64)
        keys[:, : len(own)] = np.array(vi.project(own), dtype=np.int64).reshape(n, len(own))
        for k, fk in enumerate(fk_cols, start=len(own)):
            ref = rel.fks[fk]
            keys[:, k] = [starts[ref][combo] for combo in vi.project(summaries[ref].attrs)]
        # Merge *adjacent* identical projections only: the row order defines
        # the relation's PK ranges, and FK values elsewhere are positions
        # into exactly this order — a global groupby would break them.
        first = np.ones(n, dtype=bool)
        first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        counts = np.array([c for _, c in vi.rows], dtype=np.int64)
        if n:
            counts = np.add.reduceat(counts, np.flatnonzero(first))
        frame = pd.DataFrame(
            np.column_stack([keys[first], counts]), columns=own + fk_cols + ["numtuples"]
        )
        out[rel_name] = RelationSummary(name=rel_name, frame=frame)
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
