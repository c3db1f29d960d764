"""Query workload → Annotated Query Plans → cardinality constraints (§2).

A :class:`QuerySpec` is the paper's restricted query class: PK–FK joins
plus non-key filter predicates (possibly DNF). The AQP of such a query on
a left-deep plan ``root ⋈ t₁ ⋈ t₂ …`` annotates every operator edge with
its output cardinality; parsing it yields one CC per annotated edge
(Figure 1d):

- ``|T|``        for every base relation in the plan,
- ``|σ(T)|``     for every filtered relation,
- ``|σ(root ⋈ t₁ … ⋈ tᵢ)|`` for every join prefix, with the predicate
  being the conjunction of the filters on the relations joined so far.

One join planner serves both the AQPs here and the achieved-cardinality
measurement in :mod:`repro.core.metrics`: :func:`join_order` puts a join
set root first, and :func:`join_edges` picks the FK edge that joins each
later relation. Each engine executes the plan with a generator of join
prefixes and a ``count(frame, predicate)``: pandas (:func:`pandas_joins`,
used by the pipeline) and Spark (:func:`spark_joins`, real shuffle joins).
``tests/test_workload.py`` pins that both derive the same CCs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame
import pyspark.sql.functions as F

from .constraints import CC, Predicate
from .preprocess import RawCC, rewrite_ccs
from .schema import Schema


@dataclass(frozen=True)
class QuerySpec:
    """A query: ordered join tables (root first) + per-table predicates.

    ``filters`` maps table name → DNF predicate over that table's own
    non-key attributes. ``tables`` must be path-closed along FK edges from
    the root (every joined relation is reachable through joined relations).
    """

    tables: tuple[str, ...]
    filters: tuple[tuple[str, Predicate], ...] = ()

    @property
    def root(self) -> str:
        return self.tables[0]

    def filter_of(self, table: str) -> Predicate:
        for t, p in self.filters:
            if t == table:
                return p
        return Predicate.true()

    def validate(self, schema: Schema) -> None:
        join_edges(schema, self.tables)
        for t, p in self.filters:
            own = {a.name for a in schema[t].attrs}
            if not p.attrs <= own:
                raise ValueError(f"filter on {t} uses foreign attrs {p.attrs - own}")


def join_order(schema: Schema, tables: Iterable[str]) -> tuple[str, ...]:
    """Root-first FK-path order over a join set (a CC's ``tables``)."""
    tables = set(tables)
    order = [schema.join_root(tables)]
    while len(order) < len(tables):
        nxt = [t for t in sorted(tables - set(order))
               if any(t in schema.dependencies(r) for r in order)]
        if not nxt:
            raise ValueError(f"join set {sorted(tables)} not FK-path-closed")
        order.append(nxt[0])
    return tuple(order)


def join_edges(schema: Schema, names: tuple[str, ...]) -> list[tuple[str, str]]:
    """``(fk column, relation)`` joining each relation after the first.

    The FK is that of the first already-joined relation referencing the
    relation. Raises ``ValueError`` on a repeated relation or on one that
    no already-joined relation references.
    """
    if len(set(names)) != len(names):
        raise ValueError(f"relation repeated in join {names}")
    edges = []
    for i, t in enumerate(names[1:], 1):
        fks = [fk for r in names[:i] for fk, target in schema[r].fks.items() if target == t]
        if not fks:
            raise ValueError(f"{t} not FK-reachable from already-joined {sorted(names[:i])}")
        edges.append((fks[0], t))
    return edges


def pandas_joins(
    schema: Schema, tables: dict[str, pd.DataFrame], names: tuple[str, ...]
) -> Iterator[pd.DataFrame]:
    """Every join prefix of ``names``, shortest first, one merge per edge."""
    out = tables[names[0]]
    yield out
    for fk, t in join_edges(schema, names):
        out = out.merge(tables[t], left_on=fk, right_on=schema[t].pk, how="inner")
        yield out


def pandas_count(frame: pd.DataFrame, pred: Predicate) -> int:
    return len(frame) if pred.is_true else int(pred.mask(frame).sum())


def spark_joins(
    schema: Schema, tables: dict[str, DataFrame], names: tuple[str, ...]
) -> Iterator[DataFrame]:
    """Every join prefix of ``names``, shortest first, one join per edge."""
    out = tables[names[0]]
    yield out
    for fk, t in join_edges(schema, names):
        out = out.join(tables[t], on=F.col(fk) == F.col(schema[t].pk), how="inner")
        yield out


def spark_count(frame: DataFrame, pred: Predicate) -> int:
    return frame.count() if pred.is_true else frame.filter(F.expr(pred.to_sql())).count()


def _derive_ccs(
    schema: Schema,
    tables: dict,
    queries: list[QuerySpec],
    joins: Callable[[Schema, dict, tuple[str, ...]], Iterator],
    count: Callable[[object, Predicate], int],
) -> list[RawCC]:
    """Execute every query's plan with one engine's ``joins``/``count`` and
    emit its CCs, each distinct (join set, predicate) once."""
    raw: list[RawCC] = []
    seen: set[tuple] = set()

    def emit(tbls: frozenset[str], pred: Predicate, n: int) -> None:
        if (tbls, pred) not in seen:
            seen.add((tbls, pred))
            raw.append(RawCC(tables=tbls, predicate=pred, count=n))

    for q in queries:
        q.validate(schema)
        for t in q.tables:
            emit(frozenset({t}), Predicate.true(), count(tables[t], Predicate.true()))
            p = q.filter_of(t)
            if not p.is_true:
                emit(frozenset({t}), p, count(tables[t], p))
        pred = Predicate.true()
        for i, joined in enumerate(joins(schema, tables, q.tables)):
            pred = pred.conjoin(q.filter_of(q.tables[i]))
            if i:
                emit(frozenset(q.tables[: i + 1]), pred, count(joined, pred))
    return raw


def derive_ccs_pandas(
    schema: Schema, tables: dict[str, pd.DataFrame], queries: list[QuerySpec]
) -> list[RawCC]:
    """Execute every query's plan on pandas frames and emit its CCs."""
    return _derive_ccs(schema, tables, queries, pandas_joins, pandas_count)


def derive_ccs_spark(
    schema: Schema, tables: dict[str, DataFrame], queries: list[QuerySpec]
) -> list[RawCC]:
    """Same AQP derivation, executed on Spark (real shuffle-join plans)."""
    return _derive_ccs(schema, tables, queries, spark_joins, spark_count)


def base_size_ccs(
    schema: Schema, sizes: dict[str, int], existing: list[RawCC]
) -> list[RawCC]:
    """Top up ``|R| = k`` CCs for relations the workload never touched.

    Every view needs a total-size CC (Figure 6 eq. 2); relations outside
    the workload take their size from the client catalog (here: the
    generator's row counts).
    """
    have = {
        next(iter(rc.tables))
        for rc in existing
        if len(rc.tables) == 1 and rc.predicate.is_true
    }
    out = list(existing)
    for rel, n in sizes.items():
        if rel not in have:
            out.append(
                RawCC(tables=frozenset({rel}), predicate=Predicate.true(), count=n)
            )
    return out


def client_ccs(
    schema: Schema, tables: dict[str, pd.DataFrame], queries: list[QuerySpec]
) -> list[CC]:
    """The CCs a client site ships: each query's AQP counts on ``tables``
    (pandas), a size CC for every relation no query touched, rewritten onto
    the views (:func:`repro.core.preprocess.rewrite_ccs`)."""
    raw = derive_ccs_pandas(schema, tables, queries)
    raw = base_size_ccs(schema, {r: len(df) for r, df in tables.items()}, raw)
    return rewrite_ccs(schema, raw)
