"""Dynamic tuple generation on Spark (paper §6).

The paper's Tuple Generator replaces PostgreSQL's scan operator: when a
query touches a relation with ``datagen`` enabled, tuples are decoded
on-demand from the relation summary instead of being read from disk. Row
*r* gets PK = *r* and the non-key/FK values of the summary row whose
cumulative NumTuples first reaches *r*.

Here the same contract is a ``DataFrame`` built entirely inside the JVM.
Summary row *j* covers the PK range ``(bound[j-1], bound[j]]`` of the
cumulative counts, so the driver turns the (minuscule, data-scale free)
summary into a literal table of PK ranges with their values, cut at the
partition bounds of ``spark.range(1, N + 1, 1, P)``: unnamed ``struct``
literals, whose columns are named once, after ``inline``. Each of ``P`` tasks
takes its slice of that table and expands every range with
``explode(sequence(lo, hi))``: no Python worker runs, the rows land in the
partitions ``spark.range`` would give them, and downstream joins and
aggregates in the evaluation run as ordinary Spark SQL. :func:`decode_rows`
runs the same lookup driver-side, with a vectorized ``searchsorted``, and
:func:`relation_to_pandas` decodes a whole relation through it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
import pyspark.sql.types as T

from .schema import Schema
from .summary import DatabaseSummary, RelationSummary

#: Longest PK run one ``sequence`` array holds; longer ranges are expanded
#: chunk by chunk, so no task builds an array that grows with the data scale.
_CHUNK = 1 << 20


def decode_rows(summary: RelationSummary, pks: np.ndarray) -> pd.DataFrame:
    """The §6 lookup: values of the tuples at 1-based PK positions, the
    summary row whose cumulative NumTuples first reaches each PK."""
    if len(pks) and (pks.min() < 1 or pks.max() > summary.total_rows):
        raise IndexError("PK out of range for relation summary")
    frame = summary.frame
    idx = np.searchsorted(np.cumsum(frame["numtuples"].to_numpy()), pks, side="left")
    return pd.DataFrame({c: frame[c].to_numpy()[idx] for c in frame.columns if c != "numtuples"})


def relation_schema(schema: Schema, rel_name: str) -> T.StructType:
    """Spark schema of a regenerated relation: pk, fks, then non-key attrs."""
    rel = schema[rel_name]
    fields = [T.StructField(rel.pk, T.LongType(), False)]
    for fk in sorted(rel.fks):
        fields.append(T.StructField(fk, T.LongType(), False))
    for a in rel.attrs:
        fields.append(T.StructField(a.name, T.LongType(), False))
    return T.StructType(fields)


def _pk_ranges(counts: np.ndarray, num_partitions: int) -> list[list[tuple[int, int, int]]]:
    """Per partition of ``spark.range(1, N + 1, 1, num_partitions)``, its
    PK slice cut at the summary rows' cumulative-count bounds: a list of
    ``(lo, hi, summary row)``, inclusive and ascending.

    Partition *i* holds PKs ``[1 + i·N // P, 1 + (i+1)·N // P)``. Rows
    with NumTuples 0 give no range, so there are at most (summary rows +
    P − 1) of them, whatever N is.
    """
    rows = np.flatnonzero(counts > 0)
    his = np.cumsum(counts)[rows]
    los = his - counts[rows] + 1
    n = int(his[-1]) if len(rows) else 0
    out = []
    for i in range(num_partitions):
        a, b = 1 + i * n // num_partitions, (i + 1) * n // num_partitions
        if a > b:
            out.append([])
            continue
        first, last = np.searchsorted(his, a), np.searchsorted(los, b, side="right")
        out.append([(max(int(los[j]), a), min(int(his[j]), b), int(rows[j]))
                    for j in range(first, last)])
    return out


def generate_relation(
    spark: SparkSession,
    schema: Schema,
    db: DatabaseSummary,
    rel_name: str,
    *,
    num_partitions: int | None = None,
) -> DataFrame:
    """The dynamic-generation operator for one relation.

    Returns a DataFrame that *is* the relation: scanning it synthesizes
    tuples from the summary on demand; nothing is read from disk. PK *r*
    lands in the partition ``spark.range(1, N + 1[, 1, num_partitions])``
    gives it, in the same order.
    """
    summary = db.relations[rel_name]
    pk, *values = [f.name for f in relation_schema(schema, rel_name).fields]
    p = spark.sparkContext.defaultParallelism if num_partitions is None else num_partitions
    vals = summary.frame[values].to_numpy(np.int64).tolist()

    def struct(row) -> str:
        return "struct(" + ", ".join(f"{v}L" for v in row) + ")"

    # element type of the empty slices, which `array()` alone would not carry
    empty = f"slice(array({struct([0] * (2 + len(values)))}), 1, 0)"
    parts = [
        f"array({', '.join(struct((lo, hi, *vals[j])) for lo, hi, j in part)})" if part else empty
        for part in _pk_ranges(summary.frame["numtuples"].to_numpy(), p)
    ]
    # `inline` names an unnamed struct's fields col1, col2, …: lo, hi, then
    # the values, which are named once, in the last projection.
    cols = [f"col{k}" for k in range(3, 3 + len(values))]
    return (
        spark.range(0, p, 1, p)
        .selectExpr(f"inline(element_at(array({', '.join(parts)}), CAST(id + 1 AS INT)))")
        .selectExpr("col2", *cols, f"explode(sequence(col1, col2, {_CHUNK}L)) AS _c")
        .selectExpr(f"explode(sequence(_c, least(_c + {_CHUNK - 1}L, col2))) AS `{pk}`",
                    *(f"{k} AS `{c}`" for k, c in zip(cols, values)))
    )


def relation_to_pandas(
    schema: Schema, db: DatabaseSummary, rel_name: str
) -> pd.DataFrame:
    """Decode a whole relation driver-side (small scales / metrics paths).

    Exactly the operator's semantics without a Spark job: PKs 1..N decoded
    by :func:`decode_rows`; columns in :func:`relation_schema` order.
    """
    summary = db.relations[rel_name]
    pks = np.arange(1, summary.total_rows + 1, dtype=np.int64)
    frame = decode_rows(summary, pks)
    frame.insert(0, schema[rel_name].pk, pks)
    return frame[[f.name for f in relation_schema(schema, rel_name).fields]]


def database_to_pandas(schema: Schema, db: DatabaseSummary) -> dict[str, pd.DataFrame]:
    return {r: relation_to_pandas(schema, db, r) for r in db.relations}
