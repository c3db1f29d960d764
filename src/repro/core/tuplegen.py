"""Dynamic tuple generation on Spark (paper §6).

The paper's Tuple Generator replaces PostgreSQL's scan operator: when a
query touches a relation with ``datagen`` enabled, tuples are decoded
on-demand from the relation summary instead of being read from disk. Row
*r* gets PK = *r* and the non-key/FK values of the summary row whose
cumulative NumTuples first reaches *r*.

Here the same contract is implemented as a ``DataFrame → DataFrame``
physical-operator substitute: ``spark.range(1, N+1)`` supplies the PK
stream (partitioned across the cluster), and an Arrow ``mapInPandas``
stage decodes each PK batch with the vectorized ``searchsorted`` lookup of
:func:`decoder` over the (shipped-in-the-closure, minuscule) summary
arrays. :func:`decode_rows` and :func:`relation_to_pandas` run the same
lookup driver-side. A true JVM scan operator is out of scope for a PySpark
reproduction (see DESIGN.md); this keeps generation inside Catalyst so
downstream joins/aggregates in the evaluation run as ordinary Spark SQL.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
import pyspark.sql.types as T

from .schema import Schema
from .summary import DatabaseSummary, RelationSummary


def decoder(summary: RelationSummary) -> Callable[[np.ndarray], dict[str, np.ndarray]]:
    """The §6 lookup of one relation: 1-based PK positions → column arrays.

    ``cumsum(NumTuples)`` is computed once, here; the returned closure holds
    only numpy arrays, so Spark pickles it by value into its tasks.
    """
    bounds = np.cumsum(summary.frame["numtuples"].to_numpy())
    values = {c: summary.frame[c].to_numpy() for c in summary.frame.columns if c != "numtuples"}
    n = summary.total_rows

    def decode(pks: np.ndarray) -> dict[str, np.ndarray]:
        if len(pks) and (pks.min() < 1 or pks.max() > n):
            raise IndexError("PK out of range for relation summary")
        idx = np.searchsorted(bounds, pks, side="left")  # first bound >= pk
        return {c: arr[idx] for c, arr in values.items()}

    return decode


def decode_rows(summary: RelationSummary, pks: np.ndarray) -> pd.DataFrame:
    """Decode tuple values for 1-based PK positions (vectorized §6 lookup)."""
    return pd.DataFrame(decoder(summary)(pks))


def relation_schema(schema: Schema, rel_name: str) -> T.StructType:
    """Spark schema of a regenerated relation: pk, fks, then non-key attrs."""
    rel = schema[rel_name]
    fields = [T.StructField(rel.pk, T.LongType(), False)]
    for fk in sorted(rel.fks):
        fields.append(T.StructField(fk, T.LongType(), False))
    for a in rel.attrs:
        fields.append(T.StructField(a.name, T.LongType(), False))
    return T.StructType(fields)


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
    tuples from the summary on demand; nothing is read from disk.
    """
    summary = db.relations[rel_name]
    n = summary.total_rows
    out_schema = relation_schema(schema, rel_name)
    col_order = [f.name for f in out_schema.fields]
    pk_name = schema[rel_name].pk
    # The summary is tiny (data-scale independent); shipping it in the task
    # closure is the moral equivalent of the engine holding it in memory.
    lookup = decoder(summary)

    def decode(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for batch in batches:
            pks = batch["id"].to_numpy()
            yield pd.DataFrame({pk_name: pks, **lookup(pks)})[col_order]

    rng = (
        spark.range(1, n + 1)
        if num_partitions is None
        else spark.range(1, n + 1, 1, num_partitions)
    )
    return rng.mapInPandas(decode, schema=out_schema)


def relation_to_pandas(
    schema: Schema, db: DatabaseSummary, rel_name: str
) -> pd.DataFrame:
    """Decode a whole relation driver-side (small scales / metrics paths).

    Exactly the operator's semantics without a Spark job: PKs 1..N decoded
    through :func:`decoder`; columns in :func:`relation_schema` order.
    """
    summary = db.relations[rel_name]
    pks = np.arange(1, summary.total_rows + 1, dtype=np.int64)
    cols = decoder(summary)(pks)
    order = [f.name for f in relation_schema(schema, rel_name).fields]
    return pd.DataFrame({schema[rel_name].pk: pks, **cols})[order]


def database_to_pandas(schema: Schema, db: DatabaseSummary) -> dict[str, pd.DataFrame]:
    return {r: relation_to_pandas(schema, db, r) for r in db.relations}

