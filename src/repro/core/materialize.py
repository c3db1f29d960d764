"""Static materialization of a regenerated database (paper §7.3 / Fig 14).

HYDRA can optionally materialize the synthetic database from its summary;
the paper reports this is orders of magnitude faster than DataSynth's
instance-level pipeline because the summary is tiny and generation is a
single deterministic pass. Here materialization writes parquet through the
dynamic-generation operator, and the disk-scan side of Fig 15 reads those
files back.
"""
from __future__ import annotations

from pathlib import Path

from pyspark.sql import DataFrame, SparkSession

from .schema import Schema
from .summary import DatabaseSummary
from .tuplegen import generate_relation


def materialize_relation(
    spark: SparkSession,
    schema: Schema,
    db: DatabaseSummary,
    rel_name: str,
    out_dir: str | Path,
) -> Path:
    """Write one regenerated relation to parquet; returns its path."""
    path = Path(out_dir) / rel_name
    df = generate_relation(spark, schema, db, rel_name)
    df.write.mode("overwrite").parquet(str(path))
    return path


def scan_parquet(spark: SparkSession, path: str | Path) -> DataFrame:
    return spark.read.parquet(str(path))
