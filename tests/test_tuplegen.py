"""Dynamic tuple generation on Spark (§6) — the datagen scan substitute —
and static materialization to parquet."""
import contextlib

import numpy as np
import pandas as pd
import pytest
import pyspark.sql.functions as F

from repro.core import tuplegen
from repro.core.hydra import regenerate
from repro.core.materialize import materialize_relation, scan_parquet
from repro.core.preprocess import rewrite_ccs
from repro.core.schema import Attribute, Relation, Schema
from repro.core.summary import DatabaseSummary, RelationSummary
from repro.core.tuplegen import (
    generate_relation,
    relation_schema,
    relation_to_pandas,
)
from repro.core.workload import base_size_ccs, derive_ccs_pandas
from repro.oracle import assert_equivalent

from .toy import toy_client_data, toy_queries, toy_schema


@pytest.fixture(scope="module")
def hydra_result():
    sch = toy_schema()
    tables = toy_client_data(n_r=3000, n_s=400, n_t=80)
    raw = derive_ccs_pandas(sch, tables, toy_queries())
    raw = base_size_ccs(sch, {k: len(v) for k, v in tables.items()}, raw)
    ccs = rewrite_ccs(sch, raw)
    return sch, ccs, regenerate(sch, ccs)


@pytest.mark.spark
class TestGenerateRelation:
    def test_schema_and_row_count(self, spark, hydra_result):
        sch, ccs, res = hydra_result
        df = generate_relation(spark, sch, res.summary, "r")
        assert [f.name for f in df.schema.fields] == [
            "r_pk",
            "s_fk",
            "t_fk",
            "d",
        ]
        assert df.count() == res.summary.relations["r"].total_rows

    def test_spark_output_equals_driver_decode(self, spark, hydra_result):
        """The Spark operator must produce exactly the rows the driver-side
        decode produces (same summary, same semantics)."""
        sch, ccs, res = hydra_result
        got = (
            generate_relation(spark, sch, res.summary, "s")
            .toPandas()
            .sort_values("s_pk")
            .reset_index(drop=True)
        )
        expect = relation_to_pandas(sch, res.summary, "s")
        pd.testing.assert_frame_equal(got, expect, check_dtype=False)

    def test_pk_is_dense_and_unique(self, spark, hydra_result):
        sch, ccs, res = hydra_result
        df = generate_relation(spark, sch, res.summary, "t")
        n = res.summary.relations["t"].total_rows
        stats = df.agg(
            F.countDistinct("t_pk").alias("d"),
            F.min("t_pk").alias("lo"),
            F.max("t_pk").alias("hi"),
        ).first()
        assert (stats["d"], stats["lo"], stats["hi"]) == (n, 1, n)

    def test_aggregate_query_against_duckdb_oracle(self, spark, hydra_result):
        """Run a real aggregate over the dynamically generated relation and
        cross-check against DuckDB over the decoded frame."""
        sch, ccs, res = hydra_result
        df = generate_relation(spark, sch, res.summary, "s")
        got = df.groupby().agg(
            F.count("*").alias("n"), F.sum("a").alias("sum_a")
        )
        assert_equivalent(
            got,
            "SELECT count(*) AS n, sum(a) AS sum_a FROM s",
            s=relation_to_pandas(sch, res.summary, "s"),
        )

    def test_join_query_on_generated_relations(self, spark, hydra_result):
        """§6's end goal: run a join query entirely over dynamically
        generated relations inside Spark SQL, checked against DuckDB."""
        sch, ccs, res = hydra_result
        r = generate_relation(spark, sch, res.summary, "r")
        s = generate_relation(spark, sch, res.summary, "s")
        got = (
            r.join(s, on=F.col("s_fk") == F.col("s_pk"))
            .filter("a >= 20 AND a < 60")
            .agg(F.count("*").alias("n"))
        )
        pdr = relation_to_pandas(sch, res.summary, "r")
        pds = relation_to_pandas(sch, res.summary, "s")
        assert_equivalent(
            got,
            "SELECT count(*) AS n FROM r JOIN s ON r.s_fk = s.s_pk "
            "WHERE a >= 20 AND a < 60",
            r=pdr,
            s=pds,
        )

    def test_explicit_partitioning(self, spark, hydra_result):
        sch, ccs, res = hydra_result
        df = generate_relation(spark, sch, res.summary, "r", num_partitions=4)
        assert df.rdd.getNumPartitions() == 4
        assert df.count() == res.summary.relations["r"].total_rows

    def test_generation_is_deterministic(self, spark, hydra_result):
        sch, ccs, res = hydra_result
        a = generate_relation(spark, sch, res.summary, "t").toPandas()
        b = generate_relation(spark, sch, res.summary, "t").toPandas()
        pd.testing.assert_frame_equal(
            a.sort_values("t_pk").reset_index(drop=True),
            b.sort_values("t_pk").reset_index(drop=True),
        )


def sorted_rows(df, pk: str) -> pd.DataFrame:
    return df.toPandas().sort_values(pk).reset_index(drop=True)


def s_summary(rows: list[tuple[int, int, int]]) -> DatabaseSummary:
    """A hand-made summary of the toy relation ``s``: (a, b, NumTuples) rows."""
    frame = pd.DataFrame(rows, columns=["a", "b", "numtuples"])
    return DatabaseSummary(relations={"s": RelationSummary("s", frame)})


def plan_classes(plan) -> list[str]:
    """JVM class names of every node of a physical plan."""
    out, stack = [], [plan]
    while stack:
        node = stack.pop()
        out.append(node.getClass().getName())
        children = node.children()
        stack.extend(children.apply(i) for i in range(children.size()))
    return out


@contextlib.contextmanager
def arrow(spark, enabled: bool):
    key = "spark.sql.execution.arrow.pyspark.enabled"
    before = spark.conf.get(key)
    spark.conf.set(key, str(enabled).lower())
    try:
        yield
    finally:
        spark.conf.set(key, before)


@pytest.mark.spark
class TestRangeTable:
    """The generator expands a literal table of PK ranges inside the JVM."""

    @pytest.mark.parametrize("arrow_enabled", [True, False])
    def test_plan_has_no_python_and_exact_schema(self, spark, hydra_result, arrow_enabled):
        sch, ccs, res = hydra_result
        with arrow(spark, arrow_enabled):
            for rel in ("r", "s", "t"):
                df = generate_relation(spark, sch, res.summary, rel)
                plan = df._jdf.queryExecution().executedPlan()
                for node in ("Python", "ArrowEvalPython", "ExistingRDD"):
                    assert node not in plan.toString(), (rel, node, plan.toString())
                # MapInPandas prints no "Python": check every node's class too
                classes = plan_classes(plan)
                assert "org.apache.spark.sql.execution.RangeExec" in classes
                assert not [c for c in classes if ".python." in c or "RDDScan" in c], classes
                assert df.schema == relation_schema(sch, rel)
                assert df.count() == res.summary.relations[rel].total_rows

    def test_zero_count_row_between_nonzero_rows(self, spark):
        sch, db = toy_schema(), s_summary([(1, 2, 3), (5, 6, 0), (7, 8, 4)])
        got = sorted_rows(generate_relation(spark, sch, db, "s"), "s_pk")
        pd.testing.assert_frame_equal(got, relation_to_pandas(sch, db, "s"))
        assert 5 not in set(got["a"])

    def test_empty_relation(self, spark):
        sch, db = toy_schema(), s_summary([(1, 2, 0)])
        df = generate_relation(spark, sch, db, "s")
        assert df.schema == relation_schema(sch, "s")
        assert df.count() == 0
        assert len(relation_to_pandas(sch, db, "s")) == 0

    def test_more_partitions_than_rows(self, spark):
        sch, db = toy_schema(), s_summary([(1, 2, 2), (3, 4, 1)])
        df = generate_relation(spark, sch, db, "s", num_partitions=8)
        assert df.rdd.getNumPartitions() == 8
        pd.testing.assert_frame_equal(sorted_rows(df, "s_pk"), relation_to_pandas(sch, db, "s"))

    def test_ranges_longer_than_the_chunk(self, spark, monkeypatch):
        monkeypatch.setattr(tuplegen, "_CHUNK", 7)
        rows = [(1, 2, 30), (3, 4, 1), (5, 6, 0), (7, 8, 16)]
        sch, db = toy_schema(), s_summary(rows)
        for p in (None, 3):
            got = sorted_rows(generate_relation(spark, sch, db, "s", num_partitions=p), "s_pk")
            assert got["s_pk"].tolist() == list(range(1, 48))
            expect = [(a, b) for a, b, n in rows for _ in range(n)]
            assert list(zip(got["a"], got["b"])) == expect
            pd.testing.assert_frame_equal(got, relation_to_pandas(sch, db, "s"))

    def test_wide_summary_of_2000_rows(self, spark):
        """A 2,000-row summary of eleven value columns (negative values and
        NumTuples 0 among them) generates the driver-side decode, row for
        row by PK."""
        attrs = tuple(Attribute(f"x{i}", -1000, 10**6) for i in range(11))
        sch = Schema([Relation("w", pk="w_pk", attrs=attrs)])
        g = np.random.default_rng(16)
        frame = pd.DataFrame(g.integers(-1000, 10**6, (2000, 11)), columns=[a.name for a in attrs])
        frame["numtuples"] = g.integers(0, 4, 2000)
        db = DatabaseSummary(relations={"w": RelationSummary("w", frame)})
        df = generate_relation(spark, sch, db, "w")
        assert df.schema == relation_schema(sch, "w")
        pd.testing.assert_frame_equal(sorted_rows(df, "w_pk"), relation_to_pandas(sch, db, "w"))

    @pytest.mark.parametrize("num_partitions", [None, 3])
    def test_same_partitions_as_spark_range(self, spark, hydra_result, num_partitions):
        """PK r lands in the partition ``spark.range(1, N + 1[, 1, P])`` gives it."""
        sch, ccs, res = hydra_result
        for rel in ("r", "s", "t"):
            n = res.summary.relations[rel].total_rows
            rng = spark.range(1, n + 1) if num_partitions is None else spark.range(
                1, n + 1, 1, num_partitions)
            df = generate_relation(spark, sch, res.summary, rel, num_partitions=num_partitions)
            pk = sch[rel].pk
            got = sorted_rows(df.select(pk, F.spark_partition_id().alias("part")), pk)
            expect = sorted_rows(rng.select(F.col("id").alias(pk),
                                            F.spark_partition_id().alias("part")), pk)
            assert df.rdd.getNumPartitions() == rng.rdd.getNumPartitions()
            pd.testing.assert_frame_equal(got, expect)


@pytest.mark.spark
class TestMaterialize:
    def test_parquet_round_trip_equals_driver_decode(self, spark, hydra_result, tmp_path):
        sch, ccs, res = hydra_result
        for rel in ("r", "s", "t"):
            path = materialize_relation(spark, sch, res.summary, rel, tmp_path)
            pk = sch[rel].pk
            got = scan_parquet(spark, path).toPandas().sort_values(pk).reset_index(drop=True)
            expect = relation_to_pandas(sch, res.summary, rel)
            pd.testing.assert_frame_equal(got, expect, check_dtype=False)


class TestRelationSchema:
    def test_field_order_pk_fks_attrs(self):
        sch = toy_schema()
        st = relation_schema(sch, "r")
        assert [f.name for f in st.fields] == ["r_pk", "s_fk", "t_fk", "d"]
        assert all(f.dataType.typeName() == "long" for f in st.fields)
