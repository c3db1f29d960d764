"""Dynamic tuple generation on Spark (§6) — the datagen scan substitute —
and static materialization to parquet."""
import pandas as pd
import pytest
import pyspark.sql.functions as F

from repro.core.hydra import regenerate
from repro.core.materialize import materialize_relation, scan_parquet
from repro.core.preprocess import rewrite_ccs
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
        """The mapInPandas operator must produce exactly the rows the
        driver-side decoder produces (same summary, same semantics)."""
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
