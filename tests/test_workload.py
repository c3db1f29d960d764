"""Join planner and AQP/CC derivation tests — pandas vs Spark executor."""
import pytest

from repro.core.constraints import Predicate
from repro.core.workload import (
    QuerySpec,
    base_size_ccs,
    derive_ccs_pandas,
    derive_ccs_spark,
    join_edges,
    join_order,
    spark_joins,
)
from repro.oracle import assert_equivalent

from .toy import toy_client_data, toy_queries, toy_schema


@pytest.fixture(scope="module")
def client():
    return toy_schema(), toy_client_data(n_r=2000, n_s=300, n_t=60)


class TestQuerySpecValidation:
    def test_path_closure_enforced(self, client):
        sch, _ = client
        with pytest.raises(ValueError):
            QuerySpec(tables=("s", "t")).validate(sch)

    def test_foreign_attr_filter_rejected(self, client):
        sch, _ = client
        q = QuerySpec(tables=("r", "s"), filters=(("s", Predicate.of(c=(0, 1))),))
        with pytest.raises(ValueError):
            q.validate(sch)

    def test_valid_query_passes(self, client):
        sch, _ = client
        for q in toy_queries():
            q.validate(sch)

    def test_repeated_relation_rejected(self, client):
        sch, _ = client
        q = QuerySpec(tables=("r", "s", "s"), filters=(("s", Predicate.of(a=(20, 60))),))
        with pytest.raises(ValueError):
            q.validate(sch)


class TestJoinPlanner:
    def test_join_order_is_root_first(self, client):
        sch, _ = client
        assert join_order(sch, {"t", "s", "r"}) == ("r", "s", "t")
        assert join_order(sch, {"t", "r"}) == ("r", "t")
        assert join_order(sch, {"s"}) == ("s",)

    def test_join_order_rejects_set_without_fk_path(self, client):
        sch, _ = client
        with pytest.raises(ValueError):
            join_order(sch, {"s", "t"})

    def test_join_edges_follow_fks(self, client):
        sch, _ = client
        assert join_edges(sch, ("r", "s", "t")) == [("s_fk", "s"), ("t_fk", "t")]
        assert join_edges(sch, ("r",)) == []

    def test_join_edges_reject_unreachable_relation(self, client):
        sch, _ = client
        with pytest.raises(ValueError):
            join_edges(sch, ("s", "r"))
        with pytest.raises(ValueError):
            join_edges(sch, ("r", "s", "t", "s"))


class TestDeriveCCsPandas:
    def test_emits_base_filter_and_join_ccs(self, client):
        sch, tables = client
        raw = derive_ccs_pandas(sch, tables, toy_queries()[:1])
        kinds = {(len(rc.tables), rc.predicate.is_true) for rc in raw}
        assert (1, True) in kinds  # |T|
        assert (1, False) in kinds  # |σ(T)|
        assert any(len(rc.tables) >= 2 for rc in raw)  # joins

    def test_counts_are_exact(self, client):
        sch, tables = client
        raw = derive_ccs_pandas(sch, tables, toy_queries()[:1])
        # |σ_a∈[20,60)(s)| recomputed independently.
        expect = int(((tables["s"]["a"] >= 20) & (tables["s"]["a"] < 60)).sum())
        got = next(
            rc.count
            for rc in raw
            if rc.tables == {"s"} and not rc.predicate.is_true
        )
        assert got == expect

    def test_join_prefix_cardinalities_monotone(self, client):
        """Each join prefix's CC ≤ previous-filtered-fact count, since every
        added filtered dim can only remove fact rows."""
        sch, tables = client
        q = toy_queries()[0]  # r ⋈ s ⋈ t with filters on s and t
        raw = derive_ccs_pandas(sch, tables, [q])
        rs = next(rc for rc in raw if rc.tables == {"r", "s"})
        rst = next(rc for rc in raw if rc.tables == {"r", "s", "t"})
        assert rst.count <= rs.count <= len(tables["r"])

    def test_dedupes_repeated_ccs(self, client):
        sch, tables = client
        raw1 = derive_ccs_pandas(sch, tables, toy_queries())
        raw2 = derive_ccs_pandas(sch, tables, toy_queries() + toy_queries())
        assert len(raw1) == len(raw2)

    def test_base_size_ccs_tops_up(self, client):
        sch, tables = client
        raw = derive_ccs_pandas(sch, tables, toy_queries()[:1])  # touches r,s,t
        sizes = {k: len(v) for k, v in tables.items()}
        out = base_size_ccs(sch, sizes, raw)
        totals = {
            next(iter(rc.tables)): rc.count
            for rc in out
            if len(rc.tables) == 1 and rc.predicate.is_true
        }
        assert totals == sizes


@pytest.mark.spark
class TestSparkParity:
    def test_spark_and_pandas_derivations_agree(self, spark, client):
        sch, tables = client
        sdf = {k: spark.createDataFrame(v) for k, v in tables.items()}
        raw_p = derive_ccs_pandas(sch, tables, toy_queries())
        raw_s = derive_ccs_spark(sch, sdf, toy_queries())
        key = lambda rc: (sorted(rc.tables), rc.predicate.to_sql())
        assert sorted(
            (key(rc), rc.count) for rc in raw_p
        ) == sorted((key(rc), rc.count) for rc in raw_s)

    def test_join_count_against_duckdb_oracle(self, spark, client):
        """The Spark join+filter used for AQP derivation must equal the
        same SQL on DuckDB — guards the join-path construction."""
        import pyspark.sql.functions as F

        sch, tables = client
        sdf = {k: spark.createDataFrame(v) for k, v in tables.items()}
        q = toy_queries()[0]
        *_, joined = spark_joins(sch, sdf, q.tables)
        pred = Predicate.true()
        for t in q.tables:
            pred = pred.conjoin(q.filter_of(t))
        got = joined.filter(F.expr(pred.to_sql())).agg(
            F.count("*").alias("n")
        )
        assert_equivalent(
            got,
            f"""
            SELECT count(*) AS n
            FROM r JOIN s ON r.s_fk = s.s_pk JOIN t ON r.t_fk = t.t_pk
            WHERE {pred.to_sql()}
            """,
            r=tables["r"],
            s=tables["s"],
            t=tables["t"],
        )
