"""Schema model tests: FK DAG, view closure, join roots."""
import pytest

from repro.core.schema import Attribute, Relation, Schema

from .toy import toy_schema


class TestAttribute:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Attribute("x", 5, 5)


class TestSchemaValidation:
    def test_duplicate_relation_names_rejected(self):
        r = Relation("r", pk="pk", attrs=(Attribute("a", 0, 1),))
        with pytest.raises(ValueError):
            Schema([r, r])

    def test_duplicate_attr_names_rejected(self):
        r1 = Relation("r1", pk="p1", attrs=(Attribute("a", 0, 1),))
        r2 = Relation("r2", pk="p2", attrs=(Attribute("a", 0, 1),))
        with pytest.raises(ValueError):
            Schema([r1, r2])

    def test_unknown_fk_target_rejected(self):
        r = Relation("r", pk="pk", attrs=(Attribute("a", 0, 1),), fks={"fk": "nope"})
        with pytest.raises(ValueError):
            Schema([r])

    def test_fk_cycle_rejected(self):
        r1 = Relation("r1", pk="p1", attrs=(Attribute("a", 0, 1),), fks={"f1": "r2"})
        r2 = Relation("r2", pk="p2", attrs=(Attribute("b", 0, 1),), fks={"f2": "r1"})
        with pytest.raises(Exception):
            Schema([r1, r2])


class TestToySchema:
    def test_topo_order_dependencies_first(self):
        order = toy_schema().topo_order()
        assert order.index("s") < order.index("r")
        assert order.index("t") < order.index("r")

    def test_reverse_topo_dependents_first(self):
        order = toy_schema().reverse_topo_order()
        assert order.index("r") < order.index("s")

    def test_view_closure(self):
        sch = toy_schema()
        assert sch.view_closure("r") == {"r", "s", "t"}
        assert sch.view_closure("s") == {"s"}

    def test_view_attrs_figure1(self):
        # R_view(A, B, C, D): own + borrowed from S and T (§3.2's example,
        # extended with R's own attribute d).
        sch = toy_schema()
        names = {a.name for a in sch.view_attrs("r")}
        assert names == {"a", "b", "c", "d"}
        assert {a.name for a in sch.view_attrs("s")} == {"a", "b"}
        assert {a.name for a in sch.view_attrs("t")} == {"c"}

    def test_join_root(self):
        sch = toy_schema()
        assert sch.join_root({"r", "s"}) == "r"
        assert sch.join_root({"r", "s", "t"}) == "r"
        assert sch.join_root({"s"}) == "s"

    def test_join_root_unroutable(self):
        sch = toy_schema()
        with pytest.raises(ValueError):
            sch.join_root({"s", "t"})


class TestDagSchema:
    def test_dag_dependency_graph_supported(self):
        """HYDRA (unlike DataSynth's trees) supports DAGs — two facts
        sharing a dim, and a diamond r→{s,t}→u."""
        sch = Schema(
            [
                Relation("u", pk="u_pk", attrs=(Attribute("x", 0, 10),)),
                Relation("s", pk="s_pk", attrs=(Attribute("a", 0, 10),), fks={"s_u": "u"}),
                Relation("t", pk="t_pk", attrs=(Attribute("b", 0, 10),), fks={"t_u": "u"}),
                Relation(
                    "r",
                    pk="r_pk",
                    attrs=(Attribute("d", 0, 10),),
                    fks={"r_s": "s", "r_t": "t"},
                ),
            ]
        )
        assert sch.view_closure("r") == {"r", "s", "t", "u"}
        # u appears once in the view even though reachable via two paths.
        assert [a.name for a in sch.view_attrs("r")].count("x") == 1
