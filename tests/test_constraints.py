"""Unit tests for intervals, conjuncts, DNF predicates and CCs."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import (
    CC,
    Conjunct,
    Interval,
    Predicate,
    match_matrix,
    sub_constraints,
    total_cc,
)


class TestInterval:
    def test_contains_half_open(self):
        iv = Interval(10, 20)
        assert iv.contains(10)
        assert iv.contains(19)
        assert not iv.contains(20)
        assert not iv.contains(9)

    def test_empty(self):
        assert Interval(5, 5).empty
        assert Interval(6, 5).empty
        assert not Interval(5, 6).empty

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 15)) == Interval(5, 10)
        assert Interval(0, 5).intersect(Interval(5, 10)).empty

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))
        assert Interval(0, 10).contains_interval(Interval(0, 10))
        assert not Interval(0, 10).contains_interval(Interval(2, 11))

    def test_width(self):
        assert Interval(3, 9).width() == 6
        assert Interval(9, 3).width() == 0

    @given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
    def test_contains_consistent_with_bounds(self, lo, hi, v):
        iv = Interval(lo, hi)
        assert iv.contains(v) == (lo <= v < hi)


class TestConjunct:
    def test_of_constructor(self):
        c = Conjunct.of(age=(20, 60), salary=(20000, 60000))
        assert c.restriction("age") == Interval(20, 60)
        assert c.restriction("salary") == Interval(20000, 60000)
        assert c.restriction("missing") is None

    def test_matches_point(self):
        c = Conjunct.of(a=(0, 10), b=(5, 6))
        assert c.matches_point({"a": 0, "b": 5})
        assert not c.matches_point({"a": 10, "b": 5})
        assert not c.matches_point({"a": 0, "b": 6})

    def test_matches_box_subset_only(self):
        c = Conjunct.of(a=(0, 10))
        assert c.matches_box({"a": Interval(2, 8)})
        assert not c.matches_box({"a": Interval(2, 12)})

    def test_matches_box_ignores_absent_attrs(self):
        c = Conjunct.of(a=(0, 10))
        assert c.matches_box({"a": Interval(0, 10), "b": Interval(0, 99)})

    def test_mask(self):
        c = Conjunct.of(a=(0, 10), b=(5, 7))
        pdf = pd.DataFrame({"a": [0, 5, 11], "b": [5, 7, 6]})
        assert c.mask(pdf).tolist() == [True, False, False]

    def test_to_sql(self):
        c = Conjunct.of(a=(0, 10))
        assert c.to_sql() == "(a >= 0 AND a < 10)"
        assert Conjunct(()).to_sql() == "TRUE"


class TestPredicate:
    def test_true_predicate(self):
        p = Predicate.true()
        assert p.is_true
        assert p.matches_point({"a": 123})
        assert p.matches_box({"a": Interval(0, 1)})

    def test_dnf_disjunction(self):
        # ((A1 <= 20) ∧ (A2 > 30)) ∨ (A1 > 50) from §4.2, as half-open ints.
        p = Predicate(
            (
                Conjunct.of(a1=(0, 21), a2=(31, 100)),
                Conjunct.of(a1=(51, 100)),
            )
        )
        assert p.matches_point({"a1": 20, "a2": 31})
        assert p.matches_point({"a1": 60, "a2": 0})
        assert not p.matches_point({"a1": 30, "a2": 50})
        assert p.attrs == {"a1", "a2"}

    def test_mask_dnf(self):
        p = Predicate((Conjunct.of(a=(0, 5)), Conjunct.of(b=(10, 20))))
        pdf = pd.DataFrame({"a": [1, 7, 7], "b": [0, 15, 0]})
        assert p.mask(pdf).tolist() == [True, True, False]

    def test_conjoin_distributes(self):
        p1 = Predicate((Conjunct.of(a=(0, 10)), Conjunct.of(a=(20, 30))))
        p2 = Predicate.of(b=(5, 6))
        out = p1.conjoin(p2)
        assert len(out.conjuncts) == 2
        assert all(c.restriction("b") == Interval(5, 6) for c in out.conjuncts)

    def test_conjoin_drops_empty_products(self):
        p1 = Predicate((Conjunct.of(a=(0, 10)), Conjunct.of(a=(40, 50))))
        p2 = Predicate.of(a=(20, 45))
        assert p1.conjoin(p2).conjuncts == (Conjunct.of(a=(40, 45)),)

    def test_conjoin_contradiction_raises(self):
        """An unsatisfiable conjunction must not become the empty DNF,
        which reads as TRUE and would match a=25."""
        p1 = Predicate.of(a=(0, 10))
        p2 = Predicate.of(a=(20, 30))
        with pytest.raises(ValueError):
            p1.conjoin(p2)

    def test_conjoin_with_true(self):
        p = Predicate.of(a=(0, 10))
        assert p.conjoin(Predicate.true()) == p
        assert Predicate.true().conjoin(p) == p

    def test_conjoin_intersects_same_attr(self):
        p1 = Predicate.of(a=(0, 10))
        p2 = Predicate.of(a=(5, 20))
        out = p1.conjoin(p2)
        assert out.conjuncts[0].restriction("a") == Interval(5, 10)

    def test_to_sql_roundtrip_semantics(self):
        import duckdb

        p = Predicate((Conjunct.of(a=(0, 5)), Conjunct.of(b=(10, 20))))
        pdf = pd.DataFrame({"a": [1, 7, 7, 4], "b": [0, 15, 0, 12]})
        got = duckdb.sql(
            f"SELECT count(*) AS n FROM pdf WHERE {p.to_sql()}"
        ).fetchone()[0]
        assert got == int(p.mask(pdf).sum())


class TestCC:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CC(view="r", predicate=Predicate.true(), count=-1)

    def test_total_cc_is_true(self):
        cc = total_cc("r", 100)
        assert cc.predicate.is_true
        assert cc.count == 100

    def test_sub_constraints_flattens_dnf(self):
        ccs = [
            CC("r", Predicate((Conjunct.of(a=(0, 1)), Conjunct.of(b=(0, 1)))), 5),
            total_cc("r", 10),
        ]
        subs = sub_constraints(ccs)
        assert len(subs) == 2  # TRUE CC contributes none


ATTRS = ("a", "b", "c")
_intervals = st.builds(
    lambda lo, width: Interval(lo, lo + width), st.integers(-3, 15), st.integers(0, 6))
#: conjuncts drawn as (attr, interval) lists: an attribute may repeat, and
#: an empty list makes the predicate TRUE
_conjuncts = st.lists(st.tuples(st.sampled_from(ATTRS), _intervals), max_size=4).map(
    lambda pairs: Conjunct(tuple(sorted(pairs))))
_predicates = st.one_of(
    st.just(Predicate.true()),
    st.lists(_conjuncts, min_size=1, max_size=4).map(lambda cs: Predicate(tuple(cs))),
)


class TestMatchMatrix:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_matches_point_point_by_point(self, data):
        """Column-wise evaluation gives ``matches_point``'s boolean for
        every (point, predicate), with points on ``lo``, ``hi - 1`` and
        ``hi`` of the drawn restrictions."""
        preds = data.draw(st.lists(_predicates, max_size=6))
        edges = {v for p in preds for c in p.conjuncts for _, iv in c.restrictions
                 for v in (iv.lo, iv.hi - 1, iv.hi)}
        values = st.sampled_from(sorted(edges | {-5, 0, 20}))
        pts = data.draw(st.lists(st.tuples(values, values, values), max_size=12))
        got = match_matrix(preds, ATTRS, np.array(pts, dtype=np.int64).reshape(len(pts), 3))
        assert got.dtype == bool and got.shape == (len(pts), len(preds))
        assert got.tolist() == [
            [p.matches_point(dict(zip(ATTRS, pt))) for p in preds] for pt in pts]

    def test_true_and_multi_conjunct_predicates(self):
        preds = [
            Predicate.true(),
            Predicate((Conjunct.of(a=(0, 5)), Conjunct.of(b=(10, 20)))),
            Predicate((Conjunct.of(a=(0, 5)), Conjunct(()))),  # TRUE: an empty conjunct
            Predicate.of(a=(4, 6), b=(0, 11)),
        ]
        pts = np.array([[4, 10], [5, 10], [6, 0], [7, 20]], dtype=np.int64)
        assert match_matrix(preds, ("a", "b"), pts).tolist() == [
            [True, True, True, True],
            [True, True, True, True],
            [True, False, True, False],
            [True, False, True, False],
        ]
