"""DataSynth baseline tests: grid LP, sampling instantiation, repair."""
import numpy as np
import pandas as pd
import pytest

from repro.core.datasynth import _extract_relations, regenerate_datasynth
from repro.core import grid, hydra
from repro.core.grid import GridTooLarge
from repro.core.hydra import regenerate
from repro.core.metrics import (
    achieved_counts_pandas,
    max_abs_error,
    signed_error_split,
)
from repro.core.preprocess import rewrite_ccs
from repro.core.schema import Attribute, Relation, Schema
from repro.core.tuplegen import database_to_pandas
from repro.core.workload import base_size_ccs, client_ccs, derive_ccs_pandas

from .toy import key_only_scenario, toy_client_data, toy_queries, toy_schema


@pytest.fixture(scope="module")
def toy_ccs():
    sch = toy_schema()
    tables = toy_client_data()
    raw = derive_ccs_pandas(sch, tables, toy_queries())
    raw = base_size_ccs(sch, {k: len(v) for k, v in tables.items()}, raw)
    return sch, rewrite_ccs(sch, raw)


@pytest.fixture(scope="module")
def ds_result(toy_ccs):
    sch, ccs = toy_ccs
    return regenerate_datasynth(sch, ccs, seed=11)


class TestDataSynthPipeline:
    def test_produces_all_relations(self, toy_ccs, ds_result):
        sch, _ = toy_ccs
        assert set(ds_result.relations) == set(sch.relations)

    def test_relation_sizes_near_target(self, toy_ccs, ds_result):
        # r exact (views are sampled at exactly k tuples), dims may gain
        # repair tuples.
        assert len(ds_result.relations["r"]) == 8000
        assert len(ds_result.relations["s"]) >= 700

    def test_fks_valid(self, toy_ccs, ds_result):
        sch, _ = toy_ccs
        r = ds_result.relations["r"]
        s = ds_result.relations["s"]
        t = ds_result.relations["t"]
        assert r["s_fk"].isin(set(s["s_pk"])).all()
        assert r["t_fk"].isin(set(t["t_pk"])).all()

    def test_ccs_approximately_satisfied(self, toy_ccs, ds_result):
        sch, ccs = toy_ccs
        errors = achieved_counts_pandas(sch, ds_result.relations, ccs)
        # Sampling noise: not exact, but in the right ballpark.
        assert max_abs_error(errors) < 0.5

    def test_sampling_errs_in_both_directions(self, toy_ccs, ds_result):
        """§7.1's observation: DataSynth produces negative AND positive
        errors (multinomial noise), unlike Hydra's positive-only."""
        sch, ccs = toy_ccs
        errors = achieved_counts_pandas(sch, ds_result.relations, ccs)
        neg, zero, pos = signed_error_split(errors)
        assert neg > 0
        assert pos > 0

    def test_hydra_beats_datasynth_on_accuracy(self, toy_ccs, ds_result):
        sch, ccs = toy_ccs
        hy = regenerate(sch, ccs)
        hy_err = achieved_counts_pandas(
            sch, database_to_pandas(sch, hy.summary), ccs
        )
        ds_err = achieved_counts_pandas(sch, ds_result.relations, ccs)
        assert max_abs_error(hy_err) <= max_abs_error(ds_err)

    def test_hydra_fewer_extra_tuples(self, toy_ccs, ds_result):
        """Fig 11's claim: Hydra inserts (usually far) fewer repair tuples
        because its view solutions are deterministic, not sampled."""
        sch, ccs = toy_ccs
        hy = regenerate(sch, ccs)
        # At toy scale both are a handful of tuples; the order-of-magnitude
        # gap the paper shows appears at workload scale (fig11 benchmark).
        assert sum(hy.summary.extra_tuples.values()) <= max(
            2, sum(ds_result.extra_tuples.values()) + 2
        )

    def test_grid_cap_crashes_like_the_paper(self, toy_ccs, monkeypatch):
        sch, ccs = toy_ccs
        monkeypatch.setattr(grid, "CELL_CAP", 2)
        with pytest.raises(GridTooLarge):
            regenerate_datasynth(sch, ccs)

    def test_deterministic_given_seed(self, toy_ccs):
        sch, ccs = toy_ccs
        a = regenerate_datasynth(sch, ccs, seed=5)
        b = regenerate_datasynth(sch, ccs, seed=5)
        for rel in a.relations:
            assert a.relations[rel].equals(b.relations[rel])

    def test_more_vars_than_hydra(self, toy_ccs, ds_result):
        sch, ccs = toy_ccs
        hy = regenerate(sch, ccs)
        for view in sch.relations:
            assert ds_result.formulations[view].n_vars >= hy.formulations[view].n_vars

    def test_builds_no_hydra_summary(self, toy_ccs, ds_result, monkeypatch):
        """The baseline runs its own grid LP and never HYDRA's §5 steps."""
        def refuse(*args, **kwargs):
            raise AssertionError("DataSynth built a HYDRA database summary")

        monkeypatch.setattr(hydra, "build_database_summary", refuse)
        sch, ccs = toy_ccs
        again = regenerate_datasynth(sch, ccs, seed=11)
        for rel, df in ds_result.relations.items():
            pd.testing.assert_frame_equal(again.relations[rel], df)


def _extract_relations_loop(schema, instances):
    """The repair and FK assignment as tuple sets and first-position dicts:
    the reference :func:`_extract_relations`' pandas merges are held to."""
    extras = {r: 0 for r in schema.relations}
    for rel in schema.reverse_topo_order():
        vi = instances[rel]
        for target in sorted(schema.dependencies(rel)):
            vj = instances[target]
            tcols = list(vj.columns)
            have = set(map(tuple, vj[tcols].to_numpy()))
            need_rows = vi[tcols].drop_duplicates()
            missing = [tuple(row) for row in need_rows.to_numpy() if tuple(row) not in have]
            if missing:
                instances[target] = pd.concat(
                    [vj, pd.DataFrame(missing, columns=tcols)], ignore_index=True
                )
                extras[target] += len(missing)

    relations = {}
    first_pos = {}
    for rel in schema.relations:
        pos = {}
        for i, row in enumerate(map(tuple, instances[rel].to_numpy())):
            pos.setdefault(row, i + 1)
        first_pos[rel] = pos
    for rel_name in schema.topo_order():
        rel = schema[rel_name]
        vi = instances[rel_name]
        out = pd.DataFrame({rel.pk: np.arange(1, len(vi) + 1, dtype=np.int64)})
        for fk in sorted(rel.fks):
            target = rel.fks[fk]
            tcols = [a.name for a in schema.view_attrs(target)]
            pos = first_pos[target]
            out[fk] = [pos[t] for t in map(tuple, vi[tcols].to_numpy())]
        for a in rel.attrs:
            out[a.name] = vi[a.name].to_numpy()
        relations[rel_name] = out
    return relations, extras


def _chain_schema() -> Schema:
    """a → {b, d} and b → c: a two-level FK chain beside a direct FK."""
    return Schema(
        [
            Relation("c", pk="c_pk", attrs=(Attribute("z", 0, 3),)),
            Relation("b", pk="b_pk", attrs=(Attribute("y", 0, 3),), fks={"b_c": "c"}),
            Relation("d", pk="d_pk", attrs=(Attribute("w", 0, 2), Attribute("v", 0, 3))),
            Relation("a", pk="a_pk", attrs=(Attribute("x", 0, 4),), fks={"a_b": "b", "a_d": "d"}),
        ]
    )


def _random_instances(schema, rng, covered: bool) -> dict[str, pd.DataFrame]:
    """Sampled view instances over small domains, so rows repeat. With
    ``covered`` every referenced view already holds, in shuffled order,
    each combination its dependents carry, and nothing is missing."""
    inst = {}
    for rel in schema.reverse_topo_order():
        attrs = schema.view_attrs(rel)
        n = int(rng.integers(1, 40))
        df = pd.DataFrame({a.name: rng.integers(a.lo, a.hi, n) for a in attrs})
        if covered:
            needed = [inst[r][df.columns] for r in inst if rel in schema.dependencies(r)]
            df = pd.concat([df, *needed], ignore_index=True)
            df = df.iloc[rng.permutation(len(df))].reset_index(drop=True)
        inst[rel] = df
    return inst


@pytest.mark.parametrize("covered", [False, True])
def test_extract_relations_matches_loop(covered):
    sch = _chain_schema()
    rng = np.random.default_rng(17)
    saw_duplicates = saw_extras = False
    for _ in range(25):
        inst = _random_instances(sch, rng, covered)
        saw_duplicates |= any(df.duplicated().any() for df in inst.values())
        got, extras = _extract_relations(sch, dict(inst))
        want, want_extras = _extract_relations_loop(sch, dict(inst))
        assert extras == want_extras
        saw_extras |= sum(extras.values()) > 0
        assert list(got) == list(want)
        for rel in want:
            pd.testing.assert_frame_equal(got[rel], want[rel])
    assert saw_duplicates
    assert saw_extras != covered


def test_view_without_attributes_keeps_its_rows():
    """DataSynth samples |R| rows for a view with no attributes, and every
    FK into it lands on one of them."""
    schema, db, queries = key_only_scenario()
    result = regenerate_datasynth(schema, client_ccs(schema, db, queries), seed=1)
    assert len(result.relations["u"]) == 7
    assert result.extra_tuples["u"] == 0
    assert result.relations["r"]["r_u"].between(1, 7).all()
