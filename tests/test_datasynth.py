"""DataSynth baseline tests: grid LP, sampling instantiation, repair."""
import numpy as np
import pytest

from repro.core.datasynth import regenerate_datasynth
from repro.core import grid
from repro.core.grid import GridTooLarge
from repro.core.hydra import regenerate
from repro.core.metrics import (
    achieved_counts_pandas,
    max_abs_error,
    signed_error_split,
)
from repro.core.preprocess import rewrite_ccs
from repro.core.tuplegen import database_to_pandas
from repro.core.workload import base_size_ccs, derive_ccs_pandas

from .toy import toy_client_data, toy_queries, toy_schema


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
