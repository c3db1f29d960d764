"""HYDRA's contract on random schemas: a property-based fuzzer.

Each example draws 2–5 relations with 0–4 attributes over small domains, a
random FK DAG with at most one FK path between any two relations, 20–200
rows per relation with zipf or uniform values and FKs, and 4–24 queries
with DNF filters along FK paths. It runs ``client_ccs`` → ``regenerate`` →
``database_to_pandas`` → ``achieved_counts_pandas`` and checks what holds
today:

- nothing raises;
- two ``regenerate`` calls give the same summary digest;
- every FK value lies in [1, N] of the relation it references;
- where no view's rounded solution misses an LP row, every CC is exact on
  the merged view solutions and none has a negative error after repair.

The rounding residual (ROADMAP item 1) is the one known leak, so the last
property is conditional on it.
"""
import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import hydra, workload
from repro.core.constraints import Conjunct, Predicate, match_matrix
from repro.core.metrics import achieved_counts_pandas
from repro.core.schema import Attribute, Relation, Schema
from repro.core.summary import view_summaries_from_formulations
from repro.core.tuplegen import database_to_pandas

from .test_substrates import summary_digest


def _closure(fks: list[list[int]], i: int) -> set[int]:
    out, stack = set(), [i]
    while stack:
        k = stack.pop()
        if k not in out:
            out.add(k)
            stack.extend(fks[k])
    return out


@st.composite
def scenarios(draw):
    """``(schema, client DB, queries)``."""
    n_rel = draw(st.integers(2, 5))
    domains = [draw(st.lists(st.integers(2, 12), max_size=4)) for _ in range(n_rel)]
    # Relation i references earlier ones only; a target joins only when its
    # closure is disjoint from the targets' so far: no FK diamond.
    fks: list[list[int]] = []
    for i in range(n_rel):
        targets: list[int] = []
        for t in draw(st.lists(st.integers(0, max(i - 1, 0)), max_size=2, unique=True)) if i else []:
            if not _closure(fks, t) & set().union(*(_closure(fks, k) for k in targets)):
                targets.append(t)
        fks.append(targets)
    name = [f"r{i}" for i in range(n_rel)]
    schema = Schema([
        Relation(name[i], pk=f"{name[i]}_pk",
                 attrs=tuple(Attribute(f"{name[i]}_a{k}", 0, d) for k, d in enumerate(domains[i])),
                 fks={f"{name[i]}_fk{t}": name[t] for t in fks[i]})
        for i in range(n_rel)
    ])

    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [int(g.integers(20, 201)) for _ in range(n_rel)]

    def values(hi: int, n: int) -> np.ndarray:
        if g.random() < 0.5:
            return g.integers(0, hi, n)
        return np.minimum(g.zipf(1.5, n) - 1, hi - 1)

    db = {}
    for i in range(n_rel):
        cols = {f"{name[i]}_pk": np.arange(1, sizes[i] + 1)}
        for k, d in enumerate(domains[i]):
            cols[f"{name[i]}_a{k}"] = values(d, sizes[i])
        for t in fks[i]:
            cols[f"{name[i]}_fk{t}"] = values(sizes[t], sizes[i]) + 1
        db[name[i]] = pd.DataFrame(cols)

    def dnf(i: int) -> Predicate:
        conjuncts = []
        for _ in range(draw(st.integers(1, 2))):
            bounds = {}
            for k in draw(st.lists(st.integers(0, len(domains[i]) - 1), min_size=1,
                                   max_size=2, unique=True)):
                lo = draw(st.integers(0, domains[i][k] - 1))
                bounds[f"{name[i]}_a{k}"] = (lo, draw(st.integers(lo + 1, domains[i][k])))
            conjuncts.append(Conjunct.of(**bounds))
        return Predicate(tuple(conjuncts))

    queries = []
    for _ in range(draw(st.integers(4, 24))):
        tables = [draw(st.integers(0, n_rel - 1))]
        for _ in range(draw(st.integers(0, 3))):
            reach = sorted({t for r in tables for t in fks[r]} - set(tables))
            if reach:
                tables.append(draw(st.sampled_from(reach)))
        filters = tuple((name[i], dnf(i)) for i in tables if domains[i] and draw(st.booleans()))
        queries.append(workload.QuerySpec(tables=tuple(name[i] for i in tables), filters=filters))
    return schema, db, queries


def _exact_after_merge(result, ccs) -> bool:
    """Whether every CC's count on the merged view solutions is its target."""
    merged = view_summaries_from_formulations(result.formulations)
    for cc in ccs:
        vs = merged[cc.view]
        pts = np.array([p for p, _ in vs.rows], dtype=np.int64).reshape(len(vs.rows), len(vs.attrs))
        counts = np.array([c for _, c in vs.rows], dtype=np.int64)
        if int(counts[match_matrix([cc.predicate], vs.attrs, pts)[:, 0]].sum()) != cc.count:
            return False
    return True


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_contract_on_random_schemas(scenario):
    schema, db, queries = scenario
    ccs = workload.client_ccs(schema, db, queries)
    result = hydra.regenerate(schema, ccs)
    assert summary_digest(hydra.regenerate(schema, ccs).summary) == summary_digest(result.summary)

    tables = database_to_pandas(schema, result.summary)
    for rel in schema.relations.values():
        for fk, target in rel.fks.items():
            assert tables[rel.name][fk].between(1, len(tables[target])).all()

    rounded = all(
        not np.abs(f.system.residuals(f.solution.astype(float))).any()
        for f in result.formulations.values())
    if rounded:
        assert _exact_after_merge(result, ccs)
        errors = achieved_counts_pandas(schema, tables, ccs)
        assert min(e.rel_error for e in errors) >= 0
