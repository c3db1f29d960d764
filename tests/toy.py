"""The paper's Figure 1 toy scenario as a reusable test fixture.

Schema: R(R_pk, S_fk, T_fk), S(S_pk, A, B), T(T_pk, C) — R references S and
T; CCs filter S.A and T.C. Client data is generated deterministically so
AQP-derived CCs are exact ground truth.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.constraints import Predicate
from repro.core.schema import Attribute, Relation, Schema
from repro.core.workload import QuerySpec


def toy_schema() -> Schema:
    return Schema(
        [
            Relation("s", pk="s_pk", attrs=(Attribute("a", 0, 100), Attribute("b", 0, 50))),
            Relation("t", pk="t_pk", attrs=(Attribute("c", 0, 10),)),
            Relation(
                "r",
                pk="r_pk",
                attrs=(Attribute("d", 0, 20),),
                fks={"s_fk": "s", "t_fk": "t"},
            ),
        ]
    )


def toy_client_data(
    n_r: int = 8000, n_s: int = 700, n_t: int = 150, seed: int = 42
) -> dict[str, pd.DataFrame]:
    g = np.random.default_rng(seed)
    s = pd.DataFrame(
        {
            "s_pk": np.arange(1, n_s + 1),
            "a": g.integers(0, 100, n_s),
            "b": g.integers(0, 50, n_s),
        }
    )
    t = pd.DataFrame({"t_pk": np.arange(1, n_t + 1), "c": g.integers(0, 10, n_t)})
    r = pd.DataFrame(
        {
            "r_pk": np.arange(1, n_r + 1),
            "s_fk": g.integers(1, n_s + 1, n_r),
            "t_fk": g.integers(1, n_t + 1, n_r),
            "d": g.integers(0, 20, n_r),
        }
    )
    return {"r": r, "s": s, "t": t}


def toy_queries() -> list[QuerySpec]:
    """Figure 1's query plus two more AQPs, as in the Figure 5 caption."""
    return [
        QuerySpec(
            tables=("r", "s", "t"),
            filters=(
                ("s", Predicate.of(a=(20, 60))),
                ("t", Predicate.of(c=(2, 3))),
            ),
        ),
        QuerySpec(
            tables=("r", "s"),
            filters=(("s", Predicate.of(b=(10, 30))),),
        ),
        QuerySpec(
            tables=("r", "t"),
            filters=(("r", Predicate.of(d=(0, 5))), ("t", Predicate.of(c=(5, 10)))),
        ),
    ]


def key_only_scenario() -> tuple[Schema, dict[str, pd.DataFrame], list[QuerySpec]]:
    """A key-only link target: ``u(u_pk)`` with 7 rows, referenced by
    ``r(r_pk, a, r_u)``. ``u``'s view has no attributes at all."""
    schema = Schema([
        Relation("u", pk="u_pk", attrs=()),
        Relation("r", pk="r_pk", attrs=(Attribute("a", 0, 10),), fks={"r_u": "u"}),
    ])
    g = np.random.default_rng(0)
    db = {
        "u": pd.DataFrame({"u_pk": np.arange(1, 8)}),
        "r": pd.DataFrame({"r_pk": np.arange(1, 21), "a": g.integers(0, 10, 20),
                           "r_u": g.integers(1, 8, 20)}),
    }
    return schema, db, [QuerySpec(tables=("r", "u"), filters=(("r", Predicate.of(a=(2, 6))),))]
