"""Deterministic JOB-lite client-database generator (IMDB-shaped skew)."""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.tpcds.generator import _zipf_choice

from .schema import row_counts


#: Zipf exponent of the link tables' movie/person/company references.
ZIPF_ALPHA = 1.1


def generate_client_db(sf: float = 0.01, seed: int = 7) -> dict[str, pd.DataFrame]:
    n = row_counts(sf)
    g = np.random.default_rng(seed)
    db: dict[str, pd.DataFrame] = {}

    nt = n["title"]
    # Production years skew towards recent decades, as in IMDB.
    years = 2020 - np.minimum(139, g.gamma(2.0, 12.0, nt).astype(np.int64))
    db["title"] = pd.DataFrame(
        {
            "t_id": np.arange(1, nt + 1),
            "t_production_year": np.clip(years, 1880, 2019),
            "t_kind_id": g.integers(1, 8, nt),
        }
    )
    nn = n["name"]
    db["name"] = pd.DataFrame(
        {
            "n_id": np.arange(1, nn + 1),
            "n_gender": g.integers(0, 3, nn),
            "n_birth_year": g.integers(1850, 2010, nn),
        }
    )
    ncn = n["company_name"]
    db["company_name"] = pd.DataFrame(
        {
            "cn_id": np.arange(1, ncn + 1),
            "cn_country_code": g.integers(0, 121, ncn),
        }
    )
    k = n["cast_info"]
    db["cast_info"] = pd.DataFrame(
        {
            "ci_id": np.arange(1, k + 1),
            "ci_movie_id": _zipf_choice(g, nt, k, alpha=ZIPF_ALPHA),
            "ci_person_id": _zipf_choice(g, nn, k, alpha=ZIPF_ALPHA),
            "ci_role_id": g.integers(1, 12, k),
            "ci_nr_order": g.integers(0, 100, k),
        }
    )
    k = n["movie_info"]
    db["movie_info"] = pd.DataFrame(
        {
            "mi_id": np.arange(1, k + 1),
            "mi_movie_id": _zipf_choice(g, nt, k, alpha=ZIPF_ALPHA),
            "mi_info_type_id": g.integers(1, 111, k),
            "mi_value": g.integers(0, 1000, k),
        }
    )
    k = n["movie_companies"]
    db["movie_companies"] = pd.DataFrame(
        {
            "mc_id": np.arange(1, k + 1),
            "mc_movie_id": _zipf_choice(g, nt, k, alpha=ZIPF_ALPHA),
            "mc_company_id": _zipf_choice(g, ncn, k, alpha=ZIPF_ALPHA),
            "mc_company_type_id": g.integers(1, 3, k),
        }
    )
    k = n["movie_keyword"]
    db["movie_keyword"] = pd.DataFrame(
        {
            "mk_id": np.arange(1, k + 1),
            "mk_movie_id": _zipf_choice(g, nt, k, alpha=ZIPF_ALPHA),
            "mk_keyword_id": g.integers(1, 135, k),
        }
    )
    return db
