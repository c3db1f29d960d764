"""Deterministic TPC-DS-lite client-database generator.

Generates pandas frames (driver-side client DB, the thing AQPs run over).
Fact tables use zipfian item popularity and
mild attribute correlations so filter/join CCs span the wide cardinality
range of Fig 9 rather than concentrating.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .schema import row_counts


def _zipf_choice(
    g: np.random.Generator, n_keys: int, size: int, alpha: float = 1.05
) -> np.ndarray:
    ranks = np.arange(1, n_keys + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    return g.choice(ranks, size=size, p=w)


def generate_client_db(sf: float = 0.01, seed: int = 0) -> dict[str, pd.DataFrame]:
    """All eleven relations as pandas frames, FK-valid by construction."""
    n = row_counts(sf)
    g = np.random.default_rng(seed)
    db: dict[str, pd.DataFrame] = {}

    db["customer_address"] = pd.DataFrame(
        {
            "ca_address_sk": np.arange(1, n["customer_address"] + 1),
            "ca_state_num": g.integers(0, 51, n["customer_address"]),
            "ca_gmt_offset": g.integers(0, 12, n["customer_address"]),
        }
    )
    nd = n["date_dim"]
    days = np.arange(nd)
    db["date_dim"] = pd.DataFrame(
        {
            "d_date_sk": np.arange(1, nd + 1),
            "d_year": 1998 + days // 365,
            "d_moy": (days % 365) // 31 + 1,
            "d_qoy": ((days % 365) // 92) + 1,
            "d_dom": days % 28 + 1,
        }
    )
    ni = n["item"]
    cat = g.integers(1, 11, ni)
    db["item"] = pd.DataFrame(
        {
            "i_item_sk": np.arange(1, ni + 1),
            "i_category_id": cat,
            # class correlates with category (5 classes per category).
            "i_class_id": (cat - 1) * 5 + g.integers(1, 6, ni),
            "i_brand_id": g.integers(1, 101, ni),
            "i_manufact_id": g.integers(1, 1001, ni),
            "i_current_price": np.minimum(
                99, (g.gamma(2.0, 12.0, ni)).astype(np.int64)
            ),
        }
    )
    nc = n["customer"]
    db["customer"] = pd.DataFrame(
        {
            "c_customer_sk": np.arange(1, nc + 1),
            "c_current_addr_sk": g.integers(1, n["customer_address"] + 1, nc),
            "c_birth_year": g.integers(1920, 1993, nc),
            "c_birth_month": g.integers(1, 13, nc),
        }
    )
    ns = n["store"]
    db["store"] = pd.DataFrame(
        {
            "s_store_sk": np.arange(1, ns + 1),
            "s_number_employees": g.integers(200, 301, ns),
            "s_floor_space": g.integers(5_000_000, 10_000_001, ns),
        }
    )
    nw = n["warehouse"]
    db["warehouse"] = pd.DataFrame(
        {
            "w_warehouse_sk": np.arange(1, nw + 1),
            "w_warehouse_sq_ft": g.integers(50_000, 1_000_001, nw),
        }
    )

    def sales_common(size: int) -> dict[str, np.ndarray]:
        return {
            "date": g.integers(1, nd + 1, size),
            "item": _zipf_choice(g, ni, size),
            "cust": g.integers(1, nc + 1, size),
        }

    k = n["store_sales"]
    c = sales_common(k)
    qty = g.integers(1, 101, k)
    db["store_sales"] = pd.DataFrame(
        {
            "ss_ticket_number": np.arange(1, k + 1),
            "ss_sold_date_sk": c["date"],
            "ss_item_sk": c["item"],
            "ss_customer_sk": c["cust"],
            "ss_store_sk": g.integers(1, ns + 1, k),
            "ss_quantity": qty,
            # price loosely anti-correlated with quantity (bulk discounts).
            "ss_sales_price": np.maximum(0, 200 - qty + g.integers(-50, 51, k)),
            "ss_wholesale_cost": g.integers(1, 101, k),
        }
    )
    k = n["catalog_sales"]
    c = sales_common(k)
    db["catalog_sales"] = pd.DataFrame(
        {
            "cs_order_number": np.arange(1, k + 1),
            "cs_sold_date_sk": c["date"],
            "cs_item_sk": c["item"],
            "cs_bill_customer_sk": c["cust"],
            "cs_quantity": g.integers(1, 101, k),
            "cs_list_price": g.integers(1, 301, k),
            "cs_wholesale_cost": g.integers(1, 101, k),
        }
    )
    k = n["web_sales"]
    c = sales_common(k)
    db["web_sales"] = pd.DataFrame(
        {
            "ws_order_number": np.arange(1, k + 1),
            "ws_sold_date_sk": c["date"],
            "ws_item_sk": c["item"],
            "ws_bill_customer_sk": c["cust"],
            "ws_quantity": g.integers(1, 101, k),
            "ws_sales_price": g.integers(0, 301, k),
        }
    )
    k = n["store_returns"]
    c = sales_common(k)
    db["store_returns"] = pd.DataFrame(
        {
            "sr_ticket_number": np.arange(1, k + 1),
            "sr_returned_date_sk": c["date"],
            "sr_item_sk": c["item"],
            "sr_customer_sk": c["cust"],
            "sr_return_quantity": g.integers(1, 101, k),
            "sr_return_amt": g.integers(0, 20_001, k),
        }
    )
    k = n["inventory"]
    db["inventory"] = pd.DataFrame(
        {
            "inv_inv_sk": np.arange(1, k + 1),
            "inv_date_sk": g.integers(1, nd + 1, k),
            "inv_item_sk": _zipf_choice(g, ni, k),
            "inv_warehouse_sk": g.integers(1, nw + 1, k),
            "inv_quantity_on_hand": g.integers(0, 1001, k),
        }
    )
    return db
