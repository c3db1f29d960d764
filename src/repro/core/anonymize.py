"""Client-site Anonymizer (paper §3.1).

Before shipping schema/metadata/CCs to the vendor, HYDRA masks identifiers
and maps every non-numeric constant to a number, so the vendor-site
pipeline — and the resulting database summary — deals in numeric datatypes
only. The mapping is invertible (kept at the client) but irrelevant for CC
satisfaction.

This reproduction generates numeric data directly for its benchmarks, but
the anonymizer is implemented as a real substrate so the pipeline's entry
contract matches the paper: arbitrary client frames in, numeric frames + reversible codebook
out.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class Codebook:
    """Reversible value mapping per (column): category → code."""

    columns: dict[str, dict[object, int]] = field(default_factory=dict)

    def decode_column(self, col: str, codes: pd.Series) -> pd.Series:
        inv = {v: k for k, v in self.columns[col].items()}
        return codes.map(inv)


def anonymize_frame(pdf: pd.DataFrame) -> tuple[pd.DataFrame, Codebook]:
    """Map non-numeric columns to dense integer codes (sorted for
    determinism: order-preserving on strings so range predicates on the
    original collation remain range predicates on codes)."""
    book = Codebook()
    out = pd.DataFrame(index=pdf.index)
    for col in pdf.columns:
        s = pdf[col]
        if pd.api.types.is_numeric_dtype(s):
            out[col] = s
        elif pd.api.types.is_datetime64_any_dtype(s):
            # Dates become day offsets from the epoch — numeric, order-kept.
            out[col] = (s - pd.Timestamp("1970-01-01")).dt.days.astype("int64")
        else:
            cats = sorted(s.dropna().unique())
            mapping = {c: i for i, c in enumerate(cats)}
            book.columns[col] = mapping
            out[col] = s.map(mapping).astype("int64")
    return out, book


def deanonymize_frame(pdf: pd.DataFrame, book: Codebook) -> pd.DataFrame:
    out = pdf.copy()
    for col, mapping in book.columns.items():
        if col in out.columns:
            inv = {v: k for k, v in mapping.items()}
            out[col] = out[col].map(inv)
    return out
