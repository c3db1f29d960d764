"""Volumetric-similarity measurement (paper §7.1, Figs 10/11).

The quality metric is per-CC relative error between the client cardinality
``k`` and the cardinality the regenerated database *actually* produces for
the same operator. Achieved cardinalities are measured by re-executing each
CC's join + filter on pandas frames of the regenerated relations, with the
join planner and pandas executor of :mod:`repro.core.workload`.

Signed relative error is reported because the paper highlights that
DataSynth errs in both directions while HYDRA only errs positively
(referential-integrity insertions add tuples, never remove them).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .constraints import CC
from .schema import Schema
from .workload import join_order, pandas_count, pandas_joins


@dataclass
class CCError:
    cc: CC
    achieved: int

    @property
    def rel_error(self) -> float:
        """Signed relative error; errors on a zero target count as ±1."""
        if self.cc.count == 0:
            return 0.0 if self.achieved == 0 else 1.0
        return (self.achieved - self.cc.count) / self.cc.count


def achieved_counts_pandas(
    schema: Schema, tables: dict[str, pd.DataFrame], ccs: list[CC]
) -> list[CCError]:
    out = []
    for cc in ccs:
        *_, joined = pandas_joins(schema, tables, join_order(schema, cc.tables))
        out.append(CCError(cc=cc, achieved=pandas_count(joined, cc.predicate)))
    return out


def error_cdf(
    errors: list[CCError], thresholds: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10, 0.25, 0.60)
) -> list[tuple[float, float]]:
    """Fig 10's curve: fraction of CCs within each |relative error| bound."""
    abs_errs = np.array([abs(e.rel_error) for e in errors]) if errors else np.array([])
    out = []
    for t in thresholds:
        frac = float((abs_errs <= t + 1e-12).mean()) if len(abs_errs) else 1.0
        out.append((t, frac))
    return out


def max_abs_error(errors: list[CCError]) -> float:
    return max((abs(e.rel_error) for e in errors), default=0.0)


def signed_error_split(errors: list[CCError]) -> tuple[int, int, int]:
    """(#negative, #zero, #positive) signed errors — §7.1's last observation."""
    neg = sum(1 for e in errors if e.rel_error < 0)
    pos = sum(1 for e in errors if e.rel_error > 0)
    zero = len(errors) - neg - pos
    return neg, zero, pos

