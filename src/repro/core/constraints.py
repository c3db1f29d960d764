"""Cardinality constraints (CCs) and DNF predicates over integer boxes.

A CC is a pair ``⟨σ, k⟩`` (§4.1): a selection predicate in disjunctive
normal form and the number of rows satisfying it. Each DNF *conjunct* (the
paper's "sub-constraint") is a conjunction of per-attribute range
restrictions; each per-attribute restriction is an integer interval
``[lo, hi)`` (the Anonymizer has already numericized constants).

Predicates are evaluated in three forms used across the pipeline:

- on a point (dict of attr → value) — tuple-level checks in tests, and
  column-wise on many points at once (:func:`match_matrix`) — the CC
  signatures of referential repair,
- on a *box* (dict of attr → Interval) — valid on boxes that never
  straddle a constraint boundary, such as grid cells,
- on pandas columns — vectorized AQP cardinality checks and metrics.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
import pandas as pd


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open integer interval ``[lo, hi)``; empty iff lo >= hi."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.lo >= self.hi

    def contains(self, v: int) -> bool:
        return self.lo <= v < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def width(self) -> int:
        return max(0, self.hi - self.lo)


@dataclass(frozen=True)
class Conjunct:
    """A sub-constraint: conjunction of per-attribute interval restrictions.

    ``restrictions`` maps attribute name → Interval. An attribute absent
    from the map is unrestricted ("true" per Definition 4.5).
    """

    restrictions: tuple[tuple[str, Interval], ...]

    @staticmethod
    def of(**bounds: tuple[int, int]) -> "Conjunct":
        """Convenience constructor: ``Conjunct.of(age=(20, 60))``."""
        return Conjunct(
            tuple(sorted((a, Interval(lo, hi)) for a, (lo, hi) in bounds.items()))
        )

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.restrictions)

    def restriction(self, attr: str) -> Interval | None:
        """Projection to one dimension (Definition 4.5); None means "true"."""
        return next((iv for a, iv in self.restrictions if a == attr), None)

    def matches_point(self, point: Mapping[str, int]) -> bool:
        return all(iv.contains(point[a]) for a, iv in self.restrictions)

    def matches_box(self, box: Mapping[str, Interval]) -> bool:
        """True iff the whole box satisfies the conjunct.

        Only meaningful on boxes that do not straddle this conjunct's
        boundaries — which Algorithm 2 guarantees before labelling.
        """
        return all(
            iv.contains_interval(box[a]) for a, iv in self.restrictions if a in box
        )

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        """Vectorized evaluation over a pandas frame."""
        m = np.ones(len(pdf), dtype=bool)
        for a, iv in self.restrictions:
            col = pdf[a].to_numpy()
            m &= (col >= iv.lo) & (col < iv.hi)
        return m

    def to_sql(self) -> str:
        if not self.restrictions:
            return "TRUE"
        return " AND ".join(
            f"({a} >= {iv.lo} AND {a} < {iv.hi})" for a, iv in self.restrictions
        )


@dataclass(frozen=True)
class Predicate:
    """A DNF predicate: disjunction of conjuncts. Empty DNF = TRUE.

    The paper assumes every CC predicate is in DNF (§4.1); the TRUE predicate
    expresses total-size CCs like ``|R| = k``.
    """

    conjuncts: tuple[Conjunct, ...] = ()

    @staticmethod
    def true() -> "Predicate":
        return Predicate(())

    @staticmethod
    def of(**bounds: tuple[int, int]) -> "Predicate":
        return Predicate((Conjunct.of(**bounds),))

    @cached_property
    def is_true(self) -> bool:
        return not self.conjuncts or any(not c.restrictions for c in self.conjuncts)

    @cached_property
    def attrs(self) -> frozenset[str]:
        return frozenset().union(*(c.attrs for c in self.conjuncts)) if self.conjuncts else frozenset()

    def matches_point(self, point: Mapping[str, int]) -> bool:
        return self.is_true or any(c.matches_point(point) for c in self.conjuncts)

    def matches_box(self, box: Mapping[str, Interval]) -> bool:
        return self.is_true or any(c.matches_box(box) for c in self.conjuncts)

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        if self.is_true:
            return np.ones(len(pdf), dtype=bool)
        m = np.zeros(len(pdf), dtype=bool)
        for c in self.conjuncts:
            m |= c.mask(pdf)
        return m

    def to_sql(self) -> str:
        if self.is_true:
            return "TRUE"
        return " OR ".join(f"({c.to_sql()})" for c in self.conjuncts)

    def conjoin(self, other: "Predicate") -> "Predicate":
        """DNF conjunction — distributes conjuncts; drops empty products.

        Raises ``ValueError`` when every product is empty: the conjunction
        is unsatisfiable, and the empty DNF would read as TRUE.
        """
        if self.is_true:
            return other
        if other.is_true:
            return self
        out = []
        for c1 in self.conjuncts:
            for c2 in other.conjuncts:
                merged: dict[str, Interval] = dict(c1.restrictions)
                ok = True
                for a, iv in c2.restrictions:
                    got = merged.get(a)
                    iv2 = iv if got is None else got.intersect(iv)
                    if iv2.empty:
                        ok = False
                        break
                    merged[a] = iv2
                if ok:
                    out.append(Conjunct(tuple(sorted(merged.items()))))
        if not out:
            raise ValueError(f"contradiction: ({self.to_sql()}) AND ({other.to_sql()})")
        return Predicate(tuple(out))


def match_matrix(
    predicates: Sequence[Predicate], attrs: Sequence[str], points: np.ndarray
) -> np.ndarray:
    """``out[i, k] == predicates[k].matches_point(dict(zip(attrs, points[i])))``
    for an int64 array of points (one row per point, columns in ``attrs``
    order), evaluated column-wise: every conjunct of every predicate in one
    pass over the points, the conjuncts' hits OR-ed per predicate.
    """
    conjs = [(k, c) for k, p in enumerate(predicates) if not p.is_true for c in p.conjuncts]
    col = {a: d for d, a in enumerate(attrs)}
    # Per conjunct and attribute: restricted or not, and the tightest bounds.
    restricted = np.zeros((len(conjs), len(attrs)), dtype=bool)
    lo = np.full((len(conjs), len(attrs)), np.iinfo(np.int64).min)
    hi = np.full((len(conjs), len(attrs)), np.iinfo(np.int64).max)
    for r, (_, c) in enumerate(conjs):
        for a, iv in c.restrictions:
            d = col[a]
            restricted[r, d] = True
            lo[r, d], hi[r, d] = max(lo[r, d], iv.lo), min(hi[r, d], iv.hi)
    pts = points[:, None, :]
    hits = (((pts >= lo) & (pts < hi)) | ~restricted).all(axis=2)
    out = np.ones((len(points), len(predicates)), dtype=bool)
    if conjs:
        owner, starts = np.unique([k for k, _ in conjs], return_index=True)
        out[:, owner] = np.logical_or.reduceat(hits, starts, axis=1)
    return out


@dataclass(frozen=True)
class CC:
    """A cardinality constraint ⟨σ, k⟩ attached to a relation's *view*.

    ``view`` names the relation whose view the (possibly join-derived)
    predicate has been rewritten onto; ``tables`` records the original join
    set for reporting (Figs 9/16 bucket CCs by cardinality, §7 buckets LP
    variables by relation).
    """

    view: str
    predicate: Predicate
    count: int
    tables: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("CC count must be non-negative")


def total_cc(view: str, count: int) -> CC:
    """The ``|R| = k`` constraint every view must carry (Figure 6, eq. 2)."""
    return CC(view=view, predicate=Predicate.true(), count=count, tables=frozenset({view}))


def sub_constraints(ccs: Iterable[CC]) -> list[Conjunct]:
    """All DNF sub-constraints across ``ccs`` (Algorithm 1, line 1)."""
    out: list[Conjunct] = []
    for cc in ccs:
        for c in cc.predicate.conjuncts:
            if c.restrictions:
                out.append(c)
    return out
