"""Relational schema model for the HYDRA pipeline.

All attributes are integer-valued with half-open domains ``[lo, hi)`` — the
paper's Anonymizer maps every non-numeric constant to a number before the
vendor-site pipeline runs (§3.1), so a numeric-only schema is exactly the
form HYDRA operates on.

The schema records PK/FK structure separately from the non-key attributes:
cardinality constraints may only filter non-key attributes, and all joins are
PK–FK (§2.2), so views are built purely from non-key attributes plus the FK
dependency DAG.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import TopologicalSorter


@dataclass(frozen=True)
class Attribute:
    """A non-key attribute with an integer domain ``[lo, hi)``."""

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"empty domain for {self.name}: [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class Relation:
    """A relation: one PK column, FK columns, and non-key attributes.

    ``fks`` maps FK column name → referenced relation name. Attribute names
    must be globally unique across the schema (TPC-DS-style prefixes), which
    lets views carry borrowed attributes without renaming.
    """

    name: str
    pk: str
    attrs: tuple[Attribute, ...]
    fks: dict[str, str] = field(default_factory=dict)


class Schema:
    """A set of relations whose FK references form a DAG (§5.3).

    Provides the derived structure the preprocessor and summary generator
    need: the referential dependency graph, topological orders over it, and
    the per-relation *view closure* (own non-key attributes plus those of all
    transitively referenced relations).
    """

    def __init__(self, relations: list[Relation]):
        self.relations: dict[str, Relation] = {r.name: r for r in relations}
        if len(self.relations) != len(relations):
            raise ValueError("duplicate relation names")
        seen: dict[str, str] = {}
        for r in relations:
            for a in r.attrs:
                if a.name in seen:
                    raise ValueError(
                        f"attribute {a.name} appears in both {seen[a.name]} and {r.name}"
                    )
                seen[a.name] = r.name
        for r in relations:
            for fk_col, target in r.fks.items():
                if target not in self.relations:
                    raise ValueError(f"{r.name}.{fk_col} references unknown {target}")
        # Validates acyclicity eagerly; TopologicalSorter raises on cycles.
        self.topo_order()

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def dependencies(self, name: str) -> set[str]:
        """Direct FK targets of ``name``."""
        return set(self.relations[name].fks.values())

    def topo_order(self) -> list[str]:
        """Relations ordered so every relation follows its FK targets."""
        ts = TopologicalSorter(
            {r.name: self.dependencies(r.name) for r in self.relations.values()}
        )
        return list(ts.static_order())

    def reverse_topo_order(self) -> list[str]:
        """Dependents first — the order used for referential repair (§5.3)."""
        return list(reversed(self.topo_order()))

    def view_closure(self, name: str) -> set[str]:
        """Relations contributing attributes to ``name``'s view (incl. itself)."""
        out: set[str] = set()
        stack = [name]
        while stack:
            r = stack.pop()
            if r in out:
                continue
            out.add(r)
            stack.extend(self.dependencies(r))
        return out

    def view_attrs(self, name: str) -> tuple[Attribute, ...]:
        """The view of ``name``: own non-key attrs + borrowed ones (§3.2).

        Deterministic order: relations in topological order, then the
        relation's own attribute declaration order.
        """
        members = self.view_closure(name)
        out: list[Attribute] = []
        for r in self.topo_order():
            if r in members:
                out.extend(self.relations[r].attrs)
        return tuple(out)

    def join_root(self, tables: set[str]) -> str:
        """The relation in ``tables`` whose view closure covers all of them.

        PK–FK join expressions are rewritten onto the view of this root
        relation by the preprocessor (§3.2). Raises if the join set is not
        closed under a single root (not expressible as one view).
        """
        for t in tables:
            if tables <= self.view_closure(t):
                return t
        raise ValueError(f"no join root covers {sorted(tables)}")
