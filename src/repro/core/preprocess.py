"""DataSynth's preprocessor (paper §3.2), shared by HYDRA and the baseline.

Responsibilities:

1. **Views** — each relation's view is its own non-key attributes augmented
   with those of all transitively referenced relations
   (:meth:`repro.core.schema.Schema.view_attrs`).
2. **CC rewriting** — a join CC ``|σ(R ⋈ S ⋈ ...)| = k`` becomes a selection
   CC on the view of the join's root relation, because every PK–FK join with
   a referenced relation preserves the root's row multiplicity.
3. **Sub-view decomposition** — per view, build the *view-graph* (nodes =
   view attributes, edge iff two attributes co-occur in some CC), play the
   min-fill elimination game on it and keep the maximal cliques it records
   (the maximal cliques of the chordalized graph) as sub-views.
4. **Junction tree** — the cliques of a chordal graph have a junction tree
   (:func:`junction_tree`): a merge order in which each sub-view's overlap
   with the earlier ones lies inside its parent, the running-intersection
   property align/merge relies on (§5.1.1). Tree edges whose separator is
   wider than :data:`MAX_SEPARATOR` are contracted (the two sub-views fuse),
   and the fused sub-views' tree is stored on the :class:`ViewPlan`, where
   the LP, align/merge and DataSynth's sampler read it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import CC, Interval, Predicate
from .schema import Schema


@dataclass(frozen=True)
class RawCC:
    """A client-site CC straight from an AQP: join set + predicate + count."""

    tables: frozenset[str]
    predicate: Predicate
    count: int


def rewrite_ccs(schema: Schema, raw: list[RawCC]) -> list[CC]:
    """Rewrite join CCs onto root-relation views; dedupe identical CCs.

    Duplicate (view, predicate) pairs across queries (e.g. the ``|R|`` CC
    every query emits) are collapsed; conflicting counts for an identical
    predicate would make the LP trivially infeasible and raise instead.
    """
    seen: dict[tuple, CC] = {}
    for rc in raw:
        root = schema.join_root(set(rc.tables))
        view_attr_names = {a.name for a in schema.view_attrs(root)}
        extra = rc.predicate.attrs - view_attr_names
        if extra:
            raise ValueError(f"CC attrs {sorted(extra)} outside view of {root}")
        cc = CC(view=root, predicate=rc.predicate, count=rc.count, tables=rc.tables)
        key = (root, rc.predicate)
        prev = seen.get(key)
        if prev is not None:
            if prev.count != cc.count:
                raise ValueError(
                    f"conflicting counts for identical CC on {root}: "
                    f"{prev.count} vs {cc.count}"
                )
            continue
        seen[key] = cc
    return list(seen.values())


#: Widest separator a sub-view keeps with its junction-tree parent; a
#: fatter one fuses the two (:func:`_fuse_fat_separators`).
MAX_SEPARATOR = 2


def _maximal_cliques(nodes: list[str], edges: set[frozenset[str]]) -> list[frozenset[str]]:
    """Maximal cliques of the view-graph chordalized by the elimination game.

    Each step eliminates the vertex whose remaining neighbours need the
    fewest fill edges (min-fill; ties broken by name), adds those edges and
    records the vertex with its remaining neighbours: a clique of the
    chordal graph. Every maximal clique is one of these sets; the sets
    inside another one are dropped.
    """
    adj: dict[str, set[str]] = {v: set() for v in nodes}
    for a, b in map(tuple, edges):
        adj[a].add(b)
        adj[b].add(a)
    cands: list[frozenset[str]] = []
    while adj:
        best, best_fill = None, None
        for v in sorted(adj):
            nbrs = list(adj[v])
            fill = [(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if b not in adj[a]]
            if best_fill is None or len(fill) < len(best_fill):
                best, best_fill = v, fill
        for a, b in best_fill:
            adj[a].add(b)
            adj[b].add(a)
        nbrs = adj.pop(best)
        for u in nbrs:
            adj[u].discard(best)
        cands.append(frozenset(nbrs | {best}))
    cands.sort(key=len, reverse=True)
    out: list[frozenset[str]] = []
    for c in cands:
        if not any(c <= m for m in out):
            out.append(c)
    return out


def junction_tree(subviews: list[tuple[str, ...]]) -> list[tuple[int, int | None]]:
    """The sub-views' merge order, each with its parent: Prim's
    maximum-weight spanning tree over separator sizes.

    Start from the largest sub-view (ties by attribute tuple); then, at each
    step, add the remaining sub-view with the largest overlap with any one
    sub-view already chosen (ties to the earliest in the start order), as a
    child of the first chosen sub-view with that overlap. A sub-view
    overlapping none starts a new component (parent ``None``). The maximal
    cliques of a chordal graph have a junction tree, which this finds, so
    each sub-view's overlap with all earlier ones lies inside its parent —
    the running-intersection property (RIP) that Algorithm 3 needs (§5.1.1).
    Raises ``ValueError`` where it does not.
    """
    sets = [set(sv) for sv in subviews]
    start = sorted(range(len(subviews)), key=lambda i: (-len(subviews[i]), subviews[i]))
    link: dict[int, tuple[int, int | None]] = {i: (0, None) for i in start}
    tree: list[tuple[int, int | None]] = []
    seen: set[str] = set()
    while link:
        i = max(link, key=lambda k: link[k][0])
        _, parent = link.pop(i)
        common = sets[i] & seen
        if parent is not None and not common <= sets[parent]:
            raise ValueError(
                f"sub-view {subviews[i]} breaks the running intersection: its overlap "
                f"{sorted(common)} with the earlier sub-views lies in no one of them"
            )
        tree.append((i, parent))
        seen |= sets[i]
        for k in link:
            overlap = len(sets[i] & sets[k])
            if overlap > link[k][0]:
                link[k] = (overlap, i)
    return tree


def _fuse_fat_separators(cliques: list[frozenset[str]]) -> list[frozenset[str]]:
    """Contract every junction-tree edge whose separator is wider than
    :data:`MAX_SEPARATOR`: the clique joins its parent's sub-view.

    Cross-sub-view consistency requires refining both partitions to the
    joint cell grid of the shared attributes — a cost multiplicative in
    the number of shared attributes' boundaries. When the separator is
    fat, a single fused sub-view (no consistency constraints at all) is
    strictly cheaper, so decomposition is kept only where it helps: the
    paper introduces sub-views purely "to reduce the effective
    complexity" (§3.2), which this guard preserves. Two disjoint subtrees
    of a junction tree share attributes only through the edge joining them,
    so no fused sub-view overlaps another by more than the limit, and none
    lies inside another.
    """
    group = list(range(len(cliques)))
    # Prim adds a parent before its children, so group[parent] is final.
    for i, parent in junction_tree([tuple(sorted(c)) for c in cliques]):
        if parent is not None and len(cliques[i] & cliques[parent]) > MAX_SEPARATOR:
            group[i] = group[parent]
    fused: dict[int, frozenset[str]] = {}
    for c, g in zip(cliques, group):
        fused[g] = fused.get(g, frozenset()) | c
    return list(fused.values())


@dataclass
class ViewPlan:
    """Everything the LP formulator needs for one view.

    ``subviews`` are attribute-name tuples in canonical (view-attribute)
    order; ``total`` is the relation's row count from the ``|R|`` CC.
    ``tree`` is their :func:`junction_tree`, ``(index into subviews,
    parent index or None)`` in merge order; a plan whose sub-views have
    none cannot be built.
    """

    view: str
    attrs: tuple[str, ...]
    domain: dict[str, Interval]
    subviews: list[tuple[str, ...]]
    ccs: list[CC]
    total: int
    tree: list[tuple[int, int | None]] = field(init=False)

    def __post_init__(self) -> None:
        self.tree = junction_tree(self.subviews)


def plan_views(schema: Schema, ccs: list[CC]) -> dict[str, ViewPlan]:
    """Build a :class:`ViewPlan` for every relation in the schema.

    Relations without any CC still get a plan (single full-domain sub-view
    per attribute) so the summary generator can emit them — but they must
    carry a total-size CC; every workload emits ``|R|`` for each relation it
    touches, and untouched relations get their size from the generator.
    """
    by_view: dict[str, list[CC]] = {r: [] for r in schema.relations}
    for cc in ccs:
        by_view[cc.view].append(cc)

    plans: dict[str, ViewPlan] = {}
    for rel in schema.topo_order():
        view_attrs = schema.view_attrs(rel)
        attr_names = tuple(a.name for a in view_attrs)
        domain = {a.name: Interval(a.lo, a.hi) for a in view_attrs}
        view_ccs = by_view[rel]
        totals = [cc for cc in view_ccs if cc.predicate.is_true]
        if not totals:
            raise ValueError(f"view {rel} lacks a total-size CC |{rel}| = k")
        total = totals[0].count

        edges: set[frozenset[str]] = set()
        for cc in view_ccs:
            cc_attrs = sorted(cc.predicate.attrs)
            for i, a in enumerate(cc_attrs):
                for b in cc_attrs[i + 1 :]:
                    edges.add(frozenset((a, b)))
        fused = _fuse_fat_separators(_maximal_cliques(list(attr_names), edges))
        # Canonical attribute order inside each sub-view + deterministic
        # sub-view order (by first attribute position).
        idx = {a: i for i, a in enumerate(attr_names)}
        subviews = sorted(
            (tuple(sorted(c, key=idx.__getitem__)) for c in fused),
            key=lambda t: tuple(idx[a] for a in t),
        )
        plans[rel] = ViewPlan(
            view=rel,
            attrs=attr_names,
            domain=domain,
            subviews=subviews,
            ccs=view_ccs,
            total=total,
        )
    return plans
