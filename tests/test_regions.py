"""Region-partitioning tests, anchored on the paper's own examples.

The §3.2 "Person" view (Figure 3) must produce exactly 4 regions where
grid-partitioning produces 16 cells, and the LP constraints must take the
Figure 4b shape. The partitioner is checked against a point oracle: each
point's label is the set of CCs it satisfies, computed point by point.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import CC, Conjunct, Interval, Predicate, total_cc
from repro.core.regions import Region, Regions, partition_lp_regions


def person_ccs():
    """|age<40 ∧ salary<40K| = 1000; |20<=age<60 ∧ 20K<=salary<60K| = 2000;
    |Person| = 8000 — §3.2's running example."""
    return [
        CC("person", Predicate.of(age=(0, 40), salary=(0, 40)), 1000),
        CC("person", Predicate.of(age=(20, 60), salary=(20, 60)), 2000),
        total_cc("person", 8000),
    ]


PERSON = ("age", "salary")
PERSON_DOMAIN = {"age": Interval(0, 100), "salary": Interval(0, 100)}


def constants(ccs, attr, dom):
    """The CC constants on ``attr`` strictly inside ``dom``."""
    return sorted({
        p for cc in ccs for c in cc.predicate.conjuncts for a, iv in c.restrictions
        if a == attr for p in (iv.lo, iv.hi) if dom.lo < p < dom.hi
    })


def cells(attrs, domain, ccs):
    """The regions, as (box dict, label) pairs, with every attribute shared
    and cut at its CC constants: a region is then one elementary cell, and
    the cells tile the domain."""
    bounds = {a: constants(ccs, a, domain[a]) for a in attrs}
    return [(r.box, r.label) for r in partition_lp_regions(attrs, domain, ccs, attrs, bounds)]


def point_label(ccs, point):
    """The oracle: the CCs that one point satisfies."""
    return frozenset(i for i, cc in enumerate(ccs) if cc.predicate.matches_point(point))


def points(box):
    """Every point of a box, in lexicographic order, as attribute dicts."""
    attrs = list(box)
    for p in itertools.product(*(range(box[a].lo, box[a].hi) for a in attrs)):
        yield dict(zip(attrs, p))


def area(box):
    out = 1
    for iv in box.values():
        out *= iv.width()
    return out


def area_by_label(attrs, domain, ccs):
    out = {}
    for b, lab in cells(attrs, domain, ccs):
        out[lab] = out.get(lab, 0) + area(b)
    return out


def cut_1d(iv, cut):
    """The cells the partitioner cuts ``iv`` into for one CC on ``cut``."""
    ccs = [CC("v", Predicate.of(a=(cut.lo, cut.hi)), 1)]
    return sorted((b["a"] for b, _ in cells(("a",), {"a": iv}, ccs)), key=lambda i: i.lo)


class TestSplitInterval:
    """Definition 4.6's refinement b+/b-: a box is cut only at a CC's bounds
    that fall inside it, into at most three pieces."""

    def test_no_overlap_no_split(self):
        assert cut_1d(Interval(0, 10), Interval(20, 30)) == [Interval(0, 10)]

    def test_interior_cut_both_sides(self):
        assert cut_1d(Interval(0, 10), Interval(3, 7)) == [
            Interval(0, 3),
            Interval(3, 7),
            Interval(7, 10),
        ]

    def test_one_sided_cut(self):
        assert cut_1d(Interval(0, 10), Interval(5, 20)) == [
            Interval(0, 5),
            Interval(5, 10),
        ]

    def test_covering_cut_no_split(self):
        assert cut_1d(Interval(3, 7), Interval(0, 10)) == [Interval(3, 7)]


PERSON_SUBS = [
    Conjunct.of(age=(0, 40), salary=(0, 40)),
    Conjunct.of(age=(20, 60), salary=(20, 60)),
]


class TestValidPartition:
    def test_no_constraints_single_block(self):
        regions = partition_lp_regions(("a",), {"a": Interval(0, 10)}, [], (), {})
        assert [(r.box, r.label) for r in regions] == [({"a": Interval(0, 10)}, frozenset())]

    def test_blocks_partition_domain(self):
        total = sum(area(b) for b, _ in cells(PERSON, PERSON_DOMAIN, person_ccs()))
        assert total == 100 * 100

    def test_blocks_uniform_per_subconstraint(self):
        """Every region's box is fully inside or fully outside each conjunct
        (as a whole conjunction) — the validity Algorithm 1's labelling
        needs."""
        for r in partition_lp_regions(PERSON, PERSON_DOMAIN, person_ccs(), (), {}):
            b = r.box
            for c in PERSON_SUBS:
                corner_vals = set()
                for age in (b["age"].lo, b["age"].hi - 1):
                    for sal in (b["salary"].lo, b["salary"].hi - 1):
                        corner_vals.add(c.matches_point({"age": age, "salary": sal}))
                assert len(corner_vals) == 1

    def test_pruning_beats_grid(self):
        # strictly fewer than the 4×4 grid
        assert len(partition_lp_regions(PERSON, PERSON_DOMAIN, person_ccs(), (), {})) < 16


class TestOptimalPartitionPaperExamples:
    def test_person_has_four_regions(self):
        regions = partition_lp_regions(PERSON, PERSON_DOMAIN, person_ccs(), (), {})
        assert len(regions) == 4  # Figure 3b

    def test_person_labels_match_figure_4b(self):
        regions = partition_lp_regions(PERSON, PERSON_DOMAIN, person_ccs(), (), {})
        # y1: only CC0 (+total); y2: CC0 and CC1; y3: only CC1; y4: only total.
        labels = sorted(tuple(sorted(r.label)) for r in regions)
        assert labels == [(0, 1, 2), (0, 2), (1, 2), (2,)]

    def test_person_region_areas(self):
        area = {
            tuple(sorted(lab)): n
            for lab, n in area_by_label(PERSON, PERSON_DOMAIN, person_ccs()).items()
        }
        assert area[(0, 2)] + area[(0, 1, 2)] == 40 * 40  # CC0 area
        assert area[(1, 2)] + area[(0, 1, 2)] == 40 * 40  # CC1 area
        assert area[(0, 1, 2)] == 20 * 20  # overlap
        assert sum(area.values()) == 100 * 100

    def test_dnf_constraint_regions(self):
        # ((a<=20) ∧ (b>30)) ∨ (a>50): 1 CC → 2 regions (in/out).
        p = Predicate((Conjunct.of(a=(0, 21), b=(31, 100)), Conjunct.of(a=(51, 100))))
        attrs = ("a", "b")
        domain = {"a": Interval(0, 100), "b": Interval(0, 100)}
        ccs = [CC("v", p, 10), total_cc("v", 100)]
        assert len(partition_lp_regions(attrs, domain, ccs, (), {})) == 2
        # |a∈[0,21)|·|b∈[31,100)| + |a∈[51,100)|·100
        assert area_by_label(attrs, domain, ccs)[frozenset({0, 1})] == 21 * 69 + 49 * 100

    def test_disjoint_ccs(self):
        ccs = [
            CC("v", Predicate.of(a=(0, 10)), 5),
            CC("v", Predicate.of(a=(20, 30)), 7),
            total_cc("v", 100),
        ]
        domain = {"a": Interval(0, 100)}
        # [0,10) / [10,20)∪[30,100) / [20,30): outside blocks share a label.
        assert len(partition_lp_regions(("a",), domain, ccs, (), {})) == 3
        outside = [b for b, lab in cells(("a",), domain, ccs) if lab == frozenset({2})]
        assert len(outside) == 2

    def test_nested_ccs(self):
        ccs = [
            CC("v", Predicate.of(a=(0, 50)), 5),
            CC("v", Predicate.of(a=(10, 20)), 2),
            total_cc("v", 10),
        ]
        assert len(partition_lp_regions(("a",), {"a": Interval(0, 100)}, ccs, (), {})) == 3

    def test_deterministic_output(self):
        r1 = partition_lp_regions(PERSON, PERSON_DOMAIN, person_ccs(), ("age",), {"age": [20, 40, 60]})
        r2 = partition_lp_regions(PERSON, PERSON_DOMAIN, person_ccs(), ("age",), {"age": [20, 40, 60]})
        assert r1 == r2
        assert cells(PERSON, PERSON_DOMAIN, person_ccs()) == cells(
            PERSON, PERSON_DOMAIN, person_ccs()
        )


def _intervals(n):
    return st.tuples(st.integers(0, n - 1), st.integers(1, n)).map(
        lambda t: (min(t[0], t[1] - 1), max(t[0] + 1, t[1]))
    )


@st.composite
def domain_and_ccs(draw, attrs=("a", "b"), max_width=8):
    """A small integer domain over ``attrs`` and 1–4 CCs, each a DNF of 1–2
    conjuncts restricting a non-empty subset of ``attrs``."""
    domain = {a: Interval(0, draw(st.integers(1, max_width))) for a in attrs}
    subsets = [on for k in range(1, len(attrs) + 1) for on in itertools.combinations(attrs, k)]
    ccs = []
    for _ in range(draw(st.integers(1, 4))):
        conjuncts = []
        for _ in range(draw(st.integers(1, 2))):
            on = draw(st.sampled_from(subsets))
            conjuncts.append(Conjunct.of(**{x: draw(_intervals(domain[x].hi)) for x in on}))
        ccs.append(CC("v", Predicate(tuple(conjuncts)), 1))
    return domain, ccs + [total_cc("v", 10)]


@settings(max_examples=100, deadline=None)
@given(case=domain_and_ccs())
def test_optimal_partition_is_valid_and_covers(case):
    """Property, checked point by point on a 2-D domain: the elementary
    cells tile the domain, each label's cells cover exactly the points with
    that label, and the label-only partition has one region per distinct
    point label (Lemma 4.3: the quotient set is the optimal partition),
    each region's box holding only points of its label."""
    domain, ccs = case
    attrs = ("a", "b")
    point_labels = {tuple(p.values()): point_label(ccs, p) for p in points(domain)}
    count = {}
    for lab in point_labels.values():
        count[lab] = count.get(lab, 0) + 1

    covered = set()
    for b, lab in cells(attrs, domain, ccs):
        for p in points(b):
            key = tuple(p.values())
            assert key not in covered
            covered.add(key)
            assert point_labels[key] == lab
    assert covered == set(point_labels)
    assert area_by_label(attrs, domain, ccs) == count
    regions = partition_lp_regions(attrs, domain, ccs, (), {})
    assert sorted(map(sorted, (r.label for r in regions))) == sorted(map(sorted, count))
    assert all(point_label(ccs, p) == r.label for r in regions for p in points(r.box))


def one_cell_each(regions, attr, boundaries, domain):
    cuts = sorted(set(boundaries) | {domain.lo, domain.hi})
    cells = set(zip(cuts, cuts[1:]))
    return all((r.box[attr].lo, r.box[attr].hi) in cells for r in regions)


class TestConsistencyRefinement:
    def test_refine_boxes_cuts_at_points(self):
        regions = partition_lp_regions(
            ("a",), {"a": Interval(0, 100)}, [total_cc("v", 1)], ("a",), {"a": [30, 60]}
        )
        assert [r.box["a"] for r in regions] == [
            Interval(0, 30), Interval(30, 60), Interval(60, 100)
        ]

    def test_refine_regions_groups_by_shared_cell(self):
        ccs = [CC("v", Predicate.of(a=(0, 50)), 5), total_cc("v", 10)]
        domain = {"a": Interval(0, 100), "b": Interval(0, 10)}
        regions = partition_lp_regions(("a", "b"), domain, ccs, ("a",), {"a": [25, 50]})
        cells = {(r.box["a"].lo, r.box["a"].hi) for r in regions}
        assert cells == {(0, 25), (25, 50), (50, 100)}
        assert one_cell_each(regions, "a", [25, 50], domain["a"])

    def test_refinement_preserves_coverage(self):
        ccs = [CC("v", Predicate.of(a=(0, 50)), 5), total_cc("v", 10)]
        regions = partition_lp_regions(
            ("a",), {"a": Interval(0, 100)}, ccs, ("a",), {"a": [10, 20, 50, 99]}
        )
        assert sum(r.box["a"].width() for r in regions) == 100

    def test_split_points(self):
        """Every box edge is a CC constant or a domain edge — what lets the
        LP key a region by its own interval on a shared attribute."""
        edges = {0, 20, 40, 60, 100}
        for r in partition_lp_regions(PERSON, PERSON_DOMAIN, person_ccs(), (), {}):
            for iv in r.box.values():
                assert {iv.lo, iv.hi} <= edges

    def test_each_region_is_one_shared_cell(self):
        p = Predicate((Conjunct.of(a=(0, 21), b=(31, 100)), Conjunct.of(a=(51, 100))))
        ccs = [CC("v", p, 10), CC("v", Predicate.of(a=(10, 70)), 4), total_cc("v", 100)]
        domain = {"a": Interval(0, 100), "b": Interval(0, 100)}
        bounds = [10, 21, 35, 51, 70]  # the CC constants on a, plus one more
        regions = partition_lp_regions(("a", "b"), domain, ccs, ("a",), {"a": bounds})
        assert one_cell_each(regions, "a", bounds, domain["a"])
        # Cutting keeps one region per (label, cell) that holds any point.
        label_only = partition_lp_regions(("a", "b"), domain, ccs, (), {})
        assert len(regions) > len(label_only)
        assert {r.label for r in regions} == {r.label for r in label_only}


#: (sub-view attributes, shared attributes) of the LP-region property test
LP_CASES = [(("a", "b"), ("a",)), (("a", "b", "c"), ("a", "c")), (("a", "b", "c"), ("b", "c"))]


@st.composite
def lp_case(draw):
    attrs, shared = draw(st.sampled_from(LP_CASES))
    domain, ccs = draw(domain_and_ccs(attrs, 8 if len(attrs) == 2 else 4))
    extra = {a: draw(st.integers(0, 8)) for a in shared}
    return attrs, shared, domain, ccs, extra


@settings(max_examples=150, deadline=None)
@given(case=lp_case())
def test_lp_regions_are_first_boxes_of_label_cell_classes(case):
    """Property, checked point by point on 2-D and 3-D domains with one or
    two shared attributes, cut at their CC constants plus one more point
    each: there is one region per (point label, shared cells) class,
    carried by the class's lexicographically first point; the regions come
    in the lexicographic order of their boxes' lows; and every point of a
    region's box has the region's label and shared cells."""
    attrs, shared, domain, ccs, extra = case
    bounds = {
        a: sorted(set(constants(ccs, a, domain[a]))
                  | ({extra[a]} if domain[a].lo < extra[a] < domain[a].hi else set()))
        for a in shared
    }
    cuts = {a: [domain[a].lo] + bounds[a] + [domain[a].hi] for a in shared}

    def cell_of(point):
        return tuple(
            next((lo, hi) for lo, hi in zip(cuts[a], cuts[a][1:]) if lo <= point[a] < hi)
            for a in shared
        )

    first = {}
    for point in points(domain):  # lexicographic
        first.setdefault((point_label(ccs, point), cell_of(point)), tuple(point.values()))
    regions = partition_lp_regions(attrs, domain, ccs, shared, bounds)
    got = [
        (r.label, tuple((r.box[a].lo, r.box[a].hi) for a in shared),
         tuple(r.box[a].lo for a in attrs))
        for r in regions
    ]
    assert sorted(got, key=lambda g: g[2]) == got
    assert len({g[2] for g in got}) == len(got)
    assert {(lab, cell): lows for lab, cell, lows in got} == first
    assert len(got) == len(first)
    for r, (lab, cell, _) in zip(regions, got):
        for point in points(r.box):
            assert point_label(ccs, point) == lab and cell_of(point) == cell


def test_boundaries_must_hold_the_cc_constants():
    """A shared attribute cut without one of its CC constants would give a
    region two labels' worth of points; the partitioner refuses it."""
    ccs = [CC("v", Predicate.of(a=(0, 50)), 5), total_cc("v", 10)]
    with pytest.raises(ValueError, match="50"):
        partition_lp_regions(("a",), {"a": Interval(0, 100)}, ccs, ("a",), {"a": [25]})


class TestRegionsContainer:
    def regions(self, bounds=(20, 40, 60)):
        return partition_lp_regions(
            PERSON, PERSON_DOMAIN, person_ccs(), ("age",), {"age": list(bounds)}
        )

    def test_is_a_sequence_of_regions(self):
        regions = self.regions()
        assert isinstance(regions, Regions)
        listed = list(regions)
        assert len(listed) == len(regions) == len(regions.label_ids)
        assert all(isinstance(r, Region) for r in listed)
        for i, r in enumerate(listed):
            assert regions[i] == r
            assert r.box == {
                a: Interval(int(regions.los[i, d]), int(regions.his[i, d]))
                for d, a in enumerate(PERSON)
            }
            assert r.label == regions.labels[regions.label_ids[i]]

    def test_negative_index_and_out_of_range(self):
        regions = self.regions()
        n = len(regions)
        assert regions[-1] == regions[n - 1]
        assert regions[-n] == regions[0]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                regions[i]

    def test_labels_are_distinct(self):
        regions = self.regions()
        assert len(set(regions.labels)) == len(regions.labels)
        assert set(regions.label_ids.tolist()) == set(range(len(regions.labels)))

    def test_equality_compares_boxes_and_labels(self):
        regions = self.regions()
        assert regions == self.regions()
        assert regions != self.regions(bounds=(20, 40, 60, 80))
        assert regions != list(regions)
        # The same per-region labels under another label numbering are equal.
        order = list(reversed(range(len(regions.labels))))
        renumbered = Regions(
            regions.attrs, regions.los, regions.his,
            np.array([order.index(i) for i in regions.label_ids.tolist()]),
            [regions.labels[i] for i in order],
        )
        assert renumbered == regions
        assert regions.relabel([5, 6, 7]) != regions

    def test_relabel_renames_cc_indices(self):
        regions = self.regions()
        renamed = regions.relabel([10, 11, 12])
        assert [r.label for r in renamed] == [
            frozenset(10 + j for j in r.label) for r in regions
        ]
        assert [r.box for r in renamed] == [r.box for r in regions]
