"""Grid-partitioning (DataSynth baseline) tests — Figure 3a's 16 cells."""
import itertools

import pytest

from repro.core import grid
from repro.core.constraints import CC, Conjunct, Interval, Predicate, total_cc
from repro.core.grid import (
    GridTooLarge,
    attribute_intervals,
    grid_partition,
    grid_variable_count,
)
from repro.core.regions import Regions, partition_lp_regions

PERSON_DOMAIN = {"age": Interval(0, 100), "salary": Interval(0, 100)}


def area(box):
    return box["age"].width() * box["salary"].width()


def person_ccs():
    return [
        CC("person", Predicate.of(age=(0, 40), salary=(0, 40)), 1000),
        CC("person", Predicate.of(age=(20, 60), salary=(20, 60)), 2000),
        total_cc("person", 8000),
    ]


class TestAttributeIntervals:
    def test_person_age_intervalization(self):
        ivs = attribute_intervals("age", Interval(0, 100), person_ccs())
        assert ivs == [
            Interval(0, 20),
            Interval(20, 40),
            Interval(40, 60),
            Interval(60, 100),
        ]

    def test_unconstrained_attr_single_interval(self):
        ivs = attribute_intervals("other", Interval(0, 50), person_ccs())
        assert ivs == [Interval(0, 50)]

    def test_boundary_at_domain_edge_not_duplicated(self):
        ccs = [CC("v", Predicate.of(a=(0, 100)), 1), total_cc("v", 5)]
        ivs = attribute_intervals("a", Interval(0, 100), ccs)
        assert ivs == [Interval(0, 100)]


class TestGridCounts:
    def test_person_grid_is_16_cells(self):
        # Figure 3a: 4 age intervals × 4 salary intervals.
        assert grid_variable_count(("age", "salary"), PERSON_DOMAIN, person_ccs()) == 16

    def test_region_vs_grid_gap(self):
        regions = partition_lp_regions(("age", "salary"), PERSON_DOMAIN, person_ccs(), (), {})
        assert len(regions) == 4
        assert grid_variable_count(("age", "salary"), PERSON_DOMAIN, person_ccs()) == 16

    def test_multiplicative_blowup(self):
        # n attrs with one constraint each: grid = 2^n cells, regions far fewer.
        attrs = tuple(f"a{i}" for i in range(10))
        domain = {a: Interval(0, 100) for a in attrs}
        ccs = [
            CC("v", Predicate.of(**{a: (0, 50)}), 1) for a in attrs
        ] + [total_cc("v", 100)]
        assert grid_variable_count(attrs, domain, ccs) == 2**10


class TestGridPartition:
    def test_cells_are_single_boxes(self):
        cells = grid_partition(("age", "salary"), PERSON_DOMAIN, person_ccs(), (), {})
        assert len(cells) == 16
        assert sum(area(c.box) for c in cells) == 100 * 100

    def test_labels_consistent_with_region_partition(self):
        ccs = person_ccs()
        attrs = ("age", "salary")
        cells = grid_partition(attrs, PERSON_DOMAIN, ccs, (), {})
        # With every attribute shared and cut at its CC constants, each
        # region is one elementary cell, so the regions tile the domain.
        bounds = {"age": [20, 40, 60], "salary": [20, 40, 60]}
        regions = partition_lp_regions(attrs, PERSON_DOMAIN, ccs, attrs, bounds)
        # Total area per label must agree between the two partitions, and
        # every label-only region's box must hold only points of its label.
        grid_area = {}
        for c in cells:
            grid_area[c.label] = grid_area.get(c.label, 0) + area(c.box)
        region_area = {}
        for r in regions:
            region_area[r.label] = region_area.get(r.label, 0) + area(r.box)
        assert grid_area == region_area
        for r in partition_lp_regions(attrs, PERSON_DOMAIN, ccs, (), {}):
            for p in itertools.product(*(range(r.box[a].lo, r.box[a].hi) for a in attrs)):
                point = dict(zip(attrs, p))
                assert frozenset(
                    i for i, cc in enumerate(ccs) if cc.predicate.matches_point(point)
                ) == r.label

    def test_shared_attribute_cut_at_boundaries(self, monkeypatch):
        """Cells are cut at the consistency boundaries too, so each cell's
        interval on a shared attribute is one boundary cell; a cap equal to
        the cells so cut lets the grid through."""
        ccs = person_ccs()
        bounds = [20, 40, 50, 60]
        monkeypatch.setattr(grid, "CELL_CAP", 20)
        cells = grid_partition(("age", "salary"), PERSON_DOMAIN, ccs, ("age",), {"age": bounds})
        cuts = [0] + bounds + [100]
        assert {(c.box["age"].lo, c.box["age"].hi) for c in cells} == set(zip(cuts, cuts[1:]))
        assert len(cells) == 5 * 4
        assert sum(area(c.box) for c in cells) == 100 * 100
        plain = {c.label for c in grid_partition(("age", "salary"), PERSON_DOMAIN, ccs, (), {})}
        assert {c.label for c in cells} == plain

    def test_cap_counts_cells_cut_at_boundaries(self, monkeypatch):
        """The cap bounds the grid that is built: 4 × 4 unrefined cells are
        within a cap of 16, but the boundary cuts on age make 5 × 4."""
        bounds = {"age": [20, 40, 50, 60]}
        attrs = ("age", "salary")
        assert grid_variable_count(attrs, PERSON_DOMAIN, person_ccs()) == 16
        monkeypatch.setattr(grid, "CELL_CAP", 16)
        with pytest.raises(GridTooLarge) as exc:
            grid_partition(attrs, PERSON_DOMAIN, person_ccs(), ("age",), bounds)
        assert exc.value.n_cells == 20

    def test_cap_raises_grid_too_large(self, monkeypatch):
        attrs = tuple(f"a{i}" for i in range(10))
        domain = {a: Interval(0, 100) for a in attrs}
        ccs = [CC("v", Predicate.of(**{a: (0, 50)}), 1) for a in attrs] + [
            total_cc("v", 100)
        ]
        monkeypatch.setattr(grid, "CELL_CAP", 100)
        with pytest.raises(GridTooLarge) as exc:
            grid_partition(attrs, domain, ccs, (), {})
        assert exc.value.n_cells == 1024

    def test_cells_in_product_order_labelled_per_box(self):
        """The array build equals the per-cell definition: the product of
        the per-attribute intervals, in ``itertools.product`` order, each
        cell labelled by ``matches_box``."""
        dnf = Predicate((Conjunct.of(age=(0, 30), salary=(50, 100)), Conjunct.of(age=(70, 100))))
        ccs = person_ccs() + [CC("person", dnf, 7), CC("person", Predicate.of(salary=(10, 90)), 9)]
        attrs = ("age", "salary")
        cells = grid_partition(attrs, PERSON_DOMAIN, ccs, ("age",), {"age": [20, 45]})
        assert isinstance(cells, Regions)
        per_attr = [attribute_intervals(a, PERSON_DOMAIN[a], ccs) for a in attrs]
        age_cuts = sorted({iv.lo for iv in per_attr[0]} | {20, 45, 100})
        per_attr[0] = [Interval(lo, hi) for lo, hi in zip(age_cuts, age_cuts[1:])]
        expected = []
        for combo in itertools.product(*per_attr):
            box = dict(zip(attrs, combo))
            expected.append(
                (box, frozenset(i for i, cc in enumerate(ccs) if cc.predicate.matches_box(box)))
            )
        assert [(c.box, c.label) for c in cells] == expected
        assert len({lab for _, lab in expected}) == len(cells.labels)

    def test_no_ccs_one_empty_label(self):
        cells = grid_partition(("age",), PERSON_DOMAIN, [], (), {})
        assert [(c.box, c.label) for c in cells] == [({"age": Interval(0, 100)}, frozenset())]
