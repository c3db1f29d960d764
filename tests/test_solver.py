"""Simplex feasibility solver tests (the Z3 substrate)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.solver import (
    Infeasible,
    LinearSystem,
    Terms,
    phase1_tableau,
    round_solution,
    solve_feasible,
)


def _check(system: LinearSystem, x: np.ndarray) -> None:
    assert (x >= -1e-9).all()
    assert np.abs(system.residuals(x)).max() < 1e-6


class TestSolveFeasible:
    def test_figure_4b_person_lp(self):
        # y1+y2=1000; y2+y3=2000; y1+y2+y3+y4=8000 (paper Figure 4b).
        s = LinearSystem(4)
        s.add_sum([0, 1], 1000)
        s.add_sum([1, 2], 2000)
        s.add_sum([0, 1, 2, 3], 8000)
        x = solve_feasible(s)
        _check(s, x)

    def test_unique_solution(self):
        s = LinearSystem(2)
        s.add_sum([0], 3)
        s.add_sum([0, 1], 10)
        x = solve_feasible(s)
        assert x[0] == pytest.approx(3)
        assert x[1] == pytest.approx(7)

    def test_infeasible_negative_slack(self):
        # x0 = 5 and x0 = 7 simultaneously.
        s = LinearSystem(1)
        s.add_sum([0], 5)
        s.add_sum([0], 7)
        with pytest.raises(Infeasible):
            solve_feasible(s)

    def test_infeasible_subset_exceeds_total(self):
        # subset count 10 > total 5.
        s = LinearSystem(3)
        s.add_sum([0, 1], 10)
        s.add_sum([0, 1, 2], 5)
        with pytest.raises(Infeasible):
            solve_feasible(s)

    def test_signed_coefficients_consistency_row(self):
        # x0 + x1 - x2 - x3 = 0 with totals: a marginal-equality row.
        s = LinearSystem(4)
        s.add_sum([0, 1], 6)
        s.add_sum([2, 3], 6)
        s.add([(0, 1.0), (1, 1.0), (2, -1.0), (3, -1.0)], 0.0)
        x = solve_feasible(s)
        _check(s, x)

    def test_zero_rhs_allows_zero(self):
        s = LinearSystem(2)
        s.add_sum([0], 0)
        s.add_sum([0, 1], 4)
        x = solve_feasible(s)
        assert x[0] == pytest.approx(0)
        assert x[1] == pytest.approx(4)

    def test_empty_system(self):
        s = LinearSystem(3)
        x = solve_feasible(s)
        assert (x == 0).all()

    def test_degenerate_many_equalities(self):
        # Highly degenerate overlapping constraints still terminate (Bland).
        n = 30
        s = LinearSystem(n)
        s.add_sum(list(range(n)), 100)
        for i in range(n - 1):
            s.add_sum([i, i + 1], 0 if i % 2 else 2)
        try:
            x = solve_feasible(s)
            _check(s, x)
        except Infeasible:
            pass  # infeasibility is an acceptable (detected) outcome here

    def test_medium_random_systems(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n, m = 200, 20
            # Build known-feasible systems: pick x*, derive b = A x*.
            A = (rng.random((m, n)) < 0.2).astype(float)
            xstar = rng.integers(0, 50, n).astype(float)
            b = A @ xstar
            s = LinearSystem(n)
            for r in range(m):
                idx = np.flatnonzero(A[r])
                s.add_sum(list(idx), b[r])
            x = solve_feasible(s)
            _check(s, x)

    def test_index_out_of_range_rejected(self):
        s = LinearSystem(2)
        with pytest.raises(IndexError):
            s.add_sum([0, 5], 1)


class TestLinearSystem:
    def test_dense_accumulates_repeated_index(self):
        s = LinearSystem(3)
        s.add([(0, 1.0), (2, -1.0), (0, 1.0), (0, 0.5)], 4)
        s.add_sum(np.array([1, 1]), 2)
        A, b = s.dense()
        assert A.tolist() == [[2.5, 0.0, -1.0], [0.0, 2.0, 0.0]]
        assert b.tolist() == [4.0, 2.0]

    def test_rows_iterate_as_index_coef_pairs(self):
        s = LinearSystem(4)
        s.add(Terms(np.array([3, 1]), np.array([1.0, -1.0])), 0)
        s.add_sum([], 0)
        (terms, rhs), (empty, _) = s.rows
        assert len(terms) == 2 and terms and not empty
        assert list(terms) == [(3, 1.0), (1, -1.0)]
        idx, coef = zip(*terms)
        assert idx == (3, 1) and coef == (1.0, -1.0)
        assert rhs == 0.0

    def test_residuals_equal_dense_product(self):
        rng = np.random.default_rng(3)
        s = LinearSystem(6)
        for _ in range(4):
            idx = rng.integers(0, 6, 5)
            s.add(Terms(idx, rng.choice([-1.0, 1.0], 5)), float(rng.integers(0, 9)))
        x = rng.integers(0, 5, 6).astype(float)
        A, b = s.dense()
        assert np.array_equal(s.residuals(x), A @ x - b)

    def test_phase1_tableau_equals_dense_reference(self):
        """The tableau built from the sparse rows equals the one built from
        ``dense()``: ``[A | I | b]`` with the rows of ``b < 0`` negated,
        over the objective row ``-A.sum(axis=0)``, ``-sum(b)``."""
        s = LinearSystem(5)
        s.add([(0, 1.0), (3, -1.0), (0, 1.0)], -2)  # repeated index, b < 0
        s.add_sum([1, 2, 4], 6)
        s.add([(4, 1.0), (2, -1.0)], 0)
        s.add([(1, -1.0), (3, 0.5)], -3)
        s.add_sum([], 0)
        A, b = s.dense()
        m, n = A.shape
        neg = b < 0
        A[neg] *= -1.0
        b[neg] *= -1.0
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = A
        T[:m, n : n + m] = np.eye(m)
        T[:m, -1] = b
        T[m, :n] = -A.sum(axis=0)
        T[m, -1] = -b.sum()
        assert np.array_equal(phase1_tableau(s), T)

    def test_array_index_out_of_range_rejected(self):
        s = LinearSystem(2)
        with pytest.raises(IndexError):
            s.add_sum(np.array([0, 2]), 1)
        with pytest.raises(IndexError):
            s.add(Terms(np.array([-1]), np.array([1.0])), 1)
        assert s.rows == []


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_interval_systems_feasible(data):
    """CCs derived from real data are always feasible: emulate by generating
    counts from an actual integer vector and asserting the solver finds a
    witness."""
    n = data.draw(st.integers(2, 12))
    xstar = np.array(data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    m = data.draw(st.integers(1, 6))
    s = LinearSystem(n)
    s.add_sum(list(range(n)), int(xstar.sum()))
    for _ in range(m):
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        s.add_sum(list(range(lo, hi)), int(xstar[lo:hi].sum()))
    x = solve_feasible(s)
    _check(s, x)


class TestRoundSolution:
    def test_rounds_and_clips(self):
        x = np.array([1.0000001, -1e-9, 2.4999999, 2.5000001])
        out = round_solution(x)
        assert out.tolist() == [1, 0, 2, 3]
        assert out.dtype == np.int64
