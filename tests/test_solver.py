"""Simplex feasibility solver tests (the Z3 substrate)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import hydra, preprocess, solver, workload
from repro.core.lp import formulate_view
from repro.core.solver import (
    _STALL_LIMIT,
    _TOL,
    Infeasible,
    LinearSystem,
    PivotBudgetExhausted,
    Terms,
    phase1_tableau,
    round_solution,
    solve_feasible,
)

from .test_substrates import GOLDEN


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


class TestPivotBudget:
    """Running out of pivots is reported as such, never as infeasibility;
    a point reached with the last pivot of the budget is still returned."""

    def test_budget_boundary(self, monkeypatch):
        s = _small_int_system(np.random.default_rng(5), 30, 12, density=0.3, zero_frac=0.5)
        x = solve_feasible(s)
        budget = 0
        while True:
            monkeypatch.setattr(solver, "_pivot_budget", lambda m, n: budget)
            try:
                y = solve_feasible(s)
                break
            except PivotBudgetExhausted as exc:
                assert not isinstance(exc, Infeasible)
                assert f"{budget} pivots spent" in str(exc)
                budget += 1
        assert budget > 1
        assert np.array_equal(y.view(np.int64), x.view(np.int64))

    def test_infeasible_system_out_of_pivots(self, monkeypatch):
        s = LinearSystem(1)
        s.add_sum([0], 5)
        s.add_sum([0], 7)
        monkeypatch.setattr(solver, "_pivot_budget", lambda m, n: 0)
        with pytest.raises(PivotBudgetExhausted):
            solve_feasible(s)


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


def _reference_solve(system: LinearSystem, seen: dict | None = None) -> np.ndarray:
    """The pivot loop as it was before the row update grouped its
    multipliers: divide the pivot row, then for every other row with a
    nonzero in the pivot column subtract ``T[i, j] * T[r]``. ``seen``, when
    given, counts what the drawn systems exercise: pivots other than 1.0,
    multipliers ±1, non-unit multipliers shared by several rows of one
    pivot, pivots whose minimum ratio several rows share (the leaving
    variable is then the tie-break's), and whether the Bland switch was
    reached."""
    seen = {} if seen is None else seen
    for key in ("non_unit_pivots", "unit_mus", "shared_non_unit_mus", "tied_ratios", "bland"):
        seen.setdefault(key, 0)
    m, n = len(system.rows), system.n_vars
    if m == 0:
        return np.zeros(n)
    T = phase1_tableau(system)
    scale = np.abs(system._rhs())
    basis = list(range(n, n + m))
    tmp = np.empty(n + m + 1)

    stall = 0
    last_obj = T[m, -1]
    bland = False
    for _ in range(50 * (m + n) + 1000):
        costs = T[m, : n + m]
        if bland:
            negs = np.flatnonzero(costs < -_TOL)
            if negs.size == 0:
                break
            j = int(negs[0])
        else:
            j = int(np.argmin(costs))
            if costs[j] >= -_TOL:
                break
        col = T[:m, j]
        pos = col > _TOL
        if not pos.any():
            raise Infeasible("phase-1 column with no positive entries")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        cand = np.flatnonzero(ratios <= rmin + _TOL)
        seen["tied_ratios"] += len(cand) > 1
        r = int(min(cand, key=lambda i: basis[i]))
        piv = T[r, j]
        seen["non_unit_pivots"] += piv != 1.0
        T[r] /= piv
        mus = []
        for i in np.flatnonzero(np.abs(T[:, j]) > 1e-12):
            if i != r:
                mus.append(T[i, j])
                np.multiply(T[i, j], T[r], out=tmp)
                np.subtract(T[i], tmp, out=T[i])
        seen["unit_mus"] += sum(abs(mu) == 1.0 for mu in mus)
        non_unit = [mu for mu in mus if abs(mu) != 1.0]
        seen["shared_non_unit_mus"] += len(non_unit) - len(set(non_unit))
        basis[r] = j
        if not bland:
            if abs(T[m, -1] - last_obj) < 1e-12:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
                    seen["bland"] += 1
            else:
                stall = 0
            last_obj = T[m, -1]
    obj = -T[m, -1]
    if obj > 1e-6 * max(1.0, scale.sum()):
        raise Infeasible(f"phase-1 optimum {obj:g} > 0")

    x = np.zeros(n + m)
    for r, j in enumerate(basis):
        x[j] = T[r, -1]
    x = np.clip(x[:n], 0.0, None)
    res = system.residuals(x)
    if np.abs(res).max() > 1e-6 * max(1.0, scale.max()):
        raise Infeasible(f"verified residual too large: {np.abs(res).max():g}")
    return x


def _outcome(solve, system: LinearSystem, **kw):
    """``x`` as its int64 bit patterns, or the :class:`Infeasible` message."""
    try:
        return solve(system, **kw).view(np.int64).tolist()
    except Infeasible as exc:
        return f"Infeasible: {exc}"


_EXACT_PHASE1 = solver._exact_phase1


def _exact_path_spy(mp: pytest.MonkeyPatch) -> list[bool]:
    """Record, per solve, whether the exact revised path finished (True)
    or handed over to the dense loop (False)."""
    finished: list[bool] = []

    def spy(*args):
        end = _EXACT_PHASE1(*args)
        finished.append(end is not None)
        return end

    mp.setattr(solver, "_exact_phase1", spy)
    return finished


def _exact_ends_as_dense(system: LinearSystem) -> bool:
    """Whether the exact revised path finishes on ``system``; when it does,
    assert that it ends in the dense loop's state: the same basis, the same
    bits of the basic values and the objective, the same budget flag."""
    m, n = len(system.rows), system.n_vars
    exact = _EXACT_PHASE1(system._coo(), system._rhs(), m, n)
    if exact is None:
        return False
    dense = solver._dense_phase1(phase1_tableau(system), m, n)
    assert exact[0].tolist() == dense[0].tolist()
    assert exact[1].view(np.int64).tolist() == dense[1].view(np.int64).tolist()
    assert exact[2:] == dense[2:]
    return True


def _assert_same_bits(system: LinearSystem, seen: dict | None = None) -> None:
    """Same outcome as the reference on the solver's own choice of path,
    and with every system sent to the exact path first; ``seen`` also
    counts how often that path finished and how often it handed over."""
    want = _outcome(_reference_solve, system, seen=seen)
    assert _outcome(solve_feasible, system) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "REVISED_MIN_CELLS", 0)
        assert _outcome(solve_feasible, system) == want
    if seen is not None:
        key = "exact_finished" if _exact_ends_as_dense(system) else "exact_fell_back"
        seen[key] = seen.get(key, 0) + 1


def _small_int_system(rng, n: int, m: int, density: float, zero_frac: float,
                      coefs: tuple[int, int] = (-3, 3)) -> LinearSystem:
    """``A x* = b`` with ``A`` in ``coefs`` (an inclusive range) at
    ``density``, ``x* >= 0`` with a ``zero_frac`` share of zeros (degenerate
    vertices), a total row and one signed consistency-like row
    ``sum(x[S]) - sum(x[T]) = d``."""
    A = rng.integers(coefs[0], coefs[1] + 1, (m, n)) * (rng.random((m, n)) < density)
    xstar = rng.integers(0, 6, n) * (rng.random(n) >= zero_frac)
    s = LinearSystem(n)
    s.add_sum(range(n), int(xstar.sum()))
    for a in A:
        idx = np.flatnonzero(a)
        s.add(Terms(idx, a[idx].astype(float)), float(a @ xstar))
    left, right = np.array_split(rng.permutation(n), 2)
    s.add(Terms(np.concatenate([left, right]),
                np.concatenate([np.ones(len(left)), -np.ones(len(right))])),
          float(xstar[left].sum() - xstar[right].sum()))
    return s


def _degenerate_system(rng, n: int) -> LinearSystem:
    """A total over ``2n`` consistency-like rows ``x_a + x_b - x_c - x_d = 0``:
    feasible (the uniform point), and degenerate enough to reach the Bland
    switch."""
    s = LinearSystem(n)
    s.add_sum(range(n), 100)
    for _ in range(2 * n):
        a, b, c, d = rng.choice(n, 4, replace=False)
        s.add([(a, 1.0), (b, 1.0), (c, -1.0), (d, -1.0)], 0)
    return s


def _network_system(rng, n: int) -> LinearSystem:
    """``x_0 = 100`` and ``n`` rows ``x_a - x_b = 0``: degenerate enough to
    reach the Bland switch."""
    s = LinearSystem(n)
    s.add_sum([0], 100)
    for _ in range(n):
        a, b = rng.choice(n, 2, replace=False)
        s.add([(a, 1.0), (b, -1.0)], 0)
    return s


class TestBitwiseAgainstReference:
    """:func:`solve_feasible` returns the same bits as the plain pivot loop,
    or raises the same :class:`Infeasible`."""

    def test_seeded_systems_cover_every_update_path(self):
        rng = np.random.default_rng(14)
        seen: dict = {}
        for _ in range(12):
            n, m = int(rng.integers(20, 120)), int(rng.integers(5, 40))
            _assert_same_bits(
                _small_int_system(rng, n, m, density=0.3, zero_frac=0.5), seen)
        degenerate = _degenerate_system(rng, 40)
        _assert_same_bits(degenerate, seen)
        _check(degenerate, solve_feasible(degenerate))
        # Few sparse signed sums, nearer the region LPs: the exact path
        # finishes on some of them.
        for _ in range(8):
            n, m = int(rng.integers(20, 120)), int(rng.integers(3, 12))
            _assert_same_bits(
                _small_int_system(rng, n, m, density=0.1, zero_frac=0.5, coefs=(-1, 1)), seen)
        # A network matrix is totally unimodular, so every pivot is ±1: the
        # exact path finishes, past the Bland switch.
        before = dict(seen)
        _assert_same_bits(_network_system(rng, 120), seen)
        assert seen["bland"] > before["bland"]
        assert seen["exact_finished"] > before["exact_finished"]
        assert seen["non_unit_pivots"] > 0
        assert seen["unit_mus"] > 0
        assert seen["shared_non_unit_mus"] > 0
        assert seen["tied_ratios"] > 0
        assert seen["bland"] > 0
        assert seen["exact_finished"] > 0
        assert seen["exact_fell_back"] > 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_small_integer_systems(self, data):
        n = data.draw(st.integers(1, 14))
        m = data.draw(st.integers(1, 9))
        coef = st.integers(-3, 3)
        xstar = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        s = LinearSystem(n)
        for _ in range(m):
            a = np.array(data.draw(st.lists(coef, min_size=n, max_size=n)))
            idx = np.flatnonzero(a)
            rhs = float(a @ xstar) + data.draw(st.sampled_from([0, 0, 0, 1, -1]))
            s.add(Terms(idx, a[idx].astype(float)), rhs)
        if data.draw(st.booleans()):
            left = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
            right = [i for i in range(n) if i not in left]
            s.add([(i, 1.0) for i in left] + [(i, -1.0) for i in right],
                  float(xstar[left].sum() - xstar[right].sum()))
        _assert_same_bits(s)


class TestExactPath:
    """The exact revised path takes the dense loop's pivots and returns its
    bits; it hands over on inexact data, and the wide substrate LPs finish
    on it."""

    @pytest.mark.parametrize("first", [
        ([(0, 1.0), (1, 1.0)], 2.0**53),  # a start value reaches 2**53
        ([(0, 0.5), (1, 1.0)], 3.0),  # not integral
        ([(0, 2.0), (1, 1.0)], 2.0**52 + 1),  # the first pivot, 2, takes a product to 2**53
        ([(0, 1.0), (1, -2.0**52)], 1.0),  # then the duals' 1-norm times max |A|: 2 * 2**52
    ])
    def test_hands_over_to_the_dense_loop(self, monkeypatch, first):
        s = LinearSystem(4)
        s.add(*first)
        s.add_sum([2], 1)
        s.add_sum([3], 1)
        want = _outcome(_reference_solve, s)
        monkeypatch.setattr(solver, "REVISED_MIN_CELLS", 0)
        finished = _exact_path_spy(monkeypatch)
        assert _outcome(solve_feasible, s) == want
        assert finished == [False]

    def test_repeated_index_adds_up(self):
        s = LinearSystem(3)
        s.add([(0, 1.0), (1, 1.0), (0, 1.0)], 4)  # the first pivot, 2, is in this row
        s.add_sum([2], 1)
        seen: dict = {}
        _assert_same_bits(s, seen)
        assert seen["exact_finished"] == 1

    def test_spent_budget_reported_as_by_the_dense_loop(self, monkeypatch):
        s = _network_system(np.random.default_rng(3), 40)

        def outcome(cells, budget):
            monkeypatch.setattr(solver, "REVISED_MIN_CELLS", cells)
            monkeypatch.setattr(solver, "_pivot_budget", lambda m, n: budget)
            try:
                return solve_feasible(s).view(np.int64).tolist()
            except PivotBudgetExhausted as exc:
                return str(exc)

        finished = _exact_path_spy(monkeypatch)
        for budget in range(0, 60, 3):
            assert outcome(0, budget) == outcome(1 << 62, budget)
        assert all(finished)
        assert isinstance(outcome(0, 0), str) and isinstance(outcome(0, 57), list)

    def test_small_systems_stay_dense(self, monkeypatch):
        finished = _exact_path_spy(monkeypatch)
        solve_feasible(_small_int_system(np.random.default_rng(5), 30, 12, 0.3, 0.5))
        assert finished == []

    def test_wlc_catalog_sales_never_builds_the_tableau(self, monkeypatch):
        (make_schema, make_db, make_queries), scale, _ = GOLDEN["wlc-101"]
        schema = make_schema()
        ccs = hydra.scale_ccs(workload.client_ccs(schema, make_db(), make_queries()), scale)
        system = formulate_view(preprocess.plan_views(schema, ccs)["catalog_sales"]).system
        want = _reference_solve(system).view(np.int64).tolist()

        def no_tableau(*args, **kw):
            raise AssertionError("dense tableau built")

        monkeypatch.setattr(solver, "phase1_tableau", no_tableau)
        assert solve_feasible(system).view(np.int64).tolist() == want


@pytest.mark.parametrize("name", ["wlc-101", "wlc-104", "job-lite-303"])
def test_substrate_lps_match_reference_bitwise(name, monkeypatch):
    """Every view's LP solution equals the plain pivot loop's, bit for bit;
    on wlc-101 the basic solution has 29 fractional variables, 23 in
    date_dim and 6 in store_returns. The wide LPs go to the exact path
    first: wlc-101 catalog_sales and wlc-104 inventory (pivots 1, 2 and
    0.5) finish on it, wlc-104 store_returns hands over at a pivot of 6."""
    (make_schema, make_db, make_queries), scale, _ = GOLDEN[name]
    schema, db = make_schema(), make_db()
    ccs = hydra.scale_ccs(workload.client_ccs(schema, db, make_queries()), scale)
    finished = _exact_path_spy(monkeypatch)
    fractional, exact = {}, {}
    for view, plan in preprocess.plan_views(schema, ccs).items():
        system = formulate_view(plan).system
        x = solve_feasible(system)
        if finished:
            exact[view] = finished.pop() and _exact_ends_as_dense(system)
        assert x.view(np.int64).tolist() == _reference_solve(system).view(np.int64).tolist(), view
        if k := int(np.count_nonzero(np.abs(x - np.rint(x)) > 1e-9)):
            fractional[view] = k
    if name == "wlc-101":
        assert fractional == {"date_dim": 23, "store_returns": 6}
        assert exact == {"catalog_sales": True}
    if name == "wlc-104":
        assert exact == {"inventory": True, "store_returns": False}
    if name == "job-lite-303":
        assert exact == {}
