"""Feasibility solver for the HYDRA/DataSynth LPs — the Z3 substrate.

The paper hands its LPs (Figure 7: non-negative variables, equality
constraints, all data integral) to the Z3 SMT solver and takes *any*
feasible point. Z3 is not available offline, so this module implements the
same contract with a two-phase (phase-1 only) simplex:

    find x >= 0  s.t.  A x = b

The returned basic feasible solution is verified against the constraints
(:class:`LinearSystem` keeps each row sparse, as an index array and a
coefficient array) and rounded by callers. Basic solutions are not always
integral: on the benchmark's wlc-lp workload (TPC-DS-lite WLc, 80 queries)
29 variables come out fractional, and the rounded point misses its rows by
up to 1. That residual is *measured* by the metrics module, never silently
ignored; making integrality part of the solver's contract is ROADMAP item 1.

**One loop, two states.** :func:`_phase1` holds the pivot rule once:
Dantzig's argmin with a switch to Bland's rule after a stall budget (which
guarantees termination on degenerate LPs), a ratio test over the column's
positive entries only (the others never win it), the tie-break on the
smallest basic index (an ``argmin`` over the int64 basis) and the pivot
budget. It runs on either of two states, each exposing ``costs``, ``rhs``,
``obj``, ``column(j)`` and ``pivot(r, j, col)``; :func:`phase1_state`
picks the start.

:class:`_Dense` is the tableau ``[A | I | b]`` over its objective row,
built straight from the sparse rows (:func:`phase1_tableau`). A pivot on
``T[r, j]`` does the IEEE-754 operations of the textbook update (divide
row ``r`` by it, subtract ``mu * T[r]`` from every other row with a nonzero
``mu = T[i, j]``), or ones equal to them bit for bit, in fewer passes: row
``r`` is divided only when ``T[r, j] != 1.0``; a row with ``mu == ±1.0``
has the pivot row subtracted or added directly; each other multiple is
computed once and subtracted from every row of its group. Most pivots of
the region LPs are 1.0 and most multipliers ±1, since their rows are sums
of variables.

:class:`_Exact` is the revised form, for an LP whose tableau would have at
least :data:`REVISED_MIN_CELLS` cells and whose data are integers (wlc-lp's
catalog_sales: 183 × 83,850, a 124 MB tableau): ``A`` as CSR and CSC
arrays, an explicit m × m ``B⁻¹``, the basic values and one reduced-cost row
over all ``n + m`` columns. Its column is ``B⁻¹ A_j`` (an artificial one a
column of ``B⁻¹``); its pivot row is ``ρᵀA``, with ``ρ`` row ``r`` of
``B⁻¹``, summed over the rows of ``A`` in ``ρ``'s support.

Why both states show the loop the same bits: ``A`` and ``b`` are integral
and the basis starts at ``I``, so ``det B`` is the product of the pivots
so far. While every pivot is a power of two, ``det B = 2**e`` and, by
Cramer's rule, every tableau value is an integer multiple of ``2**-e``.
Float64 holds every such multiple below ``2**(53 - e)`` exactly, and then
the dense update's division, products and differences are all exact: they
equal the rational values, which the exact state also computes exactly.
Before a pivot changes anything, :meth:`_Exact.pivot` bounds what the
dense update would produce from pre-pivot quantities: a new value by
``|old| + |mu|·|new row r|``, a row of ``B⁻¹A`` being at most its ``B⁻¹``
row's 1-norm times ``max |A|`` and the objective row's A-part at most the
duals' 1-norm times ``max |A|``. It refuses, changing nothing, a pivot that
is not a power of two or whose new values times ``2**e`` or products times
``2**(2e)`` could reach ``2**53``. The product bound covers the pivot
``2**k`` times the 1 it leaves in its row, so ``e`` stays at most 26 and
every nonzero above the dense update's ``1e-12`` row threshold.

A refused pivot restarts phase 1 on the dense state from the artificial
basis, which takes the same pivots again and goes on past that one.
Building the tableau as ``B⁻¹[A | I | b]`` at the refusal gives the same
bits, but its m²·n product costs more than replaying the power-of-two
pivots (wlc-103 web_sales 2.61 → 3.07 s, wlc-104 store_returns 114 → 185
ms, on 4 cores). A run that ends on the exact state (at a zero objective,
an infeasible optimum or the end of the budget) ends in the dense state's
values, so both return the same ``x`` or raise the same error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

#: Iterations of Dantzig pivoting without objective progress before
#: switching to Bland's rule.
_STALL_LIMIT = 64
_TOL = 1e-7
#: Phase-1 tableaux of at least this many cells, ``(m+1)·(n+m+1)``, start
#: on the exact revised state; read at call time.
REVISED_MIN_CELLS = 1 << 22
#: Float64 holds every integer multiple of ``2**-e`` below ``2**(53-e)``.
_EXACT = 2.0**53


class Terms:
    """One row's nonzeros as parallel arrays: int64 ``index`` and float
    ``coef``. Iterates as ``(index, coef)`` pairs of Python numbers."""

    __slots__ = ("index", "coef")

    def __init__(self, index: np.ndarray, coef: np.ndarray):
        self.index = index
        self.coef = coef

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return zip(self.index.tolist(), self.coef.tolist())


@dataclass
class LinearSystem:
    """``A x = b`` with x >= 0, rows held sparsely as (:class:`Terms`, rhs)."""

    n_vars: int
    rows: list[tuple[Terms, float]] = field(default_factory=list)

    def add(self, terms: Terms | Sequence[tuple[int, float]], rhs: float) -> None:
        """Append the row ``sum(c * x[i] for i, c in terms) = rhs``."""
        if not isinstance(terms, Terms):
            pairs = list(terms)
            terms = Terms(
                np.array([i for i, _ in pairs], dtype=np.int64),
                np.array([c for _, c in pairs], dtype=np.float64),
            )
        idx = terms.index
        if len(idx) and (idx.min() < 0 or idx.max() >= self.n_vars):
            bad = idx[(idx < 0) | (idx >= self.n_vars)][0]
            raise IndexError(f"variable index {bad} out of range")
        self.rows.append((terms, float(rhs)))

    def add_sum(self, indices: Sequence[int] | np.ndarray, rhs: float) -> None:
        """Convenience for the common ``sum of region vars = k`` row."""
        idx = np.asarray(indices, dtype=np.int64)
        self.add(Terms(idx, np.ones(len(idx))), rhs)

    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero as (row, index, coef) arrays, rows in order."""
        lengths = [len(t) for t, _ in self.rows]
        row = np.repeat(np.arange(len(self.rows)), lengths)
        idx = np.concatenate([t.index for t, _ in self.rows] + [np.zeros(0, np.int64)])
        coef = np.concatenate([t.coef for t, _ in self.rows] + [np.zeros(0)])
        return row, idx, coef

    def _rhs(self) -> np.ndarray:
        return np.array([rhs for _, rhs in self.rows], dtype=np.float64)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """``(A, b)`` as dense arrays; a repeated index within a row adds up.

        The solver does not call this: it is the reference the tests hold
        :func:`phase1_tableau` to."""
        A = np.zeros((len(self.rows), self.n_vars))
        row, idx, coef = self._coo()
        np.add.at(A, (row, idx), coef)
        return A, self._rhs()

    def residuals(self, x: np.ndarray, *, coo=None) -> np.ndarray:
        """``A x - b``, computed from the sparse rows (``coo`` is
        :meth:`_coo`'s result, for a caller that has it already)."""
        row, idx, coef = self._coo() if coo is None else coo
        return np.bincount(row, weights=coef * x[idx], minlength=len(self.rows)) - self._rhs()


class Infeasible(RuntimeError):
    """The constraint system admits no non-negative solution."""


class PivotBudgetExhausted(RuntimeError):
    """The pivot loop ran out of pivots before phase 1 reached a zero
    objective; whether the system is feasible was not established."""


def _pivot_budget(m: int, n: int) -> int:
    """Pivots :func:`solve_feasible` may take on ``m`` rows and ``n``
    variables: generous, Bland guarantees we never cycle."""
    return 50 * (m + n) + 1000


def _wide(m: int, n: int) -> bool:
    """Whether the phase-1 tableau of ``m`` rows and ``n`` variables has at
    least :data:`REVISED_MIN_CELLS` cells, ``(m+1)·(n+m+1)``."""
    return (m + 1) * (n + m + 1) >= REVISED_MIN_CELLS


def _feasible_start(coo, b: np.ndarray, n: int):
    """The rows with ``b < 0`` negated, so the artificial basis starts
    feasible: ``(coef, b, objective row over A, objective entry)``, the
    objective row minus each column's sum and the entry ``-sum(b)``."""
    row, idx, coef = coo
    neg = b < 0
    if neg.any():  # else no copy: catalog_sales has 510,291 nonzeros
        coef = np.where(neg[row], -coef, coef)
        b = np.where(neg, -b, b)
    return coef, b, -np.bincount(idx, weights=coef, minlength=n), -b.sum()


def phase1_tableau(system: LinearSystem, *, coo=None) -> np.ndarray:
    """The phase-1 tableau ``[A | I | b]`` over the objective row, built
    straight from the sparse rows (:func:`_feasible_start`); the objective
    row holds the reduced costs of minimizing the sum of the artificials.
    A repeated index within a row adds up. ``coo`` is ``system._coo()``,
    for a caller that has it already.
    """
    m, n = len(system.rows), system.n_vars
    width = n + m + 1
    coo = system._coo() if coo is None else coo
    row, idx, _ = coo
    coef, b, costs, obj = _feasible_start(coo, system._rhs(), n)
    T = np.bincount(row * width + idx, weights=coef, minlength=(m + 1) * width)
    T = T.reshape(m + 1, width)
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = costs
    T[m, -1] = obj
    return T


class _Dense:
    """Phase 1's state as the tableau ``T`` (:func:`phase1_tableau`),
    updated in place."""

    def __init__(self, T: np.ndarray):
        self.T, self.rows, self.tmp = T, list(T), np.empty(T.shape[1])
        # Views into T, taken once: they follow its in-place updates.
        self.costs, self.rhs = T[-1, :-1], T[:-1, -1]

    @property
    def obj(self) -> float:
        return self.T[-1, -1]

    def column(self, j: int) -> np.ndarray:
        return self.T[:-1, j]

    def pivot(self, r: int, j: int, col: np.ndarray) -> bool:
        T, rows = self.T, self.rows
        prow = rows[r]
        if prow[j] != 1.0:
            prow /= prow[j]
        # Rows to eliminate, grouped by multiplier.
        groups: dict[float, list[int]] = {}
        nz = (np.abs(T[:, j]) > 1e-12).nonzero()[0]
        for i, mu in zip(nz.tolist(), T[nz, j].tolist()):
            if i != r:
                groups.setdefault(mu, []).append(i)
        for mu, group in groups.items():
            if mu == 1.0:
                op, y = np.subtract, prow
            elif mu == -1.0:
                op, y = np.add, prow
            else:
                op, y = np.subtract, np.multiply(mu, prow, out=self.tmp)
            for i in group:
                op(rows[i], y, out=rows[i])
        return True


class _Exact:
    """Phase 1's state in revised form, while its arithmetic is exact (see
    the module docstring): ``A`` as CSR and CSC arrays, ``B⁻¹`` with its
    rows' 1-norms, the basic values ``rhs`` and the reduced costs ``costs``
    over ``[A | I]``."""

    def __init__(self, coo, b: np.ndarray, m: int, n: int):
        row, idx, _ = coo
        coef, self.rhs, d, self.obj = _feasible_start(coo, b, n)
        # A with repeated indices added, in row-major (CSR) and column-major
        # (CSC) order.
        r_of, c_of, vals = row, idx, coef
        key = row * n + idx
        if not (key[1:] > key[:-1]).all():
            key, inv = np.unique(key, return_inverse=True)
            vals = np.bincount(inv, weights=coef)
            r_of, c_of = np.divmod(key, n)
        self.row_ptr = np.searchsorted(r_of, np.arange(m + 1))
        self.c_of, self.vals = c_of, vals
        by_col = np.argsort(c_of, kind="stable")
        self.col_rows, self.col_vals = r_of[by_col], vals[by_col]
        self.col_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(c_of, minlength=n), out=self.col_ptr[1:])
        self.amax = max(1.0, np.abs(vals).max(initial=0.0))
        self.n, self.binv, self.norms = n, np.eye(m), np.ones(m)
        self.costs = np.concatenate([d, np.zeros(m)])
        self.e = 0  # log2 det(B): every tableau value is a multiple of 2**-e

    def column(self, j: int) -> np.ndarray:
        if j < self.n:
            lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
            return self.binv[:, self.col_rows[lo:hi]] @ self.col_vals[lo:hi]
        return self.binv[:, j - self.n].copy()

    def pivot(self, r: int, j: int, col: np.ndarray) -> bool:
        """Pivot on ``col[r]``, or return False, changing nothing, when the
        dense update could round."""
        binv, xb, d, n, amax = self.binv, self.rhs, self.costs, self.n, self.amax
        p, dj = col[r], d[j]
        frac, exp = np.frexp(p)
        e = self.e + int(exp) - 1
        rho, xr = binv[r] / p, xb[r] / p  # row r after the pivot
        rho1 = np.abs(rho).sum()
        # Every value now (the duals are 1 - d[n:]), and every product
        # mu * (new row r) of the update.
        top = max(max(self.norms.max(), np.abs(1.0 - d[n:]).sum()) * amax,
                  np.abs(xb).max(), np.abs(d[n:]).max(), abs(self.obj))
        prod = max(np.abs(col).max(), -dj) * max(rho1 * amax, abs(xr))
        if frac != 0.5 or max(top + prod, prod * 2.0**self.e) * 2.0**e >= _EXACT:
            return False
        # Row r of the tableau's A-part, rho @ A, from the rows of A in
        # rho's support.
        sup, row_ptr = rho.nonzero()[0], self.row_ptr
        lens = row_ptr[sup + 1] - row_ptr[sup]
        at = np.arange(lens.sum()) + np.repeat(row_ptr[sup] - (np.cumsum(lens) - lens), lens)
        cols, w = self.c_of[at], self.vals[at] * np.repeat(rho[sup], lens)

        nz = (np.abs(col) > 1e-12).nonzero()[0]
        binv[nz] -= np.multiply.outer(col[nz], rho)
        binv[r] = rho
        self.norms[nz] = np.abs(binv[nz]).sum(axis=1)
        xb[nz] -= col[nz] * xr
        xb[r] = xr
        if len(sup) == 1:  # one row of A: its columns are distinct
            d[cols] -= dj * w
        else:
            d[:n] -= dj * np.bincount(cols, weights=w, minlength=n)
        d[n:] -= dj * rho
        self.obj -= dj * xr
        self.e = e
        return True


def phase1_state(system: LinearSystem, *, coo=None) -> _Dense | _Exact:
    """Phase 1's start: :class:`_Exact` when the tableau would have at
    least :data:`REVISED_MIN_CELLS` cells and ``A`` and ``b`` are integral,
    with every column's sum of magnitudes below ``2**53``; :class:`_Dense`
    otherwise. ``coo`` is ``system._coo()``, for a caller that has it."""
    m, n = len(system.rows), system.n_vars
    coo = system._coo() if coo is None else coo
    _, idx, coef = coo
    b = system._rhs()
    if (_wide(m, n) and np.array_equal(coef, np.rint(coef)) and np.array_equal(b, np.rint(b))
            and np.bincount(idx, weights=np.abs(coef), minlength=n).max(initial=0.0) < _EXACT):
        return _Exact(coo, b, m, n)
    return _Dense(phase1_tableau(system, coo=coo))


def _phase1(state: _Dense | _Exact, m: int, n: int):
    """Phase 1 on ``state`` from the artificial basis: ``(basis, basic
    values, -objective, budget spent)``, or None when ``state`` refuses a
    pivot."""
    basis = np.arange(n, n + m)
    costs, rhs = state.costs, state.rhs
    stall = 0
    last_obj = state.obj
    bland = False
    for _ in range(_pivot_budget(m, n)):
        if bland:
            negs = (costs < -_TOL).nonzero()[0]
            if negs.size == 0:
                break
            j = int(negs[0])
        else:
            j = int(costs.argmin())
            if costs[j] >= -_TOL:
                break
        col = state.column(j)
        pos = (col > _TOL).nonzero()[0]
        if pos.size == 0:
            # Unbounded phase-1 is impossible; numerical guard.
            raise Infeasible("phase-1 column with no positive entries")
        ratios = rhs[pos] / col[pos]
        cand = pos[ratios <= ratios.min() + _TOL]
        # Bland tie-break on leaving variable index for anti-cycling.
        r = int(cand[basis[cand].argmin()])
        if not state.pivot(r, j, col):
            return None
        basis[r] = j
        if not bland:
            # Progress in phase-1 raises the objective entry (= -objective)
            # toward 0; a run of degenerate pivots with no movement
            # triggers Bland.
            obj = state.obj
            if abs(obj - last_obj) < 1e-12:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last_obj = obj
    else:
        return basis, rhs, state.obj, True
    return basis, rhs, state.obj, False


def solve_feasible(system: LinearSystem) -> np.ndarray:
    """Return one non-negative solution of ``A x = b`` (phase-1 simplex).

    Raises :class:`Infeasible` if the phase-1 optimum is bounded away from
    zero, and :class:`PivotBudgetExhausted` if the pivots run out with the
    objective still above that tolerance. The result is exact at the level
    of the verified residual check (``<= 1e-6`` per row) before any
    rounding by callers.
    """
    m, n = len(system.rows), system.n_vars
    if m == 0:
        return np.zeros(n)
    coo, scale = system._coo(), np.abs(system._rhs())
    end = _phase1(phase1_state(system, coo=coo), m, n)
    if end is None:  # a refused pivot: restart on the dense state
        end = _phase1(_Dense(phase1_tableau(system, coo=coo)), m, n)
    basis, rhs, neg_obj, exhausted = end
    obj = -neg_obj
    if obj > 1e-6 * max(1.0, scale.sum()):
        if exhausted:
            budget = _pivot_budget(m, n)
            raise PivotBudgetExhausted(f"{budget} pivots spent, phase-1 objective {obj:g} > 0")
        raise Infeasible(f"phase-1 optimum {obj:g} > 0")

    x = np.zeros(n + m)
    x[basis] = rhs
    x = np.clip(x[:n], 0.0, None)
    res = system.residuals(x, coo=coo)
    if np.abs(res).max() > 1e-6 * max(1.0, scale.max()):
        raise Infeasible(f"verified residual too large: {np.abs(res).max():g}")
    return x


def round_solution(x: np.ndarray) -> np.ndarray:
    """Round a feasible point to integer counts (non-negative)."""
    return np.maximum(np.rint(x), 0).astype(np.int64)
