"""Feasibility solver for the HYDRA/DataSynth LPs — the Z3 substrate.

The paper hands its LPs (Figure 7: non-negative variables, equality
constraints, all data integral) to the Z3 SMT solver and takes *any*
feasible point. Z3 is not available offline, so this module implements the
same contract with a dense two-phase (phase-1 only) simplex:

    find x >= 0  s.t.  A x = b

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule after
a stall budget, which guarantees termination on degenerate LPs. The
constraint matrices here have only ±1 coefficients and integral right-hand
sides, so double-precision pivoting is numerically benign; the returned
basic feasible solution is verified against the constraints and rounded.
Basic solutions are not always integral: on the benchmark's wlc-lp
workload (TPC-DS-lite WLc, 80 queries) 29 variables come out fractional,
and the rounded point misses its rows by up to 1. That residual is
*measured* by the metrics module, mirroring the paper's own error
reporting, never silently ignored; making integrality part of the
solver's contract is ROADMAP item 1.

:class:`LinearSystem` keeps each row sparse, as an index array and a
coefficient array. A solve builds the dense phase-1 tableau straight from
those rows (:func:`phase1_tableau`, no intermediate dense ``A``) and updates
its rows in place; the residual check reads the sparse rows.

A pivot on ``T[r, j]`` divides row ``r`` by it, then subtracts
``mu * T[r]`` from every other row whose ``mu = T[i, j]`` is nonzero. The
update does the same IEEE-754 operations as that textbook form, or ones
equal to them bit for bit, but fewer passes over the rows:

* the pivot row is divided only when ``T[r, j] != 1.0`` (``y / 1.0 == y``);
* a row with ``mu == 1.0`` has the pivot row subtracted directly
  (``a - 1.0 * y == a - y``), and one with ``mu == -1.0`` added
  (``a - (-y)`` is ``a + y`` by definition);
* the rows are grouped by ``mu``, and each other multiple ``mu * T[r]`` is
  computed once per pivot and subtracted from every row of its group.

Each row is updated from the same pivot row, so their order does not
matter, and every basic solution (every LP vertex) is the one the textbook
loop reaches. Most pivots of the region LPs are 1.0 and most multipliers
±1, since their rows are sums of variables.

The choice of pivot is kept in arrays, again with the textbook's
outcome: the ratio test divides only the column's positive entries (the
others never win it), and the leaving row is the tied candidate whose
basic variable has the smallest index, an ``argmin`` over the int64
basis, whose entries are distinct.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

#: Iterations of Dantzig pivoting without objective progress before
#: switching to Bland's rule.
_STALL_LIMIT = 64
_TOL = 1e-7


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

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """``A x - b``, computed from the sparse rows."""
        row, idx, coef = self._coo()
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


def phase1_tableau(system: LinearSystem) -> np.ndarray:
    """The phase-1 tableau ``[A | I | b]`` over the objective row, built
    straight from the sparse rows: rows with ``b < 0`` are negated so the
    artificial basis starts feasible, and the objective row holds the
    reduced costs of minimizing the sum of the artificials (minus each
    column's sum, and ``-sum(b)``). A repeated index within a row adds up.
    """
    m, n = len(system.rows), system.n_vars
    width = n + m + 1
    row, idx, coef = system._coo()
    b = system._rhs()
    neg = b < 0
    coef = np.where(neg[row], -coef, coef)
    b[neg] *= -1.0
    T = np.bincount(row * width + idx, weights=coef, minlength=(m + 1) * width)
    T = T.reshape(m + 1, width)
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = -np.bincount(idx, weights=coef, minlength=n)
    T[m, -1] = -b.sum()
    return T


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
    T = phase1_tableau(system)
    scale = np.abs(system._rhs())
    basis = np.arange(n, n + m)
    tmp = np.empty(n + m + 1)  # one multiple of the pivot row, reused
    # Views into T, taken once: they follow its in-place updates.
    costs, rhs, rows = T[m, : n + m], T[:m, -1], list(T)

    stall = 0
    last_obj = T[m, -1]
    bland = False
    budget, exhausted = _pivot_budget(m, n), False
    for _ in range(budget):
        if bland:
            negs = (costs < -_TOL).nonzero()[0]
            if negs.size == 0:
                break
            j = int(negs[0])
        else:
            j = int(costs.argmin())
            if costs[j] >= -_TOL:
                break
        col = T[:m, j]
        pos = (col > _TOL).nonzero()[0]
        if pos.size == 0:
            # Unbounded phase-1 is impossible; numerical guard.
            raise Infeasible("phase-1 column with no positive entries")
        ratios = rhs[pos] / col[pos]
        cand = pos[ratios <= ratios.min() + _TOL]
        # Bland tie-break on leaving variable index for anti-cycling.
        r = int(cand[basis[cand].argmin()])
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
                op, y = np.subtract, np.multiply(mu, prow, out=tmp)
            for i in group:
                op(rows[i], y, out=rows[i])
        basis[r] = j
        if not bland:
            # Progress in phase-1 raises T[m, -1] (= -objective) toward 0;
            # a run of degenerate pivots with no movement triggers Bland.
            if abs(T[m, -1] - last_obj) < 1e-12:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last_obj = T[m, -1]
    else:
        exhausted = True
    obj = -T[m, -1]
    if obj > 1e-6 * max(1.0, scale.sum()):
        if exhausted:
            raise PivotBudgetExhausted(f"{budget} pivots spent, phase-1 objective {obj:g} > 0")
        raise Infeasible(f"phase-1 optimum {obj:g} > 0")

    x = np.zeros(n + m)
    x[basis] = rhs
    x = np.clip(x[:n], 0.0, None)
    res = system.residuals(x)
    if np.abs(res).max() > 1e-6 * max(1.0, scale.max()):
        raise Infeasible(f"verified residual too large: {np.abs(res).max():g}")
    return x


def round_solution(x: np.ndarray) -> np.ndarray:
    """Round a feasible point to integer counts (non-negative)."""
    return np.maximum(np.rint(x), 0).astype(np.int64)
