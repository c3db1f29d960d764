"""Feasibility solver for the HYDRA/DataSynth LPs — the Z3 substrate.

The paper hands its LPs (Figure 7: non-negative variables, equality
constraints, all data integral) to the Z3 SMT solver and takes *any*
feasible point. Z3 is not available offline, so this module implements the
same contract with a two-phase (phase-1 only) simplex:

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
coefficient array. The dense path builds the phase-1 tableau straight from
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

**Two paths, one pivot sequence.** A view LP has few rows and many region
variables (wlc-lp's catalog_sales: 183 × 83,850, a 124 MB tableau). When
the tableau would have at least :data:`REVISED_MIN_CELLS` cells and every
coefficient and right-hand side is an integer, :func:`solve_feasible` first
runs phase 1 in revised form (:func:`_exact_phase1`). It holds ``A`` as
CSR and CSC arrays, an explicit m × m ``B⁻¹``, the basic values and one
reduced-cost row over all ``n + m`` columns. The entering column is
``B⁻¹ A_j``; the pivot row is ``ρᵀA``, with ``ρ`` row ``r`` of ``B⁻¹``,
summed over the rows of ``A`` in ``ρ``'s support; an artificial column is
a column of ``B⁻¹``. The rules are the dense loop's: the same argmin,
ratio test, tie-break, Bland switch and budget.

Why the bits are equal: ``A`` and ``b`` are integral and the basis starts
at ``I``, so ``det B`` is the product of the pivots so far. While every
pivot is a power of two, ``det B = 2**e`` and, by Cramer's rule, every
tableau value is an integer multiple of ``2**-e``. Float64 holds every such
multiple below ``2**(53 - e)`` exactly, and then the dense loop's division
by a power of two, its products ``mu * T[r]`` and its differences are all
exact: they equal the rational values, in any order. The revised path
computes those same values, also exactly, so both paths see the same
numbers, compare them with the same tolerances and take the same pivots.
Before each pivot it checks that the dense loop would stay exact, using
bounds for the values it does not hold: a row of ``B⁻¹A`` is at most the
row's 1-norm in ``B⁻¹`` times ``max |A|``, and the objective row's A-part
at most the duals' 1-norm times ``max |A|``. It hands over, with no state
kept, to the dense loop from the artificial basis at the first pivot that
is not a power of two, or once a value or product times ``2**e`` could
reach ``2**53``. The bound on products covers the pivot ``2**k`` times
the 1 it leaves in its row, ``2**(2e)`` after scaling, so ``e`` stays at
most 26 and every nonzero above the dense loop's ``1e-12`` row threshold.
The dense loop then takes the same pivots again and goes on past that
one. A run that ends on the exact path (at a zero objective, an
infeasible optimum or the end of the budget) ends in the dense loop's
state, so both paths return the same ``x`` or raise the same error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

#: Iterations of Dantzig pivoting without objective progress before
#: switching to Bland's rule.
_STALL_LIMIT = 64
_TOL = 1e-7
#: Phase-1 tableaux of at least this many cells, ``(m+1)·(n+m+1)``, first
#: run the exact revised path; read at call time.
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


def phase1_tableau(system: LinearSystem, *, coo=None) -> np.ndarray:
    """The phase-1 tableau ``[A | I | b]`` over the objective row, built
    straight from the sparse rows: rows with ``b < 0`` are negated so the
    artificial basis starts feasible, and the objective row holds the
    reduced costs of minimizing the sum of the artificials (minus each
    column's sum, and ``-sum(b)``). A repeated index within a row adds up.
    ``coo`` is ``system._coo()``, for a caller that has it already.
    """
    m, n = len(system.rows), system.n_vars
    width = n + m + 1
    row, idx, coef = system._coo() if coo is None else coo
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


def _dense_phase1(T: np.ndarray, m: int, n: int):
    """Phase 1 on the dense tableau ``T``, updated in place, from the
    artificial basis: ``(basis, basic values, -objective, budget spent)``."""
    basis = np.arange(n, n + m)
    tmp = np.empty(n + m + 1)  # one multiple of the pivot row, reused
    # Views into T, taken once: they follow its in-place updates.
    costs, rhs, rows = T[m, : n + m], T[:m, -1], list(T)

    stall = 0
    last_obj = T[m, -1]
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
        return basis, rhs, T[m, -1], True
    return basis, rhs, T[m, -1], False


def _exact_phase1(coo, b: np.ndarray, m: int, n: int):
    """Phase 1 in revised form, while its arithmetic is exact:
    ``(basis, basic values, -objective, budget spent)`` as
    :func:`_dense_phase1` returns them, or None at the first pivot whose
    dense update could round (see the module docstring)."""
    row, idx, coef = coo
    if not (np.array_equal(coef, np.rint(coef)) and np.array_equal(b, np.rint(b))):
        return None
    neg = b < 0
    if neg.any():
        coef = np.where(neg[row], -coef, coef)
        b = np.where(neg, -b, b)
    # Every start value (A's entries with repeats added, column sums, b and
    # its sum) is at most a column's or b's sum of magnitudes.
    if max(np.bincount(idx, weights=np.abs(coef), minlength=n).max(initial=0.0), b.sum()) >= _EXACT:
        return None
    # A with repeated indices added, in row-major (CSR) and column-major
    # (CSC) order.
    r_of, c_of, vals = row, idx, coef
    key = row * n + idx
    if not (key[1:] > key[:-1]).all():
        key, inv = np.unique(key, return_inverse=True)
        vals = np.bincount(inv, weights=coef)
        r_of, c_of = np.divmod(key, n)
    row_ptr = np.searchsorted(r_of, np.arange(m + 1))
    by_col = np.argsort(c_of, kind="stable")
    col_rows, col_vals = r_of[by_col], vals[by_col]
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(c_of, minlength=n), out=col_ptr[1:])
    amax = max(1.0, np.abs(vals).max(initial=0.0))

    basis = np.arange(n, n + m)
    binv = np.eye(m)
    norms = np.ones(m)  # row sums of |binv|
    xb = b.copy()
    d = np.zeros(n + m)  # the objective row over [A | I]
    d[:n] = -np.bincount(idx, weights=coef, minlength=n)
    obj = -b.sum()
    e = 0  # log2 det(B): every tableau value is a multiple of 2**-e

    stall = 0
    last_obj = obj
    bland = False
    for _ in range(_pivot_budget(m, n)):
        if bland:
            negs = (d < -_TOL).nonzero()[0]
            if negs.size == 0:
                break
            j = int(negs[0])
        else:
            j = int(d.argmin())
            if d[j] >= -_TOL:
                break
        if j < n:
            lo, hi = col_ptr[j], col_ptr[j + 1]
            col = binv[:, col_rows[lo:hi]] @ col_vals[lo:hi]
        else:
            col = binv[:, j - n].copy()
        pos = (col > _TOL).nonzero()[0]
        if pos.size == 0:
            raise Infeasible("phase-1 column with no positive entries")
        ratios = xb[pos] / col[pos]
        cand = pos[ratios <= ratios.min() + _TOL]
        r = int(cand[basis[cand].argmin()])
        p, dj = col[r], d[j]
        frac, exp = np.frexp(p)
        if frac != 0.5:
            return None
        e_new = e + int(exp) - 1
        rho, xr = binv[r] / p, xb[r] / p  # row r after the pivot
        rho1 = np.abs(rho).sum()
        mu_max = max(np.abs(col).max(), -dj)
        if mu_max * max(rho1 * amax, abs(xr)) * 2.0 ** (e + e_new) >= _EXACT:
            return None
        # Row r of the tableau's A-part, rho @ A, from the rows of A in
        # rho's support.
        sup = rho.nonzero()[0]
        lens = row_ptr[sup + 1] - row_ptr[sup]
        at = np.arange(lens.sum()) + np.repeat(row_ptr[sup] - (np.cumsum(lens) - lens), lens)
        cols, w = c_of[at], vals[at] * np.repeat(rho[sup], lens)

        nz = (np.abs(col) > 1e-12).nonzero()[0]
        binv[nz] -= np.multiply.outer(col[nz], rho)
        binv[r] = rho
        norms[nz] = np.abs(binv[nz]).sum(axis=1)
        xb[nz] -= col[nz] * xr
        xb[r] = xr
        if len(sup) == 1:  # one row of A: its columns are distinct
            d[cols] -= dj * w
        else:
            d[:n] -= dj * np.bincount(cols, weights=w, minlength=n)
        d[n:] -= dj * rho
        obj -= dj * xr
        basis[r] = j
        e = e_new
        # Bound every value of the dense tableau: a row's A-part by its
        # B⁻¹ row's 1-norm times amax, the objective row's A-part by the
        # duals' 1-norm (the duals are 1 - d[n:]) times amax.
        top = max(max(norms.max(), np.abs(1.0 - d[n:]).sum()) * amax,
                  np.abs(xb).max(), np.abs(d[n:]).max(), abs(obj))
        if top * 2.0**e >= _EXACT:
            return None
        if not bland:
            if abs(obj - last_obj) < 1e-12:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last_obj = obj
    else:
        return basis, xb, obj, True
    return basis, xb, obj, False


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
    coo, b = system._coo(), system._rhs()
    scale = np.abs(b)
    end = None
    if (m + 1) * (n + m + 1) >= REVISED_MIN_CELLS:
        end = _exact_phase1(coo, b, m, n)
    if end is None:
        end = _dense_phase1(phase1_tableau(system, coo=coo), m, n)
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
