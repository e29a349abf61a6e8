"""Dense LP core: two-phase primal simplex over bounded variables.

Minimizes c.x subject to rows with senses =, <=, >= and variable bounds
l <= x <= u (l finite, 0 by default; u may be infinite). The core solves
for the shifted variables x' = x - l with 0 <= x' <= u - l: it works on the
right-hand side b - A l and adds l back to the values it reports, so the
pivot loops only ever see zero lower bounds. It stores every row, the LP's
own and each cut alike, with a non-negative shifted right-hand side: a row
whose right-hand side b - a.l is negative is negated and its sense flipped.
The solver reports primal values, row duals, an unbounded ray when there is
one, and the final basis.

A solution also carries its live solver state, which later re-solves of
the same LP continue from, on the options of the solve that built it:
- `resolve_with_added_row` borders a batch of cutting planes onto it,
  such as one separation round's, and re-optimizes once. Each row borders
  the basis inverse to [[B^-1, 0], [-a_B B^-1 / s, 1/s]] with s = +-1 the
  new slack's coefficient, an O(m^2) update in place of a rebuilt LP and
  a fresh O(m^3) inverse; one dual simplex pass then repairs primal
  feasibility for the whole batch.
- `warm_solve` moves the variable bounds, which shifts the right-hand side
  by A (l_new - l_old) and keeps the basis dual feasible. It continues on
  the live basis inverse, or installs a stored basis of the same LP taken
  when it had fewer rows and inverts it once.
A re-solve that fails numerically falls back to a cold solve of the
state's LP on the same options. The primal and the dual simplex change the
basis through one eta update of the inverse, which is refactorized from
scratch once the pivots and borders since the last refactorization reach
`refactor_every`.

Representation is dense throughout. Phase one minimizes the
artificial-variable sum. Both the primal and the dual simplex fall back to
Bland's rule after `stall_limit` pivots that do not improve the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

LE, GE, EQ = "<=", ">=", "="
_SENSES = (LE, GE, EQ)
_FLIPPED = {LE: GE, GE: LE, EQ: EQ}  # a row's sense after negating it


class SimplexError(RuntimeError):
    """Numeric breakdown or iteration-limit failure; never silent."""


TOL_FEAS = 1e-8  # largest bound violation of a basic value deemed feasible
TOL_OPT = 1e-8  # smallest reduced-cost violation that lets a column enter
MAX_ITERATIONS = 200_000  # pivots one solve may take before it fails


@dataclass
class SimplexOptions:
    tol_pivot: float = 1e-10
    stall_limit: int = 400
    refactor_every: int = 120


@dataclass(eq=False)
class LinearProgram:
    """min c.x  s.t.  A x (senses) b,  lower <= x <= upper."""

    c: np.ndarray
    A: np.ndarray
    senses: list[str]
    b: np.ndarray
    upper: np.ndarray | None = None
    lower: np.ndarray | None = None  # finite; zeros when None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        if self.A.size == 0:
            self.A = self.A.reshape((len(self.b), len(self.c)))
        m, n = self.A.shape
        self.upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        self.lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float)
        sizes = (len(self.c), len(self.b), len(self.senses), len(self.lower), len(self.upper))
        if sizes != (n, m, m, n, n):
            raise SimplexError(
                f"dimension mismatch: A is {m}x{n}; c, b, senses, lower and upper "
                f"have {', '.join(map(str, sizes))}"
            )
        bad = [s for s in self.senses if s not in _SENSES]
        if bad:
            raise SimplexError(f"unknown row sense {bad[0]!r}")
        if not all(np.all(np.isfinite(v)) for v in (self.A, self.b, self.c, self.lower)):
            raise SimplexError("non-finite coefficient")

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    def with_row(self, a: Sequence[float], sense: str, rhs: float) -> "LinearProgram":
        return LinearProgram(
            c=self.c.copy(),
            A=np.vstack([self.A, np.asarray(a, dtype=float)]) if self.n_rows else np.asarray([a], dtype=float),
            senses=list(self.senses) + [sense],
            b=np.append(self.b, rhs),
            upper=self.upper.copy(),
            lower=self.lower.copy(),
        )


@dataclass(eq=False)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    ray: np.ndarray | None = None
    basis: tuple[int, ...] | None = None  # column labels, see _Core
    iterations: int = 0
    fallback: str | None = None  # why a warm start fell back to a cold solve
    # live solver state that re-solves of this LP continue from
    core: "_Core | None" = field(default=None, repr=False)


class _Core:
    """Working arrays for one solve and the re-solves continued on it.

    Column labels are stable across re-solves of extended LPs:
    label j < n            -> structural variable j
    n <= label < n + m     -> slack of row (label - n)
    label >= n + m         -> artificial of row (label - n - m)

    Structural column j holds x_j - lo_j, bounded by ub_j = hi_j - lo_j.
    Slack columns follow the structural ones in row order, then the
    artificial columns (`art_cols`); a bordered row's slack goes last.
    """

    def __init__(self, lp: LinearProgram, options: SimplexOptions):
        self.opt = options
        m, n = lp.n_rows, lp.n_vars
        self.m, self.n = m, n
        self.c, self.lo, self.hi = lp.c, lp.lower, lp.upper
        A, self.senses, self.b, self.row_sign = self._normalise(lp.A, lp.senses, lp.b)

        # every inequality has a slack. '<=' rows start from it, as do '>='
        # rows with a zero right-hand side (slack basic at 0); the rest
        # start from an artificial
        sense = np.array(self.senses, dtype=str)
        slacks = np.flatnonzero(sense != EQ)
        arts = np.flatnonzero((sense == EQ) | ((sense == GE) & (self.b != 0.0)))
        self.N = n + slacks.size + arts.size
        self.art_cols = n + slacks.size + np.arange(arts.size)
        self.Aext = np.zeros((m, self.N))
        self.Aext[:, :n] = A
        self.Aext[slacks, n + np.arange(slacks.size)] = np.where(sense[slacks] == LE, 1.0, -1.0)
        self.Aext[arts, self.art_cols] = 1.0
        self.labels = np.concatenate([np.arange(n), n + slacks, n + m + arts])
        self.ub = np.concatenate([lp.upper - lp.lower, np.full(self.N - n, np.inf)])

        self.basis = np.empty(m, dtype=int)
        self.basis[slacks] = n + np.arange(slacks.size)
        self.basis[arts] = self.art_cols
        self.at_upper = np.zeros(self.N, dtype=bool)
        self.in_basis = np.zeros(self.N, dtype=bool)
        self.in_basis[self.basis] = True
        self.iterations = 0
        self.since_refactor = 0  # pivots and borders since the last inverse
        self.bland = False
        # the initial basis is a signed diagonal: invert it directly
        diag = self.Aext[np.arange(m), self.basis]
        self.Binv = np.diag(1.0 / diag)
        self.xB = self.b / diag

    @property
    def n_rows(self) -> int:
        return self.m

    def _normalise(self, A: np.ndarray, senses: Sequence[str], b: np.ndarray):
        """Rows in the core's convention, and the sign each was multiplied by.

        Shifts the right-hand sides to b - A lo, then negates each row whose
        right-hand side is negative and flips its sense.
        """
        b = b - A @ self.lo
        sign = np.where(b < 0, -1.0, 1.0)
        senses = [s if g > 0 else _FLIPPED[s] for s, g in zip(senses, sign)]
        return A * sign[:, None], senses, b * sign, sign

    # -- linear algebra helpers ------------------------------------------

    def refactor(self):
        self.since_refactor = 0
        if self.m == 0:
            return
        B = self.Aext[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis during refactorization") from exc
        self.recompute_xB()

    def _pivot(self, r: int, q: int, aq: np.ndarray, leave_at_upper: bool):
        """Column q enters the basis in row r, given aq = B^-1 a_q.

        The leaving column goes to its upper bound if `leave_at_upper` (and
        the bound is finite), else to zero. An eta update of the inverse,
        refactorized when due.
        """
        piv = aq[r]
        if abs(piv) < self.opt.tol_pivot:
            raise SimplexError("pivot element below threshold")
        leave = self.basis[r]
        self.Binv[r] /= piv
        scale = aq.copy()
        scale[r] = 0.0
        self.Binv -= np.outer(scale, self.Binv[r])
        self.basis[r] = q
        self.in_basis[q] = True
        self.in_basis[leave] = False
        self.at_upper[q] = False
        self.at_upper[leave] = bool(leave_at_upper and np.isfinite(self.ub[leave]))
        self.iterations += 1
        self._basis_changed()

    def _basis_changed(self):
        """Refactorize when due, else only refresh the basic values."""
        self.since_refactor += 1
        if self.since_refactor >= self.opt.refactor_every:
            self.refactor()
        else:
            self.recompute_xB()

    def recompute_xB(self):
        rhs = self.b.copy()
        up = np.where(self.at_upper)[0]
        if up.size:
            rhs = rhs - self.Aext[:, up] @ self.ub[up]
        self.xB = self.Binv @ rhs

    def solution_values(self) -> np.ndarray:
        x = np.zeros(self.N)
        x[self.at_upper] = self.ub[self.at_upper]
        x[self.basis] = self.xB
        return x

    def duals(self, cost: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0)
        return cost[self.basis] @ self.Binv

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        rc = cost - self.duals(cost) @ self.Aext
        rc[self.basis] = 0.0
        return rc

    # -- primal simplex ---------------------------------------------------

    def primal(self, cost: np.ndarray) -> str:
        """Iterate to optimality; returns 'optimal' or 'unbounded'."""
        best_obj, stall = np.inf, 0
        while True:
            if self.iterations > MAX_ITERATIONS:
                raise SimplexError("iteration limit exceeded")
            rc = self.reduced_costs(cost)
            viol = np.where(self.at_upper, rc, -rc)
            viol[self.in_basis] = -np.inf
            viol[self.ub == 0.0] = -np.inf  # fixed columns never enter
            if self.bland:
                elig = np.where(viol > TOL_OPT)[0]
                if elig.size == 0:
                    return "optimal"
                q = int(elig[np.argmin(self.labels[elig])])
            else:
                q = int(np.argmax(viol))
                if viol[q] <= TOL_OPT:
                    return "optimal"
            if not self._step(q):
                return "unbounded"
            obj = float(cost @ self.solution_values())
            if obj < best_obj - 1e-12:
                best_obj, stall = obj, 0
            else:
                stall += 1
                self.bland |= stall > self.opt.stall_limit

    def _step(self, q: int) -> bool:
        """One pivot with entering column q; False means unbounded."""
        sigma = -1.0 if self.at_upper[q] else 1.0  # direction of x_q
        aq = self.Binv @ self.Aext[:, q]
        dB = -sigma * aq
        tol = self.opt.tol_pivot

        # the first basic variable to hit a bound leaves, unless x_q
        # reaches its own upper bound first and only flips to it
        blocker = -1
        if self.m:
            ubB = self.ub[self.basis]
            down = dB < -tol
            up = (dB > tol) & np.isfinite(ubB)
            ratios = np.full(self.m, np.inf)
            ratios[down] = self.xB[down] / -dB[down]
            ratios[up] = (ubB[up] - self.xB[up]) / dB[up]
            np.maximum(ratios, 0.0, out=ratios)
            t_min = float(ratios.min())
            if t_min < self.ub[q] + 1e-12 and np.isfinite(t_min):
                if self.bland:
                    # exact ties only: a blocker whose ratio exceeds t_min
                    # leaves the t_min rows infeasible by the difference
                    # times their dB, and Bland's rule ignores |dB|
                    tied = np.flatnonzero(ratios == t_min)
                    blocker = int(tied[np.argmin(self.labels[self.basis[tied]])])
                else:
                    # prefer large pivots within a small ratio tolerance;
                    # tiny pivots degrade the maintained inverse
                    window = t_min + 1e-9 * (1.0 + abs(t_min))
                    cand = np.where(ratios <= window)[0]
                    blocker = int(cand[np.argmax(np.abs(dB[cand]))])
        if blocker >= 0:
            self._pivot(blocker, q, aq, dB[blocker] > 0)
        elif np.isfinite(self.ub[q]):
            self.at_upper[q] = ~self.at_upper[q]
            self.iterations += 1
            self.recompute_xB()
        else:
            self._ray_col = q
            return False
        return True

    # -- dual simplex (for warm restarts after adding rows) ---------------

    def dual(self, cost: np.ndarray) -> str:
        """Restore primal feasibility keeping dual feasibility.

        Returns 'optimal' or 'infeasible'. Reduced costs are updated
        incrementally along the pivot row and refreshed on refactorization.
        After `stall_limit` pivots that do not raise the dual objective
        (the cost of the current basic solution), the leaving row is the
        infeasible one with the smallest basic label (Bland's rule).
        """
        if self.m == 0:
            return "optimal"
        rc = self.reduced_costs(cost)
        best_obj, stall = -np.inf, 0
        while True:
            if self.iterations > MAX_ITERATIONS:
                raise SimplexError("iteration limit exceeded (dual)")
            ubB = self.ub[self.basis]
            below = -self.xB
            above = self.xB - ubB
            worst = np.maximum(below, above)
            if self.bland:
                rows = np.where(worst > TOL_FEAS)[0]
                if rows.size == 0:
                    return "optimal"
                r = int(rows[np.argmin(self.labels[self.basis[rows]])])
            else:
                r = int(np.argmax(worst))
                if worst[r] <= TOL_FEAS:
                    return "optimal"
            too_low = below[r] >= above[r]
            row = self.Binv[r] @ self.Aext
            sign = -1.0 if too_low else 1.0
            eligible = ~self.in_basis & (self.ub != 0.0)
            improving = np.where(
                self.at_upper, sign * row < -self.opt.tol_pivot, sign * row > self.opt.tol_pivot
            )
            cand = np.where(eligible & improving)[0]
            if cand.size == 0:
                return "infeasible"
            ratios = np.abs(rc[cand]) / np.abs(row[cand])
            best = float(ratios.min())
            ties = cand[ratios <= best + 1e-12]
            q = int(ties[np.argmin(self.labels[ties])])
            self._pivot(r, q, self.Binv @ self.Aext[:, q], not too_low)
            if self.since_refactor == 0:
                rc = self.reduced_costs(cost)
            else:
                rc = rc - (rc[q] / row[q]) * row
                rc[self.basis] = 0.0
            obj = float(cost @ self.solution_values())
            stall = 0 if obj > best_obj + 1e-12 * (1.0 + abs(obj)) else stall + 1
            best_obj = max(best_obj, obj)
            self.bland |= stall > self.opt.stall_limit

    # -- re-solves -----------------------------------------------------------

    def add_row(self, a: Sequence[float], sense: str, rhs: float):
        """Border the basis with an inequality row; its slack enters basic.

        The row is stored by the convention of `_normalise`. Its slack
        takes label n + m, so artificial labels shift up by one, and its
        column goes last. With s the slack's coefficient, the new basis
        [[B, 0], [a_B, s]] has the inverse [[B^-1, 0], [-a_B B^-1 / s, 1/s]].
        """
        a, senses, b, sign = self._normalise(
            np.asarray(a, dtype=float)[None], [sense], np.array([rhs], dtype=float)
        )
        m, n, N = self.m, self.n, self.N
        s = 1.0 if senses[0] == LE else -1.0
        self.Aext = np.pad(self.Aext, ((0, 1), (0, 1)))
        self.Aext[m, :n] = a
        self.Aext[m, N] = s
        Binv = np.pad(self.Binv, ((0, 1), (0, 1)))
        Binv[m, :m] = -(self.Aext[m, self.basis] @ self.Binv) / s
        Binv[m, m] = 1.0 / s
        self.Binv = Binv
        self.labels = np.append(np.where(self.labels >= n + m, self.labels + 1, self.labels), n + m)
        self.ub = np.append(self.ub, np.inf)
        self.at_upper = np.append(self.at_upper, False)
        self.in_basis = np.append(self.in_basis, True)
        self.basis = np.append(self.basis, N)
        self.row_sign = np.append(self.row_sign, sign)
        self.senses += senses
        self.b = np.append(self.b, b)
        self.m, self.N = m + 1, N + 1
        # the state above is complete before a refactorization can raise
        self._basis_changed()

    def set_bounds(self, lower: np.ndarray, upper: np.ndarray):
        """Move the structural bounds to [lower, upper], keeping the basis.

        Reduced costs do not depend on the bounds, so a dual feasible basis
        stays dual feasible, provided no column nonbasic at its upper
        bound loses that bound.
        """
        moved = np.flatnonzero(lower != self.lo)
        if moved.size:
            self.b = self.b - self.Aext[:, moved] @ (lower[moved] - self.lo[moved])
        self.lo, self.hi = lower, upper
        self.ub[: self.n] = upper - lower
        self.recompute_xB()

    def install(self, basis_labels: Sequence[int], x_prev: np.ndarray | None):
        """Install a basis taken from this core when it had k <= m rows.

        Rows k..m-1 enter with their slacks basic, and artificial labels
        shift by m - k, as `add_row` shifts them. A nonbasic column starts
        at its upper bound where x_prev reached it. Inverts the basis.
        """
        n, m = self.n, self.m
        labels = np.asarray(basis_labels, dtype=int)
        k = labels.size
        if k > m:
            raise SimplexError("basis has more rows than the LP")
        labels = np.where(labels >= n + k, labels + (m - k), labels)
        col_of = np.full(n + 2 * m, -1)
        col_of[self.labels] = np.arange(self.N)
        if k and (labels.min() < 0 or labels.max() >= col_of.size):
            raise SimplexError("basis label outside the LP")
        basis = np.concatenate([col_of[labels], col_of[n + np.arange(k, m)]])
        if np.any(basis < 0):
            raise SimplexError("basis column missing from the LP")
        self.basis = basis
        self.in_basis[:] = False
        self.in_basis[basis] = True
        self.at_upper[:] = False
        if x_prev is not None:
            ub = self.ub[:n]
            self.at_upper[:n] = (
                ~self.in_basis[:n] & np.isfinite(ub) & (ub > 0) & (x_prev >= self.hi - 1e-9)
            )
        self.refactor()

    def reoptimize(self) -> LpSolution:
        """Dual simplex back to primal feasibility, then a primal pass."""
        self.iterations, self.bland = 0, False
        cost = self.phase2_cost()
        if self.dual(cost) == "infeasible":
            return self.result("infeasible")
        return self.result(self.primal(cost))

    def linear_program(self) -> LinearProgram:
        """The LP this core solves now, rows and variables unshifted."""
        sign = self.row_sign
        senses = [s if g > 0 else _FLIPPED[s] for s, g in zip(self.senses, sign)]
        A = self.Aext[:, : self.n] * sign[:, None]
        return LinearProgram(self.c, A, senses, self.b * sign + A @ self.lo, self.hi, self.lo)

    # -- result assembly ---------------------------------------------------

    def phase2_cost(self) -> np.ndarray:
        cost = np.zeros(self.N)
        cost[: self.n] = self.c
        return cost

    def freeze_artificials(self):
        self.ub[self.art_cols] = 0.0
        self.at_upper[self.art_cols] = False

    def result(self, status: str) -> LpSolution:
        if status == "infeasible":
            return LpSolution(status="infeasible", iterations=self.iterations, core=self)
        x = self.solution_values()[: self.n] + self.lo
        basis = tuple(self.labels[self.basis].tolist())
        if status == "unbounded":
            ray = np.zeros(self.N)
            q = self._ray_col
            ray[q] = 1.0
            if self.m:
                ray[self.basis] = -(self.Binv @ self.Aext[:, q])
            return LpSolution(
                status="unbounded",
                x=x,
                ray=ray[: self.n],
                basis=basis,
                iterations=self.iterations,
                core=self,
            )
        return LpSolution(
            status="optimal",
            x=x,
            duals=self.duals(self.phase2_cost()) * self.row_sign,
            objective=float(self.c @ x),
            basis=basis,
            iterations=self.iterations,
            core=self,
        )


def solve(lp: LinearProgram, options: SimplexOptions | None = None) -> LpSolution:
    """Two-phase simplex solve of a bounded-variable LP.

    A numerically degraded run (singular refactorization, vanishing
    pivots) is retried once on a conservative path: Bland's rule from the
    start, frequent refactorization, stricter pivot threshold. Either way
    the solution's core re-solves on `options`.
    """
    opt = options or SimplexOptions()
    if np.any(lp.lower > lp.upper):
        return LpSolution(status="infeasible")
    try:
        return _solve_once(lp, opt)
    except SimplexError:
        careful = replace(
            opt, stall_limit=0, refactor_every=20, tol_pivot=max(opt.tol_pivot, 1e-8)
        )
        sol = _solve_once(lp, careful)
        sol.core.opt = opt
        return sol


def _solve_once(lp: LinearProgram, opt: SimplexOptions) -> LpSolution:
    core = _Core(lp, opt)
    if core.art_cols.size:
        cost1 = np.zeros(core.N)
        cost1[core.art_cols] = 1.0
        if core.primal(cost1) != "optimal":
            raise SimplexError("phase one cannot be unbounded")
        infeas = float(cost1 @ core.solution_values())
        if infeas > TOL_FEAS * (1.0 + float(np.abs(core.b).sum())):
            return core.result("infeasible")
        core.freeze_artificials()
        core.bland = False
    return core.result(core.primal(core.phase2_cost()))


def _cold_fallback(
    core: _Core, reason: str, rows: Sequence[tuple[Sequence[float], str, float]] = ()
) -> LpSolution:
    """Cold solve of the core's LP plus `rows`, on the core's options."""
    lp = core.linear_program()
    for row in rows:
        lp = lp.with_row(*row)
    sol = solve(lp, core.opt)
    sol.fallback = reason
    # later re-solves continue on the new core, like every warm start
    # without artificial columns
    sol.core.freeze_artificials()
    return sol


def warm_solve(
    core: _Core,
    lower: np.ndarray,
    upper: np.ndarray,
    basis_labels: Sequence[int] | None = None,
    x_prev: np.ndarray | None = None,
) -> LpSolution:
    """Re-solve a live core's LP under new variable bounds, on its options.

    Without `basis_labels` the core continues from the basis it holds, on
    its live inverse. Otherwise it installs that basis, taken from an
    earlier solution of the same core (labels as in `_Core`, rows added
    since enter with their slacks basic), starts nonbasic columns at their
    upper bound where `x_prev` reached it, and inverts the basis once.
    Bound changes and added rows both leave an optimal basis dual
    feasible, so the dual simplex repairs primal feasibility, then a
    primal pass confirms optimality. A numerical failure falls back to a
    cold solve of the core's LP on the core's options, says why in
    `LpSolution.fallback`, and the solution carries the new core. A
    SimplexError from that cold solve propagates.
    """
    lower, upper = np.array(lower, dtype=float), np.array(upper, dtype=float)
    if np.any(lower > upper):
        return LpSolution(status="infeasible", core=core)
    try:
        core.set_bounds(lower, upper)
        if basis_labels is not None:
            core.install(basis_labels, x_prev)
        return core.reoptimize()
    except SimplexError as exc:
        return _cold_fallback(core, str(exc))


def resolve_with_added_row(
    core: _Core, rows: Sequence[tuple[Sequence[float], str, float]]
) -> LpSolution:
    """Border cutting planes (a, sense, rhs) onto a live core, re-solve once.

    The core must hold an optimal basis of its LP, and the re-solve runs on
    the core's options. Each row's slack completes that basis and keeps it
    dual feasible, so one dual simplex pass repairs primal feasibility for
    all the rows together. Cuts are inequalities: an `=` row raises
    SimplexError. A numerical failure falls back to a cold solve of the
    core's LP, which holds every row of the batch, on the core's options,
    says why in `LpSolution.fallback`, and the solution carries the new
    core. A SimplexError from that cold solve propagates.
    """
    if any(sense == EQ for _, sense, _ in rows):
        raise SimplexError("a cut row must be an inequality")
    m = core.m
    try:
        for row in rows:
            core.add_row(*row)
        return core.reoptimize()
    except SimplexError as exc:
        return _cold_fallback(core, str(exc), rows[core.m - m :])  # those not yet bordered
