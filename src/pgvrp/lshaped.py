"""Continuous L-shaped method for two-stage stochastic LPs.

The problem: choose first-stage x >= 0 with Ax = b minimizing
c.x + E[Q(x, xi)], where per scenario k the recourse value Q(x, xi_k) is the
optimum of min q_k.y over W y = h_k - T_k x, y >= 0, with a recourse matrix
W common to all scenarios.

The method alternates a master over (x, theta) with scenario subproblems:
scenarios whose recourse is infeasible at the current x contribute
feasibility cuts built from the dual of a slacked feasibility subproblem;
otherwise one aggregate optimality cut per iteration lifts theta toward
E[Q]. Terminates when theta reaches the current expected recourse.

The extensive form (one LP over x and every scenario's y) is exposed as the
correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simplex import EQ, GE, LinearProgram, solve

THETA_SPAN = 1e12  # stand-in for an unbounded-below theta before any cut
TOL = 1e-7  # relative slack of the feasibility and convergence tests
MAX_ITERATIONS = 500


class LShapedError(RuntimeError):
    pass


class FirstStageInfeasible(LShapedError):
    pass


class SecondStageInfeasible(LShapedError):
    """Feasibility cuts exhausted the first-stage region."""


class UnboundedRecourse(LShapedError):
    pass


@dataclass(eq=False)
class ScenarioBlock:
    probability: float
    q: np.ndarray
    T: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.T = np.atleast_2d(np.asarray(self.T, dtype=float))
        self.h = np.asarray(self.h, dtype=float)


@dataclass(eq=False)
class TwoStageLP:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    W: np.ndarray
    scenarios: list[ScenarioBlock]

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float).reshape(-1, len(self.c))
        self.b = np.asarray(self.b, dtype=float)
        self.W = np.atleast_2d(np.asarray(self.W, dtype=float))
        if not self.scenarios:
            raise LShapedError("at least one scenario required")
        probs = sum(s.probability for s in self.scenarios)
        if abs(probs - 1.0) > 1e-9 or any(s.probability <= 0 for s in self.scenarios):
            raise LShapedError("scenario probabilities must be positive and sum to 1")
        m2, n2 = self.W.shape
        for s in self.scenarios:
            if s.T.shape != (m2, len(self.c)) or len(s.h) != m2 or len(s.q) != n2:
                raise LShapedError("scenario dimensions inconsistent with W")

    @property
    def n_first(self) -> int:
        return len(self.c)


@dataclass
class CutSet:
    """Ledger of generated cuts; rows are in first-stage x space."""

    feasibility: list[tuple[np.ndarray, float]] = field(default_factory=list)
    optimality: list[tuple[np.ndarray, float]] = field(default_factory=list)

    @property
    def r(self) -> int:
        return len(self.feasibility)

    @property
    def s(self) -> int:
        return len(self.optimality)


@dataclass(eq=False)
class LShapedResult:
    x: np.ndarray
    theta: float
    objective: float
    cuts: CutSet
    iterations: int
    # (master objective, expected recourse at the iterate) per iteration
    trace: list[tuple[float, float]]


def extensive_form(problem: TwoStageLP) -> LinearProgram:
    """Single monolithic LP over x and all scenario recourse variables."""
    n1 = problem.n_first
    m1 = problem.A.shape[0]
    m2, n2 = problem.W.shape
    K = len(problem.scenarios)
    n_total = n1 + K * n2
    c = np.concatenate(
        [problem.c] + [s.probability * s.q for s in problem.scenarios]
    )
    rows = np.zeros((m1 + K * m2, n_total))
    rhs = np.zeros(m1 + K * m2)
    rows[:m1, :n1] = problem.A
    rhs[:m1] = problem.b
    for k, s in enumerate(problem.scenarios):
        r0 = m1 + k * m2
        rows[r0 : r0 + m2, :n1] = s.T
        rows[r0 : r0 + m2, n1 + k * n2 : n1 + (k + 1) * n2] = problem.W
        rhs[r0 : r0 + m2] = s.h
    return LinearProgram(c=c, A=rows, senses=[EQ] * (m1 + K * m2), b=rhs)


def recourse_Q(problem: TwoStageLP, x: np.ndarray, k: int) -> tuple[float, np.ndarray | None]:
    """Scenario recourse value and duals; (inf, None) when infeasible."""
    s = problem.scenarios[k]
    rhs = s.h - s.T @ x
    lp = LinearProgram(
        c=s.q, A=problem.W, senses=[EQ] * problem.W.shape[0], b=rhs
    )
    sol = solve(lp)
    if sol.status == "unbounded":
        raise UnboundedRecourse(f"scenario {k} recourse unbounded below")
    if sol.status == "infeasible":
        return np.inf, None
    return sol.objective, sol.duals


def _feasibility_subproblem(
    problem: TwoStageLP, x: np.ndarray, k: int
) -> tuple[float, np.ndarray]:
    """min 1.v+ + 1.v- of the slacked recourse rows; duals price violation."""
    s = problem.scenarios[k]
    m2, n2 = problem.W.shape
    rhs = s.h - s.T @ x
    eye = np.eye(m2)
    A = np.hstack([problem.W, eye, -eye])
    c = np.concatenate([np.zeros(n2), np.ones(2 * m2)])
    sol = solve(LinearProgram(c=c, A=A, senses=[EQ] * m2, b=rhs))
    if sol.status != "optimal":
        raise LShapedError("feasibility subproblem must be solvable")
    return sol.objective, sol.duals


def _master(problem: TwoStageLP, cuts: CutSet) -> LinearProgram:
    """Master over (x, theta+, theta-); theta = theta+ - theta-.

    theta is free in sign but clipped at -THETA_SPAN from below so the
    first masters (no optimality cut yet) stay bounded; that mirrors
    starting theta at minus infinity.
    """
    n1 = problem.n_first
    m1 = problem.A.shape[0]
    n = n1 + 2
    c = np.concatenate([problem.c, [1.0, -1.0]])
    rows, senses, rhs = [], [], []
    for i in range(m1):
        rows.append(np.concatenate([problem.A[i], [0.0, 0.0]]))
        senses.append(EQ)
        rhs.append(problem.b[i])
    for D, d in cuts.feasibility:
        rows.append(np.concatenate([D, [0.0, 0.0]]))
        senses.append(GE)
        rhs.append(d)
    for E, e in cuts.optimality:
        rows.append(np.concatenate([E, [1.0, -1.0]]))
        senses.append(GE)
        rhs.append(e)
    upper = np.full(n, np.inf)
    upper[-1] = THETA_SPAN
    A = np.array(rows) if rows else np.zeros((0, n))
    return LinearProgram(c=c, A=A, senses=senses, b=np.array(rhs), upper=upper)


def lshape_solve(problem: TwoStageLP, all_violations: bool = False) -> LShapedResult:
    """Iterate master and subproblems until theta certifies the recourse.

    `all_violations` switches the feasibility pass from stop-at-first to
    one cut per violated scenario (off by default).
    """
    cuts = CutSet()
    trace: list[tuple[float, float]] = []
    K = len(problem.scenarios)
    for v in range(1, MAX_ITERATIONS + 1):
        master = solve(_master(problem, cuts))
        if master.status == "infeasible":
            if cuts.feasibility:
                raise SecondStageInfeasible(
                    "no first-stage point has feasible recourse in every scenario"
                )
            raise FirstStageInfeasible("first-stage constraints are infeasible")
        if master.status == "unbounded":
            raise LShapedError("master unbounded: first-stage cost has no minimum")
        x = master.x[:-2]
        theta = float(master.x[-2] - master.x[-1])

        found_violation = False
        for k in range(K):
            w_feas, sigma = _feasibility_subproblem(problem, x, k)
            if w_feas > TOL * (1.0 + float(np.abs(problem.scenarios[k].h).sum())):
                s = problem.scenarios[k]
                cuts.feasibility.append((sigma @ s.T, float(sigma @ s.h)))
                found_violation = True
                if not all_violations:
                    break
        if found_violation:
            trace.append((float(master.objective), np.inf))
            continue

        E = np.zeros(problem.n_first)
        e = 0.0
        expected = 0.0
        for k in range(K):
            s = problem.scenarios[k]
            value, pi = recourse_Q(problem, x, k)
            if pi is None:
                raise LShapedError(
                    "scenario became infeasible after passing the feasibility pass"
                )
            E += s.probability * (pi @ s.T)
            e += s.probability * float(pi @ s.h)
            expected += s.probability * value
        w_v = e - float(E @ x)
        trace.append((float(master.objective), expected))
        if theta >= w_v - TOL * (1.0 + abs(w_v)):
            objective = float(problem.c @ x) + w_v
            return LShapedResult(
                x=x, theta=w_v, objective=objective, cuts=cuts, iterations=v, trace=trace
            )
        cuts.optimality.append((E, e))
    raise LShapedError(f"no convergence in {MAX_ITERATIONS} iterations")
