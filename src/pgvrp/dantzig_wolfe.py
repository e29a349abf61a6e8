"""Dantzig-Wolfe decomposition with column generation.

The LP min c.x over coupling rows A x (senses) b and a block-structured
domain (B_i x_i <= b_i, x_i >= 0 per block) is reformulated as a master
over convex-combination weights of block vertices plus nonnegative weights
of block extreme rays. The restricted master starts from artificial
columns, driven out by a phase-one pass; pricing subproblems maximize
(w A_i - c_i) x_i + alpha_i over each block and return either an improving
vertex column, a ray column when they are unbounded, or nothing.

Every iteration of the second phase certifies a lower bound: the master
objective minus the summed positive pricing values. The gap between master
objective and bound closes to zero at termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplex import EQ, LE, LinearProgram, solve

# the largest pricing value, and relative phase-one infeasibility, deemed zero
TOL = 1e-9
MAX_ITERATIONS = 500


class DantzigWolfeError(RuntimeError):
    pass


@dataclass(eq=False)
class Block:
    """One subproblem domain: B x <= b, x >= 0, with its cost slice."""

    c: np.ndarray
    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.B = np.asarray(self.B, dtype=float).reshape(-1, len(self.c))
        self.b = np.asarray(self.b, dtype=float)

    @property
    def n_vars(self) -> int:
        return len(self.c)


@dataclass(eq=False)
class DecomposedLP:
    blocks: list[Block]
    coupling: list[np.ndarray]  # per block: (m, n_i) coefficients
    b: np.ndarray
    senses: list[str]

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.coupling = [
            np.asarray(A, dtype=float).reshape(len(self.b), blk.n_vars)
            for A, blk in zip(self.coupling, self.blocks)
        ]
        if len(self.coupling) != len(self.blocks):
            raise DantzigWolfeError("one coupling matrix required per block")
        if len(self.senses) != len(self.b):
            raise DantzigWolfeError("sense per coupling row required")

    @property
    def n_rows(self) -> int:
        return len(self.b)


@dataclass(eq=False)
class _Column:
    block: int
    kind: str  # "vertex" | "ray"
    x: np.ndarray
    cost: float
    coupling: np.ndarray


@dataclass(eq=False)
class DwResult:
    x: np.ndarray
    objective: float
    bound_trace: list[float]
    objective_trace: list[float]
    iterations: int
    columns: int


def to_monolithic(problem: DecomposedLP) -> LinearProgram:
    """The undecomposed LP, used as the correctness oracle."""
    n = sum(blk.n_vars for blk in problem.blocks)
    offs = np.cumsum([0] + [blk.n_vars for blk in problem.blocks])
    m_cpl = problem.n_rows
    m_blk = sum(blk.B.shape[0] for blk in problem.blocks)
    A = np.zeros((m_cpl + m_blk, n))
    b = np.zeros(m_cpl + m_blk)
    senses = list(problem.senses)
    c = np.concatenate([blk.c for blk in problem.blocks]) if n else np.zeros(0)
    for i, (blk, cpl) in enumerate(zip(problem.blocks, problem.coupling)):
        A[:m_cpl, offs[i] : offs[i + 1]] = cpl
    b[:m_cpl] = problem.b
    r = m_cpl
    for i, blk in enumerate(problem.blocks):
        k = blk.B.shape[0]
        A[r : r + k, offs[i] : offs[i + 1]] = blk.B
        b[r : r + k] = blk.b
        senses += [LE] * k
        r += k
    return LinearProgram(c=c, A=A, senses=senses, b=b)


def dw_lower_bound(master_objective: float, pricing_values: list[float]) -> float:
    """Certified bound: master value minus the summed pricing surpluses."""
    if any(not math.isfinite(v) for v in pricing_values):
        return -math.inf
    return master_objective - sum(max(v, 0.0) for v in pricing_values)


def _price_block(
    blk: Block, c: np.ndarray, cpl: np.ndarray, w: np.ndarray, alpha: float
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Maximize (w A_i - c) x + alpha_i over the block domain, where c is
    the block's cost (zero in phase one).

    Returns (value, vertex, None) for a bounded optimum and
    (+inf, None, ray) when profitable along an extreme ray.
    """
    f = w @ cpl - c
    lp = LinearProgram(c=-f, A=blk.B, senses=[LE] * blk.B.shape[0], b=blk.b)
    sol = solve(lp)
    if sol.status == "infeasible":
        raise DantzigWolfeError("block domain is empty")
    if sol.status == "unbounded":
        ray = sol.ray
        scale = np.abs(ray).max()
        return math.inf, None, ray / scale
    return float(f @ sol.x) + alpha, sol.x, None


def _master_lp(
    problem: DecomposedLP, columns: list[_Column], costs: np.ndarray, art: np.ndarray
) -> LinearProgram:
    """Restricted master over current columns plus artificial columns."""
    m = problem.n_rows
    T = len(problem.blocks)
    rows = m + T
    ncols = len(columns) + rows
    A = np.zeros((rows, ncols))
    for j, col in enumerate(columns):
        A[:m, j] = col.coupling
        if col.kind == "vertex":
            A[m + col.block, j] = 1.0
    for i in range(rows):
        A[i, len(columns) + i] = art[i]
    b = np.concatenate([problem.b, np.ones(T)])
    senses = list(problem.senses) + [EQ] * T
    return LinearProgram(c=costs, A=A, senses=senses, b=b)


def dw_solve(problem: DecomposedLP, partial_pricing: bool = False) -> DwResult:
    """Column generation to within TOL of the true optimum."""
    m = problem.n_rows
    T = len(problem.blocks)
    rows = m + T
    art_sign = np.ones(rows)
    art_sign[:m] = np.where(problem.b >= 0, 1.0, -1.0)
    columns: list[_Column] = []

    def add_vertex(i, x):
        columns.append(
            _Column(i, "vertex", x, float(problem.blocks[i].c @ x), problem.coupling[i] @ x)
        )

    def add_ray(i, d):
        columns.append(
            _Column(i, "ray", d, float(problem.blocks[i].c @ d), problem.coupling[i] @ d)
        )

    def master(costs):
        lp = _master_lp(problem, columns, costs, art_sign)
        sol = solve(lp)
        if sol.status != "optimal":
            raise DantzigWolfeError(f"restricted master is {sol.status}")
        return sol

    # phase one: drive the artificial columns out
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise DantzigWolfeError("phase one iteration limit")
        costs = np.concatenate([np.zeros(len(columns)), np.ones(rows)])
        sol = master(costs)
        infeas = float(sol.objective)
        if infeas <= TOL * (1.0 + float(np.abs(problem.b).sum())):
            break
        w, alpha = sol.duals[:m], sol.duals[m:]
        progressed = False
        for i, blk in enumerate(problem.blocks):
            value, vertex, ray = _price_block(
                blk, np.zeros(blk.n_vars), problem.coupling[i], w, float(alpha[i])
            )
            if ray is not None:
                add_ray(i, ray)
                progressed = True
            elif value > TOL:
                add_vertex(i, vertex)
                progressed = True
            if progressed and partial_pricing:
                break
        if not progressed:
            raise DantzigWolfeError("original problem is infeasible")

    # phase two: optimize real costs over generated columns
    bound_trace: list[float] = []
    objective_trace: list[float] = []
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise DantzigWolfeError("iteration limit exceeded")
        big = 1e9 * (1.0 + max((abs(c.cost) for c in columns), default=1.0))
        costs = np.concatenate(
            [np.array([c.cost for c in columns]), np.full(rows, big)]
        )
        sol = master(costs)
        objective_trace.append(float(sol.objective))
        w, alpha = sol.duals[:m], sol.duals[m:]
        values: list[float] = []
        new_cols: list[tuple[str, int, np.ndarray]] = []
        for i, blk in enumerate(problem.blocks):
            value, vertex, ray = _price_block(blk, blk.c, problem.coupling[i], w, float(alpha[i]))
            values.append(value)
            if ray is not None:
                new_cols.append(("ray", i, ray))
            elif value > TOL:
                new_cols.append(("vertex", i, vertex))
            if partial_pricing and new_cols:
                break
        if partial_pricing and len(values) < T:
            bound_trace.append(-math.inf)
        else:
            bound_trace.append(dw_lower_bound(float(sol.objective), values))
        if not new_cols:
            break
        for kind, i, vec in new_cols:
            (add_ray if kind == "ray" else add_vertex)(i, vec)

    weights = sol.x[: len(columns)]
    x_parts = [np.zeros(blk.n_vars) for blk in problem.blocks]
    for wgt, col in zip(weights, columns):
        if wgt > 0:
            x_parts[col.block] += wgt * col.x
    x = np.concatenate(x_parts) if x_parts else np.zeros(0)
    return DwResult(
        x=x,
        objective=float(sol.objective),
        bound_trace=bound_trace,
        objective_trace=objective_trace,
        iterations=iterations,
        columns=len(columns),
    )
