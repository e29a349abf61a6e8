"""Independent LP reference: vertex enumeration for small bounded LPs."""

from __future__ import annotations

import itertools

import numpy as np

from pgvrp.simplex import EQ, GE, LE, LinearProgram


def feasible(lp: LinearProgram, x: np.ndarray, tol: float = 1e-7) -> bool:
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        return False
    r = lp.A @ x
    for i, s in enumerate(lp.senses):
        if s == LE and r[i] > lp.b[i] + tol:
            return False
        if s == GE and r[i] < lp.b[i] - tol:
            return False
        if s == EQ and abs(r[i] - lp.b[i]) > tol:
            return False
    return True


def vertex_enumeration_optimum(lp: LinearProgram) -> float | None:
    """Minimum objective over all basic feasible points, None if infeasible.

    Enumerates every choice of n active constraints among the rows (as
    equalities) and the variable bounds, solves the square system, and
    keeps feasible solutions. Only valid for bounded feasible regions.
    """
    m, n = lp.n_rows, lp.n_vars
    rows = [(lp.A[i], lp.b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            rows.append((e, lp.upper[j]))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if feasible(lp, x):
            val = float(lp.c @ x)
            if best is None or val < best:
                best = val
    return best


def random_bounded_lp(
    rng: np.random.Generator, max_vars: int = 8, max_rows: int = 8, lower_bounds: bool = False
):
    """Feasible-by-construction LP with box upper bounds (hence bounded).

    With `lower_bounds`, each variable gets a lower bound between x0 - 3
    and x0, negative ones included, and one in five is fixed at x0.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = rng.integers(-9, 10, size=(m, n)).astype(float)
    x0 = rng.integers(0, 5, size=n).astype(float)
    senses, b = [], []
    for i in range(m):
        s = (LE, GE, EQ)[int(rng.integers(0, 3))]
        margin = float(rng.integers(0, 4))
        val = float(A[i] @ x0)
        if s == LE:
            b.append(val + margin)
        elif s == GE:
            b.append(val - margin)
        else:
            b.append(val)
        senses.append(s)
    c = rng.integers(-9, 10, size=n).astype(float)
    upper = np.full(n, 10.0)
    lower = None
    if lower_bounds:
        lower = x0 - rng.integers(0, 4, size=n)
        fixed = rng.random(n) < 0.2
        lower[fixed] = upper[fixed] = x0[fixed]
    return LinearProgram(c=c, A=A, senses=senses, b=np.array(b), upper=upper, lower=lower)
