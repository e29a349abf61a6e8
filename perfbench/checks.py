"""Independent checkers for the benchmark's outputs.

Nothing here calls `pgvrp.evaluation`: the expected length is recomputed
from the pairwise closed form with its own loops, and the root bound comes
from SciPy's HiGHS, which the package itself never uses. Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

from pgvrp.model import check_feasible

REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def at_most(a: float, b: float, rel: float = REL_TOL) -> bool:
    """a <= b up to a relative rounding allowance."""
    return a <= b + rel * max(1.0, abs(a), abs(b))


def node_presence(instance) -> list[float]:
    """Presence probability per node, read straight off the clusters."""
    p = [1.0] * instance.n_nodes
    for cluster in instance.clusters:
        for v in cluster.members:
            p[v] = float(cluster.probability)
    return p


def expected_length(tours, instance) -> float:
    """Expected realized length of fixed tours, pairwise closed form.

    Positions i < j of a tour are consecutive in the realized walk exactly
    when both are present and every position between them is absent. The
    loop runs backwards from each successor j, so it shares no code path
    with the package's forward evaluation.
    """
    d = instance.distances
    p = node_presence(instance)
    total = 0.0
    for tour in tours:
        for j in range(1, len(tour)):
            gap_absent = 1.0
            for i in range(j - 1, -1, -1):
                total += p[tour[i]] * p[tour[j]] * gap_absent * float(d[tour[i], tour[j]])
                gap_absent *= 1.0 - p[tour[i]]
    return total


def deterministic_length(tours, instance) -> float:
    d = instance.distances
    return float(sum(float(d[a, b]) for t in tours for a, b in zip(t[:-1], t[1:])))


def expected_recourse(tours, instance) -> float:
    return deterministic_length(tours, instance) - expected_length(tours, instance)


def depot_radius_bound(instance) -> float:
    """A lower bound on the deterministic optimum: some tour reaches every
    cluster and returns, so the optimum is at least twice the largest
    depot-to-nearest-member distance (triangle inequality)."""
    d = instance.distances
    return 2.0 * max(min(float(d[0, t]) for t in c.members) for c in instance.clusters)


def highs_root_value(lp) -> float:
    """Optimal value of an LP in `pgvrp.simplex.LinearProgram` form, by HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    senses = np.asarray(lp.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    a_ub = np.vstack([lp.A[le], -lp.A[ge]])
    b_ub = np.concatenate([lp.b[le], -lp.b[ge]])
    bounds = [(0.0, float(u) if math.isfinite(u) else None) for u in lp.upper]
    res = linprog(
        lp.c,
        A_ub=csr_matrix(a_ub) if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=csr_matrix(lp.A[eq]) if eq.any() else None,
        b_eq=lp.b[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the root LP: {res.message}")
    return float(res.fun)


def check_solution(solution, reported: float, instance) -> list[str]:
    """Feasible by `check_feasible`, and the reported objective matches the
    independent evaluator to within REL_TOL."""
    if solution is None:
        return ["no solution returned"]
    try:
        report = check_feasible(instance, solution)
    except ValueError as exc:  # unknown node ids raise instead of reporting
        return [f"infeasible: {exc}"]
    if not report.ok:
        return ["infeasible: " + "; ".join(report.violations)]
    mine = expected_length(solution.tours, instance)
    if not close(reported, mine):
        return [f"objective {reported!r} != independent {mine!r}"]
    return []


def check_large(solutions, ub_simple: float, ub_clustered: float, caps, lower: float) -> list[str]:
    """Bounds on one large instance.

    `solutions` maps a heuristic name to (tours, expected recourse,
    expected length); `caps` maps it to theta_cap at that solution.
    """
    problems = []
    if not at_most(ub_clustered, ub_simple):
        problems.append(f"ub_clustered {ub_clustered!r} > ub_simple {ub_simple!r}")
    for name, (_tours, recourse, length) in solutions.items():
        if not at_most(recourse, ub_clustered):
            problems.append(f"{name}: recourse {recourse!r} > ub_clustered {ub_clustered!r}")
        if not at_most(recourse, caps[name]):
            problems.append(f"{name}: theta_cap {caps[name]!r} < recourse {recourse!r}")
        if not (lower > 0 and at_most(lower, length)):
            problems.append(f"{name}: lower bound {lower!r} not in (0, {length!r}]")
    return problems


def check_exact_small(result, oracle: float | None) -> list[str]:
    problems = []
    if result.status != "optimal":
        problems.append(f"status {result.status}")
    if result.lower_bound != result.objective:
        problems.append(f"lower_bound {result.lower_bound!r} != objective {result.objective!r}")
    if oracle is not None and not close(result.objective, oracle):
        problems.append(f"objective {result.objective!r} != oracle {oracle!r}")
    return problems


def check_exact_cuts(result, root_value: float, heuristic: float) -> list[str]:
    """HiGHS root value <= lower_bound <= objective <= heuristic objective."""
    lb, obj = result.lower_bound, result.objective
    if not (math.isfinite(lb) and math.isfinite(obj)):
        return [f"non-finite bound or objective: {lb!r}, {obj!r}"]
    problems = []
    if not at_most(root_value, lb, 1e-7):
        problems.append(f"HiGHS root {root_value!r} > lower_bound {lb!r}")
    if not at_most(lb, obj):
        problems.append(f"lower_bound {lb!r} > objective {obj!r}")
    if not at_most(obj, heuristic):
        problems.append(f"objective {obj!r} > heuristic {heuristic!r}")
    return problems
