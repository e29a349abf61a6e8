"""Exact evaluation of a-priori tours under probabilistic cluster presence.

The expected length of a fixed tour has a closed form: for every ordered
pair of tour positions (i, j) the pair is consecutive in the realized walk
exactly when both endpoints are present and everything between them is
absent, so the pair contributes

    alpha_ij * d_ij,   alpha_ij = p_i * p_j * prod_{i < t < j} (1 - p_t).

Both depot endpoints carry probability 1. The expectation of a multi-tour
solution is the sum of per-tour expectations because the depot separates
tours with certainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AprioriSolution, Instance, Scenario, ValidationError, check_feasible


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    """Consecutiveness probabilities for one tour.

    alpha[i, j] (positions, i < j) is the probability that positions i and j
    are adjacent in the realized walk; the row sum over j equals p_i.
    """

    tour: tuple[int, ...]
    alpha: np.ndarray


def tour_probabilities(tour: Sequence[int], instance: Instance) -> np.ndarray:
    """Presence probability per tour position (depot ends are 1)."""
    try:
        return instance.node_probabilities()[np.asarray(tour, dtype=np.intp)]
    except IndexError as exc:
        raise ValidationError(f"unknown node id in tour {tuple(tour)}") from exc


def alpha_coefficients(tour: Sequence[int], instance: Instance) -> AlphaMatrix:
    """Closed-form adjacency probabilities for one depot-rooted tour."""
    tour = tuple(tour)
    if len(tour) < 2 or tour[0] != 0 or tour[-1] != 0:
        raise ValidationError("tour must start and end at the depot")
    if len(set(tour[1:-1])) != len(tour) - 2 or 0 in tour[1:-1]:
        raise ValidationError("interior nodes must be distinct non-depot nodes")
    p = tour_probabilities(tour, instance)
    h = len(tour)
    alpha = np.zeros((h, h))
    for i in range(h):
        absent = 1.0
        for j in range(i + 1, h):
            alpha[i, j] = p[i] * p[j] * absent
            absent *= 1.0 - p[j]
    return AlphaMatrix(tour, alpha)


def tour_expected_length(tour: Sequence[int], instance: Instance) -> float:
    am = alpha_coefficients(tour, instance)
    d = instance.distances
    total = 0.0
    tour = am.tour
    for i in range(len(tour)):
        for j in range(i + 1, len(tour)):
            a = am.alpha[i, j]
            if a:
                total += a * d[tour[i], tour[j]]
    return total


def deterministic_length(sol: AprioriSolution, instance: Instance) -> float:
    """Total length when every cluster shows up."""
    d = instance.distances
    return float(
        sum(d[a, b] for t in sol.tours for a, b in zip(t[:-1], t[1:]))
    )


def _require_feasible(sol: AprioriSolution, instance: Instance):
    report = check_feasible(instance, sol)
    if not report.ok:
        raise ValidationError("infeasible solution: " + "; ".join(report.violations))


def expected_length(sol: AprioriSolution, instance: Instance, check: bool = True) -> float:
    """Expected total realized length of an a-priori solution."""
    if check:
        _require_feasible(sol, instance)
    return float(sum(tour_expected_length(t, instance) for t in sol.tours))


def realized_length(sol: AprioriSolution, scenario: Scenario, instance: Instance) -> float:
    """Length actually driven in one scenario: absent nodes are skipped."""
    d = instance.distances
    total = 0.0
    for t in sol.tours:
        walk = [v for v in t if scenario.node_present(instance, v)]
        # a tour whose interior is entirely absent collapses to the depot
        total += sum(d[a, b] for a, b in zip(walk[:-1], walk[1:]))
    return float(total)


def recourse_value(sol: AprioriSolution, scenario: Scenario, instance: Instance) -> float:
    """Length saved in one scenario relative to the full tour."""
    return deterministic_length(sol, instance) - realized_length(sol, scenario, instance)


def expected_recourse(sol: AprioriSolution, instance: Instance, check: bool = True) -> float:
    """Expected saving: deterministic length minus expected length."""
    return deterministic_length(sol, instance) - expected_length(sol, instance, check=check)


def deviation(heuristic_obj: float, exact_obj: float) -> float:
    """Relative gap (heuristic - exact) / exact of two objective values."""
    if exact_obj <= 0:
        raise ValueError(f"reference objective must be positive, got {exact_obj}")
    return (heuristic_obj - exact_obj) / exact_obj
