"""Insertion-value identity and the construction heuristics."""

import math

import numpy as np
import pytest

from pgvrp.evaluation import expected_length, tour_expected_length
from pgvrp.heuristics import (
    clarke_wright,
    expected_insertion_value,
    insertion_values,
    solve_MmI,
    solve_mmI,
    solve_unbounded,
    sweep,
)
from pgvrp.model import ValidationError, check_feasible
from pgvrp.oracle import best_apriori_bruteforce

from conftest import euclid_instance, explicit_instance, random_euclid_instance


def test_insertion_value_deterministic():
    rngl = np.random.default_rng(3)
    inst = random_euclid_instance(rngl, 6, 5, 1, p_range=(1.0, 1.0))
    d = inst.distances
    tour = (0, 1, 2, 3, 0)
    for slot in range(1, len(tour)):
        a, b = tour[slot - 1], tour[slot]
        assert expected_insertion_value(tour, slot, 4, inst) == pytest.approx(
            d[a, 4] + d[4, b] - d[a, b]
        )


def test_insertion_value_half_probability_case():
    d = np.array(
        [
            [0.0, 2.0, 3.0],
            [2.0, 0.0, 4.0],
            [3.0, 4.0, 0.0],
        ]
    )
    inst = explicit_instance(d, [(0.5, [1]), (1.0, [2])])
    j = 2
    val = expected_insertion_value((0, 1, 0), 1, j, inst)
    expect = 0.5 * (d[0, j] + d[j, 1] - d[0, 1]) + 0.5 * (2 * d[0, j])
    assert val == pytest.approx(expect)


def test_insertion_identity_random(rng):
    # the defining identity: Extra equals the actual change in E(L)
    for _ in range(60):
        n = int(rng.integers(4, 9))
        inst = random_euclid_instance(rng, n, n - 1, 1)
        size = int(rng.integers(1, n - 1))
        interior = rng.permutation(np.arange(1, n))[:size].tolist()
        tour = (0, *interior, 0)
        node = next(v for v in range(1, n) if v not in interior)
        slot = int(rng.integers(1, len(tour)))
        val = expected_insertion_value(tour, slot, node, inst)
        after = tour[:slot] + (node,) + tour[slot:]
        delta = tour_expected_length(after, inst) - tour_expected_length(tour, inst)
        assert val == pytest.approx(delta, abs=1e-9)


def test_insertion_values_every_slot_and_node(rng):
    for _ in range(40):
        n = int(rng.integers(3, 12))
        inst = random_euclid_instance(rng, n, int(rng.integers(1, n)), 1)
        size = int(rng.integers(0, n - 1))
        interior = rng.permutation(np.arange(1, n))[:size].tolist()
        tour = (0, *interior, 0)
        nodes = [v for v in range(1, n) if v not in interior]
        values = insertion_values(tour, nodes, inst)
        assert values.shape == (len(tour) - 1, len(nodes))
        base = tour_expected_length(tour, inst)
        for slot in range(1, len(tour)):
            for k, node in enumerate(nodes):
                after = tour[:slot] + (node,) + tour[slot:]
                delta = tour_expected_length(after, inst) - base
                assert abs(values[slot - 1, k] - delta) <= 1e-9


def test_insertion_invalid_slot():
    inst = explicit_instance([[0, 1], [1, 0]], [(0.5, [1])])
    with pytest.raises(ValidationError, match="slot"):
        expected_insertion_value((0, 1, 0), 0, 1, inst)


def test_builders_return_feasible_k_tours(rng):
    for _ in range(10):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(2, n))
        k = int(rng.integers(1, m + 1))
        inst = random_euclid_instance(rng, n, m, k)
        for algo in (solve_mmI, solve_MmI, solve_unbounded):
            sol = algo(inst)
            assert len(sol.tours) == k
            assert check_feasible(inst, sol).ok, (algo.__name__, sol)


def test_single_cluster_best_representative():
    inst = explicit_instance(
        [[0, 5, 1], [5, 0, 3], [1, 3, 0]], [(0.5, [1, 2])]
    )
    for algo in (solve_mmI, solve_MmI, solve_unbounded):
        sol = algo(inst)
        assert sol.tours == ((0, 2, 0),)


def test_mmI_matches_classical_cheapest_insertion(rng):
    # all-certain singleton clusters reduce to textbook cheapest insertion
    inst = random_euclid_instance(rng, 8, 7, 1, p_range=(1.0, 1.0))
    d = inst.distances
    tour = [0, 0]
    remaining = set(range(1, 8))
    while remaining:
        best = min(
            (
                (d[tour[s - 1], j] + d[j, tour[s]] - d[tour[s - 1], tour[s]], j, s)
                for j in sorted(remaining)
                for s in range(1, len(tour))
            ),
        )
        _, j, s = best
        tour.insert(s, j)
        remaining.discard(j)
    assert solve_mmI(inst, capacity=7).tours[0] == tuple(tour)


def test_heuristics_never_beat_oracle(rng):
    for _ in range(8):
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, min(4, n - 1) + 1))
        k = int(rng.integers(1, min(2, m) + 1))
        inst = random_euclid_instance(rng, n, m, k)
        _, best = best_apriori_bruteforce(inst)
        for algo in (solve_mmI, solve_MmI, solve_unbounded):
            sol = algo(inst)
            assert expected_length(sol, inst) >= best - 1e-9


def test_unbounded_equals_mmI_for_one_vehicle(rng):
    inst = random_euclid_instance(rng, 7, 4, 1)
    assert solve_unbounded(inst).tours == solve_mmI(inst, capacity=4).tours


def test_unbounded_k_equals_m_one_cluster_each(rng):
    inst = random_euclid_instance(rng, 9, 4, 4)
    sol = solve_unbounded(inst)
    assert all(len(t) == 3 for t in sol.tours)
    assert check_feasible(inst, sol).ok


def test_capacity_too_small_is_an_error(rng):
    inst = random_euclid_instance(rng, 7, 4, 1)
    with pytest.raises(ValidationError, match="cannot cover"):
        solve_mmI(inst, capacity=3)


# --- deterministic baselines -------------------------------------------------


def cw_instance(d, vehicles=1):
    n = len(d)
    return explicit_instance(d, [(1.0, [v]) for v in range(1, n)], vehicles=vehicles)


def test_clarke_wright_merges_positive_saving():
    inst = cw_instance([[0, 2, 2], [2, 0, 1], [2, 1, 0]])
    tours = clarke_wright(inst)
    assert tours == [(0, 1, 2, 0)]


def test_clarke_wright_no_merge_when_saving_nonpositive():
    # depot on the segment between the two customers: saving exactly 0
    inst = cw_instance([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    tours = clarke_wright(inst)
    assert tours == [(0, 1, 0), (0, 2, 0)]


def test_clarke_wright_collinear_merge():
    inst = cw_instance([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    # S_12 = 1 + 2 - 1 = 2 > 0
    tours = clarke_wright(inst)
    assert tours == [(0, 1, 2, 0)]


def test_clarke_wright_respects_capacity():
    inst = cw_instance([[0, 2, 2], [2, 0, 1], [2, 1, 0]])
    tours = clarke_wright(inst, capacity=1, demands=[0, 1, 1])
    assert tours == [(0, 1, 0), (0, 2, 0)]


def test_sweep_single_group_is_exact_tsp():
    inst = euclid_instance(
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(1.0, [1]), (1.0, [2]), (1.0, [3])],
    )
    tours = sweep(inst, capacity=3)
    assert len(tours) == 1
    length = sum(
        inst.distances[a, b] for a, b in zip(tours[0][:-1], tours[0][1:])
    )
    # perimeter of the unit square is the optimal 4-point tour
    assert length == pytest.approx(4.0)


def test_sweep_capacity_one_isolates_customers():
    inst = euclid_instance(
        [(0, 0), (1, 0), (0, 1), (-1, 0)],
        [(1.0, [1]), (1.0, [2]), (1.0, [3])],
    )
    tours = sweep(inst, capacity=1)
    assert sorted(tours) == [(0, 1, 0), (0, 2, 0), (0, 3, 0)]


def test_sweep_pairs_adjacent_angles():
    # four symmetric customers: adjacent-angle pairing beats any crossing
    inst = euclid_instance(
        [(0, 0), (2, 0.5), (2, -0.5), (-2, 0.5), (-2, -0.5)],
        [(1.0, [v]) for v in (1, 2, 3, 4)],
    )
    tours = sweep(inst, capacity=2)
    groups = [frozenset(t[1:-1]) for t in tours]
    assert frozenset({1, 2}) in groups and frozenset({3, 4}) in groups
    # enumeration over the three pairings confirms this one is cheapest
    def pairing_cost(pairs):
        total = 0.0
        for g in pairs:
            _, length = min(
                (
                    (0, sum(inst.distances[a, b] for a, b in zip((0, *p, 0), (*p, 0))))
                    for p in ([tuple(g)], [tuple(reversed(tuple(g)))])
                    for p in [p[0]]
                ),
                key=lambda t: t[1],
            )
            total += length
        return total

    best = min(
        pairing_cost(pairs)
        for pairs in (
            [(1, 2), (3, 4)],
            [(1, 3), (2, 4)],
            [(1, 4), (2, 3)],
        )
    )
    got = sum(
        inst.distances[a, b] for t in tours for a, b in zip(t[:-1], t[1:])
    )
    assert got == pytest.approx(best)


def test_sweep_requires_coordinates():
    inst = explicit_instance([[0, 1], [1, 0]], [(1.0, [1])])
    with pytest.raises(ValidationError, match="coordinates"):
        sweep(inst)


def test_MmI_places_far_cluster_first():
    inst = explicit_instance(
        [[0, 1, 20], [1, 0, 20], [20, 20, 0]],
        [(0.8, [1]), (0.8, [2])],
    )
    # the far node 2 has the worse best-insertion, so max-min seats it first
    sol = solve_MmI(inst)
    first_tour = sol.tours[0]
    assert 2 in first_tour
    # min-min starts with the near node instead
    assert solve_mmI(inst).tours[0][1] == 1 or 1 in solve_mmI(inst).tours[0]
