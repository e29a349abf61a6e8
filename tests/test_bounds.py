"""Validity of the recourse caps and the scaled lower bound."""

import numpy as np
import pytest

from pgvrp.bounds import (
    b_matrix,
    detour_savings,
    lower_bound_scaled,
    theta_cap,
    ub_clustered,
    ub_simple,
)
from pgvrp.evaluation import expected_recourse
from pgvrp.model import incidence_point
from pgvrp.oracle import (
    EnumerationBudget,
    best_apriori_bruteforce,
    enumerate_apriori_solutions,
    gvrp_optimal,
)

from conftest import euclid_instance, explicit_instance, random_euclid_instance


# scalar reference loops; the vectorised bounds must reproduce them exactly


def reference_detour(instance, t):
    d = instance.distances
    p = instance.node_probabilities()
    ct = instance.cluster_of(t)
    candidates = [0] + [
        v for v in range(1, instance.n_nodes) if instance.cluster_of(v) != ct
    ]
    factor = 1.0 - p[t]
    if factor == 0.0:
        return 0.0
    best = 2.0 * d[0, t]
    for ai, i in enumerate(candidates):
        for j in candidates[ai + 1 :]:
            saving = d[i, t] + d[t, j] - d[i, j]
            if saving > best:
                best = saving
    return factor * max(best, 0.0)


def reference_b_matrix(instance):
    n = instance.n_nodes
    d = instance.distances
    p = instance.node_probabilities()
    b = np.zeros((n, n))
    cluster = [instance.cluster_of(v) for v in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            base = p[i] * p[j] * d[i, j]
            if i == 0 or cluster[i] == cluster[j]:
                b[i, j] = b[j, i] = base
                continue
            outside = [
                t
                for t in range(n)
                if t != i and t != j and cluster[t] != cluster[i] and cluster[t] != cluster[j]
            ]
            min_i = min(d[i, t] for t in outside)
            min_j = min(d[j, t] for t in outside)
            val = base + 0.5 * p[i] * (1 - p[j]) * min_i + 0.5 * (1 - p[i]) * p[j] * min_j
            b[i, j] = b[j, i] = val
    return b


def _random_partition(rng, n, m, p_one):
    """m shuffled clusters over nodes 1..n-1; each is certain with
    probability p_one."""
    ids = rng.permutation(np.arange(1, n)).tolist()
    cuts = np.sort(rng.choice(np.arange(1, n - 1), size=m - 1, replace=False))
    groups = np.split(np.array(ids), cuts)
    return [
        (1.0 if rng.random() < p_one else float(rng.uniform(0.05, 0.95)), g.tolist())
        for g in groups
    ]


def _equivalence_instances(rng):
    for _ in range(40):
        n = int(rng.integers(2, 25))
        m = int(rng.choice([1, n - 1, int(rng.integers(1, n))]))
        clusters = _random_partition(rng, n, m, p_one=0.3)
        coords = np.vstack([[50.0, 50.0], rng.uniform(0.0, 100.0, size=(n - 1, 2))])
        yield euclid_instance(coords, clusters)
        # explicit and non-metric, so some detour savings clamp at zero
        d = rng.uniform(1.0, 100.0, size=(n, n))
        d = np.triu(d, 1) + np.triu(d, 1).T
        yield explicit_instance(d, clusters)


def test_vectorised_bounds_equal_reference_loops(rng):
    for inst in _equivalence_instances(rng):
        n = inst.n_nodes
        expect = [0.0] + [reference_detour(inst, t) for t in range(1, n)]
        detour = detour_savings(inst)
        assert detour.tolist() == expect
        assert ub_simple(inst) == float(sum(expect[1:]))
        total = 0.0
        for c in inst.clusters:
            total += max(expect[t] for t in c.members)
        assert ub_clustered(inst) == total
        assert np.array_equal(b_matrix(inst), reference_b_matrix(inst))


def test_all_certain_gives_zero_caps(rng):
    inst = random_euclid_instance(rng, 6, 3, 1, p_range=(1.0, 1.0))
    assert ub_simple(inst) == 0.0
    assert ub_clustered(inst) == 0.0
    assert np.allclose(b_matrix(inst), inst.distances)


def test_single_customer_out_and_back_term():
    inst = explicit_instance([[0, 7], [7, 0]], [(0.5, [1])])
    assert ub_simple(inst) == pytest.approx(0.5 * 2 * 7.0)
    assert ub_clustered(inst) == pytest.approx(ub_simple(inst))


def test_scaled_lower_bound():
    inst = explicit_instance(
        [[0, 3, 4], [3, 0, 5], [4, 5, 0]], [(0.5, [1]), (0.9, [2])]
    )
    _, det = gvrp_optimal(inst)
    assert lower_bound_scaled(inst, det) == pytest.approx(0.5 * det)


def test_depot_edge_rule():
    inst = explicit_instance(
        [[0, 10, 2], [10, 0, 9], [2, 9, 0]], [(0.3, [1]), (0.8, [2])]
    )
    b = b_matrix(inst)
    assert b[0, 1] == pytest.approx(0.3 * 10.0)
    assert b[0, 2] == pytest.approx(0.8 * 2.0)


def test_clustered_never_looser_than_simple(rng):
    for _ in range(25):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(1, n))
        inst = random_euclid_instance(rng, n, m, 1)
        assert ub_clustered(inst) <= ub_simple(inst) + 1e-12


def test_singleton_clusters_make_bounds_equal(rng):
    inst = random_euclid_instance(rng, 7, 6, 1)
    assert ub_clustered(inst) == pytest.approx(ub_simple(inst))


def test_caps_dominate_recourse_exhaustively(rng):
    budget = EnumerationBudget(max_nodes=8, max_clusters=4, max_vehicles=2)
    for _ in range(12):
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, min(4, n - 1) + 1))
        k = int(rng.integers(1, min(2, m) + 1))
        inst = random_euclid_instance(rng, n, m, k)
        us, uc = ub_simple(inst), ub_clustered(inst)
        b = b_matrix(inst)
        for sol in enumerate_apriori_solutions(inst, budget):
            rec = expected_recourse(sol, inst, check=False)
            assert -1e-9 <= rec <= min(us, uc) + 1e-9
            cap = theta_cap(inst, incidence_point(inst, sol), b)
            assert rec <= cap + 1e-9


def test_theta_cap_linear_in_x(rng):
    inst = random_euclid_instance(rng, 6, 3, 1)
    budget = EnumerationBudget(max_nodes=8, max_clusters=4)
    sol = next(iter(enumerate_apriori_solutions(inst, budget)))
    point = incidence_point(inst, sol)
    half = type(point)(x=point.x * 0.5, y=point.y * 0.5)
    assert theta_cap(inst, half) == pytest.approx(0.5 * theta_cap(inst, point))
    zero = type(point)(x=np.zeros_like(point.x), y=np.zeros_like(point.y))
    assert theta_cap(inst, zero) == 0.0


def test_lower_bound_below_optimum(rng):
    for _ in range(8):
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, min(4, n - 1) + 1))
        inst = random_euclid_instance(rng, n, m, 1)
        _, det = gvrp_optimal(inst)
        _, best = best_apriori_bruteforce(inst)
        assert lower_bound_scaled(inst, det) <= best + 1e-9
