"""Branch-and-cut solver against the brute-force oracle."""

import math

import numpy as np
import pytest

from pgvrp.bench import SuiteSpec, generate
from pgvrp.evaluation import expected_length, expected_recourse
from pgvrp.exact import (
    build_root,
    decode_tours,
    optimality_cut,
    separate_gsec,
    solve_exact,
)
from pgvrp.model import FractionalPoint, edge_index, incidence_point
from pgvrp.oracle import (
    EnumerationBudget,
    best_apriori_bruteforce,
    enumerate_apriori_solutions,
)
from pgvrp.simplex import solve

from conftest import explicit_instance, random_euclid_instance, triangle_345


def small_instances(rng, count, n_hi=8, m_hi=4, k_hi=2):
    out = []
    for _ in range(count):
        n = int(rng.integers(3, n_hi + 1))
        m = int(rng.integers(1, min(m_hi, n - 1) + 1))
        k = int(rng.integers(1, min(k_hi, m) + 1))
        out.append(random_euclid_instance(rng, n, m, k))
    return out


def test_root_certain_forces_zero_theta(rng):
    inst = random_euclid_instance(rng, 6, 3, 1, p_range=(1.0, 1.0))
    root = build_root(inst)
    assert root.U == 0.0
    sol = solve(root.lp)
    assert sol.status == "optimal"
    assert sol.x[root.col_theta] == pytest.approx(0.0, abs=1e-9)


def test_root_relaxation_bounds_optimum(rng):
    for inst in small_instances(rng, 6):
        root = build_root(inst)
        sol = solve(root.lp)
        assert sol.status == "optimal"
        _, best = best_apriori_bruteforce(inst)
        assert sol.objective <= best + 1e-7


def test_gsec_none_for_connected_tour(rng):
    inst = random_euclid_instance(rng, 6, 5, 1)
    sol, _ = best_apriori_bruteforce(
        inst, EnumerationBudget(max_nodes=8, max_clusters=5)
    )
    point = incidence_point(inst, sol)
    assert separate_gsec(point, inst) == []


def test_gsec_flags_depot_free_cycle():
    # nodes 1-2-3 form a triangle detached from the depot; 4 is toured
    inst = explicit_instance(
        np.ones((5, 5)) - np.eye(5),
        [(0.9, [1]), (0.9, [2]), (0.9, [3]), (0.9, [4])],
        vehicles=1,
    )
    eidx = edge_index(5)
    x = np.zeros(len(eidx))
    for e in [(1, 2), (2, 3), (1, 3)]:
        x[eidx[e]] = 1.0
    x[eidx[(0, 4)]] = 2.0
    y = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    cuts = separate_gsec(FractionalPoint(x=x, y=y), inst)
    assert any(c.S == frozenset({1, 2, 3}) for c in cuts)


def test_gsec_min_cut_catches_fractional_bridge():
    # two triangles joined to the depot by two half-edges each: every node
    # has degree 2 in the support but the cut to the far triangle is 1 < 2
    inst = explicit_instance(
        np.ones((7, 7)) - np.eye(7),
        [(0.9, [v]) for v in range(1, 7)],
        vehicles=1,
    )
    eidx = edge_index(7)
    x = np.zeros(len(eidx))
    for e in [(1, 2), (1, 3), (2, 3)]:
        x[eidx[e]] = 1.0
    for e in [(4, 5), (4, 6), (5, 6)]:
        x[eidx[e]] = 1.0
    x[eidx[(0, 1)]] = 0.5
    x[eidx[(0, 2)]] = 0.5
    x[eidx[(3, 4)]] = 0.25
    x[eidx[(0, 5)]] = 0.25
    y = np.ones(7)
    cuts = separate_gsec(FractionalPoint(x=x, y=y), inst)
    assert cuts, "fractional bottleneck must be separated"
    found = {c.S for c in cuts}
    assert any({4, 5, 6} <= S for S in found)


def test_optimality_cut_exact_at_generator_and_valid_everywhere(rng):
    budget = EnumerationBudget(max_nodes=8, max_clusters=4, max_vehicles=2)
    for inst in small_instances(rng, 8, n_hi=7, m_hi=3, k_hi=2):
        root = build_root(inst)
        eidx = root.edge_idx
        for gen in enumerate_apriori_solutions(inst, budget):
            row, sense, rhs = optimality_cut(gen, inst, root.U, root)
            assert sense == "<="
            q_gen = expected_recourse(gen, inst, check=False)
            # theta = Q at the generating incidence vector
            pt = incidence_point(inst, gen)
            lhs_wo_theta = float(row[: root.n_edges] @ pt.x)
            theta_max = rhs - lhs_wo_theta
            assert theta_max == pytest.approx(q_gen, abs=1e-9)
            break  # one generator per instance, all candidates checked below
        gen_row = optimality_cut(gen, inst, root.U, root)
        for other in enumerate_apriori_solutions(inst, budget):
            pt = incidence_point(inst, other)
            q_other = expected_recourse(other, inst, check=False)
            row, _, rhs = gen_row
            cap = rhs - float(row[: root.n_edges] @ pt.x)
            assert q_other <= cap + 1e-9


def test_decode_roundtrip(rng):
    budget = EnumerationBudget(max_nodes=8, max_clusters=4, max_vehicles=2)
    for inst in small_instances(rng, 5):
        for sol in enumerate_apriori_solutions(inst, budget):
            pt = incidence_point(inst, sol)
            decoded, junk = decode_tours(pt.x, inst)
            assert junk == 0
            assert decoded is not None
            assert decoded.canonical() == sol.canonical()
            break


def test_exact_matches_oracle_small_batch(rng):
    for inst in small_instances(rng, 25):
        res = solve_exact(inst)
        assert res.status == "optimal"
        _, best = best_apriori_bruteforce(inst)
        assert res.objective == pytest.approx(best, abs=1e-9), inst.name
        # self-consistency: reported objective is the incumbent's E(L)
        assert res.objective == pytest.approx(
            expected_length(res.solution, inst), abs=1e-9
        )


def test_exact_certain_singletons_is_tsp(rng):
    inst = random_euclid_instance(rng, 7, 6, 1, p_range=(1.0, 1.0))
    res = solve_exact(inst)
    _, best = best_apriori_bruteforce(
        inst, EnumerationBudget(max_nodes=8, max_clusters=6)
    )
    assert res.objective == pytest.approx(best, abs=1e-9)


def test_exact_two_vehicles(rng):
    for _ in range(5):
        inst = random_euclid_instance(rng, 7, 3, 2)
        res = solve_exact(inst)
        _, best = best_apriori_bruteforce(inst)
        assert res.objective == pytest.approx(best, abs=1e-9)


def test_node_bounds_monotone_and_log_wellformed(rng):
    inst = random_euclid_instance(rng, 7, 3, 2)
    res = solve_exact(inst)
    assert res.log
    for line in res.log:
        fields = dict(kv.split("=") for kv in line.split())
        assert {"node", "depth", "bound", "action"} <= set(fields)
        assert fields["action"] in {"prune", "gsec", "branch", "incumbent", "optcut"}


def test_time_limit_returns_bound(rng):
    inst = random_euclid_instance(rng, 10, 5, 2)
    res = solve_exact(inst, time_limit=0.0)
    assert res.status in ("bound-only", "optimal")
    assert res.solution is not None  # heuristic incumbent always exists
    assert math.isfinite(res.lower_bound)
    assert res.lower_bound <= res.objective + 1e-9


def test_node_limit_inside_root_keeps_finite_bound():
    # the budget runs out after the root LP, before its cut loop finishes
    res = solve_exact(generate(SuiteSpec(seed=0))[4], node_limit=1)
    assert res.status == "bound-only"
    assert math.isfinite(res.lower_bound)
    assert 0.0 < res.lower_bound <= res.objective


def test_exact_345():
    inst = triangle_345()
    res = solve_exact(inst)
    assert res.objective == pytest.approx(12.0, abs=1e-9)
    assert res.solution.canonical().tours == ((0, 1, 2, 0),)


def test_exact_refuses_nonmetric():
    inst = explicit_instance(
        [[0, 10, 1], [10, 0, 1], [1, 1, 0]], [(0.5, [1]), (0.5, [2])]
    )
    from pgvrp.model import ValidationError

    with pytest.raises(ValidationError, match="triangle"):
        solve_exact(inst)
