"""The benchmark's own checkers: they agree with independent references
and they fail when they should."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing
from pgvrp import AprioriSolution, SuiteSpec, generate
from pgvrp import evaluation, exact, heuristics, simplex

TINY = SuiteSpec(rows=[(6, 3, 1), (7, 3, 2), (8, 4, 2)], seed=7)


def enumerated_length(tours, instance) -> float:
    """Expected length by walking every presence scenario."""
    d = instance.distances
    total = 0.0
    for present in itertools.product((True, False), repeat=instance.n_clusters):
        prob = math.prod(
            c.probability if on else 1.0 - c.probability
            for c, on in zip(instance.clusters, present)
        )
        on_node = {0: True}
        for c, on in zip(instance.clusters, present):
            on_node.update({v: on for v in c.members})
        for tour in tours:
            walk = [v for v in tour if on_node[v]]
            total += prob * sum(d[a, b] for a, b in zip(walk[:-1], walk[1:]))
    return total


def random_solution(instance, rng) -> AprioriSolution:
    reps = [int(rng.choice(c.members)) for c in instance.clusters]
    rng.shuffle(reps)
    cuts = sorted(rng.choice(range(1, len(reps)), size=instance.vehicles - 1, replace=False))
    parts = np.split(np.array(reps), cuts)
    return AprioriSolution(tuple((0, *map(int, p), 0) for p in parts))


@pytest.mark.parametrize("seed", range(4))
def test_expected_length_matches_scenario_enumeration(seed):
    rng = np.random.default_rng(seed)
    for inst in generate(TINY):
        sol = random_solution(inst, rng)
        mine = checks.expected_length(sol.tours, inst)
        assert mine == pytest.approx(enumerated_length(sol.tours, inst), rel=1e-12)
        assert mine == pytest.approx(evaluation.expected_length(sol, inst), rel=1e-12)


def test_empty_tour_has_zero_length():
    inst = generate(TINY)[1]
    sol = heuristics.solve_MmI(inst)
    assert checks.expected_length(((0, 0),), inst) == 0.0
    assert checks.expected_length(sol.tours + ((0, 0),), inst) == checks.expected_length(sol.tours, inst)


def test_check_solution_passes_a_heuristic_solution():
    for inst in generate(TINY):
        sol = heuristics.solve_MmI(inst)
        assert checks.check_solution(sol, evaluation.expected_length(sol, inst), inst) == []


def test_check_solution_fails_on_corrupted_tours():
    inst = generate(TINY)[2]
    sol = heuristics.solve_MmI(inst)
    obj = evaluation.expected_length(sol, inst)
    first = sol.tours[0]
    duplicated = AprioriSolution((first[:-1] + (first[1], 0),) + sol.tours[1:])
    dropped = AprioriSolution(((0, 0),) + sol.tours[1:])
    open_tour = AprioriSolution((first[:-1],) + sol.tours[1:])
    unknown = AprioriSolution(((0, inst.n_nodes, 0),) + sol.tours[1:])
    for bad in (duplicated, dropped, open_tour, unknown):
        assert checks.check_solution(bad, obj, inst)
    assert checks.check_solution(None, obj, inst)


def test_check_solution_fails_on_a_misreported_objective():
    inst = generate(TINY)[0]
    sol = heuristics.solve_MmI(inst)
    obj = evaluation.expected_length(sol, inst)
    assert checks.check_solution(sol, obj * (1 + 1e-6), inst)
    assert not checks.check_solution(sol, obj * (1 + 1e-12), inst)


def result(status="optimal", objective=10.0, lower_bound=10.0):
    return SimpleNamespace(status=status, objective=objective, lower_bound=lower_bound)


def test_check_exact_small():
    assert checks.check_exact_small(result(), 10.0) == []
    assert checks.check_exact_small(result(), None) == []
    assert checks.check_exact_small(result(status="bound-only"), 10.0)
    assert checks.check_exact_small(result(lower_bound=9.0), 10.0)
    assert checks.check_exact_small(result(), 9.99)


def test_check_exact_cuts():
    assert checks.check_exact_cuts(result(lower_bound=8.0), 7.0, 11.0) == []
    assert checks.check_exact_cuts(result(lower_bound=-math.inf), 7.0, 11.0)
    assert checks.check_exact_cuts(result(lower_bound=10.5), 7.0, 11.0)  # bound above objective
    assert checks.check_exact_cuts(result(lower_bound=8.0), 9.0, 11.0)  # root above bound
    assert checks.check_exact_cuts(result(lower_bound=8.0), 7.0, 9.0)  # worse than heuristic


def test_check_large():
    sols = {"MmI": ((), 5.0, 50.0)}
    assert checks.check_large(sols, 9.0, 8.0, {"MmI": 6.0}, 1.0) == []
    assert checks.check_large(sols, 7.0, 8.0, {"MmI": 6.0}, 1.0)  # clustered above simple
    assert checks.check_large(sols, 9.0, 4.0, {"MmI": 6.0}, 1.0)  # recourse above cap
    assert checks.check_large(sols, 9.0, 8.0, {"MmI": 4.0}, 1.0)  # theta_cap below recourse
    assert checks.check_large(sols, 9.0, 8.0, {"MmI": 6.0}, 60.0)  # bound above objective


def test_depot_radius_bound_is_below_the_optimum():
    from pgvrp import best_apriori_bruteforce, bounds

    for inst in generate(TINY):
        _, best = best_apriori_bruteforce(inst)
        assert 0 < bounds.lower_bound_scaled(inst, checks.depot_radius_bound(inst)) <= best


def test_highs_agrees_with_the_package_simplex_on_root_lps():
    for inst in generate(TINY):
        lp = exact.build_root(inst).lp
        ours = simplex.solve(lp)
        assert ours.status == "optimal"
        assert checks.highs_root_value(lp) == pytest.approx(ours.objective, rel=1e-7, abs=1e-7)


def test_tracer_restores_every_function():
    before = {(m, a): getattr(__import__(m, fromlist=[a]), a) for _, _, places in tracing.TARGETS for m, a in places}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert exact.solve is not before[("pgvrp.exact", "solve")]
        assert exact.solve is simplex.solve  # one wrapper under both names
        exact.solve_exact(generate(TINY)[0], node_limit=50)
    after = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a in before}
    assert after == before
    assert tracer.missing == []
    names = {s[0] for s in tracer.spans}
    assert {"exact.solve_exact", "exact.build_root", "simplex.cold", "heuristics.insertion"} <= names


def test_layer_metrics_self_time_and_fallbacks():
    spans = [
        ("exact.solve_exact", 0.0, 10.0, -1, {"nodes": 3, "lp_solves": 4, "gsec_cuts": 2, "opt_cuts": 1}),
        ("simplex.cold", 0.0, 1.0, 0, {"pivots": 10, "rows": 5}),
        ("simplex.warm", 1.0, 4.0, 0, {"pivots": 7, "rows": 6}),
        ("simplex.cold", 2.0, 3.5, 2, {"pivots": 7, "rows": 6}),  # a fallback
        ("exact.separate_gsec", 4.0, 5.0, 0, {"cuts": 2}),
    ]
    m = tracing.layer_metrics(spans, rounds=1)
    assert m["exact.self_s"] == pytest.approx(10.0 - 1.0 - 3.0 - 1.0)
    assert m["simplex.cold.calls"] == 1 and m["simplex.cold.pivots"] == 10
    assert m["simplex.warm.calls"] == 1 and m["simplex.warm.fallbacks"] == 1
    assert m["simplex.warm.fallback_ratio"] == 1.0
    assert m["simplex.pivots_per_s"] == pytest.approx(17 / 4.0)
    assert m["exact.cuts_per_separation"] == 2.0
    assert m["exact.nodes_per_s"] == pytest.approx(0.3)
    halved = tracing.layer_metrics(spans, rounds=2)
    assert halved["exact.nodes"] == 1.5 and halved["simplex.max_rows"] == 6
