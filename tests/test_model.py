"""Instance/solution containers, validation, file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgvrp.model import (
    AprioriSolution,
    Cluster,
    FormatError,
    Instance,
    ValidationError,
    check_feasible,
    edge_endpoints,
    edge_position,
    enumerate_scenarios,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    triangle_check,
)

from conftest import explicit_instance, random_euclid_instance, triangle_345


MINIMAL = """\
PGVRP 1
VEHICLES 1
METRIC EXPLICIT
EDGE 0 1 1.0
EDGE 0 2 2.0
EDGE 1 2 1.5
CLUSTER 1 1.0 1 2
"""


def test_load_minimal_instance():
    inst = load_instance(MINIMAL)
    assert inst.n_nodes == 3
    assert inst.n_clusters == 1
    assert inst.vehicles == 1
    assert inst.distances[0, 2] == 2.0


def test_node_in_two_clusters_rejected():
    text = MINIMAL.replace("CLUSTER 1 1.0 1 2", "CLUSTER 1 1.0 1 2\nCLUSTER 2 0.5 2")
    with pytest.raises(ValidationError, match="two clusters"):
        load_instance(text)


def test_euclid_345_distance():
    text = """\
PGVRP 1
VEHICLES 1
METRIC EUCLID
NODE 0 0.0 0.0
NODE 1 3.0 0.0
NODE 2 0.0 4.0
CLUSTER 1 1.0 1
CLUSTER 2 1.0 2
"""
    inst = load_instance(text)
    assert inst.distances[1, 2] == 5.0


def test_parse_error_carries_line_number():
    bad = MINIMAL.replace("EDGE 1 2 1.5", "EDGE 1 2 oops")
    with pytest.raises(FormatError, match="line 6"):
        load_instance(bad)


def test_probability_out_of_range_rejected():
    for bad_p in ("0.0", "1.5", "-0.2"):
        text = MINIMAL.replace("CLUSTER 1 1.0 1 2", f"CLUSTER 1 {bad_p} 1 2")
        with pytest.raises(FormatError, match="probability"):
            load_instance(text)


def test_negative_distance_rejected():
    with pytest.raises(ValidationError, match="negative"):
        explicit_instance([[0, -1], [-1, 0]], [(1.0, [1])])


def test_instance_arrays_are_frozen():
    inst = load_instance(MINIMAL)
    with pytest.raises(ValueError):
        inst.distances[0, 1] = 9.0


def test_roundtrip_explicit_and_euclid(rng):
    for inst in (
        load_instance(MINIMAL),
        random_euclid_instance(rng, 7, 3, 2),
    ):
        again = load_instance(save_instance(inst))
        assert np.array_equal(again.distances, inst.distances)
        assert again.clusters == inst.clusters
        assert again.vehicles == inst.vehicles


def test_solution_roundtrip():
    sol = AprioriSolution(((0, 2, 1, 0), (0, 3, 0), (0, 0)))
    again = load_solution(save_solution(sol))
    assert again == sol


def test_solution_header_mismatch():
    with pytest.raises(FormatError, match="header says"):
        load_solution("TOURS 2\n0 1 0\n")


def test_check_feasible_reports():
    inst = explicit_instance(
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [(0.5, [1]), (0.5, [2])], vehicles=1
    )
    rep = check_feasible(inst, AprioriSolution(((0, 1, 0),)))
    assert not rep.ok
    assert any("cluster-cover: cluster 2" in v for v in rep.violations)

    two = explicit_instance(
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [(0.5, [1]), (0.5, [2])], vehicles=2
    )
    assert check_feasible(two, AprioriSolution(((0, 1, 0), (0, 2, 0)))).ok

    rep = check_feasible(two, AprioriSolution(((0, 1, 1, 0), (0, 2, 0))))
    assert any("duplicate visit" in v for v in rep.violations)

    rep = check_feasible(inst, AprioriSolution(((0, 1, 0), (0, 2, 0))))
    assert any("tour-count" in v for v in rep.violations)


def test_triangle_check():
    assert triangle_check(triangle_345()) <= 0

    inst = explicit_instance(
        [[0, 10, 1], [10, 0, 1], [1, 1, 0]], [(1.0, [1]), (1.0, [2])]
    )
    assert triangle_check(inst) == pytest.approx(8.0)

    lone = Instance(1, np.zeros((1, 1)), (), 1)
    assert triangle_check(lone) == 0.0


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_scenario_probabilities_sum_to_one(m, seed):
    rng = np.random.default_rng(seed)
    n = m + 1
    d = np.zeros((n, n))
    clusters = [(float(rng.uniform(0.05, 1.0)), [k]) for k in range(1, n)]
    inst = explicit_instance(d, clusters)
    total = sum(sc.probability for sc in enumerate_scenarios(inst))
    assert abs(total - 1.0) <= 1e-12


def test_scenario_enumeration_guard():
    n = 27
    d = np.zeros((n, n))
    inst = explicit_instance(d, [(0.5, [k]) for k in range(1, n)])
    with pytest.raises(ValidationError, match="enumeration limit"):
        list(enumerate_scenarios(inst))


def test_empty_cluster_rejected():
    with pytest.raises(ValidationError, match="empty"):
        Cluster(1, 0.5, ())


def test_scenario_sum_large_m():
    # independence: 2^16 scenario probabilities sum to 1 within 1e-12
    rngl = np.random.default_rng(5)
    n = 17
    d = np.zeros((n, n))
    inst = explicit_instance(
        d, [(float(rngl.uniform(0.05, 0.95)), [k]) for k in range(1, n)]
    )
    total = sum(sc.probability for sc in enumerate_scenarios(inst))
    assert abs(total - 1.0) <= 1e-12


def test_edge_position_inverts_edge_endpoints():
    for n in range(1, 12):
        I, J = edge_endpoints(n)
        assert np.array_equal(edge_position(n, I, J), np.arange(len(I)))
        assert [edge_position(n, i, j) for i, j in zip(I.tolist(), J.tolist())] == list(range(len(I)))
