"""Branch-and-cut solver against the brute-force oracle."""

import math

import numpy as np
import pytest

from pgvrp import bounds
from pgvrp.bench import SuiteSpec, generate
from pgvrp.evaluation import expected_length, expected_recourse
from pgvrp import exact
from pgvrp.exact import (
    INT_TOL,
    _branch_variable,
    build_root,
    decode_tours,
    optimality_cut,
    separate_gsec,
    solve_exact,
)
from pgvrp.model import FractionalPoint, edge_position, incidence_point
from pgvrp.oracle import (
    EnumerationBudget,
    best_apriori_bruteforce,
    enumerate_apriori_solutions,
)
from pgvrp import simplex
from pgvrp.simplex import SimplexError, SimplexOptions, solve

from conftest import explicit_instance, random_euclid_instance, triangle_345


def small_instances(rng, count, n_hi=8, m_hi=4, k_hi=2):
    out = []
    for _ in range(count):
        n = int(rng.integers(3, n_hi + 1))
        m = int(rng.integers(1, min(m_hi, n - 1) + 1))
        k = int(rng.integers(1, min(k_hi, m) + 1))
        out.append(random_euclid_instance(rng, n, m, k))
    return out


def _root_rows_by_loops(inst, root):
    """build_root's rows, one Python loop per row: the reference."""
    n, ne, nv = inst.n_nodes, root.n_edges, root.lp.n_vars
    k = min(inst.vehicles, inst.n_clusters)
    d, col_theta = inst.distances, root.col_theta
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    c = np.zeros(nv)
    for i, j in edges:
        c[edge_position(n, i, j)] = d[i, j]
    c[col_theta] = -1.0
    rows, senses, rhs = [], [], []

    def add(row, s, r):
        rows.append(row)
        senses.append(s)
        rhs.append(float(r))

    for cl in inst.clusters:
        row = np.zeros(nv)
        for m in cl.members:
            row[ne + m] = 1.0
        add(row, "=", 1.0)
    for sense, nodes in ((">=", range(n)), ("<=", range(1, n))):
        for t in nodes:
            row = np.zeros(nv)
            for other in range(n):
                if other != t:
                    row[edge_position(n, min(t, other), max(t, other))] = 1.0
            row[ne + t] = -2.0
            add(row, sense, 0.0)
    row = np.zeros(nv)
    for j in range(1, n):
        row[edge_position(n, 0, j)] = 1.0
    add(row, "=", 2.0 * k)
    row = np.zeros(nv)
    row[ne + 0] = 1.0
    add(row, "=", float(k))
    row = np.zeros(nv)
    row[col_theta] = 1.0
    for i, j in edges:
        row[edge_position(n, i, j)] = -(d[i, j] - root.b[i, j])
    add(row, "<=", 0.0)
    row = np.zeros(nv)
    row[col_theta] = 1.0
    for t in range(1, n):
        row[ne + t] = -root.detour[t]
    add(row, "<=", 0.0)
    upper = np.ones(nv)
    for j in range(1, n):
        upper[edge_position(n, 0, j)] = 2.0
    upper[ne] = float(k)
    upper[col_theta] = max(root.U, 0.0)
    return c, np.array(rows), np.array(rhs), senses, upper


def test_build_root_matches_loops(rng):
    # Euclidean and explicit instances, singleton clusters, and more
    # vehicles than clusters
    for case in range(40):
        n = int(rng.integers(3, 12))
        m = n - 1 if case % 4 == 0 else int(rng.integers(1, n))
        k = int(rng.integers(1, m + 3))
        inst = random_euclid_instance(rng, n, m, k)
        if case % 2:
            inst = explicit_instance(
                inst.distances, [(cl.probability, cl.members) for cl in inst.clusters], k
            )
        root = build_root(inst)
        c, A, b, senses, upper = _root_rows_by_loops(inst, root)
        lp = root.lp
        assert np.array_equal(lp.c, c) and np.array_equal(lp.A, A)
        assert np.array_equal(lp.b, b) and lp.senses == senses
        assert np.array_equal(lp.upper, upper)


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
    x = np.zeros(10)
    for e in [(1, 2), (2, 3), (1, 3)]:
        x[edge_position(5, *e)] = 1.0
    x[edge_position(5, 0, 4)] = 2.0
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
    x = np.zeros(21)
    for e in [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]:
        x[edge_position(7, *e)] = 1.0
    for e, v in [((0, 1), 0.5), ((0, 2), 0.5), ((3, 4), 0.25), ((0, 5), 0.25)]:
        x[edge_position(7, *e)] = v
    y = np.ones(7)
    cuts = separate_gsec(FractionalPoint(x=x, y=y), inst)
    assert cuts, "fractional bottleneck must be separated"
    found = {c.S for c in cuts}
    assert any({4, 5, 6} <= S for S in found)


def test_optimality_cut_exact_at_generator_and_valid_everywhere(rng):
    budget = EnumerationBudget(max_nodes=8, max_clusters=4, max_vehicles=2)
    for inst in small_instances(rng, 8, n_hi=7, m_hi=3, k_hi=2):
        root = build_root(inst)
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
            decoded = decode_tours(incidence_point(inst, sol).x, inst)
            assert decoded.canonical() == sol.canonical()
            break


def test_decode_rejects_edges_that_are_not_depot_cycles():
    inst = explicit_instance(
        np.ones((6, 6)) - np.eye(6), [(0.9, [v]) for v in range(1, 6)], vehicles=1
    )
    defects = {
        "a cycle misses the depot": [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)],
        "node 1 has degree 4": [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (1, 4)],
        "depot degree 4, not 2": [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
    }
    for reason, edges in defects.items():
        x = np.zeros(15)
        for e in edges:
            x[edge_position(6, *e)] = 1.0
        with pytest.raises(ValueError, match=reason):
            decode_tours(x, inst)
    with pytest.raises(ValueError):
        decode_tours(-np.eye(15)[0], inst)  # a negative edge count


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


def test_forced_warm_start_failure_is_counted(rng, monkeypatch):
    inst = random_euclid_instance(rng, 7, 3, 1)
    clean = solve_exact(inst)
    assert clean.stats["warm_fallbacks"] == 0
    real = simplex._Core.dual
    calls = [0]

    def fails_once(core, cost):
        calls[0] += 1
        if calls[0] == 1:
            raise SimplexError("forced dual failure")
        return real(core, cost)

    monkeypatch.setattr(simplex._Core, "dual", fails_once)
    res = solve_exact(inst)
    assert res.stats["warm_fallbacks"] == 1
    assert len(res.stats["warm_fallback_reasons"]) == 1
    assert "forced dual failure" in res.stats["warm_fallback_reasons"][0]
    assert res.objective == pytest.approx(clean.objective, abs=1e-9)


def test_dual_resolves_stay_short(monkeypatch):
    # a dual simplex without anti-cycling once ran 200,001 pivots in one
    # re-solve of this search (two BLAS threads) and fell back silently
    longest = [0]
    real = simplex._Core.dual

    def measured(core, cost):
        start = core.iterations
        try:
            return real(core, cost)
        finally:
            longest[0] = max(longest[0], core.iterations - start)

    monkeypatch.setattr(simplex._Core, "dual", measured)
    res = solve_exact(generate(SuiteSpec(seed=20260810))[2], node_limit=60)
    assert 0 < longest[0] <= 1000
    assert res.stats["warm_fallbacks"] == 0


def test_cut_rounds_resolve_once():
    # one LP solve per node start, per separation round and per
    # optimality cut; no node is pruned at its pop here
    res = solve_exact(generate(SuiteSpec(seed=0))[4], node_limit=2)
    s = res.stats
    assert s["lp_solves"] == s["cut_rounds"] + s["opt_cuts"] + s["nodes"]
    assert 4 * s["lp_solves"] <= s["gsec_cuts"]
    assert res.lower_bound == pytest.approx(67.11432055828014, abs=1e-9)
    assert res.objective == 220.65429425532463


def test_failed_cut_round_falls_back_with_every_row(monkeypatch):
    # a numerical failure at the second border of a round of three or
    # more GSECs: the cold solve that takes over poses every row of the
    # round, and the fallback is counted
    real_add, real_resolve = simplex._Core.add_row, exact.resolve_with_added_row
    rounds, failed = [], []  # [rows before, rows in the round, rows after]

    def add_row(core, *row):
        real_add(core, *row)
        before, size, _ = rounds[-1]
        if not failed and size >= 3 and core.n_rows == before + 2:
            failed.append(len(rounds) - 1)
            raise SimplexError("forced failure inside a round")

    def resolve(core, rows):
        rounds.append([core.n_rows, len(rows), None])
        sol = real_resolve(core, rows)
        rounds[-1][2] = sol.core.n_rows
        return sol

    monkeypatch.setattr(simplex._Core, "add_row", add_row)
    monkeypatch.setattr(exact, "resolve_with_added_row", resolve)
    res = solve_exact(generate(SuiteSpec(seed=0))[4], node_limit=2)
    assert len(failed) == 1 and res.stats["warm_fallbacks"] == 1
    assert "forced failure inside a round" in res.stats["warm_fallback_reasons"][0]
    before, size, after = rounds[failed[0]]
    assert after == before + size
    assert all(after == before + size for before, size, after in rounds)
    assert 0.0 < res.lower_bound <= res.objective


def _branch_variable_by_scan(point, root):
    """The sequential scan _branch_variable must agree with."""
    best = None
    for t in range(1, root.instance.n_nodes):
        v = float(point.y[t])
        frac = min(v - math.floor(v), math.ceil(v) - v)
        if frac > INT_TOL and (best is None or frac > best[2] + 1e-12):
            best = (root.col_y(t), v, frac)
    if best is not None:
        return best[0], best[1]
    for idx in range(root.n_edges):
        v = float(point.x[idx])
        frac = min(v - math.floor(v), math.ceil(v) - v)
        if frac > INT_TOL and (best is None or frac > best[2] + 1e-12):
            best = (idx, v, frac)
    return None if best is None else (best[0], best[1])


def test_branch_variable_matches_sequential_scan(rng):
    root = build_root(random_euclid_instance(rng, 7, 3, 2))
    # integral values, fractions tied within and just beyond 1e-12, and
    # fractions at INT_TOL
    pool = np.array([0.0, 1.0, 2.0, 0.5, 0.5 - 5e-13, 0.5 - 2e-12, 1.5, 0.3, 0.7, 1e-6, 1 - 2e-6])
    for _ in range(400):
        y = rng.choice(pool, size=root.instance.n_nodes)
        x = rng.choice(pool, size=root.n_edges)
        if rng.random() < 0.3:
            y = np.rint(y)
        if rng.random() < 0.2:
            x = np.rint(x)
        point = FractionalPoint(x=x, y=y)
        assert _branch_variable(point, root) == _branch_variable_by_scan(point, root)


def test_live_continuations_do_not_refactorize(monkeypatch):
    # a child popped while the core holds its parent's final basis
    # re-solves on the live inverse; every other node inverts its stored
    # basis once. refactor_every is out of reach, so the cadence adds none
    counts = {"live": 0, "jump": 0, "live_inverses": 0, "jump_inverses": 0}
    inverses = [0]
    real_refactor, real_warm = simplex._Core.refactor, exact.warm_solve

    def refactor(core):
        inverses[0] += 1
        real_refactor(core)

    def warm(core, lower, upper, basis_labels=None, *args, **kwargs):
        kind = "live" if basis_labels is None else "jump"
        before = inverses[0]
        sol = real_warm(core, lower, upper, basis_labels, *args, **kwargs)
        counts[kind] += 1
        counts[kind + "_inverses"] += inverses[0] - before
        return sol

    monkeypatch.setattr(simplex._Core, "refactor", refactor)
    monkeypatch.setattr(exact, "warm_solve", warm)
    options = SimplexOptions(refactor_every=10**9)
    res = solve_exact(generate(SuiteSpec(seed=0))[3], node_limit=300, options=options)
    assert res.stats["warm_fallbacks"] == 0
    assert counts["live"] > 50 and counts["jump"] > 50
    assert counts["live_inverses"] == 0
    assert counts["jump_inverses"] == counts["jump"]


def test_lp_failure_past_cold_fallback_stops_with_bound(monkeypatch):
    # the third re-solve fails numerically, and so does the cold solve that
    # takes over: the search stops and reports the bound of the root's
    # last LP, with the reason
    real_reoptimize, real_solve_once = simplex._Core.reoptimize, simplex._solve_once
    calls, objectives = [0], []

    def reoptimize(core):
        calls[0] += 1
        if calls[0] == 3:
            raise SimplexError("forced warm failure")
        sol = real_reoptimize(core)
        objectives.append(sol.objective)
        return sol

    def solve_once(lp, opt):
        if calls[0] >= 3:
            raise SimplexError("forced cold failure")
        sol = real_solve_once(lp, opt)
        objectives.append(sol.objective)
        return sol

    monkeypatch.setattr(simplex._Core, "reoptimize", reoptimize)
    monkeypatch.setattr(simplex, "_solve_once", solve_once)
    res = solve_exact(generate(SuiteSpec(seed=0))[4], node_limit=50)
    assert res.status == "bound-only"
    assert res.stats["nodes"] == 1 and res.stats["lp_solves"] == 4
    assert res.stats["lp_failure"] == "node 1: forced cold failure"
    assert res.lower_bound == objectives[-1]
    assert 0.0 < res.lower_bound <= res.objective


def test_undecodable_point_stops_with_bound(rng, monkeypatch):
    # an integral point that is not K depot cycles stops the search like an
    # LP that failed even cold: the node goes back with its LP bound
    calls = [0]

    def broken(x, instance):
        calls[0] += 1
        raise ValueError("forced defect")

    monkeypatch.setattr(exact, "decode_tours", broken)
    res = solve_exact(random_euclid_instance(rng, 7, 3, 1))
    assert calls[0] == 1
    assert res.status == "bound-only"
    assert res.stats["lp_failure"] == f"node {res.stats['nodes']}: forced defect"
    assert math.isfinite(res.lower_bound)
    assert 0.0 < res.lower_bound <= res.objective


def test_theta_cap_follows_the_exclusion_chain(monkeypatch):
    # every node's recourse cap, read from the bounds warm_solve gets,
    # equals the reference chain: U at the root, and
    # min(u_parent, _u_for_exclusions(root, excluded)) below each branch
    # that fixes some y to 0, clipped into [0, max(U, 0)]
    inst = generate(SuiteSpec(seed=0))[3]
    root = build_root(inst)

    def excluded(node):
        ys = node.upper[root.n_edges : root.col_theta]
        return frozenset(np.flatnonzero(ys == 0.0).tolist())

    def u_for_exclusions(excl):
        detour = root.detour.copy()
        detour[list(excl)] = 0.0
        return min(bounds.ub_clustered(inst, detour), root.U)

    # a mirror of the search stack, and the popped nodes in id order
    open_nodes, popped, checked = [], [], [0]
    real_node, real_warm = exact.BranchNode, exact.warm_solve

    def branch_node(*args, **kwargs):
        node = real_node(*args, **kwargs)
        if node.parent is None:
            node.u_ref = root.U
            popped.append(node)  # the root is popped at once
            return node
        parent = popped[-1]  # children are made while their parent is solved
        assert node.parent == len(popped)
        excl = excluded(node)
        node.u_ref = (
            parent.u_ref
            if excl == excluded(parent)
            else min(parent.u_ref, u_for_exclusions(excl))
        )
        open_nodes.append(node)
        return node

    def warm(core, lower, upper, *args):
        while True:  # nodes above this one were pruned at their pop
            node = open_nodes.pop()
            popped.append(node)
            if np.array_equal(node.lower, lower) and np.array_equal(node.upper, upper):
                break
        assert upper[root.col_theta] == min(max(root.U, 0.0), max(node.u_ref, 0.0))
        checked[0] += 1
        return real_warm(core, lower, upper, *args)

    monkeypatch.setattr(exact, "BranchNode", branch_node)
    monkeypatch.setattr(exact, "warm_solve", warm)
    res = solve_exact(inst, node_limit=300)
    assert res.stats["nodes"] == 300
    assert checked[0] > 200
    assert any(n.u_ref < root.U for n in popped)  # some cap did drop
