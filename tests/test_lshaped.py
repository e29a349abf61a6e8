"""L-shaped method against the extensive form, plus cut/convexity properties."""

import numpy as np
import pytest

from pgvrp.lshaped import (
    FirstStageInfeasible,
    ScenarioBlock,
    SecondStageInfeasible,
    TwoStageLP,
    extensive_form,
    lshape_solve,
    recourse_Q,
)
from pgvrp.simplex import solve


def two_stage(c, A, b, W, scen):
    return TwoStageLP(
        c=np.array(c, dtype=float),
        A=np.array(A, dtype=float),
        b=np.array(b, dtype=float),
        W=np.array(W, dtype=float),
        scenarios=[ScenarioBlock(p, np.array(q, float), np.array(T, float), np.array(h, float)) for (p, q, T, h) in scen],
    )


def random_problem(rng, complete=True):
    """Random two-stage LP; `complete` appends penalty columns so every
    scenario is feasible and bounded for every x >= 0."""
    n1 = int(rng.integers(1, 5))
    m1 = int(rng.integers(0, 3))
    m2 = int(rng.integers(1, 4))
    n2 = int(rng.integers(1, 5))
    K = int(rng.integers(1, 4))
    A = rng.integers(-4, 5, size=(m1, n1)).astype(float)
    x0 = rng.integers(0, 4, size=n1).astype(float)
    b = A @ x0
    W0 = rng.integers(-4, 5, size=(m2, n2)).astype(float)
    if complete:
        W = np.hstack([W0, np.eye(m2), -np.eye(m2)])
        q_extra = rng.integers(1, 6, size=2 * m2).astype(float)
    else:
        W = W0
        q_extra = np.zeros(0)
    scen = []
    probs = rng.dirichlet(np.ones(K))
    for k in range(K):
        q = np.concatenate([rng.integers(0, 6, size=n2).astype(float), q_extra])
        T = rng.integers(-3, 4, size=(m2, n1)).astype(float)
        h = rng.integers(-5, 6, size=m2).astype(float)
        scen.append((float(probs[k]), q, T, h))
    c = rng.integers(0, 6, size=n1).astype(float)
    return TwoStageLP(c=c, A=A, b=b, W=W, scenarios=[ScenarioBlock(*s) for s in scen])


def test_zero_recourse_single_optimality_cut():
    prob = two_stage(
        c=[1.0],
        A=np.zeros((0, 1)),
        b=[],
        W=[[1.0]],
        scen=[(1.0, [0.0], [[0.0]], [0.0])],
    )
    res = lshape_solve(prob)
    assert res.theta == pytest.approx(0.0, abs=1e-9)
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.cuts.s == 1 and res.cuts.r == 0


def test_textbook_two_scenarios_match_extensive():
    # order x at unit cost; per scenario pay 3 per unit of unmet target h
    prob = two_stage(
        c=[1.0],
        A=np.zeros((0, 1)),
        b=[],
        W=[[1.0, -1.0]],
        scen=[
            (0.4, [3.0, 0.0], [[-1.0]], [2.0]),
            (0.6, [3.0, 0.0], [[-1.0]], [6.0]),
        ],
    )
    res = lshape_solve(prob)
    ext = solve(extensive_form(prob))
    assert ext.status == "optimal"
    assert res.objective == pytest.approx(ext.objective, abs=1e-6)


def test_feasibility_cut_generated_before_optimality():
    # first stage: x + s = 4 (s slack), minimize -x so the master pushes
    # x to 4; the scenario rows W y = 2 - x with y >= 0 need x <= 2, so a
    # feasibility cut must fire before any optimality cut
    prob = two_stage(
        c=[-1.0, 0.0],
        A=[[1.0, 1.0]],
        b=[4.0],
        W=[[1.0]],
        scen=[(1.0, [1.0], [[1.0, 0.0]], [2.0])],
    )
    res = lshape_solve(prob)
    assert res.cuts.r >= 1
    assert res.x[0] == pytest.approx(2.0, abs=1e-6)
    assert res.objective == pytest.approx(-2.0, abs=1e-6)
    for D, d in res.cuts.feasibility:
        # every stored cut holds at the final point
        assert float(D @ res.x) >= d - 1e-7


def test_matches_extensive_form_bulk(rng):
    for trial in range(60):
        prob = random_problem(rng, complete=True)
        res = lshape_solve(prob)
        ext = solve(extensive_form(prob))
        assert ext.status == "optimal", trial
        assert res.objective == pytest.approx(ext.objective, abs=1e-6 * (1 + abs(ext.objective)))


def test_master_objective_monotone(rng):
    for _ in range(15):
        prob = random_problem(rng, complete=True)
        res = lshape_solve(prob)
        objs = [o for o, _ in res.trace]
        for a, b in zip(objs, objs[1:]):
            assert b >= a - 1e-7 * (1 + abs(a))
        # every master value is a lower bound on the final optimum
        for obj in objs:
            assert obj <= res.objective + 1e-6 * (1 + abs(res.objective))


def test_q_convex_in_x(rng):
    for _ in range(10):
        prob = random_problem(rng, complete=True)
        n1 = prob.n_first
        for _ in range(5):
            x1 = rng.uniform(0, 3, size=n1)
            x2 = rng.uniform(0, 3, size=n1)
            lam = float(rng.uniform(0.05, 0.95))
            xm = lam * x1 + (1 - lam) * x2
            for k in range(len(prob.scenarios)):
                q1, _ = recourse_Q(prob, x1, k)
                q2, _ = recourse_Q(prob, x2, k)
                qm, _ = recourse_Q(prob, xm, k)
                assert qm <= lam * q1 + (1 - lam) * q2 + 1e-7


def test_subgradient_inequality(rng):
    for _ in range(10):
        prob = random_problem(rng, complete=True)
        n1 = prob.n_first
        x_ref = rng.uniform(0, 3, size=n1)
        x_other = rng.uniform(0, 3, size=n1)
        for k, s in enumerate(prob.scenarios):
            _, pi = recourse_Q(prob, x_ref, k)
            q_other, _ = recourse_Q(prob, x_other, k)
            bound = float(pi @ s.h) - float((pi @ s.T) @ x_other)
            assert q_other >= bound - 1e-7 * (1 + abs(q_other))


def test_k2p_midpoint_convexity(rng):
    # points whose every feasibility subproblem is clean stay clean midway
    from pgvrp.lshaped import _feasibility_subproblem

    found = 0
    while found < 5:
        prob = random_problem(rng, complete=False)
        n1 = prob.n_first
        xs = []
        for _ in range(20):
            x = rng.uniform(0, 3, size=n1)
            ok = all(
                _feasibility_subproblem(prob, x, k)[0] <= 1e-9
                for k in range(len(prob.scenarios))
            )
            if ok:
                xs.append(x)
            if len(xs) == 2:
                break
        if len(xs) < 2:
            continue
        mid = 0.5 * (xs[0] + xs[1])
        for k in range(len(prob.scenarios)):
            w, _ = _feasibility_subproblem(prob, mid, k)
            assert w <= 1e-7
        found += 1


def test_first_stage_infeasible():
    prob = two_stage(
        c=[1.0],
        A=[[1.0], [1.0]],
        b=[1.0, 2.0],
        W=[[1.0]],
        scen=[(1.0, [1.0], [[0.0]], [0.0])],
    )
    with pytest.raises(FirstStageInfeasible):
        lshape_solve(prob)


def test_no_point_with_feasible_recourse():
    # W y = h - T x with W = [1], h = -1 - x: rhs always negative
    prob = two_stage(
        c=[1.0],
        A=np.zeros((0, 1)),
        b=[],
        W=[[1.0]],
        scen=[(1.0, [1.0], [[1.0]], [-1.0])],
    )
    with pytest.raises(SecondStageInfeasible):
        lshape_solve(prob)


def test_duplicated_scenarios_match_single(rng):
    base = random_problem(rng, complete=True)
    s = base.scenarios[0]
    single = TwoStageLP(c=base.c, A=base.A, b=base.b, W=base.W,
                        scenarios=[ScenarioBlock(1.0, s.q, s.T, s.h)])
    tripled = TwoStageLP(
        c=base.c, A=base.A, b=base.b, W=base.W,
        scenarios=[ScenarioBlock(1 / 3, s.q, s.T, s.h) for _ in range(3)],
    )
    a = lshape_solve(single)
    b = lshape_solve(tripled)
    assert b.objective == pytest.approx(a.objective, abs=1e-7 * (1 + abs(a.objective)))


def test_all_violations_flag_agrees():
    # two scenarios whose recourse rows both force x <= bounds: the
    # multi-cut pass lands on the same optimum as stop-at-first
    prob = two_stage(
        c=[-1.0, 0.0],
        A=[[1.0, 1.0]],
        b=[6.0],
        W=[[1.0]],
        scen=[
            (0.5, [1.0], [[1.0, 0.0]], [3.0]),
            (0.5, [1.0], [[1.0, 0.0]], [2.0]),
        ],
    )
    one = lshape_solve(prob)
    many = lshape_solve(prob, all_violations=True)
    assert many.objective == pytest.approx(one.objective, abs=1e-7)
    assert many.cuts.r >= one.cuts.r >= 1
