"""LP core against vertex enumeration, duality, rays, warm restarts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pgvrp import simplex
from pgvrp.simplex import (
    EQ,
    GE,
    LE,
    LinearProgram,
    SimplexError,
    SimplexOptions,
    resolve_with_added_row,
    solve,
    warm_solve,
)

from util_lp import feasible, random_bounded_lp, vertex_enumeration_optimum


def test_no_rows_minimum_at_origin():
    lp = LinearProgram(c=[1.0], A=np.zeros((0, 1)), senses=[], b=[])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert sol.x[0] == 0.0


def test_two_var_vertex_and_dual():
    # min -x - y  s.t.  x + y <= 1
    lp = LinearProgram(c=[-1.0, -1.0], A=[[1.0, 1.0]], senses=[LE], b=[1.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0)
    assert sol.duals[0] == pytest.approx(-1.0)
    assert sol.objective == pytest.approx(sol.duals @ lp.b)


def test_infeasible_detected():
    lp = LinearProgram(c=[1.0], A=[[1.0]], senses=[LE], b=[-1.0])
    assert solve(lp).status == "infeasible"


def test_unbounded_with_certifying_ray():
    lp = LinearProgram(c=[-1.0, 0.0], A=[[0.0, 1.0]], senses=[LE], b=[1.0])
    sol = solve(lp)
    assert sol.status == "unbounded"
    r = sol.ray
    assert lp.c @ r < 0
    assert np.all(r >= -1e-12)
    assert lp.A @ r <= 1e-12  # recession direction of the <= row


def test_upper_bound_flip():
    lp = LinearProgram(
        c=[-2.0], A=np.zeros((0, 1)), senses=[], b=[], upper=[3.0]
    )
    sol = solve(lp)
    assert sol.objective == pytest.approx(-6.0)
    assert sol.x[0] == pytest.approx(3.0)


def test_equality_phase_one():
    lp = LinearProgram(
        c=[1.0, 2.0], A=[[1.0, 1.0]], senses=[EQ], b=[4.0], upper=[10.0, 10.0]
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0)
    assert sol.x[0] == pytest.approx(4.0)


def test_matches_vertex_enumeration_bulk(rng):
    mismatches = 0
    for _ in range(300):
        lp = random_bounded_lp(rng, max_vars=5, max_rows=5)
        sol = solve(lp)
        ref = vertex_enumeration_optimum(lp)
        assert ref is not None  # feasible by construction
        assert sol.status == "optimal"
        if abs(sol.objective - ref) > 1e-7 * (1 + abs(ref)):
            mismatches += 1
    assert mismatches == 0


def test_lower_bounds_match_vertex_enumeration(rng):
    negative_rhs = fixed = 0
    for _ in range(300):
        lp = random_bounded_lp(rng, max_vars=5, max_rows=5, lower_bounds=True)
        # rows whose right-hand side turns negative once x is shifted by
        # its lower bound, and columns fixed at lower = upper
        negative_rhs += int(np.sum(lp.b - lp.A @ lp.lower < 0))
        fixed += int(np.sum(lp.lower == lp.upper))
        sol = solve(lp)
        ref = vertex_enumeration_optimum(lp)
        assert ref is not None  # feasible by construction
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref, abs=1e-7 * (1 + abs(ref)))
        assert feasible(lp, sol.x, tol=1e-8 * (1 + np.abs(lp.b).sum()))
    assert negative_rhs > 0 and fixed > 0


def test_crossed_bounds_are_infeasible():
    lp = LinearProgram(c=[1.0], A=np.zeros((0, 1)), senses=[], b=[], upper=[1.0], lower=[2.0])
    assert solve(lp).status == "infeasible"
    core = solve(replace(lp, lower=[0.0])).core
    assert warm_solve(core, [2.0], [1.0]).status == "infeasible"


def test_duality_and_feasibility_residuals(rng):
    for _ in range(200):
        lp = random_bounded_lp(rng, max_vars=6, max_rows=6)
        sol = solve(lp)
        assert sol.status == "optimal"
        x = sol.x
        assert feasible(lp, x, tol=1e-8 * (1 + np.abs(lp.b).sum()))
        # general bounded duality: c.x = y.b + sum of reduced costs at upper
        rc = lp.c - sol.duals @ lp.A
        at_ub = np.abs(x - lp.upper) < 1e-9
        gap = lp.c @ x - (sol.duals @ lp.b + rc[at_ub] @ lp.upper[at_ub])
        assert abs(gap) <= 1e-7 * (1 + abs(sol.objective))


def test_duality_without_upper_bounds(rng):
    done = 0
    while done < 100:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        A = rng.integers(-9, 10, size=(m, n)).astype(float)
        x0 = rng.integers(0, 5, size=n).astype(float)
        b = A @ x0
        c = rng.integers(0, 10, size=n).astype(float)  # c >= 0 keeps it bounded
        lp = LinearProgram(c=c, A=A, senses=[EQ] * m, b=b)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        assert sol.objective == pytest.approx(
            float(sol.duals @ lp.b), abs=1e-7 * (1 + abs(sol.objective))
        )
        done += 1


def test_determinism(rng):
    lp = random_bounded_lp(rng)
    a = solve(lp)
    b = solve(lp)
    assert a.basis == b.basis
    assert np.array_equal(a.x, b.x)


def test_dimension_mismatch_raises():
    with pytest.raises(SimplexError, match="dimension"):
        LinearProgram(c=[1.0, 2.0], A=[[1.0]], senses=[LE], b=[1.0])


def test_resolve_non_binding_row_keeps_objective(rng):
    lp = random_bounded_lp(rng, max_vars=4, max_rows=3)
    base = solve(lp)
    a = np.zeros(lp.n_vars)
    a[0] = 1.0
    warm = resolve_with_added_row(base.core, [(a, LE, float(base.x[0]) + 5.0)])
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(base.objective, abs=1e-9)
    with pytest.raises(SimplexError, match="inequality"):
        resolve_with_added_row(warm.core, [(a, LE, 1.0), (a, EQ, 1.0)])


def test_resolve_cutting_row_matches_cold(rng):
    checked = 0
    while checked < 120:
        lp = random_bounded_lp(rng, max_vars=5, max_rows=4)
        base = solve(lp)
        if base.status != "optimal":
            continue
        a = rng.integers(-5, 6, size=lp.n_vars).astype(float)
        cutoff = float(a @ base.x)
        sense, rhs = (LE, cutoff - 1.0) if rng.random() < 0.5 else (GE, cutoff + 1.0)
        warm = resolve_with_added_row(base.core, [(a, sense, rhs)])
        cold = solve(lp.with_row(a, sense, rhs))
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            # a cut can only worsen a minimum
            assert warm.objective >= base.objective - 1e-9
        checked += 1


def _check_against_cold(lp, sol, options):
    """Same status and objective as a cold solve, primal feasible, duals
    signed for a minimum (<= rows non-positive, >= rows non-negative)."""
    cold = solve(lp, options)
    assert sol.status == cold.status
    if cold.status != "optimal":
        return
    assert sol.objective == pytest.approx(cold.objective, abs=1e-6)
    assert feasible(lp, sol.x, tol=1e-7 * (1 + np.abs(lp.b).max()))
    senses = np.array(lp.senses)
    assert np.all(sol.duals[senses == LE] <= 1e-7)
    assert np.all(sol.duals[senses == GE] >= -1e-7)


def _with_rows(lp, rows):
    for row in rows:
        lp = lp.with_row(*row)
    return lp


def _cut_chain(rng, options, refactors):
    """Chain 150-300 random cuts through the live core of one LP, in
    batches of 1-8 per re-solve.

    Every cut is valid for a fixed point x0 (so the LP stays feasible)
    and, where it can, cuts off the current optimum; LE and GE rows with
    right-hand sides of both signs exercise the row sign flip.
    """
    n, m = int(rng.integers(4, 9)), int(rng.integers(2, 6))
    x0 = rng.uniform(0.0, 10.0, size=n)
    A = rng.integers(-9, 10, size=(m, n)).astype(float)
    senses = [(LE, GE, EQ)[int(k)] for k in rng.integers(0, 3, size=m)]
    slack = np.array([{LE: 1.0, GE: -1.0, EQ: 0.0}[s] for s in senses])
    lp = LinearProgram(
        c=rng.integers(-9, 10, size=n).astype(float),
        A=A,
        senses=senses,
        b=A @ x0 + slack * rng.uniform(0.0, 3.0, size=m),
        upper=np.full(n, 10.0),
    )
    sol = solve(lp, options)
    flips = cuts = 0
    target = int(rng.integers(150, 301))
    while cuts < target:
        rows = []
        for _ in range(int(rng.integers(1, 9))):
            # a cut along the cost vector makes a face optimal, and the
            # dual pivots after it degenerate
            a = lp.c if rng.random() < 0.2 else rng.integers(-5, 6, size=n).astype(float)
            at_x0, at_opt = float(a @ x0), float(a @ sol.x)
            rhs = at_x0 + rng.uniform(0.0, 1.0) * (at_opt - at_x0)
            rows.append((a, LE if at_opt >= at_x0 else GE, rhs))
            flips += rhs < 0
        n_ref = refactors[0]
        sol = resolve_with_added_row(sol.core, rows)  # on the options of `solve`
        lp = _with_rows(lp, rows)
        refactors[1] += refactors[0] - n_ref
        _check_against_cold(lp, sol, options)
        cuts += len(rows)
    assert flips > 0


@pytest.mark.parametrize("stall_limit", [400, 0])
def test_live_core_cut_chain_matches_cold(rng, monkeypatch, stall_limit):
    # stall_limit=0 puts the dual on Bland's rule after its first stall
    refactors = [0, 0]  # all refactorizations, those inside re-solves
    real = simplex._Core.refactor

    def counting(core):
        refactors[0] += 1
        real(core)

    monkeypatch.setattr(simplex._Core, "refactor", counting)
    options = SimplexOptions(stall_limit=stall_limit)
    for _ in range(2):
        _cut_chain(rng, options, refactors)
    # the refactor cadence came due inside re-solves at least twice
    assert refactors[1] >= 2


def _cut_off(rng, lp, sol):
    a = rng.integers(-5, 6, size=lp.n_vars).astype(float)
    at = float(a @ sol.x)
    return (a, LE, at - 1.0) if rng.random() < 0.5 else (a, GE, at + 1.0)


def test_batched_borders_match_cold(rng):
    # two batches of cuts bordered onto one core, then a jump back to the
    # basis the core held before them. A repeated equality row keeps an
    # artificial basic, whose label every border must shift, or the jump
    # cannot find its column
    checked = artificial = 0
    while checked < 40:
        lp = random_bounded_lp(rng, max_vars=5, max_rows=4)
        if lp.senses[0] == EQ:
            lp = lp.with_row(lp.A[0], EQ, lp.b[0])
        base = solve(lp)
        if base.status != "optimal":
            continue
        artificial += max(base.basis) >= lp.n_vars + lp.n_rows
        sol = base
        for _ in range(2):
            rows = [_cut_off(rng, lp, sol) for _ in range(int(rng.integers(1, 5)))]
            sol = resolve_with_added_row(base.core, rows)
            lp = _with_rows(lp, rows)
            assert sol.fallback is None
            _check_against_cold(lp, sol, None)
            if sol.status != "optimal":
                break
        else:
            sol = warm_solve(base.core, lp.lower, lp.upper, base.basis, base.x)
            assert sol.fallback is None
            _check_against_cold(lp, sol, None)
            checked += 1
    assert artificial > 0


def _branch_bounds(rng, x, lower, upper):
    """Bounds of a child: ub = floor(v) or lb = ceil(v) on a fractional
    (hence basic) column of the optimum x; None when x is integral."""
    frac = np.flatnonzero(np.abs(x - np.rint(x)) > 1e-6)
    if frac.size == 0:
        return None
    j = int(rng.choice(frac))
    lower, upper = lower.copy(), upper.copy()
    if rng.random() < 0.5:
        upper[j] = math.floor(x[j])
    else:
        lower[j] = math.ceil(x[j])
    return lower, upper


def test_live_core_bounds_cuts_and_jumps_match_cold(rng):
    # one core through branch-like bound changes, cuts, and jumps back to
    # stored bases of the same LP taken before rows were added, the way
    # solve_exact drives it; the reference is a cold solve each time
    steps = {"branch": 0, "cut": 0, "jump": 0, "jump_past_rows": 0, "infeasible": 0}
    for _ in range(4):
        n, m = int(rng.integers(4, 8)), int(rng.integers(2, 6))
        x0 = rng.uniform(0.0, 10.0, size=n)
        A = rng.integers(-9, 10, size=(m, n)).astype(float)
        senses = [(LE, GE, EQ)[int(k)] for k in rng.integers(0, 3, size=m)]
        slack = np.array([{LE: 1.0, GE: -1.0, EQ: 0.0}[s] for s in senses])
        lp = LinearProgram(
            c=rng.integers(-9, 10, size=n).astype(float),
            A=A,
            senses=senses,
            b=A @ x0 + slack * rng.uniform(0.0, 3.0, size=m),
            upper=np.full(n, 10.0),
        )
        sol = solve(lp)
        core = sol.core
        stored = [(sol.basis, sol.x, lp.lower, lp.upper)]  # optimal states
        for _ in range(150):
            child = _branch_bounds(rng, sol.x, lp.lower, lp.upper) if sol.status == "optimal" else None
            kind = rng.choice(["branch", "cut", "jump"], p=[0.45, 0.3, 0.25])
            if kind == "branch" and child is not None:
                lp = replace(lp, lower=child[0], upper=child[1])
                sol = warm_solve(core, *child)
            elif kind == "cut" and sol.status == "optimal":
                # valid at x0, which the root bounds keep feasible; cuts
                # off the optimum where it can
                a = rng.integers(-5, 6, size=n).astype(float)
                at_x0, at_opt = float(a @ x0), float(a @ sol.x)
                rhs = at_x0 + rng.uniform(0.0, 1.0) * (at_opt - at_x0)
                row = (a, LE if at_opt >= at_x0 else GE, rhs)
                sol = resolve_with_added_row(core, [row])
                lp = lp.with_row(*row)
            else:
                kind = "jump"
                basis, x, lower, upper = stored[int(rng.integers(len(stored)))]
                steps["jump_past_rows"] += len(basis) < lp.n_rows
                lower, upper = _branch_bounds(rng, x, lower, upper) or (lower, upper)
                lp = replace(lp, lower=lower, upper=upper)
                sol = warm_solve(core, lower, upper, basis, x)
            steps[kind] += 1
            assert sol.fallback is None
            core = sol.core
            _check_against_cold(lp, sol, None)
            if sol.status == "optimal":
                stored.append((sol.basis, sol.x, lp.lower, lp.upper))
            else:
                steps["infeasible"] += 1
    assert min(steps.values()) > 0, steps


def test_exact_node_lps_match_highs(monkeypatch):
    # every 8th LP that solve_exact solves on row 5 of suite seed 0, node
    # starts and cut rounds alike (a round's LP holds all its rows), with
    # their variable bounds, against HiGHS
    linprog = pytest.importorskip("scipy.optimize").linprog
    from pgvrp import exact
    from pgvrp.bench import SuiteSpec, generate

    kept, count = [], [0]

    def keep(posed, solve_it):
        count[0] += 1
        lp = posed() if count[0] % 8 == 1 else None
        sol = solve_it()
        if lp is not None:
            kept.append((lp, sol.status, sol.objective))
        return sol

    real_warm, real_resolve = exact.warm_solve, exact.resolve_with_added_row

    def warm(core, lower, upper, *args, **kwargs):
        return keep(
            lambda: replace(core.linear_program(), lower=lower, upper=upper),
            lambda: real_warm(core, lower, upper, *args, **kwargs),
        )

    def resolve(core, rows):
        return keep(
            lambda: _with_rows(core.linear_program(), rows),
            lambda: real_resolve(core, rows),
        )

    monkeypatch.setattr(exact, "warm_solve", warm)
    monkeypatch.setattr(exact, "resolve_with_added_row", resolve)
    exact.solve_exact(generate(SuiteSpec(seed=0))[4], node_limit=10)
    assert len(kept) >= 10
    assert any(np.any(lp.lower) for lp, _, _ in kept)  # branched up somewhere
    for lp, status, objective in kept:
        senses = np.array(lp.senses)
        le, ge, eq = senses == LE, senses == GE, senses == EQ
        ref = linprog(
            lp.c,
            A_ub=np.vstack([lp.A[le], -lp.A[ge]]),
            b_ub=np.concatenate([lp.b[le], -lp.b[ge]]),
            A_eq=lp.A[eq],
            b_eq=lp.b[eq],
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
        )
        assert status == {0: "optimal", 2: "infeasible"}[ref.status]
        if status == "optimal":
            assert objective == pytest.approx(ref.fun, abs=1e-6 * (1 + abs(ref.fun)))


def test_degenerate_cycling_guard():
    # classic Beale cycling example; Bland fallback must terminate it
    lp = LinearProgram(
        c=[-0.75, 150.0, -0.02, 6.0],
        A=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        senses=[LE, LE, LE],
        b=[0.0, 0.0, 1.0],
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05)


def test_careful_retry_hands_back_callers_options(monkeypatch):
    # the retry runs on conservative options; re-solves of its core run
    # on the caller's
    real = simplex._Core.primal
    calls = [0]

    def primal(core, cost):
        calls[0] += 1
        if calls[0] == 1:
            raise SimplexError("forced failure")
        return real(core, cost)

    monkeypatch.setattr(simplex._Core, "primal", primal)
    options = SimplexOptions(stall_limit=7)
    lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0]], senses=[EQ], b=[4.0], upper=[10.0, 10.0])
    sol = solve(lp, options)
    assert calls[0] > 1 and sol.status == "optimal"
    assert sol.core.opt == options
