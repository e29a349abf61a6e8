"""Exact solver: branch-and-cut with an integer L-shaped recourse cut.

The root relaxation works on undirected edge variables x_ij (depot edges
may reach 2 to encode out-and-back tours), node choice variables y, and a
recourse variable theta that the objective rewards:

    min  sum d_ij x_ij - theta
    s.t. cluster cover, degree linking, depot degree 2K, y_0 = K,
         theta <= (D - B) X,  0 <= theta <= U.

Connectivity is enforced lazily by generalized subtour elimination cuts
(components of the fractional support plus a depot-rooted min-cut sweep).
At integral points the true expected saving Q of the decoded solution is
computed exactly; if theta overshoots it, an optimality cut pins theta to
Q at that point while staying above every other candidate. Search is
depth-first with bound pruning against the incumbent, seeded by the
max-min insertion heuristic.

A node is its bounds: the root LP's variable bounds, tightened by one
entry per branch. Branching down on y_t fixes y_t to 0, so t contributes
no detour saving, and the child's recourse cap upper[theta] drops to the
clustered cap recomputed without every node fixed to 0 (`_theta_cap`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .evaluation import deterministic_length, expected_length, expected_recourse
from .heuristics import solve_MmI
from .model import (
    AprioriSolution,
    FractionalPoint,
    Instance,
    ValidationError,
    edge_endpoints,
    incidence_point,
    triangle_check,
)
from .simplex import (
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

INT_TOL = 1e-6
PRUNE_TOL = 1e-9
GSEC_TOL = 1e-6  # support threshold, and the violation a returned GSEC exceeds


@dataclass(frozen=True)
class GsecCut:
    """Connectivity cut x(delta(S)) >= 2 y_t for a depot-free set S, t in S."""

    S: frozenset[int]
    anchor: int


@dataclass(eq=False)
class RootRelaxation:
    instance: Instance
    lp: LinearProgram
    n_edges: int
    col_theta: int
    U: float
    b: np.ndarray
    detour: np.ndarray  # per-node best detour saving, for node-local caps

    def col_y(self, t: int) -> int:
        return self.n_edges + t


@dataclass(eq=False)
class BranchNode:
    """The root LP's variable bounds as branching tightened them; theta's
    upper bound is the node's recourse cap."""

    lower: np.ndarray
    upper: np.ndarray
    depth: int
    bound: float
    # the parent's id and final basis, from which this node's LP re-solves
    parent: int | None = None
    basis: tuple[int, ...] | None = None
    x_prev: np.ndarray | None = None


@dataclass(eq=False)
class ExactResult:
    status: str  # optimal | bound-only
    solution: AprioriSolution | None
    objective: float
    lower_bound: float
    stats: dict
    log: list[str]


def build_root(instance: Instance) -> RootRelaxation:
    """Assemble the LP relaxation with both recourse caps attached.

    Vehicles beyond the cluster count would stay at the depot in any
    optimum, so the relaxation uses min(K, m) tours; callers pad the
    decoded solutions back to K with empty tours.
    """
    n = instance.n_nodes
    k = min(instance.vehicles, instance.n_clusters)
    I, J = edge_endpoints(n)
    ne = len(I)
    nv = ne + n + 1
    col_theta = ne + n
    d = instance.distances
    b_mat = bounds_mod.b_matrix(instance)
    detour = bounds_mod.detour_savings(instance)
    U = min(
        bounds_mod.ub_simple(instance, detour), bounds_mod.ub_clustered(instance, detour)
    )

    c = np.zeros(nv)
    c[:ne] = d[I, J]
    c[col_theta] = -1.0

    cover = np.zeros((instance.n_clusters, nv))
    for r, cl in enumerate(instance.clusters):
        # visiting a second member of a present cluster only adds length
        # under the triangle inequality, so exactly one member is chosen
        cover[r, ne + np.asarray(cl.members)] = 1.0
    degree = np.zeros((n, nv))  # x(delta(t)) - 2 y_t
    degree[I, np.arange(ne)] = 1.0
    degree[J, np.arange(ne)] = 1.0
    depot = degree[0].copy()  # the edges at the depot
    degree[np.arange(n), ne + np.arange(n)] = -2.0
    y0 = np.zeros(nv)
    y0[ne] = 1.0
    cap = np.zeros(nv)
    cap[col_theta] = 1.0
    cap[:ne] = -(d[I, J] - b_mat[I, J])
    # node-wise version of the clustered cap: only visited representatives
    # can contribute their detour saving, so theta <= sum detour_t y_t
    node_cap = np.zeros(nv)
    node_cap[col_theta] = 1.0
    node_cap[ne + 1 : col_theta] = -detour[1:]
    # passing through an unchosen node only adds length under the triangle
    # inequality, so degree is pinned to 2 y_t for t >= 1 (the second
    # degree block); this also keeps every integral point decodable
    A = np.vstack([cover, degree, degree[1:], depot, y0, cap, node_cap])
    senses = [EQ] * len(cover) + [GE] * n + [LE] * (n - 1) + [EQ, EQ, LE, LE]
    b = np.array([1.0] * len(cover) + [0.0] * (2 * n - 1) + [2.0 * k, float(k), 0.0, 0.0])

    upper = np.ones(nv)
    upper[:ne][I == 0] = 2.0
    upper[ne] = float(k)
    upper[col_theta] = max(U, 0.0)

    lp = LinearProgram(c=c, A=A, senses=senses, b=b, upper=upper)
    return RootRelaxation(
        instance=instance,
        lp=lp,
        n_edges=ne,
        col_theta=col_theta,
        U=U,
        b=b_mat,
        detour=detour,
    )


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------


def _support(point: FractionalPoint, n: int):
    """(i, j, x_ij) of every edge above GSEC_TOL, in edge order."""
    I, J = edge_endpoints(n)
    idx = np.flatnonzero(point.x > GSEC_TOL)
    return zip(I[idx].tolist(), J[idx].tolist(), point.x[idx].tolist())


def _support_adjacency(point: FractionalPoint, instance: Instance):
    adj: list[list[tuple[int, float]]] = [[] for _ in range(instance.n_nodes)]
    for i, j, w in _support(point, instance.n_nodes):
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def _components(adj) -> list[set[int]]:
    n = len(adj)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, _ in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


class _MaxFlow:
    """Edmonds-Karp on the undirected support graph."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add(self, u: int, v: int, c: float):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(c)  # undirected: full capacity both ways

    def min_cut(self, s: int, t: int) -> tuple[float, set[int]]:
        cap = self.cap.copy()
        flow = 0.0
        while True:
            prev = [-1] * self.n
            prev_edge = [-1] * self.n
            prev[s] = s
            queue = deque([s])
            while queue and prev[t] < 0:
                v = queue.popleft()
                for eid in self.head[v]:
                    w = self.to[eid]
                    if prev[w] < 0 and cap[eid] > 1e-12:
                        prev[w] = v
                        prev_edge[w] = eid
                        queue.append(w)
            if prev[t] < 0:
                reach = {v for v in range(self.n) if prev[v] >= 0}
                return flow, reach
            push = math.inf
            v = t
            while v != s:
                push = min(push, cap[prev_edge[v]])
                v = prev[v]
            v = t
            while v != s:
                eid = prev_edge[v]
                cap[eid] -= push
                cap[eid ^ 1] += push
                v = prev[v]
            flow += push


def _crossing(S: frozenset[int], n: int) -> np.ndarray:
    """Mask of the edges (`edge_endpoints` order) with exactly one end in S."""
    in_S = np.zeros(n, dtype=bool)
    in_S[list(S)] = True
    I, J = edge_endpoints(n)
    return in_S[I] != in_S[J]


def separate_gsec(
    point: FractionalPoint, instance: Instance, include_min_cut: bool = True
) -> list[GsecCut]:
    """Violated connectivity cuts at a fractional point.

    Depot-free components of the support graph give immediate cuts; a
    min-cut sweep from the depot to every meaningfully chosen node catches
    fractional bottlenecks thinner than 2 y_t (integral points never have
    any, so callers may skip the sweep for them). Every returned cut is
    re-checked to be violated by more than GSEC_TOL at the point.
    """
    n = instance.n_nodes
    adj = _support_adjacency(point, instance)
    cuts: list[GsecCut] = []
    seen_sets: set[frozenset[int]] = set()

    def consider(S: frozenset[int]):
        if not S or S in seen_sets:
            return
        seen_sets.add(S)
        anchor = max(S, key=lambda v: (point.y[v], -v))
        if 2.0 * point.y[anchor] - float(point.x[_crossing(S, n)].sum()) > GSEC_TOL:
            cuts.append(GsecCut(S, anchor))

    depot_comp: set[int] = set()
    for comp in _components(adj):
        if 0 in comp:
            depot_comp = comp
        else:
            consider(frozenset(comp))

    if not include_min_cut:
        return cuts
    flow_net = _MaxFlow(n)
    for i, j, w in _support(point, n):
        flow_net.add(i, j, w)
    handled: set[int] = set()
    for t in sorted(range(1, n), key=lambda v: (-point.y[v], v)):
        if point.y[t] <= GSEC_TOL or t not in depot_comp or t in handled:
            continue
        flow, reach = flow_net.min_cut(0, t)
        if flow < 2.0 * point.y[t] - GSEC_TOL:
            S = frozenset(v for v in range(1, n) if v not in reach)
            handled |= S  # nodes cut off together share this separator
            consider(S)
    return cuts


def gsec_row(cut: GsecCut, root: RootRelaxation) -> tuple[np.ndarray, str, float]:
    row = np.zeros(root.lp.n_vars)
    row[: root.n_edges][_crossing(cut.S, root.instance.n_nodes)] = 1.0
    row[root.col_y(cut.anchor)] = -2.0
    return row, GE, 0.0


def optimality_cut(
    sol: AprioriSolution, instance: Instance, U: float, root: RootRelaxation
) -> tuple[np.ndarray, str, float]:
    """Recourse cut exact at this solution's incidence vector."""
    q_val = expected_recourse(sol, instance, check=False)
    return _recourse_cut(incidence_point(instance, sol).x, q_val, U, root)


def _recourse_cut(
    x: np.ndarray, q_val: float, U: float, root: RootRelaxation
) -> tuple[np.ndarray, str, float]:
    """Recourse cut exact at an integral edge vector x whose tours save Q.

    theta <= U + (Q - U) (sum_{support} x_e - s + 1) with Q = q_val and s
    the total edge weight of x; at the generating point the right side is
    Q, at every other candidate it is at least U.
    """
    counts = np.rint(x[: root.n_edges])
    support = counts >= 1
    row = np.zeros(root.lp.n_vars)
    row[root.col_theta] = 1.0
    row[: root.n_edges][support] = U - q_val
    rhs = U + (q_val - U) * (1.0 - float(counts[support].sum()))
    return row, LE, rhs


# ---------------------------------------------------------------------------
# decoding integral points
# ---------------------------------------------------------------------------


def decode_tours(x: np.ndarray, instance: Instance) -> AprioriSolution:
    """Integral x -> K depot tours; vehicles beyond min(K, m) get (0, 0).

    Each tour leaves the depot to its smallest remaining neighbour. Raises
    ValueError unless the edges form exactly min(K, m) cycles through the
    depot (an out-and-back tour uses its depot edge twice). An integral
    point of the relaxation with no violated GSEC always does: the degree
    rows pin each chosen node to degree 2 and the depot to 2 min(K, m),
    and the GSECs tie every chosen node to the depot.
    """
    n = instance.n_nodes
    k = min(instance.vehicles, instance.n_clusters)
    I, J = edge_endpoints(n)
    counts = np.rint(x[: len(I)]).astype(int)
    used = np.repeat(np.arange(len(I)), counts)  # ValueError if any is negative
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(I[used].tolist(), J[used].tolist()):
        adj[i].append(j)
        adj[j].append(i)
    if len(adj[0]) != 2 * k:
        raise ValueError(f"depot degree {len(adj[0])}, not {2 * k}")
    bad = [v for v in range(1, n) if len(adj[v]) not in (0, 2)]
    if bad:
        raise ValueError(f"node {bad[0]} has degree {len(adj[bad[0]])}")
    ends = sorted(adj[0])  # depot neighbours not yet on a tour
    tours = []
    while ends:
        walk, prev, v = [0], 0, ends.pop(0)
        while v != 0:
            walk.append(v)
            a, b = adj[v]
            prev, v = v, b if a == prev else a
        ends.remove(prev)
        tours.append(tuple(walk) + (0,))
    if sum(len(t) - 2 for t in tours) != sum(len(a) == 2 for a in adj[1:]):
        raise ValueError("a cycle misses the depot")
    return AprioriSolution(tuple(tours) + ((0, 0),) * (instance.vehicles - k))


# ---------------------------------------------------------------------------
# branch and cut
# ---------------------------------------------------------------------------


def _theta_cap(root: RootRelaxation, upper: np.ndarray) -> float:
    """The recourse cap under the bounds `upper`: a node t with y_t fixed
    to 0 is never visited, so it contributes no detour saving."""
    detour = np.where(upper[root.n_edges : root.col_theta] == 0.0, 0.0, root.detour)
    return max(min(bounds_mod.ub_clustered(root.instance, detour), root.U), 0.0)


def _branch_variable(point: FractionalPoint, root: RootRelaxation) -> tuple[int, float] | None:
    """Most fractional y first, then x; within 1e-12, the smallest index."""
    for first_col, values in ((root.col_y(1), point.y[1:]), (0, point.x)):
        frac = np.minimum(values - np.floor(values), np.ceil(values) - values)
        cand = np.flatnonzero(frac > INT_TOL)
        best = None
        for k, f in zip(cand.tolist(), frac[cand].tolist()):
            if best is None or f > best[1] + 1e-12:
                best = (k, f)
        if best is not None:
            return first_col + best[0], float(values[best[0]])
    return None


def solve_exact(
    instance: Instance,
    time_limit: float | None = None,
    options: SimplexOptions | None = None,
    node_limit: int | None = None,
) -> ExactResult:
    """Depth-first branch-and-cut to a certified optimum.

    Returns the incumbent and the best open bound when the time limit (or
    node limit) halts the search early, or when an LP fails numerically
    even on a cold solve; `stats["lp_failure"]` then says where and why.
    Cuts are globally valid and pooled. Each separation round borders all
    its fresh GSECs onto the core and re-solves once; an optimality cut is
    a round of one. A node is its variable bounds, and every node re-solves
    the root LP plus the pool under them on one simplex core: a child
    popped while the core still holds its parent's final basis continues on
    it, any other node installs the parent's basis and inverts it once.
    """
    t0 = time.perf_counter()
    worst = triangle_check(instance)
    if worst > 1e-7 * (1.0 + float(instance.distances.max())):
        # the relaxation and the recourse caps all lean on the metric
        # assumption; refusing beats returning a silently wrong optimum
        raise ValidationError(
            f"distances violate the triangle inequality by {worst:.3g}; "
            "the exact solver requires a metric instance"
        )
    root = build_root(instance)
    incumbent = solve_MmI(instance)
    z_best = expected_length(incumbent, instance)
    pooled_gsec: set[GsecCut] = set()
    log: list[str] = []
    # cut_rounds counts the separation rounds that added GSECs, each one
    # re-solve
    stats = {"nodes": 0, "lp_solves": 0, "gsec_cuts": 0, "opt_cuts": 0, "cut_rounds": 0}
    # warm starts that fell back to a cold solve, each with its reason
    stats["warm_fallbacks"], stats["warm_fallback_reasons"] = 0, []
    stats["lp_failure"] = None

    # the incumbent's recourse cut is valid everywhere and tightens theta.
    # One simplex core serves the whole search: its rows are this LP's
    # plus the cut pool, and each node solves it under its own bounds
    root_lp = root.lp.with_row(*optimality_cut(incumbent, instance, root.U, root))
    core = None
    live = None  # id of the node whose final basis the core holds

    # expected lengths are non-negative, so 0 bounds the root before its
    # LP is solved
    stack = [BranchNode(root.lp.lower, root.lp.upper, depth=0, bound=0.0)]
    stopped = False  # by the budget, or by an LP that failed even cold

    def stopping() -> bool:
        nonlocal stopped
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            stopped = True
        if node_limit is not None and stats["nodes"] >= node_limit:
            stopped = True
        return stopped

    while stack:
        if stopping():
            break
        node = stack.pop()
        stats["nodes"] += 1
        node_id = stats["nodes"]

        def note(action, bound):
            log.append(
                f"node={node_id} depth={node.depth} bound={bound:.9g} action={action}"
            )

        if node.bound >= z_best - PRUNE_TOL:
            note("prune", node.bound)
            continue

        def failed(exc: Exception) -> None:
            """Stop the search with the bounds proved so far."""
            nonlocal stopped
            stopped = True
            stats["lp_failure"] = f"node {node_id}: {exc}"

        def counted(lp_call, *args):
            """The LP solve, counted; None if it failed even cold."""
            nonlocal core
            stats["lp_solves"] += 1
            try:
                sol = lp_call(*args)
            except SimplexError as exc:
                failed(exc)  # no cold solve got past it either
                return None
            if sol.fallback is not None:
                stats["warm_fallbacks"] += 1
                stats["warm_fallback_reasons"].append(f"node {node_id}: {sol.fallback}")
            core = sol.core  # a cold fallback brings a new core
            return sol

        if core is None:
            sol = counted(solve, root_lp, options)
        elif node.parent == live:
            # the parent's final basis is still live in the core
            sol = counted(warm_solve, core, node.lower, node.upper)
        else:
            # the node installs its parent's basis and inverts it once
            sol = counted(warm_solve, core, node.lower, node.upper, node.basis, node.x_prev)
        live = node_id

        while True:
            if sol is None:
                stack.append(node)  # with the bound its last LP proved
                break
            if sol.status == "infeasible":
                note("prune", math.inf)
                break
            obj = float(sol.objective)
            node.bound = max(node.bound, obj)
            if stopping():
                # hand the half-processed region back with the bound its
                # last LP proved, so it still counts toward the reported
                # global lower bound
                stack.append(node)
                break
            if obj >= z_best - PRUNE_TOL:
                note("prune", obj)
                break
            point = FractionalPoint(
                x=sol.x[: root.n_edges],
                y=sol.x[root.n_edges : root.n_edges + instance.n_nodes],
                theta=float(sol.x[root.col_theta]),
            )
            choice = _branch_variable(point, root)
            fresh = [
                g
                for g in separate_gsec(point, instance, include_min_cut=choice is not None)
                if g not in pooled_gsec
            ]
            if fresh:
                # the core holds the pool; one re-solve per round
                pooled_gsec.update(fresh)
                rows = [gsec_row(g, root) for g in fresh]
                sol = counted(resolve_with_added_row, core, rows)
                stats["gsec_cuts"] += len(fresh)
                stats["cut_rounds"] += 1
                note("gsec", obj)
                continue

            if choice is not None:
                col, value = choice
                down = node.upper.copy()
                down[col] = math.floor(value)
                if root.n_edges <= col < root.col_theta:  # y_t fixed to 0
                    down[root.col_theta] = min(down[root.col_theta], _theta_cap(root, down))
                up = node.lower.copy()
                up[col] = math.ceil(value)
                # the up child is pushed last, so it is solved first
                for lo, hi in ((node.lower, down), (up, node.upper)):
                    stack.append(
                        BranchNode(lo, hi, node.depth + 1, obj, node_id, sol.basis, sol.x)
                    )
                note("branch", obj)
                break

            try:
                decoded = decode_tours(point.x, instance)
            except ValueError as exc:
                # the LP broke its own rows: stop, handing the node back
                # with the bound its last LP proved
                failed(exc)
                stack.append(node)
                break
            z_q = expected_length(decoded, instance, check=False)
            q_val = deterministic_length(decoded, instance) - z_q
            if z_q < z_best - PRUNE_TOL:
                z_best = z_q
                incumbent = decoded
                note("incumbent", z_q)
            if point.theta <= q_val + PRUNE_TOL:
                note("prune", obj)
                break
            row = _recourse_cut(point.x, q_val, root.U, root)
            sol = counted(resolve_with_added_row, core, [row])
            stats["opt_cuts"] += 1
            note("optcut", obj)

    open_bounds = [n.bound for n in stack]
    lower = min(open_bounds) if open_bounds else z_best
    lower = min(lower, z_best)
    stats["seconds"] = time.perf_counter() - t0
    status = "bound-only" if stopped and stack else "optimal"
    return ExactResult(
        status=status,
        solution=incumbent,
        objective=z_best,
        lower_bound=float(lower),
        stats=stats,
        log=log,
    )
