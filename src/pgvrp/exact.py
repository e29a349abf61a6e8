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
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .evaluation import expected_length, expected_recourse
from .heuristics import solve_MmI
from .model import (
    AprioriSolution,
    FractionalPoint,
    Instance,
    ValidationError,
    edge_index,
    edges,
    triangle_check,
)
from .simplex import (
    EQ,
    GE,
    LE,
    LinearProgram,
    SimplexOptions,
    resolve_with_added_row,
    solve,
    warm_solve,
)

INT_TOL = 1e-6
PRUNE_TOL = 1e-9


@dataclass(frozen=True)
class GsecCut:
    """Connectivity cut x(delta(S)) >= 2 y_t for a depot-free set S, t in S."""

    S: frozenset[int]
    anchor: int


@dataclass(eq=False)
class RootRelaxation:
    instance: Instance
    lp: LinearProgram
    edge_list: list[tuple[int, int]]
    edge_idx: dict[tuple[int, int], int]
    n_edges: int
    col_theta: int
    U: float
    b: np.ndarray
    detour: np.ndarray  # per-node best detour saving, for node-local caps

    def col_x(self, e: tuple[int, int]) -> int:
        return self.edge_idx[e]

    def col_y(self, t: int) -> int:
        return self.n_edges + t


@dataclass(eq=False)
class BranchNode:
    fixings: tuple[tuple[str, int, float], ...]  # (kind 'ub'|'lb', col, value)
    depth: int
    bound: float
    excluded: frozenset[int]  # y-variables fixed to zero
    u_local: float
    # warm-start state inherited from the parent's final LP
    basis: tuple[int, ...] | None = None
    x_prev: np.ndarray | None = None
    pool_at_parent: int = 0
    parent_fixes: int = 0
    parent_rows: int = 0


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
    edge_list = edges(n)
    eidx = edge_index(n)
    ne = len(edge_list)
    nv = ne + n + 1
    col_theta = ne + n
    d = instance.distances
    b_mat = bounds_mod.b_matrix(instance)
    detour = bounds_mod.detour_savings(instance)
    U = min(
        bounds_mod.ub_simple(instance, detour), bounds_mod.ub_clustered(instance, detour)
    )

    c = np.zeros(nv)
    for e, idx in eidx.items():
        c[idx] = d[e]
    c[col_theta] = -1.0

    rows, senses, rhs = [], [], []

    def add(row, s, r):
        rows.append(row)
        senses.append(s)
        rhs.append(float(r))

    for cl in instance.clusters:
        # visiting a second member of a present cluster only adds length
        # under the triangle inequality, so exactly one member is chosen
        row = np.zeros(nv)
        for m in cl.members:
            row[ne + m] = 1.0
        add(row, EQ, 1.0)
    for t in range(n):
        row = np.zeros(nv)
        for other in range(n):
            if other != t:
                row[eidx[(min(t, other), max(t, other))]] = 1.0
        row[ne + t] = -2.0
        add(row, GE, 0.0)
    for t in range(1, n):
        # passing through an unchosen node only adds length under the
        # triangle inequality, so degree is pinned to 2 y_t; this also
        # keeps every integral point decodable into tours
        row = np.zeros(nv)
        for other in range(n):
            if other != t:
                row[eidx[(min(t, other), max(t, other))]] = 1.0
        row[ne + t] = -2.0
        add(row, LE, 0.0)
    row = np.zeros(nv)
    for j in range(1, n):
        row[eidx[(0, j)]] = 1.0
    add(row, EQ, 2.0 * k)
    row = np.zeros(nv)
    row[ne + 0] = 1.0
    add(row, EQ, float(k))
    row = np.zeros(nv)
    row[col_theta] = 1.0
    for e, idx in eidx.items():
        row[idx] = -(d[e] - b_mat[e])
    add(row, LE, 0.0)
    # node-wise version of the clustered cap: only visited representatives
    # can contribute their detour saving, so theta <= sum detour_t y_t
    row = np.zeros(nv)
    row[col_theta] = 1.0
    for t in range(1, n):
        row[ne + t] = -detour[t]
    add(row, LE, 0.0)

    upper = np.ones(nv)
    for j in range(1, n):
        upper[eidx[(0, j)]] = 2.0
    upper[ne] = float(k)
    upper[col_theta] = max(U, 0.0)

    lp = LinearProgram(
        c=c, A=np.array(rows), senses=senses, b=np.array(rhs), upper=upper
    )
    return RootRelaxation(
        instance=instance,
        lp=lp,
        edge_list=edge_list,
        edge_idx=eidx,
        n_edges=ne,
        col_theta=col_theta,
        U=U,
        b=b_mat,
        detour=detour,
    )


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------


def _support_adjacency(point: FractionalPoint, instance: Instance, tol: float):
    n = instance.n_nodes
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for idx, (i, j) in enumerate(edges(n)):
        w = float(point.x[idx])
        if w > tol:
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


def _crossing_value(point: FractionalPoint, S: frozenset[int], n: int) -> float:
    eidx = edge_index(n)
    total = 0.0
    for i in S:
        for j in range(n):
            if j != i and j not in S:
                total += float(point.x[eidx[(min(i, j), max(i, j))]])
    return total


def separate_gsec(
    point: FractionalPoint,
    instance: Instance,
    tol: float = 1e-6,
    include_min_cut: bool = True,
) -> list[GsecCut]:
    """Violated connectivity cuts at a fractional point.

    Depot-free components of the support graph give immediate cuts; a
    min-cut sweep from the depot to every meaningfully chosen node catches
    fractional bottlenecks thinner than 2 y_t (integral points never have
    any, so callers may skip the sweep for them). Every returned cut is
    re-checked to be violated by more than `tol` at the point.
    """
    n = instance.n_nodes
    adj = _support_adjacency(point, instance, tol)
    cuts: list[GsecCut] = []
    seen_sets: set[frozenset[int]] = set()

    def consider(S: frozenset[int]):
        if not S or S in seen_sets:
            return
        seen_sets.add(S)
        anchor = max(S, key=lambda v: (point.y[v], -v))
        if 2.0 * point.y[anchor] - _crossing_value(point, S, n) > tol:
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
    for idx, (i, j) in enumerate(edges(n)):
        w = float(point.x[idx])
        if w > tol:
            flow_net.add(i, j, w)
    handled: set[int] = set()
    for t in sorted(range(1, n), key=lambda v: (-point.y[v], v)):
        if point.y[t] <= tol or t not in depot_comp or t in handled:
            continue
        flow, reach = flow_net.min_cut(0, t)
        if flow < 2.0 * point.y[t] - tol:
            S = frozenset(v for v in range(1, n) if v not in reach)
            handled |= S  # nodes cut off together share this separator
            consider(S)
    return cuts


def gsec_row(cut: GsecCut, root: RootRelaxation) -> tuple[np.ndarray, str, float]:
    row = np.zeros(root.lp.n_vars)
    for i in cut.S:
        for j in range(root.instance.n_nodes):
            if j not in cut.S and j != i:
                row[root.edge_idx[(min(i, j), max(i, j))]] = 1.0
    row[root.col_y(cut.anchor)] = -2.0
    return row, GE, 0.0


def optimality_cut(
    sol: AprioriSolution, instance: Instance, U: float, root: RootRelaxation
) -> tuple[np.ndarray, str, float]:
    """Recourse cut exact at this solution's incidence vector.

    theta <= U + (Q - U) (sum_{support} x_e - s + 1) with s the total edge
    weight of the solution; at the generating point the right side is Q,
    at every other candidate it is at least U.
    """
    q_val = expected_recourse(sol, instance, check=False)
    counts = sol.edge_counts()
    s_total = float(sum(counts.values()))
    row = np.zeros(root.lp.n_vars)
    row[root.col_theta] = 1.0
    for e in counts:
        row[root.edge_idx[e]] = U - q_val
    rhs = U + (q_val - U) * (1.0 - s_total)
    return row, LE, rhs


def _optcut_from_point(
    point_x: np.ndarray, q_val: float, U: float, root: RootRelaxation
) -> tuple[np.ndarray, str, float]:
    """Same cut built from a raw integral x vector (junk edges included)."""
    row = np.zeros(root.lp.n_vars)
    row[root.col_theta] = 1.0
    s_total = 0.0
    for idx in range(root.n_edges):
        cnt = round(float(point_x[idx]))
        if cnt >= 1:
            row[idx] = U - q_val
            s_total += cnt
    rhs = U + (q_val - U) * (1.0 - s_total)
    return row, LE, rhs


# ---------------------------------------------------------------------------
# decoding integral points
# ---------------------------------------------------------------------------


def decode_tours(
    x: np.ndarray, instance: Instance
) -> tuple[AprioriSolution | None, int]:
    """Integral x -> K depot tours; returns (None, 0) on a structural defect.

    Edges not lying on any depot walk (zero-cost leftovers the LP may keep)
    are counted and otherwise ignored; the decoded solution still prices
    them through the optimality-cut path. When K exceeds the cluster count
    the extra vehicles appear as empty tours.
    """
    n = instance.n_nodes
    k = min(instance.vehicles, instance.n_clusters)
    remaining: dict[tuple[int, int], int] = {}
    degree = np.zeros(n, dtype=int)
    for idx, e in enumerate(edges(n)):
        cnt = round(float(x[idx]))
        if cnt:
            remaining[e] = cnt
            degree[e[0]] += cnt
            degree[e[1]] += cnt
    if degree[0] != 2 * k:
        return None, 0
    if np.any(degree[1:] > 2):
        return None, 0

    def take(a, b):
        e = (min(a, b), max(a, b))
        remaining[e] -= 1
        if remaining[e] == 0:
            del remaining[e]

    tours = []
    for _ in range(instance.vehicles):
        start = next(
            (j for j in range(1, n) if remaining.get((0, j), 0)), None
        )
        if start is None:
            tours.append((0, 0))
            continue
        walk = [0, start]
        take(0, start)
        v = start
        while v != 0:
            nxt = None
            for w in range(n):
                if w != v and remaining.get((min(v, w), max(v, w)), 0):
                    nxt = w
                    break
            if nxt is None:
                return None, 0  # dangling path: not decodable
            take(v, nxt)
            walk.append(nxt)
            v = nxt
        tours.append(tuple(walk))
    junk = sum(remaining.values())
    interiors = [v for t in tours for v in t[1:-1]]
    if len(set(interiors)) != len(interiors):
        return None, 0
    return AprioriSolution(tuple(tours)), junk


# ---------------------------------------------------------------------------
# branch and cut
# ---------------------------------------------------------------------------


def _node_lp(root: RootRelaxation, cut_rows, node: BranchNode) -> LinearProgram:
    base = root.lp
    rows = [base.A]
    senses = list(base.senses)
    rhs = list(base.b)
    upper = base.upper.copy()
    for row, s, r in cut_rows:
        rows.append(row.reshape(1, -1))
        senses.append(s)
        rhs.append(r)
    for kind, col, value in node.fixings:
        if kind == "ub":
            upper[col] = min(upper[col], value)
        else:
            row = np.zeros(base.n_vars)
            row[col] = 1.0
            rows.append(row.reshape(1, -1))
            senses.append(GE)
            rhs.append(value)
    upper[root.col_theta] = min(upper[root.col_theta], max(node.u_local, 0.0))
    return LinearProgram(
        c=base.c.copy(),
        A=np.vstack(rows),
        senses=senses,
        b=np.array(rhs),
        upper=upper,
    )


def _u_for_exclusions(root: RootRelaxation, excluded: frozenset[int]) -> float:
    # an excluded node is never visited, so it contributes no saving
    detour = root.detour.copy()
    detour[list(excluded)] = 0.0
    return min(bounds_mod.ub_clustered(root.instance, detour), root.U)


def _branch_variable(point: FractionalPoint, root: RootRelaxation) -> tuple[int, float] | None:
    """Most fractional y first, then x; ties to the smallest index."""
    best = None
    n = root.instance.n_nodes
    for t in range(1, n):
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


def solve_exact(
    instance: Instance,
    time_limit: float | None = None,
    options: SimplexOptions | None = None,
    node_limit: int | None = None,
) -> ExactResult:
    """Depth-first branch-and-cut to a certified optimum.

    Returns the incumbent and the best open bound when the time limit (or
    node limit) halts the search early. Node LPs warm-start from the
    parent's final basis; cuts are globally valid and pooled.
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
    cut_rows: list[tuple[np.ndarray, str, float]] = []
    pooled_gsec: set[tuple[frozenset[int], int]] = set()
    log: list[str] = []
    stats = {"nodes": 0, "lp_solves": 0, "gsec_cuts": 0, "opt_cuts": 0}
    root_m = root.lp.n_rows
    nv = root.lp.n_vars

    # the incumbent's recourse cut is valid everywhere and tightens theta
    cut_rows.append(optimality_cut(incumbent, instance, root.U, root))

    stack = [
        BranchNode(
            # expected lengths are non-negative, so 0 bounds the root
            # before its LP is solved
            fixings=(), depth=0, bound=0.0, excluded=frozenset(), u_local=root.U
        )
    ]
    timed_out = False

    def out_of_budget() -> bool:
        nonlocal timed_out
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            timed_out = True
            return True
        if node_limit is not None and stats["nodes"] >= node_limit:
            timed_out = True
            return True
        return False

    def warm_start_plan(
        node: BranchNode, pool_now: int, child_rows: int
    ) -> tuple[tuple[int, ...], list[int]] | None:
        """Parent basis labels mapped onto this node's rows, plus the rows
        the parent never saw (pool growth and a possible new bound row).

        Parent rows were [root][pool:p][lb-rows:f][in-node cuts]; the child
        sees [root][pool:now][lb-rows], with the parent's in-node cuts
        occupying pool positions p..p+T. Artificial labels (parents keep
        some basic at zero on equality rows) move with their row.
        """
        if node.basis is None:
            return None
        p, f = node.pool_at_parent, node.parent_fixes
        t_cuts = node.parent_rows - root_m - p - f
        if t_cuts < 0:
            return None

        def move_row(r: int) -> int:
            if r < root_m + p:
                return r
            if r < root_m + p + f:
                return root_m + pool_now + (r - root_m - p)
            return root_m + p + (r - root_m - p - f)

        labels = []
        for lbl in node.basis:
            if lbl < nv:
                labels.append(lbl)
            elif lbl < nv + node.parent_rows:
                labels.append(nv + move_row(lbl - nv))
            else:
                labels.append(nv + child_rows + move_row(lbl - nv - node.parent_rows))
        new_rows = [root_m + j for j in range(p + t_cuts, pool_now)]
        child_lbs = sum(1 for k, _, _ in node.fixings if k == "lb")
        new_rows += [
            root_m + pool_now + j for j in range(f, child_lbs)
        ]
        return tuple(labels), new_rows

    while stack:
        if out_of_budget():
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

        pool_at_entry = len(cut_rows)
        n_fix = sum(1 for k, _, _ in node.fixings if k == "lb")
        lp = _node_lp(root, cut_rows, node)
        plan = warm_start_plan(node, pool_at_entry, lp.n_rows)
        if plan is not None:
            sol = warm_solve(lp, plan[0], node.x_prev, plan[1], options)
        else:
            sol = solve(lp, options)
        stats["lp_solves"] += 1

        def push_children(col, lo_val, hi_val, obj, sol):
            excl = node.excluded
            if col >= root.n_edges and col < root.col_theta and lo_val == 0.0:
                excl = node.excluded | frozenset([col - root.n_edges])
            lo_child = BranchNode(
                fixings=node.fixings + (("ub", col, lo_val),),
                depth=node.depth + 1,
                bound=obj,
                excluded=excl,
                u_local=node.u_local
                if excl == node.excluded
                else min(node.u_local, _u_for_exclusions(root, excl)),
                basis=sol.basis,
                x_prev=sol.x,
                pool_at_parent=pool_at_entry,
                parent_fixes=n_fix,
                parent_rows=lp.n_rows,
            )
            hi_child = BranchNode(
                fixings=node.fixings + (("lb", col, hi_val),),
                depth=node.depth + 1,
                bound=obj,
                excluded=node.excluded,
                u_local=node.u_local,
                basis=sol.basis,
                x_prev=sol.x,
                pool_at_parent=pool_at_entry,
                parent_fixes=n_fix,
                parent_rows=lp.n_rows,
            )
            stack.append(lo_child)
            stack.append(hi_child)

        while True:
            if sol.status == "infeasible":
                note("prune", math.inf)
                break
            obj = float(sol.objective)
            if out_of_budget():
                # hand the half-processed region back with the bound its
                # last LP proved, so it still counts toward the reported
                # global lower bound
                node.bound = max(node.bound, obj)
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
            is_fractional = _branch_variable(point, root) is not None
            fresh = [
                g
                for g in separate_gsec(point, instance, include_min_cut=is_fractional)
                if (g.S, g.anchor) not in pooled_gsec
            ]
            if fresh:
                for g in fresh:
                    pooled_gsec.add((g.S, g.anchor))
                    row = gsec_row(g, root)
                    cut_rows.append(row)
                    lp_new = lp.with_row(*row)
                    sol = resolve_with_added_row(lp, sol, *row, options=options)
                    lp = lp_new
                    stats["lp_solves"] += 1
                    stats["gsec_cuts"] += 1
                note("gsec", obj)
                continue

            choice = _branch_variable(point, root)
            if choice is not None:
                col, value = choice
                push_children(
                    col, float(math.floor(value)), float(math.ceil(value)), obj, sol
                )
                note("branch", obj)
                break

            decoded, junk = decode_tours(point.x, instance)
            if decoded is None:
                unfixed = next(
                    (
                        idx
                        for idx in range(root.n_edges)
                        if round(float(point.x[idx])) >= 1
                        and not any(c == idx for _, c, _ in node.fixings)
                    ),
                    None,
                )
                if unfixed is None:
                    note("prune", obj)  # fully fixed defective point
                    break
                v = round(float(point.x[unfixed]))
                push_children(unfixed, float(v - 1), float(v), obj, sol)
                note("branch", obj)
                break

            z_q = expected_length(decoded, instance, check=False)
            q_val = expected_recourse(decoded, instance, check=False)
            if z_q < z_best - PRUNE_TOL:
                z_best = z_q
                incumbent = decoded
                note("incumbent", z_q)
            if point.theta <= q_val + PRUNE_TOL:
                note("prune", obj)
                break
            if junk:
                row = _optcut_from_point(point.x, q_val, root.U, root)
            else:
                row = optimality_cut(decoded, instance, root.U, root)
            cut_rows.append(row)
            lp_new = lp.with_row(*row)
            sol = resolve_with_added_row(lp, sol, *row, options=options)
            lp = lp_new
            stats["lp_solves"] += 1
            stats["opt_cuts"] += 1
            note("optcut", obj)

    open_bounds = [n.bound for n in stack]
    lower = min(open_bounds) if open_bounds else z_best
    lower = min(lower, z_best)
    stats["seconds"] = time.perf_counter() - t0
    status = "bound-only" if timed_out and stack else "optimal"
    return ExactResult(
        status=status,
        solution=incumbent,
        objective=z_best,
        lower_bound=float(lower),
        stats=stats,
        log=log,
    )
