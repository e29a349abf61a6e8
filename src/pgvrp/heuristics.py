"""Construction heuristics.

The stochastic heuristics rank candidate insertions by *expected* insertion
value: the exact increase in expected tour length caused by splicing a node
into a slot, accounting for every presence scenario of the surrounding
nodes. `insertion_values` computes it for every slot of a tour and every
candidate node at once, from the predecessor and successor weights of each
slot and three matrix products; each builder makes one such call per
partial tour per step. Three builders use it:

* min-min: globally cheapest insertion, vehicle by vehicle under a
  clusters-per-tour capacity;
* max-min: per cluster take its cheapest insertion, then insert the cluster
  whose cheapest insertion is the most expensive (hard clusters first);
* unbounded: seed every vehicle with one cluster, then cheapest insertion
  across all partial tours with no capacity.

Two deterministic baselines round the module out: Clarke-Wright savings
merges and the polar-angle sweep.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .model import AprioriSolution, Instance, ValidationError
from .evaluation import tour_probabilities


def _predecessor_weights(p: np.ndarray) -> np.ndarray:
    """W[s-1, r]: probability that position r is the realized predecessor of
    slot s, i.e. p_r times the absence of every position strictly between;
    zero for r >= s."""
    h = len(p)
    later = np.arange(h)[None, :] > np.arange(h)[:, None]
    # between[r, q] = prod_{r < u <= q} (1 - p_u)
    between = np.cumprod(np.where(later, 1.0 - p, 1.0), axis=1)
    return np.tril((p[:, None] * between).T)[: h - 1]


def insertion_values(
    tour: Sequence[int], nodes: Sequence[int], instance: Instance
) -> np.ndarray:
    """Expected-length increase of inserting each node at each slot of a tour.

    Entry [s-1, k] is the value of inserting `nodes[k]` at slot s (between
    positions s-1 and s). The node pairs with every possible realized
    predecessor r < s and successor z >= s, weighted by W[s-1, r] and
    V[s-1, z], the probabilities that r and z are present and everything
    between them absent; the closing depot acts as a final successor with
    probability one. One matrix product per term covers every slot and node.
    """
    tour = np.asarray(tour, dtype=np.intp)
    nodes = np.asarray(nodes, dtype=np.intp)
    p = tour_probabilities(tour, instance)
    w = _predecessor_weights(p)
    v = _predecessor_weights(p[::-1])[::-1, ::-1]  # successors: the mirror image
    d = instance.distances
    d_tn = d[np.ix_(tour, nodes)]
    to_node = w @ d_tn
    from_node = v @ d_tn
    across = ((w @ d[np.ix_(tour, tour)]) * v).sum(axis=1)
    p_nodes = instance.node_probabilities()[nodes]
    return p_nodes * (
        to_node * v.sum(axis=1)[:, None]
        + w.sum(axis=1)[:, None] * from_node
        - across[:, None]
    )


def expected_insertion_value(
    tour: Sequence[int], slot: int, node: int, instance: Instance
) -> float:
    """Exact expected-length increase of inserting `node` at `slot`.

    `slot` is the index the node takes in the new tour, i.e. the insertion
    happens between positions slot-1 and slot of the current tour; see
    `insertion_values` for the formula.
    """
    tour = tuple(tour)
    if not (1 <= slot <= len(tour) - 1):
        raise ValidationError(f"slot {slot} invalid for tour of length {len(tour)}")
    if node in tour[1:-1]:
        raise ValidationError(f"node {node} already on the tour")
    return float(insertion_values(tour, [node], instance)[slot - 1, 0])


def _cheapest(values: np.ndarray, nodes: np.ndarray) -> tuple[float, int, int]:
    """(value, node, slot) of the smallest entry of a slots-by-nodes block.

    With `nodes` ascending, ties go to the smaller node, then the earlier
    slot: the order of the key (value, node, tour index, slot) that every
    builder ranks insertions by.
    """
    k = int(values.T.argmin())
    at, slot = divmod(k, values.shape[0])
    return float(values[slot, at]), int(nodes[at]), slot + 1


def _insert(tour: tuple[int, ...], node: int, slot: int) -> tuple[int, ...]:
    return tour[:slot] + (node,) + tour[slot:]


def _cluster_capacity(instance: Instance, capacity: int | None) -> int:
    m, k = instance.n_clusters, instance.vehicles
    if capacity is None:
        capacity = math.ceil(m / k)
    if capacity < 1:
        raise ValidationError(f"capacity {capacity} < 1")
    if capacity * k < m:
        raise ValidationError(
            f"{k} vehicles with {capacity} clusters each cannot cover {m} clusters"
        )
    return capacity


def _pad_to_k(tours: list[tuple[int, ...]], k: int) -> AprioriSolution:
    return AprioriSolution(tuple(tours + [(0, 0)] * (k - len(tours))))


def _build_capacitated(instance: Instance, capacity: int | None, pick) -> AprioriSolution:
    """Vehicle-by-vehicle construction shared by the capacitated builders.

    `pick` selects one of the per-cluster cheapest insertions, given as
    (value, node, slot) tuples, into the current partial tour.
    """
    capacity = _cluster_capacity(instance, capacity)
    unvisited = set(range(instance.n_clusters))
    tours: list[tuple[int, ...]] = []
    tour: tuple[int, ...] = (0, 0)
    while unvisited:
        groups = [np.array(instance.clusters[ci].members) for ci in sorted(unvisited)]
        values = insertion_values(tour, np.concatenate(groups), instance)
        best, at = [], 0
        for members in groups:
            best.append(_cheapest(values[:, at : at + len(members)], members))
            at += len(members)
        _, node, slot = pick(best)
        tour = _insert(tour, node, slot)
        unvisited.discard(instance.cluster_of(node))
        if len(tour) - 2 >= capacity and unvisited:
            tours.append(tour)
            tour = (0, 0)
    tours.append(tour)
    return _pad_to_k(tours, instance.vehicles)


def solve_mmI(instance: Instance, capacity: int | None = None) -> AprioriSolution:
    """Min-min insertion: always take the globally cheapest insertion."""
    return _build_capacitated(instance, capacity, min)


def solve_MmI(instance: Instance, capacity: int | None = None) -> AprioriSolution:
    """Max-min insertion: place the cluster whose best insertion is worst."""

    def pick(best):
        return min(best, key=lambda c: (-c[0], c[1], c[2]))

    return _build_capacitated(instance, capacity, pick)


def solve_unbounded(instance: Instance) -> AprioriSolution:
    """Seed each vehicle with one cluster, then insert without capacity."""
    unvisited = set(range(instance.n_clusters))

    def candidates() -> np.ndarray:
        return np.flatnonzero(np.isin(instance._cluster_index, sorted(unvisited)))

    tours: list[tuple[int, ...]] = []
    for _ in range(instance.vehicles):
        if not unvisited:
            break
        nodes = candidates()
        _, node, slot = _cheapest(insertion_values((0, 0), nodes, instance), nodes)
        tours.append(_insert((0, 0), node, slot))
        unvisited.discard(instance.cluster_of(node))
    while unvisited:
        nodes = candidates()
        best = []
        for ti, t in enumerate(tours):
            value, node, slot = _cheapest(insertion_values(t, nodes, instance), nodes)
            best.append((value, node, ti, slot))
        _, node, ti, slot = min(best)
        tours[ti] = _insert(tours[ti], node, slot)
        unvisited.discard(instance.cluster_of(node))
    return _pad_to_k(tours, instance.vehicles)


# ---------------------------------------------------------------------------
# deterministic baselines
# ---------------------------------------------------------------------------


def clarke_wright(
    instance: Instance,
    capacity: float = math.inf,
    demands: Sequence[float] | None = None,
) -> list[tuple[int, ...]]:
    """Savings merges over out-and-back routes; probabilities ignored.

    Deterministic: savings sorted descending with (i, j) lexicographic
    ties, merges only while positive and capacity-feasible.
    """
    n = instance.n_nodes
    d = instance.distances
    if demands is None:
        demands = [0.0] + [1.0] * (n - 1)
    route_of = {i: i for i in range(1, n)}
    routes: dict[int, list[int]] = {i: [i] for i in range(1, n)}
    loads = {i: float(demands[i]) for i in range(1, n)}

    savings = sorted(
        ((d[0, i] + d[0, j] - d[i, j], i, j) for i in range(1, n) for j in range(i + 1, n)),
        key=lambda s: (-s[0], s[1], s[2]),
    )
    for s, i, j in savings:
        if s <= 0:
            break
        ri, rj = route_of[i], route_of[j]
        if ri == rj:
            continue  # would close a subtour
        a, b = routes[ri], routes[rj]
        if i not in (a[0], a[-1]) or j not in (b[0], b[-1]):
            continue  # only route endpoints can be joined
        if loads[ri] + loads[rj] > capacity:
            continue
        if a[-1] != i:
            a.reverse()
        if b[0] != j:
            b.reverse()
        merged = a + b
        routes[ri] = merged
        loads[ri] += loads[rj]
        del routes[rj], loads[rj]
        for v in merged:
            route_of[v] = ri

    tours = sorted(routes.values(), key=lambda r: r[0])
    return [(0, *r, 0) for r in tours]


def _tsp_exact(nodes: list[int], d: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Optimal depot-rooted tour over a small node group."""
    if not nodes:
        return (0, 0), 0.0
    if len(nodes) > 12:
        raise ValidationError(f"group of {len(nodes)} too large for exact routing")
    best_perm, best_len = None, math.inf
    for perm in itertools.permutations(nodes):
        if perm > perm[::-1]:
            continue
        walk = (0, *perm, 0)
        length = sum(d[a, b] for a, b in zip(walk[:-1], walk[1:]))
        if length < best_len:
            best_perm, best_len = walk, length
    return best_perm, best_len


def sweep(
    instance: Instance,
    capacity: float = math.inf,
    demands: Sequence[float] | None = None,
) -> list[tuple[int, ...]]:
    """Polar-angle sweep: group customers by angle under capacity, route
    each group exactly, try every rotational offset forward and backward."""
    if instance.coordinates is None:
        raise ValidationError("sweep requires node coordinates")
    n = instance.n_nodes
    if n == 1:
        return []
    if demands is None:
        demands = [0.0] + [1.0] * (n - 1)
    xy = instance.coordinates
    angles = {
        v: math.atan2(xy[v, 1] - xy[0, 1], xy[v, 0] - xy[0, 0]) for v in range(1, n)
    }
    ordered = sorted(range(1, n), key=lambda v: (angles[v], v))
    d = instance.distances

    best_tours, best_len = None, math.inf
    for direction in (1, -1):
        seq = ordered if direction == 1 else ordered[::-1]
        for offset in range(len(seq)):
            rotation = seq[offset:] + seq[:offset]
            groups: list[list[int]] = [[]]
            load = 0.0
            for v in rotation:
                dv = float(demands[v])
                if groups[-1] and load + dv > capacity:
                    groups.append([])
                    load = 0.0
                groups[-1].append(v)
                load += dv
            tours, total = [], 0.0
            for g in groups:
                walk, length = _tsp_exact(g, d)
                tours.append(walk)
                total += length
            if total < best_len - 1e-12:
                best_tours, best_len = tours, total
    return best_tours
