"""Bounds on the optimal expected length and on the recourse variable.

Three upper bounds on the expected length saving (the recourse) are used by
the exact solver to cap its recourse variable:

* a per-node sum of worst-case detour savings (`ub_simple`),
* the tighter per-cluster version (`ub_clustered`), and
* a per-edge functional bound derived from a matrix B of lower bounds on
  the expected second-stage distance attributable to each edge
  (`b_matrix` / `theta_cap`).

Both caps read one vector of per-node detour savings (`detour_savings`),
which the exact solver's root relaxation shares. That vector and B are
vectorised numpy passes: the detour of a node is one O(n^2) array
operation over its entry/exit pairs, and B takes each node's nearest
member of every other cluster from an (n, m+1) table of per-cluster minima.

A lower bound on the optimal expected length scales the deterministic
optimum by the smallest cluster probability (`lower_bound_scaled`).
"""

from __future__ import annotations

import numpy as np

from .model import FractionalPoint, Instance, edge_endpoints


def lower_bound_scaled(instance: Instance, gvrp_opt_length: float) -> float:
    """min_k p_k times the deterministic optimum bounds the expected optimum."""
    p_min = min(c.probability for c in instance.clusters)
    return p_min * gvrp_opt_length


def detour_savings(instance: Instance) -> np.ndarray:
    """Per node t, the largest saving (1-p_t)(d_it + d_tj - d_ij) its absence
    can yield; the depot's entry is 0.

    Entry and exit i != j lie outside t's cluster or at the depot; the depot
    may also serve as both (an out-and-back visit of t, saving 2 d_0t), so
    the saving is never negative, even on near-metric data.
    """
    d = instance.distances
    p = instance.node_probabilities()
    cluster = instance._cluster_index
    out = np.zeros(instance.n_nodes)
    for t in range(1, instance.n_nodes):
        if p[t] == 1.0:
            continue
        ends = np.flatnonzero(cluster != cluster[t])  # the depot is always in
        via = d[ends, t][:, None] + d[t, ends] - d[np.ix_(ends, ends)]
        np.fill_diagonal(via, -np.inf)
        out[t] = (1.0 - p[t]) * max(2.0 * d[0, t], via.max())
    return out


def ub_simple(instance: Instance, detour: np.ndarray | None = None) -> float:
    """Sum over nodes of the largest detour saving their absence can yield."""
    if detour is None:
        detour = detour_savings(instance)
    return float(sum(detour[1:].tolist()))


def ub_clustered(instance: Instance, detour: np.ndarray | None = None) -> float:
    """Per-cluster maximum instead of per-node sum; never looser than ub_simple."""
    if detour is None:
        detour = detour_savings(instance)
    return float(sum(detour[list(c.members)].max() for c in instance.clusters))


def b_matrix(instance: Instance) -> np.ndarray:
    """Per-edge lower bounds on the expected realized distance at that edge.

    For customer pairs in different clusters, absence of one endpoint forces
    a hop to some node outside both clusters; half of the shortest such hop
    is attributed to each incident edge. Depot edges reduce to p_j * d_0j,
    and intra-cluster pairs (which co-absent) keep the plain product term.
    """
    n = instance.n_nodes
    d = instance.distances
    p = instance.node_probabilities()
    b = p[:, None] * p[None, :] * d
    if instance.n_clusters < 2:
        return b  # every customer pair shares its cluster
    # nearest[v, k]: distance from v to the closest node of column k, where
    # column 0 is the depot and column k the k-th cluster; v's own column
    # is never outside, so it is masked
    col = instance._cluster_index + 1
    nearest = np.empty((n, instance.n_clusters + 1))
    nearest[:, 0] = d[:, 0]
    for k, c in enumerate(instance.clusters, start=1):
        nearest[:, k] = d[:, list(c.members)].min(axis=1)
    nearest[np.arange(n), col] = np.inf
    order = np.argsort(nearest, axis=1)[:, :2]
    first_col = order[:, 0]
    first, second = np.take_along_axis(nearest, order, axis=1).T

    def outside_min(a, other):
        # closest hop from a to a node outside the clusters of a and other
        return np.where(first_col[a] == col[other], second[a], first[a])

    i, j = np.nonzero(np.triu(col[:, None] != col[None, :], 1))
    keep = i > 0
    i, j = i[keep], j[keep]
    b[i, j] = (
        b[i, j]
        + 0.5 * p[i] * (1 - p[j]) * outside_min(i, j)
        + 0.5 * (1 - p[i]) * p[j] * outside_min(j, i)
    )
    b[j, i] = b[i, j]
    return b


def theta_cap(instance: Instance, point: FractionalPoint, b: np.ndarray | None = None) -> float:
    """Functional recourse cap sum_{i<j} (d_ij - b_ij) x_ij at a point."""
    if b is None:
        b = b_matrix(instance)
    I, J = edge_endpoints(instance.n_nodes)
    return float((instance.distances[I, J] - b[I, J]) @ point.x)
