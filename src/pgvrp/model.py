"""Domain types for clustered stochastic routing instances and solutions.

An instance is a complete weighted graph whose node 0 is the depot. The
remaining nodes are partitioned into clusters; each cluster is present in a
given realization with a known probability, independently of the others. A
solution fixes K depot-rooted tours before the uncertainty resolves; absent
nodes are skipped at execution time.

This module holds the data containers, their validation, the instance and
solution file formats, and scenario enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

MAX_ENUMERABLE_CLUSTERS = 25


class FormatError(ValueError):
    """Raised when an instance or solution file cannot be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ValueError):
    """Raised when data violates a structural invariant."""


@dataclass(frozen=True)
class Cluster:
    """A node group; visiting any one member serves the whole group."""

    id: int
    probability: float
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        if not self.members:
            raise ValidationError(f"cluster {self.id} is empty")
        if not (0.0 < self.probability <= 1.0):
            raise ValidationError(
                f"cluster {self.id}: probability {self.probability} outside (0, 1]"
            )
        if any(m <= 0 for m in self.members):
            raise ValidationError(f"cluster {self.id}: depot or invalid node id in members")


@dataclass(frozen=True, eq=False)
class Instance:
    """Complete symmetric routing instance with probabilistic clusters.

    Immutable after construction (arrays are frozen), so instances can be
    shared freely across threads.
    """

    n_nodes: int
    distances: np.ndarray
    clusters: tuple[Cluster, ...]
    vehicles: int
    metric_kind: str = "explicit"  # "euclid" | "explicit"
    coordinates: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        d = np.array(self.distances, dtype=float)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "clusters", tuple(self.clusters))
        if self.coordinates is not None:
            object.__setattr__(self, "coordinates", np.array(self.coordinates, dtype=float))
        self._validate()
        d.setflags(write=False)
        if self.coordinates is not None:
            self.coordinates.setflags(write=False)

    def _validate(self):
        n, d = self.n_nodes, self.distances
        if n < 1:
            raise ValidationError("instance needs at least the depot node")
        if d.shape != (n, n):
            raise ValidationError(f"distance matrix shape {d.shape} != ({n}, {n})")
        if not np.all(np.isfinite(d)):
            raise ValidationError("non-finite distance")
        if np.any(d < 0):
            i, j = np.argwhere(d < 0)[0]
            raise ValidationError(f"negative distance d[{i},{j}]")
        if np.any(np.diag(d) != 0):
            raise ValidationError("nonzero diagonal distance")
        if not np.array_equal(d, d.T):
            raise ValidationError("asymmetric distance matrix")
        if self.vehicles < 1:
            raise ValidationError(f"vehicle count {self.vehicles} < 1")
        if self.metric_kind not in ("euclid", "explicit"):
            raise ValidationError(f"unknown metric kind {self.metric_kind!r}")
        if self.metric_kind == "euclid":
            if self.coordinates is None or self.coordinates.shape != (n, 2):
                raise ValidationError("euclid metric requires (n, 2) coordinates")
            xy = self.coordinates
            diff = xy[:, None, :] - xy[None, :, :]
            expect = np.sqrt((diff**2).sum(axis=2))
            if not np.array_equal(expect, d):
                raise ValidationError("distances do not match coordinates")
        seen: dict[int, int] = {}
        for c in self.clusters:
            for m in c.members:
                if m >= n:
                    raise ValidationError(f"cluster {c.id}: node {m} out of range")
                if m in seen:
                    raise ValidationError(f"node {m} in two clusters ({seen[m]} and {c.id})")
                seen[m] = c.id
        missing = set(range(1, n)) - set(seen)
        if missing:
            raise ValidationError(f"nodes not covered by any cluster: {sorted(missing)}")
        ids = [c.id for c in self.clusters]
        if ids != list(range(1, len(self.clusters) + 1)):
            raise ValidationError("cluster ids must be 1..m in order")

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, node: int) -> int | None:
        """0-based cluster index of a node; None for the depot."""
        return None if node == 0 else self._cluster_index[node]

    @property
    def _cluster_index(self) -> np.ndarray:
        idx = getattr(self, "_cluster_index_cache", None)
        if idx is None:
            idx = np.full(self.n_nodes, -1, dtype=int)
            for k, c in enumerate(self.clusters):
                for m in c.members:
                    idx[m] = k
            idx.setflags(write=False)
            object.__setattr__(self, "_cluster_index_cache", idx)
        return idx

    def node_probabilities(self) -> np.ndarray:
        """Presence probability per node; the depot is always present."""
        p = getattr(self, "_node_probabilities_cache", None)
        if p is None:
            per_column = np.array([1.0] + [c.probability for c in self.clusters])
            p = per_column[self._cluster_index + 1]
            p.setflags(write=False)
            object.__setattr__(self, "_node_probabilities_cache", p)
        return p

    def with_probability_one(self) -> "Instance":
        """Deterministic copy: every cluster present with probability 1."""
        return Instance(
            n_nodes=self.n_nodes,
            distances=self.distances,
            clusters=tuple(
                Cluster(c.id, 1.0, c.members) for c in self.clusters
            ),
            vehicles=self.vehicles,
            metric_kind=self.metric_kind,
            coordinates=self.coordinates,
            name=self.name,
        )


@dataclass(frozen=True)
class AprioriSolution:
    """K fixed tours, each a node sequence starting and ending at the depot.

    A depot-only tour is stored as (0, 0) and has length zero; it keeps the
    tour count at exactly K when fewer vehicles are useful.
    """

    tours: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "tours", tuple(tuple(t) for t in self.tours))

    def visited_nodes(self) -> set[int]:
        return {v for t in self.tours for v in t[1:-1]}

    def edge_counts(self) -> dict[tuple[int, int], int]:
        """Undirected edge multiset of all tours; keys (i, j) with i < j."""
        counts: dict[tuple[int, int], int] = {}
        for t in self.tours:
            if len(t) <= 2:
                continue  # empty tour contributes no edges
            for a, b in zip(t[:-1], t[1:]):
                e = (a, b) if a < b else (b, a)
                counts[e] = counts.get(e, 0) + 1
        return counts

    def canonical(self) -> "AprioriSolution":
        """Orientation- and order-normalized copy (for deterministic ties)."""
        tours = []
        for t in self.tours:
            rev = tuple(reversed(t))
            tours.append(min(t, rev))
        tours.sort()
        return AprioriSolution(tuple(tours))


@dataclass(frozen=True)
class Scenario:
    """One realization of cluster presence."""

    present: tuple[bool, ...]
    probability: float

    @classmethod
    def from_present(cls, instance: Instance, present: Sequence[bool]) -> "Scenario":
        present = tuple(bool(v) for v in present)
        if len(present) != instance.n_clusters:
            raise ValidationError("presence vector length != number of clusters")
        prob = 1.0
        for c, on in zip(instance.clusters, present):
            prob *= c.probability if on else 1.0 - c.probability
        return cls(present, prob)

    def node_present(self, instance: Instance, node: int) -> bool:
        if node == 0:
            return True
        return self.present[instance.cluster_of(node)]


def enumerate_scenarios(instance: Instance) -> Iterator[Scenario]:
    """All 2^m cluster-presence realizations.

    Refuses to run beyond MAX_ENUMERABLE_CLUSTERS clusters rather than
    silently sampling.
    """
    m = instance.n_clusters
    if m > MAX_ENUMERABLE_CLUSTERS:
        raise ValidationError(
            f"{m} clusters exceed the enumeration limit of {MAX_ENUMERABLE_CLUSTERS}"
        )
    for bits in itertools.product((True, False), repeat=m):
        yield Scenario.from_present(instance, bits)


@dataclass(frozen=True, eq=False)
class FractionalPoint:
    """A (possibly fractional) point in the edge/node relaxation space.

    x follows lexicographic edge order (see `edge_endpoints`); depot edges may take
    values up to 2 to encode out-and-back tours.
    """

    x: np.ndarray
    y: np.ndarray
    theta: float = 0.0


@functools.lru_cache(maxsize=8)
def edge_endpoints(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (i, j), i < j, of the undirected edges over n nodes
    in lexicographic order; cached and read-only."""
    ends = np.triu_indices(n_nodes, k=1)
    for a in ends:
        a.flags.writeable = False
    return ends


def edge_position(n_nodes: int, i, j):
    """Position of edge (i, j), i < j, in `edge_endpoints` order; takes
    integer arrays too."""
    return i * (2 * n_nodes - i - 1) // 2 + j - i - 1


def incidence_point(instance: Instance, sol: AprioriSolution) -> FractionalPoint:
    """Edge/node incidence vector of a solution.

    Out-and-back tours put a 2 on their depot edge; y_0 equals the vehicle
    count.
    """
    n = instance.n_nodes
    x = np.zeros(n * (n - 1) // 2)
    for (i, j), cnt in sol.edge_counts().items():
        x[edge_position(n, i, j)] = cnt
    y = np.zeros(instance.n_nodes)
    y[0] = len(sol.tours)
    for v in sol.visited_nodes():
        y[v] = 1.0
    return FractionalPoint(x=x, y=y)


@dataclass
class FeasibilityReport:
    """Outcome of structural checks on a solution."""

    ok: bool
    violations: list[str] = field(default_factory=list)


def check_feasible(instance: Instance, sol: AprioriSolution) -> FeasibilityReport:
    """Check cluster cover, tour structure, and visit uniqueness.

    Violations are reported by name; unknown node ids raise instead.
    """
    violations: list[str] = []
    n = instance.n_nodes
    for t in sol.tours:
        for v in t:
            if not (0 <= v < n):
                raise ValidationError(f"unknown node id {v}")

    if len(sol.tours) != instance.vehicles:
        violations.append(
            f"tour-count: {len(sol.tours)} tours for {instance.vehicles} vehicles"
        )
    for ti, t in enumerate(sol.tours):
        if len(t) < 2 or t[0] != 0 or t[-1] != 0:
            violations.append(f"depot-degree: tour {ti} does not start and end at 0")
        if 0 in t[1:-1]:
            violations.append(f"degree: tour {ti} passes through the depot")

    seen: set[int] = set()
    for t in sol.tours:
        for v in t[1:-1]:
            if v in seen:
                violations.append(f"duplicate visit: node {v}")
            seen.add(v)

    for k, c in enumerate(instance.clusters, start=1):
        if not seen.intersection(c.members):
            violations.append(f"cluster-cover: cluster {k} uncovered")

    return FeasibilityReport(ok=not violations, violations=violations)


def triangle_check(instance: Instance) -> float:
    """Worst triangle violation: max over (i, k, j) of d_ij - d_ik - d_kj.

    Nonpositive means the matrix is metric. Returns 0 when no triple exists.
    """
    n = instance.n_nodes
    if n < 3:
        return 0.0
    d = instance.distances
    worst = -math.inf
    for k in range(n):
        # d_ij - (d_ik + d_kj) maximized over all i, j at once
        via = d[:, k][:, None] + d[k, :][None, :]
        worst = max(worst, float((d - via).max()))
    return worst


# ---------------------------------------------------------------------------
# instance / solution file formats
# ---------------------------------------------------------------------------


def _tokens(text: str) -> Iterator[tuple[int, list[str]]]:
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def load_instance(text: str) -> Instance:
    """Parse the line-oriented instance format and validate the result.

    Format: a `PGVRP 1` header, `VEHICLES`, `METRIC EUCLID|EXPLICIT`, then
    `NODE id x y` (euclid) or `EDGE i j d` (explicit) records, and one
    `CLUSTER k p node+` line per cluster. '#' starts a comment.
    """
    it = _tokens(text)
    try:
        ln, tok = next(it)
    except StopIteration:
        raise FormatError(1, "empty instance file") from None
    if tok != ["PGVRP", "1"]:
        raise FormatError(ln, f"expected 'PGVRP 1' header, got {' '.join(tok)!r}")

    vehicles: int | None = None
    metric: str | None = None
    nodes: dict[int, tuple[float, float]] = {}
    edge_records: dict[tuple[int, int], float] = {}
    clusters: list[Cluster] = []

    for ln, tok in it:
        kind = tok[0].upper()
        try:
            if kind == "VEHICLES":
                vehicles = int(tok[1])
            elif kind == "METRIC":
                word = tok[1].upper()
                if word not in ("EUCLID", "EXPLICIT"):
                    raise FormatError(ln, f"unknown metric {tok[1]!r}")
                metric = "euclid" if word == "EUCLID" else "explicit"
            elif kind == "NODE":
                nid = int(tok[1])
                if nid in nodes:
                    raise FormatError(ln, f"duplicate NODE {nid}")
                nodes[nid] = (float(tok[2]), float(tok[3]))
            elif kind == "EDGE":
                i, j, dist = int(tok[1]), int(tok[2]), float(tok[3])
                if not i < j:
                    raise FormatError(ln, f"EDGE requires i < j, got {i} {j}")
                if (i, j) in edge_records:
                    raise FormatError(ln, f"duplicate EDGE {i} {j}")
                edge_records[(i, j)] = dist
            elif kind == "CLUSTER":
                cid = int(tok[1])
                prob = float(tok[2])
                members = [int(v) for v in tok[3:]]
                if not members:
                    raise FormatError(ln, f"CLUSTER {cid} has no members")
                clusters.append(Cluster(cid, prob, tuple(members)))
            else:
                raise FormatError(ln, f"unknown record {tok[0]!r}")
        except FormatError:
            raise
        except ValidationError as exc:
            raise FormatError(ln, str(exc)) from exc
        except (ValueError, IndexError) as exc:
            raise FormatError(ln, f"malformed {kind} record: {exc}") from exc

    if vehicles is None:
        raise FormatError(1, "missing VEHICLES record")
    if metric is None:
        raise FormatError(1, "missing METRIC record")

    if metric == "euclid":
        if not nodes:
            raise FormatError(1, "EUCLID metric but no NODE records")
        n = max(nodes) + 1
        if set(nodes) != set(range(n)) or 0 not in nodes:
            raise FormatError(1, "NODE ids must be contiguous and include depot 0")
        xy = np.array([nodes[i] for i in range(n)])
        diff = xy[:, None, :] - xy[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        coords = xy
    else:
        if not edge_records:
            raise FormatError(1, "EXPLICIT metric but no EDGE records")
        n = max(max(i, j) for i, j in edge_records) + 1
        d = np.zeros((n, n))
        for (i, j), dist in edge_records.items():
            d[i, j] = d[j, i] = dist
        missing = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edge_records]
        if missing:
            raise FormatError(1, f"missing EDGE records, first: {missing[0]}")
        coords = None

    clusters.sort(key=lambda c: c.id)
    return Instance(
        n_nodes=n,
        distances=d,
        clusters=tuple(clusters),
        vehicles=vehicles,
        metric_kind=metric,
        coordinates=coords,
    )


def save_instance(instance: Instance) -> str:
    """Serialize an instance; load_instance round-trips it bit-identically."""
    out = ["PGVRP 1", f"VEHICLES {instance.vehicles}"]
    if instance.metric_kind == "euclid":
        out.append("METRIC EUCLID")
        for i in range(instance.n_nodes):
            x, y = instance.coordinates[i]
            out.append(f"NODE {i} {float(x)!r} {float(y)!r}")
    else:
        out.append("METRIC EXPLICIT")
        for i in range(instance.n_nodes):
            for j in range(i + 1, instance.n_nodes):
                out.append(f"EDGE {i} {j} {float(instance.distances[i, j])!r}")
    for c in instance.clusters:
        members = " ".join(str(m) for m in c.members)
        out.append(f"CLUSTER {c.id} {float(c.probability)!r} {members}")
    return "\n".join(out) + "\n"


def load_solution(text: str) -> AprioriSolution:
    """Parse the tour-per-line solution format (`TOURS K` header)."""
    it = _tokens(text)
    try:
        ln, tok = next(it)
    except StopIteration:
        raise FormatError(1, "empty solution file") from None
    if len(tok) != 2 or tok[0].upper() != "TOURS":
        raise FormatError(ln, "expected 'TOURS <K>' header")
    k = int(tok[1])
    tours = []
    for ln, tok in it:
        try:
            tour = tuple(int(v) for v in tok)
        except ValueError as exc:
            raise FormatError(ln, f"bad node id: {exc}") from exc
        if len(tour) < 2 or tour[0] != 0 or tour[-1] != 0:
            raise FormatError(ln, "tour must start and end at the depot")
        tours.append(tour)
    if len(tours) != k:
        raise FormatError(1, f"header says {k} tours, file has {len(tours)}")
    return AprioriSolution(tuple(tours))


def save_solution(sol: AprioriSolution) -> str:
    out = [f"TOURS {len(sol.tours)}"]
    for t in sol.tours:
        out.append(" ".join(str(v) for v in t))
    return "\n".join(out) + "\n"
