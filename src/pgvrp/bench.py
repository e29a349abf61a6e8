"""Seeded instance generation and the benchmark suite runner.

The default suite regenerates the sixteen size rows of the computational
study this toolkit follows: node counts from 10 to 300 with cluster counts
from 2 to 150, customers placed uniformly in a square box with the depot
at the center, clusters formed as equal blocks of a shuffled customer
list, and presence probabilities drawn uniformly from a configurable
range. Everything is deterministic per seed.

Results are rows of a fixed CSV schema; solvers that hit the time limit
are flagged `L` and report their certified lower bound, and heuristic
deviations measured against such a bound carry a `vs-bound` status.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import heuristics
from .evaluation import deviation, expected_length
from .exact import solve_exact
from .model import Cluster, Instance
from .oracle import EnumerationBudget, best_apriori_bruteforce

DEFAULT_ROWS: list[tuple[int, int, int]] = [
    (10, 2, 1),
    (10, 5, 2),
    (30, 5, 2),
    (30, 10, 5),
    (50, 10, 4),
    (50, 25, 7),
    (80, 20, 6),
    (80, 40, 12),
    (100, 25, 8),
    (100, 50, 14),
    (200, 50, 15),
    (200, 100, 18),
    (250, 50, 18),
    (250, 125, 25),
    (300, 100, 20),
    (300, 150, 30),
]

CSV_COLUMNS = [
    "id",
    "n_nodes",
    "m_clusters",
    "cluster_size",
    "k_vehicles",
    "algo",
    "objective",
    "seconds",
    "status",
    "exact_ref",
    "deviation",
]

ALGORITHMS = ("mmI", "MmI", "unbounded", "exact", "oracle")


@dataclass
class SuiteSpec:
    rows: list[tuple[int, int, int]] = field(default_factory=lambda: list(DEFAULT_ROWS))
    seed: int = 0
    box: float = 100.0
    prob_range: tuple[float, float] = (0.1, 0.9)

    def __post_init__(self):
        for n, m, k in self.rows:
            if not (n >= 2 and 1 <= m <= n - 1 and k >= 1):
                raise ValueError(f"invalid suite row ({n}, {m}, {k})")
        lo, hi = self.prob_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"invalid probability range {self.prob_range}")


def generate(spec: SuiteSpec) -> list[Instance]:
    """One instance per row; byte-identical across runs with equal seeds."""
    out = []
    for idx, (n, m, k) in enumerate(spec.rows):
        rng = np.random.default_rng([int(spec.seed), idx])
        coords = np.vstack(
            [
                [spec.box / 2.0, spec.box / 2.0],
                rng.uniform(0.0, spec.box, size=(n - 1, 2)),
            ]
        )
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        ids = list(range(1, n))
        rng.shuffle(ids)
        base, extra = divmod(n - 1, m)
        clusters, at = [], 0
        for c in range(m):
            size = base + (1 if c < extra else 0)
            members = tuple(sorted(ids[at : at + size]))
            at += size
            p = float(rng.uniform(*spec.prob_range))
            clusters.append(Cluster(c + 1, p, members))
        out.append(
            Instance(
                n_nodes=n,
                distances=dist,
                clusters=tuple(clusters),
                vehicles=k,
                metric_kind="euclid",
                coordinates=coords,
                name=f"pgvrp-{idx + 1:02d}-n{n}-m{m}-k{k}-s{spec.seed}",
            )
        )
    return out


@dataclass
class ResultRow:
    id: int
    n_nodes: int
    m_clusters: int
    cluster_size: int
    k_vehicles: int
    algo: str
    objective: float | None
    seconds: float
    status: str  # ok | L | vs-bound | error:<...>
    exact_ref: float | None
    deviation: float | None

    def as_csv(self) -> list[str]:
        def num(v):
            return "" if v is None else f"{v:.6f}"

        return [
            str(self.id),
            str(self.n_nodes),
            str(self.m_clusters),
            str(self.cluster_size),
            str(self.k_vehicles),
            self.algo,
            num(self.objective),
            f"{self.seconds:.3f}",
            self.status,
            num(self.exact_ref),
            num(self.deviation),
        ]


def _run_one(instance: Instance, algo: str, time_limit: float | None):
    t0 = time.perf_counter()
    if algo == "exact":
        res = solve_exact(instance, time_limit=time_limit)
        dt = time.perf_counter() - t0
        if res.status == "optimal":
            return res.objective, dt, "ok", res.solution
        return res.lower_bound, dt, "L", res.solution
    if algo == "oracle":
        budget = EnumerationBudget(max_nodes=10, max_clusters=5, max_vehicles=3)
        sol, obj = best_apriori_bruteforce(instance, budget)
        return obj, time.perf_counter() - t0, "ok", sol
    solver = {
        "mmI": heuristics.solve_mmI,
        "MmI": heuristics.solve_MmI,
        "unbounded": heuristics.solve_unbounded,
    }[algo]
    sol = solver(instance)
    obj = expected_length(sol, instance)
    return obj, time.perf_counter() - t0, "ok", sol


def run_suite(
    instances: list[Instance],
    algorithms: list[str],
    time_limit: float | None = None,
) -> list[ResultRow]:
    """Run each algorithm on each instance; per-row failures are recorded
    in the status column rather than raised."""
    if not algorithms:
        raise ValueError("at least one algorithm required")
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    rows: list[ResultRow] = []
    for idx, inst in enumerate(instances, start=1):
        n, m, k = inst.n_nodes, inst.n_clusters, inst.vehicles
        csize = math.ceil((n - 1) / m)
        per_algo: dict[str, tuple] = {}
        for algo in algorithms:
            try:
                per_algo[algo] = _run_one(inst, algo, time_limit)
            except Exception as exc:  # recorded, never fatal for the suite
                per_algo[algo] = (None, 0.0, f"error:{type(exc).__name__}", None)
        ref = None
        ref_is_bound = False
        if "exact" in per_algo and per_algo["exact"][0] is not None:
            ref = per_algo["exact"][0]
            ref_is_bound = per_algo["exact"][2] == "L"
        elif "oracle" in per_algo and per_algo["oracle"][0] is not None:
            ref = per_algo["oracle"][0]
        for algo in algorithms:
            obj, dt, status, _sol = per_algo[algo]
            dev = None
            if algo not in ("exact", "oracle") and obj is not None and ref is not None:
                if ref > 0:
                    dev = deviation(obj, ref)
                if ref_is_bound and status == "ok":
                    status = "vs-bound"
            rows.append(
                ResultRow(
                    id=idx,
                    n_nodes=n,
                    m_clusters=m,
                    cluster_size=csize,
                    k_vehicles=k,
                    algo=algo,
                    objective=obj,
                    seconds=dt,
                    status=status,
                    exact_ref=ref if algo not in ("exact", "oracle") else None,
                    deviation=dev,
                )
            )
    rows.sort(key=lambda r: (r.id, ALGORITHMS.index(r.algo)))
    return rows


def to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(r.as_csv())
    return buf.getvalue()
