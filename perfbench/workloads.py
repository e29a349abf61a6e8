"""The three fixed-work workloads.

Every workload solves a fixed instance set: B&B work on freshly drawn tiny
instances varies by a factor of two from one draw to the next, which no
bound of 25% or less could absorb, so the instance seeds are pinned here
and the run's `--seed` only sets the order in which the set is solved.
All work is fixed by those seeds and by `node_limit`; no `time_limit` is
passed anywhere.

Each workload has three parts: `instances` (generation, untimed except as
set-up), `operation` (the timed solve of one instance, calling the same
public functions that `pgvrp solve` and `pgvrp bounds` call), and
`summary` plus `reference`/`check` (untimed: outputs reduced to what the
checks need, and the checks themselves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import checks
from pgvrp import bench, bounds, evaluation, exact, heuristics, model, oracle


@dataclass
class Summary:
    """What one operation returned, reduced to the checked quantities."""

    objective: float  # sum of the expected lengths it returned
    lower_bound: float
    fingerprint: tuple  # compared across rounds of one run
    problems: list[str] = field(default_factory=list)
    status: str = "ok"


class Large:
    """Default-suite rows 11 and 12 (n=200; m=50, K=15 and m=100, K=18),
    suite seed 0: both insertion heuristics, both detour caps and the B
    matrix. No LP is solved."""

    name = "large"
    rows = (10, 11)  # indices into bench.DEFAULT_ROWS

    def instances(self):
        suite = bench.generate(bench.SuiteSpec(seed=0))
        return [(suite[i].name, suite[i]) for i in self.rows]

    def operation(self, inst):
        sols = {}
        for algo in ("MmI", "mmI"):
            sol = getattr(heuristics, "solve_" + algo)(inst)
            sols[algo] = (sol, evaluation.expected_length(sol, inst))
        return sols, bounds.ub_simple(inst), bounds.ub_clustered(inst), bounds.b_matrix(inst)

    def summary(self, inst, raw):
        sols, ub_simple, ub_clustered, b = raw
        problems, solved, caps = [], {}, {}
        for algo, (sol, obj) in sols.items():
            problems += [f"{algo}: {p}" for p in checks.check_solution(sol, obj, inst)]
            solved[algo] = (sol.tours, checks.expected_recourse(sol.tours, inst), obj)
            caps[algo] = bounds.theta_cap(inst, model.incidence_point(inst, sol), b)
        lower = bounds.lower_bound_scaled(inst, checks.depot_radius_bound(inst))
        if not problems:
            problems += checks.check_large(solved, ub_simple, ub_clustered, caps, lower)
        return Summary(
            objective=sum(obj for _, obj in sols.values()),
            lower_bound=lower,
            fingerprint=(
                tuple((a, s.tours, obj) for a, (s, obj) in sols.items()),
                ub_simple,
                ub_clustered,
                float(b.sum()),
            ),
            problems=problems,
        )

    def reference(self, inst):
        return None

    def check(self, inst, summary, ref):
        return []


def exact_summary(inst, res) -> Summary:
    """An ExactResult reduced to its checked fields (its node log is dropped,
    so it does not accumulate over rounds)."""
    return Summary(
        objective=res.objective,
        lower_bound=res.lower_bound,
        fingerprint=(res.status, res.objective, res.lower_bound, res.solution and res.solution.tours),
        problems=checks.check_solution(res.solution, res.objective, inst),
        status=res.status,
    )


class ExactSmall:
    """Thirty-five tiny instances solved to a certified optimum: seven rows
    with n=8-12, m=3-4, K=1-2, each at suite seeds 0-4. `node_limit` is only
    a guard; none of them needs 600 nodes. A row (11, 4, 1) was left out:
    two of its five instances take 12 s together, twice the rest of the set,
    and their long cut-pool growth is what `exact-cuts` measures."""

    name = "exact-small"
    rows = [(8, 3, 1), (8, 4, 2), (10, 3, 1), (10, 4, 2), (12, 3, 1), (12, 4, 2), (9, 3, 2)]
    seeds = range(5)
    node_limit = 20_000

    def instances(self):
        out = []
        for seed in self.seeds:
            out += [(i.name, i) for i in bench.generate(bench.SuiteSpec(rows=self.rows, seed=seed))]
        return out

    def operation(self, inst):
        return exact.solve_exact(inst, node_limit=self.node_limit)

    summary = staticmethod(exact_summary)

    def reference(self, inst):
        """The brute-force optimum where the oracle's default budget admits it."""
        try:
            return oracle.best_apriori_bruteforce(inst, oracle.EnumerationBudget())[1]
        except oracle.BudgetExceeded:
            return None

    def check(self, inst, summary, ref):
        return checks.check_exact_small(summary, ref)


class ExactCuts:
    """Default-suite rows 5, 6 and 8 (n=50-80; m=10-40), suite seed 0, at
    node_limit=2: the root's GSEC loop runs to its end, adding hundreds of
    cuts with one warm re-solve each, and branching stops right after."""

    name = "exact-cuts"
    rows = (4, 5, 7)
    node_limit = 2

    def instances(self):
        suite = bench.generate(bench.SuiteSpec(seed=0))
        return [(suite[i].name, suite[i]) for i in self.rows]

    def operation(self, inst):
        return exact.solve_exact(inst, node_limit=self.node_limit)

    summary = staticmethod(exact_summary)

    def reference(self, inst):
        """HiGHS value of the root LP, and the max-min heuristic's objective."""
        root = checks.highs_root_value(exact.build_root(inst).lp)
        return root, checks.expected_length(heuristics.solve_MmI(inst).tours, inst)

    def check(self, inst, summary, ref):
        return checks.check_exact_cuts(summary, *ref)


WORKLOADS = {w.name: w for w in (Large(), ExactSmall(), ExactCuts())}

