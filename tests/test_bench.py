"""Suite generation determinism and the results table."""

import math


import pytest

from pgvrp.bench import (
    CSV_COLUMNS,
    DEFAULT_ROWS,
    SuiteSpec,
    generate,
    run_suite,
    to_csv,
)
from pgvrp.model import save_instance


def test_default_suite_shape():
    assert len(DEFAULT_ROWS) == 16
    assert DEFAULT_ROWS[0] == (10, 2, 1)
    assert DEFAULT_ROWS[-1] == (300, 150, 30)
    insts = generate(SuiteSpec(rows=DEFAULT_ROWS[:2], seed=5))
    sizes = sorted(len(c.members) for c in insts[0].clusters)
    assert sizes == [4, 5]
    sizes = sorted(len(c.members) for c in insts[1].clusters)
    assert sizes == [1, 2, 2, 2, 2]


def test_generation_is_deterministic():
    a = generate(SuiteSpec(rows=[(12, 3, 2)], seed=99))[0]
    b = generate(SuiteSpec(rows=[(12, 3, 2)], seed=99))[0]
    assert save_instance(a) == save_instance(b)
    c = generate(SuiteSpec(rows=[(12, 3, 2)], seed=100))[0]
    assert save_instance(a) != save_instance(c)


def test_probabilities_within_range():
    spec = SuiteSpec(rows=[(20, 4, 2)], seed=3, prob_range=(0.4, 0.6))
    inst = generate(spec)[0]
    for c in inst.clusters:
        assert 0.4 <= c.probability <= 0.6


def test_depot_at_box_center():
    inst = generate(SuiteSpec(rows=[(10, 2, 1)], seed=1, box=50.0))[0]
    assert tuple(inst.coordinates[0]) == (25.0, 25.0)


def test_run_suite_rows_and_deviation():
    insts = generate(SuiteSpec(rows=[(8, 3, 1), (9, 4, 2)], seed=11))
    rows = run_suite(insts, ["MmI", "mmI", "exact"], time_limit=60)
    assert [r.id for r in rows] == [1, 1, 1, 2, 2, 2]
    by_algo = {(r.id, r.algo): r for r in rows}
    for rid in (1, 2):
        exact = by_algo[(rid, "exact")]
        assert exact.status in ("ok", "L")
        for algo in ("MmI", "mmI"):
            r = by_algo[(rid, algo)]
            assert r.status in ("ok", "vs-bound")
            assert r.exact_ref == pytest.approx(exact.objective)
            assert r.deviation is not None and r.deviation >= -1e-12


def test_heuristic_against_unsolved_root_is_vs_bound():
    # no LP finishes in a zero budget: the exact row reports the trivial
    # bound 0, against which no deviation exists
    insts = generate(SuiteSpec(rows=[(8, 3, 1)], seed=11))
    heur, exact = run_suite(insts, ["MmI", "exact"], time_limit=0.0)
    assert (exact.status, exact.objective) == ("L", 0.0)
    assert (heur.status, heur.exact_ref, heur.deviation) == ("vs-bound", 0.0, None)


def test_csv_schema_and_stability():
    insts = generate(SuiteSpec(rows=[(8, 3, 1)], seed=11))
    rows = run_suite(insts, ["MmI", "oracle"], time_limit=30)
    text = to_csv(rows)
    header = text.splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    again = run_suite(generate(SuiteSpec(rows=[(8, 3, 1)], seed=11)), ["MmI", "oracle"], 30)
    strip = lambda t: [
        ",".join(f for i, f in enumerate(line.split(",")) if CSV_COLUMNS[i] != "seconds")
        for line in t.splitlines()
    ]
    assert strip(to_csv(rows)) == strip(to_csv(again))


def test_unknown_algorithm_rejected():
    insts = generate(SuiteSpec(rows=[(8, 3, 1)], seed=1))
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_suite(insts, ["magic"])
    with pytest.raises(ValueError, match="at least one"):
        run_suite(insts, [])


def test_oracle_budget_failure_recorded_not_raised():
    insts = generate(SuiteSpec(rows=[(30, 5, 2)], seed=1))
    rows = run_suite(insts, ["oracle"], time_limit=5)
    assert rows[0].status.startswith("error:")


def test_generated_instances_are_valid():
    for inst in generate(SuiteSpec(rows=[(10, 2, 1), (15, 7, 3)], seed=2)):
        covered = {m for c in inst.clusters for m in c.members}
        assert covered == set(range(1, inst.n_nodes))
        assert math.ceil((inst.n_nodes - 1) / inst.n_clusters) >= max(
            len(c.members) for c in inst.clusters
        )
