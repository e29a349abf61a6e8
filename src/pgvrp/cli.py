"""Command-line interface: generate, evaluate, solve, benchmark, bound."""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time

from . import bench, bounds, heuristics, model
from .evaluation import deterministic_length, expected_length
from .exact import solve_exact
from .oracle import BudgetExceeded, EnumerationBudget, best_apriori_bruteforce, gvrp_optimal


def _read(path: str) -> str:
    return pathlib.Path(path).read_text(encoding="utf-8")


def cmd_gen(args) -> int:
    if args.rows:
        rows = []
        for ln, line in enumerate(_read(args.rows).splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                print(f"rows file line {ln}: expected 'n m k'", file=sys.stderr)
                return 2
            rows.append(tuple(int(v) for v in parts))
        spec = bench.SuiteSpec(rows=rows, seed=args.seed)
    else:
        spec = bench.SuiteSpec(seed=args.seed)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for inst in bench.generate(spec):
        path = out / f"{inst.name}.pgvrp"
        path.write_text(model.save_instance(inst), encoding="utf-8")
        print(path)
    return 0


def cmd_eval(args) -> int:
    inst = model.load_instance(_read(args.instance))
    sol = model.load_solution(_read(args.solution))
    report = model.check_feasible(inst, sol)
    if not report.ok:
        print("infeasible solution:")
        for v in report.violations:
            print(f"  {v}")
        return 1
    det = deterministic_length(sol, inst)
    exp = expected_length(sol, inst)
    print(f"deterministic_length {det:.6f}")
    print(f"expected_length      {exp:.6f}")
    print(f"expected_recourse    {det - exp:.6f}")
    return 0


def cmd_solve(args) -> int:
    inst = model.load_instance(_read(args.instance))
    t0 = time.perf_counter()
    status = "ok"
    if args.algo == "exact":
        res = solve_exact(inst, time_limit=args.time_limit)
        sol, obj = res.solution, res.objective
        status = "ok" if res.status == "optimal" else "L"
        if args.log:
            pathlib.Path(args.log).write_text("\n".join(res.log) + "\n", encoding="utf-8")
    elif args.algo == "oracle":
        sol, obj = best_apriori_bruteforce(inst)
    elif args.algo == "mmI":
        sol = heuristics.solve_mmI(inst, args.capacity)
        obj = expected_length(sol, inst)
    elif args.algo == "MmI":
        sol = heuristics.solve_MmI(inst, args.capacity)
        obj = expected_length(sol, inst)
    else:
        sol = heuristics.solve_unbounded(inst)
        obj = expected_length(sol, inst)
    seconds = time.perf_counter() - t0
    out = pathlib.Path(args.out or args.instance + ".sol")
    out.write_text(model.save_solution(sol), encoding="utf-8")
    print(
        f"{inst.name or args.instance} algo={args.algo} objective={obj:.6f} "
        f"seconds={seconds:.3f} status={status} solution={out}"
    )
    return 0


def cmd_bench(args) -> int:
    folder = pathlib.Path(args.dir)
    paths = sorted(folder.glob("*.pgvrp"))
    if not paths:
        print(f"no .pgvrp instances under {folder}", file=sys.stderr)
        return 2
    instances = []
    for p in paths:
        inst = model.load_instance(p.read_text(encoding="utf-8"))
        if not inst.name:
            inst = dataclasses.replace(inst, name=p.stem)
        instances.append(inst)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    rows = bench.run_suite(instances, algos, time_limit=args.time_limit)
    pathlib.Path(args.out).write_text(bench.to_csv(rows), encoding="utf-8")
    print(f"wrote {len(rows)} result rows to {args.out}")
    return 0


def cmd_bounds(args) -> int:
    inst = model.load_instance(_read(args.instance))
    try:
        _, det = gvrp_optimal(inst, EnumerationBudget())
        print(f"lower_bound_scaled {bounds.lower_bound_scaled(inst, det):.6f}")
    except BudgetExceeded:
        print("lower_bound_scaled (instance too large for the oracle)")
    print(f"ub_simple          {bounds.ub_simple(inst):.6f}")
    print(f"ub_clustered       {bounds.ub_clustered(inst):.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pgvrp",
        description="Stochastic clustered routing: generate, evaluate, solve, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded instance suite")
    g.add_argument("--suite", choices=["default"], default="default")
    g.add_argument("--rows", help="file of 'n m k' rows overriding the default suite")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("eval", help="evaluate a solution file against an instance")
    e.add_argument("--instance", required=True)
    e.add_argument("--solution", required=True)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--algo", required=True, choices=list(bench.ALGORITHMS))
    s.add_argument("--capacity", type=int, help="clusters per tour (capacitated heuristics)")
    s.add_argument("--time-limit", type=float, help="seconds (exact solver)")
    s.add_argument("--out", help="solution file (default: <instance>.sol)")
    s.add_argument("--log", help="write the exact solver's node log here")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run algorithms over a directory of instances")
    b.add_argument("--dir", required=True)
    b.add_argument("--algos", required=True, help="comma list, e.g. MmI,exact")
    b.add_argument("--time-limit", type=float, default=600.0)
    b.add_argument("--out", default="results.csv")
    b.set_defaults(func=cmd_bench)

    d = sub.add_parser("bounds", help="print recourse caps and the scaled lower bound")
    d.add_argument("--instance", required=True)
    d.set_defaults(func=cmd_bounds)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
