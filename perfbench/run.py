"""Fixed-work benchmark for pgvrp.

    python3 perfbench/run.py --workload large --seed 1 --seconds 20 --trace 0

Run from the repository root. Each run repeats whole rounds of its
workload's fixed operations until the next round would end past
`--seconds`, and at least two; with `--trace 1` the rounds alternate
untraced and traced. Each operation's work is counted in user-space
instructions retired (hardware counters of this process) and timed on
the process's CPU clock; its figure is the median over the rounds.
It checks every output of every round, then prints the metrics and, as
its last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones. Details of each run go to
perfbench/results/.
"""

import os
import sys

# The exact search path and its speed depend on the BLAS thread count, so
# the benchmark pins it for its own process before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import counters  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5  # set-up takes 5-40 ms, so each untraced round repeats it
MIN_ROUNDS = 2  # every output is checked against a second solve of its input


def blas_threads() -> tuple[str, int | None]:
    """The BLAS library numpy was built with, and its live thread count."""
    import numpy as np

    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{cfg.get('name')} {cfg.get('version')}"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def setup(wl, model):
    """Generate the workload's instances, then save and reload each one,
    as `pgvrp gen` followed by `pgvrp solve` does."""
    t0 = process_time()
    loaded = {label: model.load_instance(model.save_instance(inst)) for label, inst in wl.instances()}
    return process_time() - t0, loaded


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of a process that solves one instance, the most
    over the instances, from `memory_pass` in a fresh interpreter.

    The peak depends on the state of the heap the solve starts from, which
    differs from process to process: the same n=80 solve peaked at 124.5,
    130.5, 140.6, 146.8 or 151 MB in forks of processes that had done the
    same work. A fresh interpreter with a fixed string hash seed that has
    run nothing but the imports and the set-up starts from the same heap
    each time (six passes: 124.5-124.8 MB).
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    code = f"import run; print(run.memory_pass({workload!r}))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return float(out.stdout.split()[-1])


def memory_pass(workload: str) -> float:
    """Set up, then run each operation once, untimed, in a child forked
    from this process, and return the largest child peak in MB.

    Forking for each operation means what one solve leaves in the heap
    cannot raise the next one's figure, and the solve order does not move
    it. Fork rather than spawn: the child starts from the parent's
    imports, and the parent has one thread (BLAS is pinned to one). A
    failure in the child is left to the timed rounds to report.
    """
    import workloads
    from pgvrp import model

    wl = workloads.WORKLOADS[workload]
    peak = 0.0
    for inst in setup(wl, model)[1].values():
        pid = os.fork()
        if pid == 0:
            try:
                wl.operation(inst)
            finally:
                os._exit(0)
        _, _, usage = os.wait4(pid, 0)
        peak = max(peak, usage.ru_maxrss / 1024.0)
    return peak


def solve_round(wl, order, instances, instr, cycles, after_op=None):
    """Count and time each operation; summarise (unmeasured) what it
    returned. `after_op`, if given, runs after each operation."""
    ops = []
    for label in order:
        inst = instances[label]
        i0, c0, t0 = instr.read(), cycles.read(), process_time()
        try:
            raw = wl.operation(inst)
        except Exception:  # a failed operation is counted, not fatal
            raw, error = None, traceback.format_exc()
        else:
            error = None
        op = {"label": label, "s": process_time() - t0, "instr": instr.read() - i0, "cycles": cycles.read() - c0}
        if error is None:
            op["summary"] = wl.summary(inst, raw)
        else:
            op["error"] = error
        ops.append(op)
        if after_op is not None:
            after_op()
    return ops


def run_rounds(wl, order, model, seconds, tracer, instr, cycles):
    """Whole rounds until the next would end past `seconds`, and at least
    MIN_ROUNDS. With a tracer, rounds alternate untraced/traced and the
    last one is untraced."""
    rounds = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        setups = []
        if traced:
            with tracer.installed():
                _, instances = setup(wl, model)
                ops = solve_round(wl, order, instances, instr, cycles)
        else:
            for _ in range(SETUP_REPEATS):
                dt, instances = setup(wl, model)
                setups.append(dt)
            # one more set-up after each operation spreads the samples over
            # the round, since the shared core's speed changes within seconds
            ops = solve_round(
                wl, order, instances, instr, cycles, after_op=lambda: setups.append(setup(wl, model)[0])
            )
        rounds.append({"traced": traced, "setup_s": setups, "ops": ops, "instances": instances})
        elapsed = perf_counter() - t_start
        if (
            len(rounds) >= MIN_ROUNDS
            and not traced
            and elapsed + elapsed / len(rounds) > seconds
        ):
            return rounds


def typical(rounds, key) -> dict[str, float]:
    """Each operation's median `key` ("instr", "cycles" or "s") over the
    rounds. Instruction counts differ by 0.2% at most between rounds; CPU
    times by far more."""
    values: dict[str, list[float]] = {}
    for r in rounds:
        for op in r["ops"]:
            values.setdefault(op["label"], []).append(op[key])
    return {label: statistics.median(v) for label, v in values.items()}


def check_rounds(wl, rounds):
    """Run every check; returns (attempted, failed, correct, failures)."""
    last = rounds[-1]["instances"]
    refs, failures = {}, []
    for label, inst in last.items():
        try:
            refs[label] = ("ok", wl.reference(inst))
        except Exception:
            refs[label] = ("error", traceback.format_exc())
    first_seen, correct = {}, True
    attempted = failed = 0
    for r in rounds:
        for op in r["ops"]:
            attempted += 1
            label = op["label"]
            if "error" in op:
                problems = [op["error"]]
            elif refs[label][0] == "error":
                problems = ["reference failed: " + refs[label][1]]
            else:
                summary = op["summary"]
                problems = summary.problems + wl.check(last[label], summary, refs[label][1])
                seen = first_seen.setdefault(label, summary.fingerprint)
                if seen != summary.fingerprint:
                    correct = False  # one input, two different outputs in one run
                    problems.append("output differs between rounds")
            if problems:
                failed += 1
                failures.append({"label": label, "problems": problems})
    return attempted, failed, correct, failures


def end_to_end(rounds, peak_rss_mb):
    instr = typical(rounds, "instr")
    ok = [op for op in rounds[0]["ops"] if "summary" in op]
    return {
        # a shared core only ever adds time, and it switches speed within
        # seconds, so the fastest set-up of the run is the steadiest figure
        "setup_s": min(s for r in rounds for s in r["setup_s"]),
        "solve_ginstr": sum(instr.values()) / 1e9,
        "op_ginstr.geomean": statistics.geometric_mean(instr.values()) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "objective_sum": sum(op["summary"].objective for op in ok),
        "lower_bound_sum": sum(op["summary"].lower_bound for op in ok),
    }


def per_layer(rounds, tracer):
    """Per-layer figures from the traced rounds. The untraced rounds after
    the first, which warms the process up, give the solve phase's CPU time
    and instructions per cycle; the overhead compares the instructions of
    the two kinds of round."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds[1:] if not r["traced"]]
    out = tracing.layer_metrics(tracer.spans, len(traced))
    plain_instr = sum(typical(plain, "instr").values())
    out["solve.cpu_s"] = sum(typical(plain, "s").values())
    out["solve.ipc"] = plain_instr / sum(typical(plain, "cycles").values())
    out["trace.overhead_pct"] = 100.0 * (sum(typical(traced, "instr").values()) / plain_instr - 1.0)
    return out


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pgvrp" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'pgvrp'}", file=sys.stderr)
        return 2
    import workloads
    from pgvrp import model

    blas, threads = blas_threads()
    if threads is not None and threads != BLAS_THREADS:
        print(f"perfbench: BLAS runs {threads} threads, not {BLAS_THREADS}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    order = [label for label, _ in wl.instances()]
    random.Random(args.seed).shuffle(order)
    tracer = tracing.Tracer() if args.trace else None

    try:
        instr, cycles = counters.Counter(counters.INSTRUCTIONS), counters.Counter(counters.CYCLES)
    except OSError as exc:
        print(f"perfbench: no hardware counters: {exc}", file=sys.stderr)
        return 2

    rss_mb = None if args.trace else peak_rss_mb(args.workload)
    rounds = run_rounds(wl, order, model, args.seconds, tracer, instr, cycles)
    instr.close()
    cycles.close()
    attempted, failed, correct, failures = check_rounds(wl, rounds)

    if args.trace:
        tracing.note_missing(tracer)
        values = per_layer(rounds, tracer)
        listed = spec["per_layer"]
    else:
        values = end_to_end(rounds, rss_mb)
        listed = spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(out_dir / f"{stem}-spans.csv.gz")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blas": blas,
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "rounds": [
            {
                "traced": r["traced"],
                "setup_s": r["setup_s"],
                "ops": [
                    {k: op[k] for k in ("label", "s", "instr", "cycles")} | {"ok": "summary" in op}
                    for op in r["ops"]
                ],
            }
            for r in rounds
        ],
        "failures": failures,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  blas {blas} x{threads}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6f} {m['unit']}")
    for f in failures[:5]:
        print(f"  FAILED {f['label']}: {f['problems'][0].strip().splitlines()[-1]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
