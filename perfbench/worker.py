"""One benchmark process: the set-up phase, then (in the run and trace
modes) the run phase. Prints one JSON object on its last stdout line.

    worker.py --mode setup|run|trace --workload W --seed S [--seconds T] [--trace-out PATH]

setup   import polyfam and build the workload's fields cold, timed.
run     set-up, then whole passes over the workload's units until the
        next pass would end after T seconds (at least one pass).
trace   set-up under tracemalloc, the gf per-op timing loops, then one
        pass with the span recorder installed.

polyfam must be importable (the caller puts the program's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import time

# The set-up phase starts here, before the benchmark's own imports load
# the standard modules that polyfam needs too.
_t0 = time.perf_counter()
import polyfam.gf  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def setup_phase(workload: str) -> dict:
    """The timed ``import polyfam`` plus one cold make_field per named field."""
    field_s = {}
    for p, n in workloads.setup_fields(workload):
        t = time.perf_counter()
        ctx = polyfam.gf.make_field(p, n)
        field_s[str(ctx.q)] = time.perf_counter() - t
    return {"setup_s": IMPORT_S + sum(field_s.values()), "import_s": IMPORT_S, "field_s": field_s}


def run_pass(units, recorder=None) -> dict:
    """Call every unit once and check its output. Only the calls are timed;
    a unit that raises counts as failed."""
    total = 0.0
    errors = []
    for unit in units:
        t0 = time.perf_counter()
        try:
            if recorder is None:
                output = unit.run()
            else:
                with recorder.span(f"unit {unit.name}"):
                    output = unit.run()
        except Exception:
            total += time.perf_counter() - t0
            errors.append({"unit": unit.name, "errors": [traceback.format_exc(limit=3)]})
            continue
        total += time.perf_counter() - t0
        try:
            problems = unit.check(output)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            errors.append({"unit": unit.name, "errors": problems[:8]})
    return {"pass_s": total, "attempted": len(units), "failed": len(errors), "errors": errors}


def run_passes(units, seconds: float) -> dict:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    attempted = failed = 0
    errors = []
    t_start = time.perf_counter()
    while True:
        res = run_pass(units)
        passes.append(res["pass_s"])
        attempted += res["attempted"]
        failed += res["failed"]
        errors.extend(res["errors"])
        if time.perf_counter() - t_start + res["pass_s"] > seconds:
            break
    return {"pass_s": passes, "attempted": attempted, "failed": failed, "errors": errors[:16]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux: KiB


def per_op_ns(ctx, op: str, n: int, seed: int, reps: int = 5) -> float:
    """Median over ``reps`` of the time per ``ctx.<op>(x, y)`` call on n
    seeded pairs, Python call and loop included."""
    rng = random.Random(seed)
    xs = [rng.randrange(ctx.q) for _ in range(n)]
    ys = [rng.randrange(ctx.q) for _ in range(n)]
    f = getattr(ctx, op)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for x, y in zip(xs, ys):
            f(x, y)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / n


def trace_mode(args) -> dict:
    import tracemalloc

    tracemalloc.start()
    setup_phase(args.workload)
    alloc_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()

    per_op = {}
    for p, n, count in ((7, 2, 200_000), (3, 10, 50_000)):
        ctx = polyfam.gf.make_field(p, n)
        for op in ("add", "mul"):
            per_op[f"gf.{op}.ns.q{ctx.q}"] = per_op_ns(ctx, op, count, args.seed)

    from spans import Recorder

    units = workloads.make_units(args.workload, args.seed)
    recorder = Recorder()
    recorder.install()
    try:
        res = run_pass(units, recorder)
    finally:
        recorder.uninstall()
    if recorder.missing:
        print(f"warning: hooks not found: {', '.join(recorder.missing)}", file=sys.stderr)
    if args.trace_out:
        recorder.dump(args.trace_out)
    return {
        **res,
        "pass_s": [res["pass_s"]],
        "alloc_mb": alloc_mb,
        "per_op": per_op,
        "totals": recorder.totals(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    if args.mode == "trace":
        out = trace_mode(args)
    else:
        out = setup_phase(args.workload)
        if args.mode == "run":
            units = workloads.make_units(args.workload, args.seed)
            out.update(run_passes(units, args.seconds))
            out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
