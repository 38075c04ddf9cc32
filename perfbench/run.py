"""polyfam benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload suite-full|scan-large|bigfield|all \
        --seed N --seconds T --trace 0|1

Every process it starts is one fresh Python process that runs one unit at
a time. With --trace 0 it times one run process, which repeats whole
passes over the workload's units for about T seconds, and cold set-ups
(import polyfam plus the workload's fields) before and after it; it
prints the end-to-end metrics. With --trace 1 it runs one untraced pass
and, in a second process, one pass under the span recorder, and prints
the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
DEADLINE_S = 170  # a run must end within 180 s

# cold set-ups per run, the run process's own included
SETUP_SAMPLES = {"suite-full": 15, "scan-large": 15, "bigfield": 3}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

_CLAIM_METRICS = tuple((f"cli.claim.{c}.s", "s", "lower") for c in workloads.SUITE_CLAIMS)
PER_LAYER = (
    ("gf.make_field.q65536.s", "s", "lower"),
    ("gf.make_field.q59049.s", "s", "lower"),
    ("gf.make_field.q63001.s", "s", "lower"),
    ("gf.make_field.alloc_mb", "MB", "lower"),
    ("gf.add.ns.q49", "ns", "lower"),
    ("gf.mul.ns.q49", "ns", "lower"),
    ("gf.add.ns.q59049", "ns", "lower"),
    ("gf.mul.ns.q59049", "ns", "lower"),
    ("polyfun.intersection_count.calls", "count", "lower"),
    ("polyfun.intersection_count.self_s", "s", "lower"),
    ("polyfun.evaluate.calls", "count", "lower"),
    ("polyfun.evaluate.self_s", "s", "lower"),
    ("families.extend_unique.self_s", "s", "lower"),
    ("families.is_t_intersecting.self_s", "s", "lower"),
    ("families.common_point.self_s", "s", "lower"),
    ("search.build_graph.calls", "count", "lower"),
    ("search.build_graph.self_s", "s", "lower"),
    ("search.max_clique.self_s", "s", "lower"),
    ("search.max_clique.nodes", "count", "lower"),
    ("search.stability_probe.self_s", "s", "lower"),
    ("search.stability_probe.trials_per_s", "1/s", "higher"),
    ("charsum.shortcut_scan.self_s", "s", "lower"),
    ("charsum.shortcut_scan.polys_per_s", "1/s", "higher"),
    ("charsum.square_coefficient_scan.self_s", "s", "lower"),
    ("charsum.perfect_square_test.calls", "count", "lower"),
    ("charsum.char_sum.calls", "count", "lower"),
    ("charsum.char_sum.self_s", "s", "lower"),
    ("charsum.char_sum.evals_per_s", "1/s", "higher"),
    ("charsum.weil_check.p50_ms", "ms", "lower"),
    ("charsum.weil_check.samples", "count", "higher"),
    ("directions.carlitz_scan.self_s", "s", "lower"),
    ("directions.carlitz_scan.nodes", "count", "lower"),
    ("directions.carlitz_scan.candidate_ratio", "ratio", "higher"),
    *_CLAIM_METRICS,
    ("report.emit.self_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)


class BenchError(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int, deadline: float, seconds: float = 0.0,
           trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # a fixed string-hash seed, so that every process does the same work
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{mode} process for {workload} ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    def setup():
        return worker("setup", workload, seed, deadline)["setup_s"]

    # half the set-ups before the run process and half after, so that their
    # median spans the same stretch of time as the run on a machine whose
    # speed drifts
    extra = SETUP_SAMPLES[workload] - 1
    setups = [setup() for _ in range(extra // 2)]
    run = worker("run", workload, seed, deadline, seconds=seconds)
    setups += [setup() for _ in range(extra - extra // 2)] + [run["setup_s"]]
    passes = run["pass_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(passes),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {"setup_s": f"median of {len(setups)} cold set-ups",
               "run_s": f"median of {len(passes)} passes",
               "peak_rss_mb": "ru_maxrss of the run process"}
    return {"metrics": metrics, "samples": samples, "attempted": run["attempted"],
            "failed": run["failed"], "errors": run["errors"]}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    plain = worker("run", workload, seed, deadline)
    RESULTS.mkdir(exist_ok=True)
    trace_out = RESULTS / f"trace-{workload}-seed{seed}.json"
    traced = worker("trace", workload, seed, deadline, trace_out=trace_out)
    metrics = layer_metrics(plain, traced)
    return {"metrics": metrics, "samples": {"all": f"one traced pass; spans in {trace_out.relative_to(ROOT)}"},
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "errors": plain["errors"] + traced["errors"]}


def layer_metrics(plain: dict, traced: dict) -> dict:
    """The per-layer metrics from an untraced run process and a traced one.
    A layer the workload never calls reads 0. Rates divide by self time."""
    totals = traced["totals"]

    def total(name, key="self_s"):
        return totals.get(name, {}).get(key, 0)

    def attr(name, key):
        return totals.get(name, {}).get("attrs", {}).get(key, 0)

    def rate(work, name):
        busy = total(name)
        return work / busy if busy else 0.0

    weil = totals.get("charsum.weil_check", {}).get("durations", [])
    m = {f"gf.make_field.q{q}.s": plain["field_s"].get(str(q), 0.0) for q in (65536, 59049, 63001)}
    m["gf.make_field.alloc_mb"] = traced["alloc_mb"]
    m.update(traced["per_op"])
    for name, *_ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            m[name] = total(span, kind)
    m["search.max_clique.nodes"] = attr("search.max_clique", "nodes")
    m["search.stability_probe.trials_per_s"] = rate(attr("search.stability_probe", "trials"),
                                                    "search.stability_probe")
    m["charsum.shortcut_scan.polys_per_s"] = rate(attr("charsum.shortcut_scan", "scanned"),
                                                  "charsum.shortcut_scan")
    m["charsum.char_sum.evals_per_s"] = rate(attr("charsum.char_sum", "work"), "charsum.char_sum")
    m["charsum.weil_check.p50_ms"] = statistics.median(weil) * 1e3 if weil else 0.0
    m["charsum.weil_check.samples"] = len(weil)
    m["directions.carlitz_scan.nodes"] = attr("directions.carlitz_scan", "nodes")
    nodes = m["directions.carlitz_scan.nodes"]
    m["directions.carlitz_scan.candidate_ratio"] = (
        attr("directions.carlitz_scan", "candidates") / nodes if nodes else 0.0
    )
    for claim in workloads.SUITE_CLAIMS:
        m[f"cli.claim.{claim}.s"] = total(f"cli.claim.{claim}", "incl_s")
    m["tracing.overhead_s"] = traced["pass_s"][0] - plain["pass_s"][0]
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    res = per_layer(workload, seed, deadline) if trace else end_to_end(workload, seed, seconds, deadline)
    table = PER_LAYER if trace else END_TO_END
    units = {name: spec[0] for name, *spec in table}
    res["metrics"] = {name: {"value": res["metrics"][name], "unit": units[name]} for name, *_ in table}
    for name, m in res["metrics"].items():
        value = m["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{workload:<11} {name:<42} {shown} {m['unit']}")
    for name, text in res["samples"].items():
        print(f"{workload:<11} samples {name}: {text}")
    ratio = res["failed"] / res["attempted"]
    print(f"{workload:<11} fail_ratio {ratio:.4f} ({res['failed']} of {res['attempted']} units failed their output check)")
    for err in res["errors"]:
        print(f"{workload}: {err['unit']}: {'; '.join(err['errors'])}", file=sys.stderr)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": res["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyfam" / "__init__.py").is_file():
        print(f"error: no polyfam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once so that every timed import reads cached bytecode
    if not all(compileall.compile_dir(d, quiet=1) for d in (ROOT / "src" / "polyfam", BENCH)):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
