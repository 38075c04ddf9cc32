"""The benchmark at a tiny size: every workload passes its output checks,
a corrupted verdict, counter or value raises fail_ratio, and the span
recorder sees the layers and leaves the program as it found it.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads
from polyfam import charsum, families, polyfun, report
from polyfam.gf import make_field

SEED = 3


def tiny_units(workload):
    for p, n in workloads.setup_fields(workload, tiny=True):
        make_field(p, n)
    return workloads.make_units(workload, SEED, tiny=True)


def fail_ratio(res):
    return res["failed"] / res["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    units = tiny_units(workload)
    res = worker.run_pass(units)
    assert res["errors"] == []
    assert res["attempted"] == len(units) > 0
    assert fail_ratio(res) == 0


def corrupt_reports(monkeypatch, change):
    to_dict = report.Report.to_dict

    def corrupted(self):
        d = to_dict(self)
        change(d)
        return d

    monkeypatch.setattr(report.Report, "to_dict", corrupted)


def test_corrupted_verdict_raises_fail_ratio(monkeypatch):
    def flip(d):
        if d["claimId"] == "pencil-size":
            d["verdict"] = "fail"

    corrupt_reports(monkeypatch, flip)
    res = worker.run_pass(tiny_units("suite-full"))
    assert [e["unit"] for e in res["errors"]] == ["suite --tier full --claim pencil-size"]
    assert fail_ratio(res) == 1 / len(workloads.TINY_SUITE_CLAIMS)


def test_corrupted_counter_raises_fail_ratio(monkeypatch):
    def bump(d):
        if "maxClique" in d["counters"]:
            d["counters"]["maxClique"] += 1

    corrupt_reports(monkeypatch, bump)
    res = worker.run_pass(tiny_units("scan-large"))
    assert [e["unit"] for e in res["errors"]] == ["search ekr --field 2^2 --k 2"]
    assert fail_ratio(res) > 0


def test_work_counters_and_seeded_probe_counters_are_not_pinned():
    expected = [{"claimId": "stability-probe", "fieldSpec": "5^1",
                 "counters": {"trials": 10, "maxSize": 25, "nodesVisited": 7}}]
    report_line = json.dumps({"claimId": "stability-probe", "fieldSpec": "5^1", "verdict": "pass",
                              "counters": {"trials": 10, "maxSize": 24, "nodesVisited": 9}})
    assert workloads.check_reports((0, report_line), expected) == []
    short = report_line.replace('"trials": 10', '"trials": 9')
    assert workloads.check_reports((0, short), expected) != []
    assert workloads.check_reports((0, ""), expected) != []


def test_bigfield_checks_catch_wrong_values(monkeypatch):
    units = tiny_units("bigfield")
    weil = charsum.weil_check

    def over_bound(ctx, f, a=1):
        res = weil(ctx, f, a)
        return charsum.CharSumResult(res.sum_value, res.distinct_roots, res.bound, False, False)

    monkeypatch.setattr(charsum, "weil_check", over_bound)
    monkeypatch.setattr(polyfun, "intersection_count", lambda ctx, f, g: 0)
    res = worker.run_pass(units)
    assert res["failed"] == res["attempted"] == len(units)


def test_recorder_sees_layers_and_restores_the_program():
    units = tiny_units("suite-full")
    original = families.intersection_count
    rec = spans.Recorder()
    rec.install()
    try:
        assert families.intersection_count is not original
        assert polyfun.intersection_count is families.intersection_count
        res = worker.run_pass(units, rec)
    finally:
        rec.uninstall()
    assert families.intersection_count is original
    assert res["failed"] == 0 and rec.missing == []
    totals = rec.totals()
    assert totals["search.max_clique"]["attrs"]["nodes"] > 0
    assert totals["cli.claim.ekr-bound"]["calls"] == 1
    for name, t in totals.items():
        assert 0 <= t["self_s"] <= t["incl_s"] + 1e-9, name
    # a unit span's self time plus its children's inclusive time is its duration
    unit = next(s for s in rec.spans if s[2].startswith("unit "))
    children = sum(s[4] - s[3] for s in rec.spans if s[1] == unit[0])
    children += sum(r[1] for (name, parent), r in rec.hot.items() if parent == unit[2])
    assert abs(unit[5] + children - (unit[4] - unit[3])) < 1e-6


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    rec = spans.Recorder()
    rec.install()
    try:
        worker.run_pass(tiny_units("scan-large"), rec)
    finally:
        rec.uninstall()
    per_op = {f"gf.{op}.ns.q{q}": 1.0 for op in ("add", "mul") for q in (49, 59049)}
    plain = {"field_s": {}, "pass_s": [1.0]}
    traced = {"totals": rec.totals(), "alloc_mb": 0.5, "per_op": per_op, "pass_s": [1.25]}
    metrics = run.layer_metrics(plain, traced)
    assert set(metrics) == {name for name, *_ in run.PER_LAYER}
    assert metrics["search.max_clique.nodes"] > 0
    assert metrics["tracing.overhead_s"] == 0.25


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
