"""CLI surface: exit codes, output formats, end-to-end file flows."""

import gc
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polyfam import cli, directions
from polyfam.cli import _mcconnel_report, main
from polyfam.gf import make_field
from polyfam.report import CSV_HEADER, DEFAULT_SEED


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_main_leaves_no_cyclic_garbage(capsys):
    """The parser is built once. A parser per call left about a thousand
    objects in reference cycles (actions, subparsers, formatters) on every
    call, freed only by a full collection."""
    run(capsys, "field", "info", "--field", "3^2")
    gc.collect()
    gc.disable()
    try:
        run(capsys, "field", "info", "--field", "3^2")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_field_info(capsys):
    code, out, _ = run(capsys, "field", "info", "--field", "3^2")
    assert code == 0
    d = json.loads(out)
    assert d["q"] == 9
    assert d["modulus"] == [1, 0, 1]
    assert d["sqrtQ"] == 3


def test_field_arith(capsys):
    code, out, _ = run(capsys, "field", "arith", "--field", "5", "--op", "div",
                       "--x", "3", "--y", "2")
    assert code == 0
    assert json.loads(out)["result"] == 4


def test_usage_errors_exit_2(capsys):
    for argv in (
        ("field", "info", "--field", "6"),
        ("field", "info", "--field", "banana"),
        ("field", "arith", "--field", "5", "--op", "div", "--x", "1", "--y", "0"),
        ("charsum", "mcconnel", "--field", "5", "--delta", "3"),
        ("suite", "--claim", "no-such-claim"),
        ("families", "verify", "--file", "/nonexistent/file.fam"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("field", "arith", "--field", "5", "--op", "add", "--x", "7"),
        ("field", "arith", "--field", "5", "--op", "mul", "--x", "1", "--y", "-1"),
        ("poly", "eval", "--field", "5", "--poly", "1,2", "--x", "9"),
        ("directions", "set", "--field", "5", "--values", "0,1,2,3,9"),
        ("charsum", "weil", "--field", "3^2", "--poly", "9,1"),
        ("charsum", "weil", "--field", "3^2", "--poly", "1,1", "--a", "9"),
        ("charsum", "quad", "--field", "5", "--abc", "1,2,30"),
        ("charsum", "square-test", "--field", "3^2", "--poly", "9"),
        ("charsum", "square-test", "--field", "5^1", "--poly=-1"),
        ("families", "construct", "pencil", "--field", "5", "--point", "9,0"),
        ("families", "construct", "hm", "--field", "5", "--point", "0,1", "--line", "0,-2"),
        ("families", "construct", "tangent", "--field", "5", "--quad", "1,2,30"),
    ],
    ids=lambda argv: " ".join(argv[:2] + argv[-2:]),
)
def test_element_out_of_range_exits_2(capsys, argv):
    """An element index outside 0..q-1, negative ones included, is a bad
    invocation. It used to raise IndexError, or read a negative index from
    the end of a table."""
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert out == ""
    assert "error: element index out of range" in err


def test_exponents_are_not_elements(capsys):
    code, out, _ = run(capsys, "field", "arith", "--field", "5", "--op", "pow",
                       "--x", "2", "--y", "7")
    assert code == 0
    assert json.loads(out)["result"] == 3
    code, out, _ = run(capsys, "field", "arith", "--field", "3^2", "--op", "frobenius",
                       "--x", "2", "--y", "9")
    assert code == 0
    code, out, _ = run(capsys, "charsum", "square-test", "--field", "5^1", "--poly", "4")
    assert code == 0
    assert json.loads(out) == {"isSquare": True, "root": [2]}


def test_element_arguments_need_their_count(capsys):
    for argv in (
        ("charsum", "quad", "--field", "5", "--abc", "1,2"),
        ("families", "construct", "pencil", "--field", "5", "--point", "1,2,3"),
        ("families", "construct", "pencil", "--field", "5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error: --" in err


def test_argparse_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["field", "info"])  # missing --field
    assert ei.value.code == 2
    capsys.readouterr()


def test_poly_eval_and_intersect(capsys):
    code, out, _ = run(capsys, "poly", "eval", "--field", "5", "--poly", "1,0,1",
                       "--x", "2")
    assert code == 0
    assert json.loads(out)["value"] == 0
    code, out, _ = run(capsys, "poly", "intersect", "--field", "5",
                       "--f", "0,0,1", "--g", "0,1,0")
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 2 and d["fast"] is True


def test_charsum_quad_and_weil(capsys):
    code, out, _ = run(capsys, "charsum", "quad", "--field", "7", "--abc", "1,0,1")
    assert code == 0
    assert json.loads(out)["agree"] is True
    code, out, _ = run(capsys, "charsum", "weil", "--field", "3^2",
                       "--poly", "0,1,0,1")
    assert code == 0
    d = json.loads(out)
    assert d["sum"] == 6 and d["withinBound"] is True


def test_directions_carlitz_jsonl(capsys):
    code, out, _ = run(capsys, "directions", "carlitz", "--field", "2^2")
    assert code == 0
    d = json.loads(out)
    assert d["claimId"] == "direction-span-affine"
    assert d["verdict"] == "pass"
    assert d["counters"]["affine"] == 16


def test_directions_carlitz_q9_exhaustive(capsys):
    code, out, _ = run(capsys, "directions", "carlitz", "--field", "3^2")
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "pass"
    assert d["counters"]["affine"] == 81
    assert d["parameters"]["mode"] == "exhaustive"


@pytest.mark.parametrize("flag", ["--mode", "--samples", "--seed"])
def test_directions_carlitz_has_no_sampler_flags(capsys, flag):
    with pytest.raises(SystemExit) as ei:
        main(["directions", "carlitz", "--field", "2^2", flag, "1"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_run_carlitz_extended_is_exhaustive():
    reps = dict(cli.SUITE)["direction-span-affine"]("extended", DEFAULT_SEED)
    assert [r.field_spec for r in reps] == ["2^2", "2^3", "3^2", "2^4", "5^2", "3^3"]
    for r in reps:
        p, n = map(int, r.field_spec.split("^"))
        assert r.verdict == "pass"
        assert r.parameters["mode"] == "exhaustive"
        assert r.counters["scanned"] == (p**n) ** (p**n)
    counters = {r.field_spec: r.counters for r in reps}
    assert counters["2^4"]["affine"] == 256 and counters["2^4"]["candidates"] == 256
    assert counters["5^2"]["affine"] == 625 and counters["5^2"]["nodesVisited"] == 128_401
    assert counters["3^3"]["affine"] == 729 and counters["3^3"]["nodesVisited"] == 94_069


def test_square_scan_extended_tier(capsys):
    code, out, _ = run(capsys, "suite", "--tier", "extended", "--claim",
                       "square-coeff-relation")
    assert code == 0
    got = [
        (d["fieldSpec"], d["parameters"]["frobPower"], d["verdict"], d["counters"])
        for d in map(json.loads, out.splitlines())
    ]
    assert got == [
        ("3^2", 1, "pass", {"scanned": 6561, "squares": 41, "violations": 0}),
        ("3^3", 1, "pass", {"scanned": 531441, "squares": 365, "violations": 0}),
        ("3^3", 2, "pass", {"scanned": 531441, "squares": 365, "violations": 0}),
        ("5^2", 1, "pass", {"scanned": 390625, "squares": 313, "violations": 0}),
        ("3^4", 1, "pass", {"scanned": 43046721, "squares": 3281, "violations": 0}),
    ]


def test_mcconnel_report_budget_exceeded():
    rep = _mcconnel_report(make_field(3, 2), 2, node_budget=5)
    assert rep.verdict == "budget-exceeded"
    assert rep.parameters["nodeBudget"] == 5
    assert rep.counters == {} and rep.witnesses == []


def test_exhausted_budget_prints_report_and_exits_1(capsys, monkeypatch):
    carlitz, mcconnel = directions.carlitz_scan, directions.mcconnel_scan
    monkeypatch.setattr(directions, "carlitz_scan", lambda ctx: carlitz(ctx, node_budget=10))
    monkeypatch.setattr(directions, "mcconnel_scan", lambda ctx, delta, budget: mcconnel(ctx, delta, 5))
    for argv in (
        ("directions", "carlitz", "--field", "3^2"),
        ("charsum", "mcconnel", "--field", "3^2", "--delta", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert json.loads(out)["verdict"] == "budget-exceeded"
        assert err == ""


def test_square_scan_frob_k_past_the_cap_exits_2(capsys):
    """3^100 used to end in an OverflowError traceback."""
    code, out, err = run(capsys, "charsum", "square-scan", "--field", "3^2", "--frob-k", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds the cap" in err


@pytest.mark.parametrize("delta", ["0", "-1", "4"])
def test_mcconnel_bad_delta_exits_2(capsys, delta):
    """delta must exceed 1 and divide q - 1 = 6. Zero used to end in a
    ZeroDivisionError traceback."""
    code, out, err = run(capsys, "charsum", "mcconnel", "--field", "7", "--delta", delta)
    assert (code, out) == (2, "")
    assert err == "error: delta must exceed 1 and divide q-1\n"


def test_mcconnel_human(capsys):
    code, out, _ = run(capsys, "charsum", "mcconnel", "--field", "3^2",
                       "--delta", "2", "--format", "human")
    assert code == 0
    assert "power-map-class" in out and "pass" in out


def test_families_file_flow(tmp_path, capsys):
    fam = tmp_path / "pen.fam"
    code, out, _ = run(capsys, "families", "construct", "pencil", "--field", "7",
                       "--point", "0,0", "--k", "2", "--out", str(fam))
    assert code == 0
    assert json.loads(out)["size"] == 49

    code, out, _ = run(capsys, "families", "verify", "--file", str(fam))
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "pass"
    assert d["parameters"]["familyType"] == "pencil-like"

    code, out, _ = run(capsys, "families", "extend", "--file", str(fam))
    assert code == 0
    d = json.loads(out)
    assert d["unique"] is True and d["points"] == [[0, 0]]


def test_families_extend_at_2_16(tmp_path, capsys):
    """Pencils of q^2 = 2^32 members are sized, not listed."""
    ctx = make_field(2, 16)

    def member(c, r, s):
        # 5 + 3x + c (x - r)(x - s), which meets the line 5 + 3x at r and s
        return ",".join(map(str, (
            ctx.add(5, ctx.mul(c, ctx.mul(r, s))), ctx.add(3, ctx.mul(c, ctx.add(r, s))), c
        )))

    def extend(name, members):
        path = tmp_path / name
        path.write_text("\n".join([ctx.spec_string(), *members]) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "families", "extend", "--file", str(path))
        assert code == 0
        return json.loads(out)

    def on_line(x):
        return [x, ctx.add(5, ctx.mul(3, x))]

    two = [member(c, 10, 200) for c in (1, 2, 77, 65535)]
    assert extend("two.fam", two) == {
        "pencilSizes": [2**32, 2**32], "points": [on_line(10), on_line(200)], "unique": False
    }
    assert extend("one.fam", two + [member(9, 10, 4000)]) == {
        "pencilSizes": [2**32], "points": [on_line(10)], "unique": False
    }


def test_families_verify_fail_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text("5^1\n0,0,1\n1,0,1\n", encoding="utf-8")
    code, out, _ = run(capsys, "families", "verify", "--file", str(bad))
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_families_construct_to_stdout(capsys):
    code, out, _ = run(capsys, "families", "construct", "hm", "--field", "5",
                       "--point", "0,1", "--line", "0,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "5^1/0,1"  # full spec string, modulus included
    assert len(lines) == 16


@pytest.mark.parametrize("argv,size", [
    (("pencil", "--field", "2^16", "--point", "0,0"), 2**32),
    (("hm", "--field", "2^16", "--point", "0,1", "--line", "0,0"), (2**32 + 2**16) // 2),
    (("tangent", "--field", "251^2", "--quad", "1,2,3"), 63001 * 63000 // 2 + 1),
], ids=["pencil", "hm", "tangent"])
def test_families_construct_refuses_past_the_size_cap(capsys, argv, size):
    """The closed-form size is checked before anything is built: these
    families would take gigabytes and minutes to list."""
    make_field(2, 16), make_field(251, 2)  # a cold field build is not the guard's time
    start = time.perf_counter()
    code, out, err = run(capsys, "families", "construct", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"would have {size} members, cap is 65536" in err


def test_families_construct_writes_a_family_at_the_size_cap(tmp_path, capsys):
    fam = tmp_path / "line.fam"
    code, out, _ = run(capsys, "families", "construct", "pencil", "--field", "2^16",
                       "--point", "0,0", "--k", "1", "--out", str(fam))
    assert code == 0
    assert json.loads(out)["size"] == 2**16
    assert len(fam.read_text(encoding="utf-8").splitlines()) == 2**16 + 1


def test_families_threshold(capsys):
    code, out, _ = run(capsys, "families", "threshold", "--q", "25", "--size", "604")
    assert code == 0
    assert json.loads(out)["exceeds"] is True
    code, out, _ = run(capsys, "families", "threshold", "--q", "25", "--size", "603")
    assert json.loads(out)["exceeds"] is False


def test_families_threshold_rejects_k_below_one(capsys):
    code, out, err = run(capsys, "families", "threshold", "--q", "7", "--size", "1", "--k", "0")
    assert code == 2
    assert out == ""
    assert "k >= 1" in err
    code, out, _ = run(capsys, "families", "threshold", "--q", "7", "--size", "7", "--k", "1")
    assert code == 0
    assert json.loads(out) == {"exceeds": True, "q": 7, "size": 7, "threshold": 6}


@pytest.mark.parametrize(
    "argv,message",
    [
        # 2^61 - 1 is prime: trial division to its square root would not end
        (["field", "info", "--field", "2305843009213693951"],
         "field order 2305843009213693951^1 exceeds the table cap 65536"),
        # 10^33 + 7 = 17 times a 32-digit cofactor that factoring would divide on
        (["families", "threshold", "--q", "1000000000000000000000000000000007", "--size", "1"],
         "families threshold takes q up to 2^40 = 1099511627776"),
    ],
)
def test_orders_past_the_bound_are_refused_before_factoring(argv, message):
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "polyfam", *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=10,
    )
    assert (res.returncode, res.stdout) == (2, "")
    assert message in res.stderr


def test_families_threshold_takes_orders_up_to_its_bound(capsys):
    # the largest prime below 2^40, factored by trial division to 2^20
    code, out, _ = run(capsys, "families", "threshold", "--q", "1099511627689", "--size", "1")
    assert code == 0
    assert json.loads(out)["exceeds"] is False
    code, _, err = run(capsys, "families", "threshold", "--q", str(2**40 + 15), "--size", "1")
    assert code == 2
    assert "2^40" in err


def test_search_clique_and_budget(capsys):
    # no --budget: the default node budget, which this search fits in
    code, out, _ = run(capsys, "search", "clique", "--field", "3", "--k", "2")
    assert code == 0
    assert json.loads(out)["size"] == 9
    assert json.loads(out)["proven"] is True
    code, out, _ = run(capsys, "search", "clique", "--field", "3", "--k", "2",
                       "--budget", "1")
    assert code == 1
    assert json.loads(out)["proven"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "ekr", "--field", "2^2", "--budget", "-5"),
        ("search", "clique", "--field", "2^2", "--k", "1", "--budget", "-1"),
    ],
    ids=["ekr", "clique"],
)
def test_negative_budget_exits_2(capsys, argv):
    """A node budget below 0 is a bad invocation: it used to run, and
    report an unproven result with the negative budget."""
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    assert ei.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "node budget must be >= 0" in err
    # 0 is a budget: the search stops at its first node, unproven
    code, out, _ = run(capsys, *argv[:-1], "0")
    assert code == 1
    assert out


def test_search_ekr_past_the_vertex_cap(capsys):
    """2^5 at k = 2 has 32,768 vertices, over VERTEX_CAP: the maximum is
    proven from row 0 with no graph built."""
    code, out, _ = run(capsys, "search", "ekr", "--field", "2^5", "--k", "2")
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "pass"
    assert d["counters"] == {"vertices": 32768, "edges": 284426240, "maxClique": 1024, "nodesExplored": 0}


def test_search_ekr_k1_is_inapplicable(capsys):
    code, out, _ = run(capsys, "search", "ekr", "--field", "3^1", "--k", "1")
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "inapplicable"
    assert d["parameters"] == {"k": 1, "hypothesis": "k >= 2"}
    assert d["witnesses"] == []


def test_search_ekr_equality_case_stops_at_the_budget(capsys):
    """The maximum is proven from row 0 with no node, but deciding the
    equality case takes more than 100: the report is budget-exceeded, names the budget,
    lists no pencils, and the command exits 1."""
    code, out, _ = run(capsys, "search", "ekr", "--field", "2^2", "--budget", "100")
    assert code == 1
    d = json.loads(out)
    assert d["verdict"] == "budget-exceeded"
    assert d["parameters"] == {"k": 2, "proven": True, "nodeBudget": 100}
    assert "maximumCliques" not in d["counters"]
    code, out, _ = run(capsys, "search", "ekr", "--field", "2^2")
    assert code == 0
    assert json.loads(out)["counters"]["maximumCliques"] == 16


def test_search_probe(capsys):
    code, out, _ = run(capsys, "search", "probe", "--field", "5", "--trials", "100",
                       "--seed", "3")
    assert code == 0
    d = json.loads(out)
    assert d["counters"]["trials"] == 100


def test_search_probe_empty_and_negative_trials(capsys):
    code, out, _ = run(capsys, "search", "probe", "--field", "3", "--trials", "0")
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "inapplicable"
    assert d["counters"]["trials"] == 0
    code, out, err = run(capsys, "search", "probe", "--field", "3", "--trials", "-5")
    assert code == 2
    assert out == ""
    assert "trials" in err


def test_search_graph_stdout(capsys):
    code, out, _ = run(capsys, "search", "graph", "--field", "2", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 4


def test_search_graph_out_writes_the_stdout_lines(tmp_path, capsys):
    argv = ("search", "graph", "--field", "2", "--k", "1")
    _, stdout_lines, _ = run(capsys, *argv)
    path = tmp_path / "g.txt"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == json.dumps({"written": str(path), "vertices": 4}) + "\n"
    assert path.read_text(encoding="utf-8") == stdout_lines

@pytest.mark.parametrize(
    "argv",
    [
        ("field", "info", "--field", "3^2"),
        ("field", "arith", "--field", "5", "--op", "div", "--x", "3", "--y", "2"),
        ("poly", "eval", "--field", "5", "--poly", "1,0,1", "--x", "2"),
        ("poly", "intersect", "--field", "5", "--f", "0,0,1", "--g", "0,1,0"),
        ("directions", "set", "--field", "5", "--values", "0,1,2,3,4"),
        ("charsum", "weil", "--field", "3^2", "--poly", "0,1,0,1"),
        ("charsum", "quad", "--field", "7", "--abc", "1,0,1"),
        ("charsum", "square-test", "--field", "5", "--poly", "4"),
        ("families", "extend", "--file", "{pencil}"),
        ("families", "threshold", "--q", "25", "--size", "604"),
        ("search", "clique", "--field", "3", "--k", "2"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_dict_commands_print_sorted_keys(tmp_path, capsys, argv):
    """A command that prints a dict prints one JSON line with sorted keys."""
    pencil = tmp_path / "pen.fam"
    pencil.write_text("5^1\n0,0,1\n0,1,0\n", encoding="utf-8")
    code, out, _ = run(capsys, *(a.format(pencil=pencil) for a in argv))
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "command", [(group, name) for group, name, *_ in cli.COMMANDS],
    ids=lambda command: " ".join(filter(None, command)),
)
def test_every_command_has_help_and_is_in_the_readme(capsys, command):
    words = list(filter(None, command))
    with pytest.raises(SystemExit) as ei:
        main([*words, "--help"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: polyfam {' '.join(words)}")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"polyfam {' '.join(words)}" in readme


def test_suite_claim_filter_jsonl(capsys):
    code, out, _ = run(capsys, "suite", "--claim", "pencil-size")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    d = json.loads(lines[0])
    assert d["claimId"] == "pencil-size"
    assert d["verdict"] == "pass"


def test_suite_csv(capsys):
    code, out, _ = run(capsys, "suite", "--claim", "pencil-size", "--claim",
                       "rootable-count", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3


def test_suite_emits_registry_order(capsys):
    code, out, _ = run(capsys, "suite", "--claim", "hm-size", "--claim",
                       "ekr-bound")
    assert code == 0
    ids = [json.loads(ln)["claimId"] for ln in out.strip().splitlines()]
    assert ids == ["ekr-bound", "ekr-bound", "hm-size"]


def test_suite_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["suite", "--claim", "pencil-size", "--workers", "2"])
    assert ei.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--workers" in err


def load_perfbench(monkeypatch, name):
    """A module of the benchmark harness, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules; the harness's
    # directory is only read
    monkeypatch.setitem(sys.modules, spec.name, mod)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_hooks_resolve(monkeypatch):
    """The benchmark's span recorder wraps these names and the cli.SUITE
    runners; a rename would silently drop them from its trace."""
    for modname, fname, *_ in load_perfbench(monkeypatch, "spans").HOOKS:
        mod = importlib.import_module(f"polyfam.{modname}")
        assert callable(getattr(mod, fname, None)), f"polyfam.{modname}.{fname}"
    assert isinstance(cli.SUITE, list)
    assert all(len(entry) == 2 and callable(entry[1]) for entry in cli.SUITE)
    ids = tuple(cid for cid, _ in cli.SUITE)
    assert ids == load_perfbench(monkeypatch, "workloads").SUITE_CLAIMS


def test_span_recorder_reaches_the_engines_the_suite_calls(monkeypatch, capsys):
    """The suite's runners look their engines up when they run, so the
    recorder's patched module attributes see every call; a runner that
    stored the engine's function object would record none."""
    engines = {
        "direction-span-affine": "directions.carlitz_scan",
        "square-value-shortcut": "charsum.shortcut_scan",
        "square-coeff-relation": "charsum.square_coefficient_scan",
        "stability-probe": "search.stability_probe",
    }
    rec = load_perfbench(monkeypatch, "spans").Recorder()
    rec.install()
    try:
        argv = ["suite", "--tier", "fast"]
        for claim in engines:
            argv += ["--claim", claim]
        code, out, _ = run(capsys, *argv)
    finally:
        rec.uninstall()
    assert code == 0 and rec.missing == []
    reports = [json.loads(line)["claimId"] for line in out.splitlines()]
    totals = rec.totals()
    for claim, engine in engines.items():
        assert reports.count(claim) >= 1, claim
        assert totals.get(engine, {"calls": 0})["calls"] == reports.count(claim), engine


def test_cli_and_a_split_probe_import_no_process_pool():
    """multiprocessing and concurrent.futures cost a fresh CLI process
    about 35 ms and 1.5 MB (suite-full setup_s and peak_rss_mb). Nothing
    imports them, and the probe starts no child process: os.fork raises,
    and no child is left to reap."""
    code = (
        "import os, sys\n"
        "from polyfam import cli, search\n"
        "def fork():\n"
        "    raise AssertionError('the stability probe forked')\n"
        "os.fork = fork\n"
        "pools = ('multiprocessing', 'concurrent.futures')\n"
        "print([m for m in pools if m in sys.modules])\n"
        "search.stability_probe(cli.make_field_of_order(4), 1000)\n"
        "print([m for m in pools if m in sys.modules])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child')\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "[]", "no child"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    out, _ = capsys.readouterr()
    assert "polyfam" in out


@pytest.mark.parametrize(
    "argv", [["--version"], ["suite", "--tier", "fast", "--claim", "pencil-size"]]
)
def test_python_dash_m_runs_the_cli(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "polyfam", *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout


def test_import_leaves_main_unloaded():
    # `import polyfam` is timed by the benchmark's setup; __main__ runs the CLI
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", "import sys, polyfam; print('polyfam.__main__' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
