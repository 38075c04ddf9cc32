"""Report container: serialization, validation, canonical form."""

import json

import pytest

from polyfam.report import CSV_HEADER, DEFAULT_SEED, Report, Stopwatch
from report_io import report_from_json


def sample(**over):
    base = dict(
        claim_id="quad-sum-identity",
        field_spec="5^1",
        verdict="pass",
        parameters={"n": 1},
        witnesses=[],
        counters={"checked": 100, "bad": 0},
        wall_time_ms=12,
        seed=7,
        primary_counter="checked",
    )
    base.update(over)
    return Report(**base)


def test_json_roundtrip():
    r = sample()
    r2 = report_from_json(r.to_json())
    assert r2.to_json() == r.to_json()
    assert r2.claim_id == "quad-sum-identity"
    assert r2.counters == {"checked": 100, "bad": 0}


def test_json_uses_camel_case_keys():
    d = json.loads(sample().to_json())
    assert set(d) >= {
        "claimId",
        "fieldSpec",
        "verdict",
        "parameters",
        "witnesses",
        "counters",
        "wallTimeMs",
        "toolVersion",
    }
    assert "claim_id" not in d


def test_canonical_json_masks_wall_time():
    a = sample(wall_time_ms=5)
    b = sample(wall_time_ms=99999)
    assert a.to_json() != b.to_json()
    assert a.canonical_json() == b.canonical_json()


def test_verdict_validation():
    for v in ("pass", "fail", "inapplicable", "budget-exceeded"):
        sample(verdict=v, witnesses=[{"x": 1}] if v == "fail" else [])
    with pytest.raises(ValueError):
        sample(verdict="ok")


def test_fail_requires_witness():
    with pytest.raises(ValueError):
        sample(verdict="fail", witnesses=[])
    sample(verdict="fail", witnesses=[{"a": 0}])


def test_verdict_follows_the_witnesses():
    assert Report("quad-sum-identity", "5^1").verdict == "pass"
    assert Report("quad-sum-identity", "5^1", witnesses=[{"a": 0}]).verdict == "fail"
    # explicit outcomes that are not pass or fail are kept
    for v in ("inapplicable", "budget-exceeded"):
        assert sample(verdict=v, witnesses=[]).verdict == v
    # a witness refutes the claim even when the run stopped early
    assert sample(verdict="budget-exceeded", witnesses=[{"a": 0}]).verdict == "fail"
    with pytest.raises(ValueError):
        sample(verdict="pass", witnesses=[{"a": 0}])


def test_from_dict_keeps_the_verdict():
    for r in (sample(), sample(verdict="budget-exceeded"), sample(verdict=None, witnesses=[{"a": 0}])):
        assert report_from_json(r.to_json()).verdict == r.verdict


def test_tool_version_autofilled():
    import polyfam

    assert sample().tool_version == polyfam.__version__


def test_primary_value_and_csv_row():
    r = sample()
    assert r.primary_value() == 100
    row = r.csv_row()
    assert len(row) == len(CSV_HEADER)
    assert row[0] == "quad-sum-identity"
    assert row[2] == "pass"
    assert row[3] == 100
    # no primary counter declared: the csv cell stays empty
    r2 = sample(primary_counter=None)
    assert r2.csv_row()[3] == ""


def test_human_line_mentions_claim_and_verdict():
    line = sample().human_line()
    assert "quad-sum-identity" in line
    assert "pass" in line
    assert "5^1" in line


def test_default_seed_value():
    assert DEFAULT_SEED == 20248


def test_stopwatch_monotone():
    w = Stopwatch()
    a = w.ms()
    b = w.ms()
    assert 0 <= a <= b
