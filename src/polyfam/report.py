"""Uniform result record for every verification and scan.

One Report per claim run. Serialization is JSON with fixed camelCase keys
and sorted dictionaries, so two runs with the same inputs and seed differ
at most in wallTimeMs; canonical_json() zeroes that field for byte
comparison.
"""

from __future__ import annotations

import json
import time

from .record import Record

VERDICTS = ("pass", "fail", "inapplicable", "budget-exceeded")

DEFAULT_SEED = 20240 + 8

# node budget of every search: clique search, direction span, power map
DEFAULT_NODE_BUDGET = 10**7

# most witnesses a report lists
WITNESS_CAP = 8


class Report(Record):
    """One claim run. A witness refutes the claim, so the report fails;
    without one it passes, unless the run checked nothing (`inapplicable`)
    or stopped at its budget (`budget-exceeded`). parameters, witnesses
    and counters default to a new empty dict, list and dict."""

    _fields = (
        "claim_id",
        "field_spec",
        "verdict",
        "parameters",
        "witnesses",
        "counters",
        "wall_time_ms",
        "seed",
        "tool_version",
        "primary_counter",
    )

    def __init__(
        self,
        claim_id: str,
        field_spec: str,
        verdict: str | None = None,
        parameters: dict | None = None,
        witnesses: list | None = None,
        counters: dict | None = None,
        wall_time_ms: int = 0,
        seed: int | None = None,
        tool_version: str = "",
        primary_counter: str | None = None,
    ):
        if not tool_version:
            from . import __version__

            tool_version = __version__
        if verdict not in (None, *VERDICTS):
            raise ValueError(f"unknown verdict {verdict!r}")
        witnesses = [] if witnesses is None else witnesses
        if witnesses and verdict != "pass":
            verdict = "fail"
        elif verdict is None:
            verdict = "pass"
        if (verdict == "fail") != bool(witnesses):
            raise ValueError("a report fails exactly when it carries a witness")
        self.claim_id = claim_id
        self.field_spec = field_spec
        self.verdict = verdict
        self.parameters = {} if parameters is None else parameters
        self.witnesses = witnesses
        self.counters = {} if counters is None else counters
        self.wall_time_ms = wall_time_ms
        self.seed = seed
        self.tool_version = tool_version
        self.primary_counter = primary_counter

    def to_dict(self) -> dict:
        return {
            "claimId": self.claim_id,
            "fieldSpec": self.field_spec,
            "verdict": self.verdict,
            "parameters": self.parameters,
            "witnesses": self.witnesses,
            "counters": self.counters,
            "wallTimeMs": self.wall_time_ms,
            "seed": self.seed,
            "toolVersion": self.tool_version,
            "primaryCounter": self.primary_counter,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def canonical_json(self) -> str:
        """Byte-stable form: identical inputs and seed give identical bytes.
        The wall-clock counter is zeroed, everything else is kept."""
        d = self.to_dict()
        d["wallTimeMs"] = 0
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def primary_value(self):
        if self.primary_counter is None:
            return ""
        return self.counters.get(self.primary_counter, "")

    def csv_row(self) -> list:
        return [
            self.claim_id,
            self.field_spec,
            self.verdict,
            self.primary_value(),
            self.wall_time_ms,
        ]

    def human_line(self) -> str:
        extra = ""
        if self.primary_counter is not None:
            extra = f" {self.primary_counter}={self.primary_value()}"
        return (
            f"{self.claim_id} [{self.field_spec}] {self.verdict}{extra}"
            f" ({self.wall_time_ms} ms)"
        )


CSV_HEADER = ["claimId", "fieldSpec", "verdict", "primaryCounter", "wallTimeMs"]


class Stopwatch:
    """Millisecond wall-clock timer for report construction."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def ms(self) -> int:
        return int((time.perf_counter() - self.t0) * 1000)
