"""Reading a Report back from its JSON line, for the tests that compare
what the CLI printed. The program only writes reports."""

import json

from polyfam.report import Report


def report_from_json(text: str) -> Report:
    d = json.loads(text)
    return Report(
        claim_id=d["claimId"],
        field_spec=d["fieldSpec"],
        verdict=d["verdict"],
        parameters=d.get("parameters", {}),
        witnesses=d.get("witnesses", []),
        counters=d.get("counters", {}),
        wall_time_ms=d.get("wallTimeMs", 0),
        seed=d.get("seed"),
        tool_version=d.get("toolVersion", ""),
        primary_counter=d.get("primaryCounter"),
    )
