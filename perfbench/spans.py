"""Span recorder for the traced benchmark run.

It wraps named public functions of polyfam in place. A function is
patched under every name that binds it in a ``polyfam`` module, since for
example ``families`` imports ``intersection_count`` directly. Hot leaf
calls (millions per run) are aggregated per (name, parent) as count,
inclusive time, self time and work; coarse calls are kept as individual
spans with start, end, self time, parent and attributes. Everything stays
in memory until ``dump`` writes it out at the end of the run.

Self time is a call's duration minus the durations of the wrapped calls
it made, so time in unwrapped helpers counts toward the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

HOT, COARSE = "hot", "coarse"


def _counter(name):
    return lambda args, res: res.counters[name]


# (module, function, span name, kind, {attribute: extractor(args, result)})
HOOKS = (
    ("polyfun", "intersection_count", "polyfun.intersection_count", HOT, {}),
    ("polyfun", "evaluate", "polyfun.evaluate", HOT, {}),
    ("families", "extend_unique", "families.extend_unique", HOT, {}),
    ("families", "is_t_intersecting", "families.is_t_intersecting", HOT, {}),
    ("families", "common_point", "families.common_point", HOT, {}),
    ("charsum", "perfect_square_test", "charsum.perfect_square_test", HOT, {}),
    ("charsum", "char_sum", "charsum.char_sum", HOT, {"evals": lambda args, res: args[0].q}),
    ("charsum", "weil_check", "charsum.weil_check", COARSE, {}),
    ("charsum", "shortcut_scan", "charsum.shortcut_scan", COARSE, {"scanned": _counter("scanned")}),
    ("charsum", "square_coefficient_scan", "charsum.square_coefficient_scan", COARSE,
     {"scanned": _counter("scanned")}),
    ("search", "build_graph", "search.build_graph", COARSE,
     {"vertices": lambda args, res: res.n_vertices}),
    ("search", "max_clique", "search.max_clique", COARSE,
     {"nodes": lambda args, res: res.nodes_explored}),
    ("search", "stability_probe", "search.stability_probe", COARSE, {"trials": _counter("trials")}),
    ("directions", "carlitz_scan", "directions.carlitz_scan", COARSE,
     {"nodes": _counter("nodesVisited"), "candidates": _counter("candidates")}),
    ("cli", "_emit", "report.emit", COARSE, {}),
    ("cli", "main", "cli.main", COARSE, {}),
)


class Recorder:
    def __init__(self):
        self._clock = time.perf_counter
        self._stack: list = []  # frames: [name, span id, child time]
        self._restore: list = []
        self.hot: dict = {}  # (name, parent name) -> [calls, incl_s, self_s, work]
        self.spans: list = []  # [id, parent id, name, start, end, self_s, attrs]
        self.missing: list = []  # hooks the program no longer has

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import polyfam.cli

        modules = [m for n, m in list(sys.modules.items()) if n == "polyfam" or n.startswith("polyfam.")]
        for modname, fname, name, kind, attrs in HOOKS:
            home = sys.modules.get(f"polyfam.{modname}")
            orig = getattr(home, fname, None)
            if orig is None:
                self.missing.append(f"polyfam.{modname}.{fname}")
                continue
            wrapped = self._wrap(name, orig, kind == HOT, attrs)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapped)
        suite = getattr(polyfam.cli, "SUITE", None)
        if suite is None:
            self.missing.append("polyfam.cli.SUITE")
            return
        original = list(suite)
        suite[:] = [(cid, self._wrap(f"cli.claim.{cid}", fn, False, {})) for cid, fn in suite]
        self._restore.append(lambda: suite.__setitem__(slice(None), original))

    def _patch(self, module, attr, value) -> None:
        old = getattr(module, attr)
        setattr(module, attr, value)
        self._restore.append(lambda: setattr(module, attr, old))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, hot, attrs):
        stack, clock = self._stack, self._clock
        if hot:
            agg = self.hot

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                frame = [name, None, 0.0]
                parent = stack[-1] if stack else None
                stack.append(frame)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    if parent is not None:
                        parent[2] += dt
                    key = (name, parent[0] if parent is not None else None)
                    rec = agg.get(key)
                    if rec is None:
                        rec = agg[key] = [0, 0.0, 0.0, 0]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[2]
                for extract in attrs.values():  # at most one work counter per hot hook
                    rec[3] += extract(args, res)
                return res

            return hot_wrapper

        @functools.wraps(fn)
        def coarse_wrapper(*args, **kwargs):
            with self.span(name) as record:
                res = fn(*args, **kwargs)
            record[6].update({k: extract(args, res) for k, extract in attrs.items()})
            return res

        return coarse_wrapper

    @contextmanager
    def span(self, name: str):
        """Record one coarse span around the body; yields its record."""
        stack = self._stack
        parent = stack[-1] if stack else None
        record = [len(self.spans), parent[1] if parent is not None else None, name, 0.0, 0.0, 0.0, {}]
        self.spans.append(record)
        frame = [name, record[0], 0.0]
        stack.append(frame)
        record[3] = self._clock()
        try:
            yield record
        finally:
            record[4] = end = self._clock()
            stack.pop()
            dt = end - record[3]
            record[5] = dt - frame[2]
            if parent is not None:
                parent[2] += dt

    # -- reading ------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, incl_s, self_s, summed attributes and the
        inclusive duration of each coarse call."""
        out: dict = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "attrs": {}, "durations": []})

        for (name, _parent), (calls, incl, self_s, work) in self.hot.items():
            e = entry(name)
            e["calls"] += calls
            e["incl_s"] += incl
            e["self_s"] += self_s
            e["attrs"]["work"] = e["attrs"].get("work", 0) + work
        for _id, _parent, name, start, end, self_s, attrs in self.spans:
            e = entry(name)
            e["calls"] += 1
            e["incl_s"] += end - start
            e["self_s"] += self_s
            e["durations"].append(end - start)
            for k, v in attrs.items():
                e["attrs"][k] = e["attrs"].get(k, 0) + v
        return out

    def dump(self, path) -> None:
        names = {r[0]: r[2] for r in self.spans}
        doc = {
            "missingHooks": self.missing,
            "aggregated": [
                {"name": name, "parent": parent, "calls": c, "inclS": incl, "selfS": s, "work": w}
                for (name, parent), (c, incl, s, w) in sorted(self.hot.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "spans": [
                {"id": i, "parent": p, "parentName": names.get(p), "name": n, "start": st, "end": en,
                 "selfS": s, "attrs": a}
                for i, p, n, st, en, s, a in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
