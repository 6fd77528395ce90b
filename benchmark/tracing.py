"""Spans recorded around the package's public calls, from outside it.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the operation it belongs to.
Spans stay in memory until the run ends.  A span's self time is its
duration minus that of its direct children; calls into the package
never overlap, so the children's durations simply add up.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

OPERATION = "benchmark.operation"

# api attribute -> span name; the three builders share a layer
SPAN_NAMES = {
    "parse_program": "lang.parse_program",
    "decompose": "spl.decompose",
    "build_lospre": "instances.build_lospre",
    "build_bank_selection": "instances.build_bank_selection",
    "build_regalloc": "instances.build_regalloc",
    "PcspInstance": "solver.PcspInstance",
    "json_loads": "json.loads",
    "instance_from_json": "solver.instance_from_json",
    "solve": "solver.solve",
    "oracle_solve": "solver.oracle_solve",
    "evaluate": "solver.evaluate",
}


def layer_of(span_name: str) -> str:
    return "instances.build" if span_name.startswith("instances.build_") else span_name


def plain_api() -> SimpleNamespace:
    """The package's public functions, as a user calls them."""
    import splcsp

    funcs = {name: getattr(splcsp, name) for name in SPAN_NAMES if name != "json_loads"}
    return SimpleNamespace(json_loads=json.loads, **funcs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, open_[-1] if open_ else -1, self.op])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = perf_counter()

        return traced

    def api(self, plain: SimpleNamespace) -> SimpleNamespace:
        return SimpleNamespace(**{k: self.wrap(SPAN_NAMES[k], fn) for k, fn in vars(plain).items()})

    @contextmanager
    def operation(self, op: int):
        """The root span of one operation; its self time is the
        benchmark's own code between the package calls."""
        self.op = op
        index = len(self.spans)
        self.spans.append([OPERATION, perf_counter(), 0.0, -1, op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()
            self.op = -1

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fp:
            json.dump([dict(zip(keys, span)) for span in self.spans], fp)
