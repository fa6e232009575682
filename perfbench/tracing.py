"""Spans recorded from outside the program, by wrapping each layer's public
functions for the length of a traced pass.

A span records its name, start, end, parent span and decision id.  Spans
stay in memory and are written out once, when the benchmark ends.
``Oracle.query`` runs tens of thousands of times per wide decision, so it
is not given spans of its own: each call adds its count and duration to
the enclosing span (``agg_calls``/``agg_s``), which keeps memory flat and
still lets every span's self time exclude the queries it issued.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import unanimity.feasibility as feasibility
import unanimity.geometry as geometry
import unanimity.instances as instances
import unanimity.solvers as solvers
from unanimity.oracle import Oracle

QUERY = "oracle.query"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "decision",
                 "child_s", "agg_calls", "agg_s", "info")

    def __init__(self, sid, name, start, parent, decision):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.decision = decision
        self.child_s = 0.0  # time covered by child spans and aggregated queries
        self.agg_calls = 0
        self.agg_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        doc = {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "decision": self.decision}
        if self.agg_calls:
            doc["query_calls"] = self.agg_calls
            doc["query_s"] = self.agg_s
        if self.info:
            doc["info"] = self.info
        return doc


class Tracer:
    """In-memory span recorder for one benchmark process (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.decision = None
        self.orphan_query_calls = 0
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), parent, self.decision)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, info=None):
        """``fn`` inside a span; ``info(args, result)`` may annotate it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if info is not None:
                s.info = info(args, result)
            return result

        return traced

    def wrap_query(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if stack:
                    top = stack[-1]
                    top.agg_calls += 1
                    top.agg_s += dt
                    top.child_s += dt
                else:
                    self.orphan_query_calls += 1

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()))
                fh.write("\n")


def _select_info(args, result):
    return {"rows": len(args[0].rows)}


def _witness_info(args, result):
    return {"rows": len(args[0].rows), "kept": len(result.agents)}


def _read_info(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, module, attribute, info) for every wrapped public function.
_TARGETS = (
    ("instances.generate", instances, "generate", None),
    ("instances.write_instance", instances, "write_instance", None),
    ("instances.read_instance", instances, "read_instance", _read_info),
    ("solvers.solve", solvers, "solve_baseline", None),
    ("solvers.solve", solvers, "solve_deterministic", None),
    ("solvers.solve", solvers, "solve_randomized", None),
    ("solvers.weighted_sample", solvers, "weighted_sample", None),
    ("geometry.learn_hyperplane", geometry, "learn_hyperplane", None),
    ("geometry.exact_threshold", geometry, "exact_threshold", None),
    ("geometry.exact_threshold_pred", geometry, "exact_threshold_pred", None),
    ("geometry.rational_reconstruct", geometry, "rational_reconstruct", None),
    ("feasibility.select", feasibility, "select", _select_info),
    ("feasibility.helly_witness", feasibility, "helly_witness", _witness_info),
    ("feasibility.feasible_full", feasibility, "feasible_full", None),
)


def _rebind(original, replacement) -> list:
    """Point every ``unanimity.*`` module global bound to ``original`` at
    ``replacement``; returns what to undo."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "unanimity" or mod_name.startswith("unanimity.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target function for the duration of the block."""
    undo = []
    original_query = Oracle.query
    try:
        for name, mod, attr, info in _TARGETS:
            original = getattr(mod, attr)
            undo += _rebind(original, tracer.wrap(name, original, info))
        Oracle.query = tracer.wrap_query(original_query)
        yield tracer
    finally:
        Oracle.query = original_query
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, total seconds and self seconds; the aggregated
    oracle queries appear under ``oracle.query``."""
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.self_s
        if s.agg_calls:
            q = out[QUERY]
            q["calls"] += s.agg_calls
            q["s"] += s.agg_s
            q["self_s"] += s.agg_s
    return dict(out)
