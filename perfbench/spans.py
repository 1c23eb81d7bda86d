"""Spans around calls into centaut's public functions, and the layer metrics.

The traced run replaces each function in TRACED, in every loaded centaut
module that holds a reference to it, with a wrapper that records one span
per call: name, start, end, parent span and entry id.  Spans stay in memory
until the run ends.  A name missing from the program is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# (module, function) pairs, by the module that defines the function.
TRACED = (
    ("harness", "analyze_source"),
    ("groupio", "resolve_source"),
    ("families", "parse_group_spec"),
    ("groups", "group_from_cayley_table"),
    ("structure", "structure_report"),
    ("structure", "commutator_table"),
    ("structure", "quotient"),
    ("criteria", "classify_report"),
    ("central", "central_automorphism_count"),
    ("harness", "format_report"),
)

# Rules of centaut.criteria that can decide a group; one counter each.
RULES = (
    "Class2",
    "MaximalClass",
    "OrderP5",
    "OrderP6",
    "OrderP7",
    "Coclass2",
    "Coclass3",
    "Coclass4",
    "Theorem21",
)

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    ("groups.validate_s", "s"),
    ("groups.validate_calls", "count"),
    ("groups.validated_cells", "count"),
    ("groups.reject_s", "s"),
    ("groupio.read_s", "s"),
    ("groupio.bytes", "B"),
    ("families.build_s", "s"),
    ("structure.report_s", "s"),
    ("structure.commutator_table_calls", "count"),
    ("structure.quotient_calls", "count"),
    ("central.enumerate_s", "s"),
    ("central.candidates", "count"),
    ("central.candidates_per_s", "1/s"),
    ("central.bijective_frac", "ratio"),
    ("criteria.classify_s", "s"),
    *((f"criteria.decided.{rule}", "count") for rule in RULES),
    ("criteria.undecided", "count"),
    ("harness.analyze_s", "s"),
    ("harness.self_s", "s"),
    ("harness.format_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    entry: Optional[str]
    failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _table_cells(args, kwargs) -> dict:
    table = args[0] if args else kwargs.get("table")
    return {"cells": len(table) ** 2}


def _file_bytes(args, kwargs) -> dict:
    source = args[0] if args else kwargs.get("source", "")
    if isinstance(source, str) and os.path.isfile(source):
        return {"bytes": os.path.getsize(source)}
    return {}


def _enumeration(rep) -> dict:
    return {
        "candidates": getattr(rep, "hom_candidates", 0),
        "auts": getattr(rep, "aut_count", 0),
    }


def _verdict(v) -> dict:
    return {"decision": getattr(v, "decision", None), "rule": getattr(v, "rule", None)}


# What each wrapper notes about a call: from its arguments before the span
# starts, and from its result after the span ends.
_BEFORE: dict[str, Callable[[tuple, dict], dict]] = {
    "groups.group_from_cayley_table": _table_cells,
    "groupio.resolve_source": _file_bytes,
}
_AFTER: dict[str, Callable[[Any], dict]] = {
    "central.central_automorphism_count": _enumeration,
    "criteria.classify_report": _verdict,
}


class Tracer:
    """Records spans while installed; `entry` tags the spans of one entry."""

    def __init__(self):
        self.spans: list[Span] = []
        self.entry: Optional[str] = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else {}
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.entry, info=info)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                span.info.update(after(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a centaut module refers to it."""
        self.absent = []
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "centaut" or name.startswith("centaut."))
        ]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"centaut.{mod_name}")
            fn = getattr(home, fn_name, None) if home else None
            name = f"{mod_name}.{fn_name}"
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                if getattr(m, fn_name, None) is fn:
                    self._patched.append((m, fn_name, fn))
                    setattr(m, fn_name, wrapper)

    def uninstall(self) -> None:
        for m, fn_name, fn in reversed(self._patched):
            setattr(m, fn_name, fn)
        self._patched.clear()


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so children of one span never overlap and
    their union is their sum.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one traced pass (no overhead)."""
    own = self_seconds(spans)
    m = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_s"}
    layer_of = {
        "groups.group_from_cayley_table": "groups.validate_s",
        "groupio.resolve_source": "groupio.read_s",
        "families.parse_group_spec": "families.build_s",
        "structure.structure_report": "structure.report_s",
        "structure.commutator_table": "structure.report_s",
        "structure.quotient": "structure.report_s",
        "central.central_automorphism_count": "central.enumerate_s",
        "criteria.classify_report": "criteria.classify_s",
        "harness.analyze_source": "harness.self_s",
    }
    auts = 0
    for s, t in zip(spans, own):
        if s.name in layer_of:
            m[layer_of[s.name]] += t
        if s.name == "groups.group_from_cayley_table":
            m["groups.validate_calls"] += 1
            m["groups.validated_cells"] += s.info.get("cells", 0)
            if s.failed:
                m["groups.reject_s"] += s.seconds
        elif s.name == "groupio.resolve_source":
            m["groupio.bytes"] += s.info.get("bytes", 0)
        elif s.name == "structure.commutator_table":
            m["structure.commutator_table_calls"] += 1
        elif s.name == "structure.quotient":
            m["structure.quotient_calls"] += 1
        elif s.name == "central.central_automorphism_count":
            m["central.candidates"] += s.info.get("candidates", 0)
            auts += s.info.get("auts", 0)
        elif s.name == "criteria.classify_report" and not s.failed:
            if s.info.get("decision") == "Undecided":
                m["criteria.undecided"] += 1
            elif s.info.get("rule") in RULES:
                m[f"criteria.decided.{s.info['rule']}"] += 1
        elif s.name == "harness.analyze_source":
            m["harness.analyze_s"] += s.seconds
        elif s.name == "harness.format_report":
            m["harness.format_s"] += s.seconds
    if m["central.enumerate_s"] > 0:
        m["central.candidates_per_s"] = m["central.candidates"] / m["central.enumerate_s"]
    if m["central.candidates"] > 0:
        m["central.bijective_frac"] = auts / m["central.candidates"]
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
