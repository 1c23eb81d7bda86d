"""Run the rule-based classifier against the enumeration oracle over a corpus.

Records are produced in manifest order regardless of worker count, and the
serialized reports carry no timing or host data, so repeated runs emit
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .central import DEFAULT_HOM_CAP, CentralAutReport, central_automorphism_count
from .criteria import MINIMAL, NOT_MINIMAL, UNDECIDED, Verdict, classify_report
from .errors import AbelianGroup, CentautError, EnumerationCapExceeded
from .groupio import Manifest, default_corpus, file_bytes, resolve_source
from .groups import DEFAULT_ORDER_CAP
from .structure import StructureReport, structure_report

REPORT_FORMATS = ("json", "csv", "table")

# The stages of analyze_source, in the order they run.
STAGES = ("resolve", "structure", "classify", "enumerate")


@dataclass
class AnalysisRecord:
    """Everything the harness learned about one manifest entry.

    seconds is wall time for the whole entry and stages its split over
    STAGES (a stage that did not run is absent); both stay out of
    serialized reports so output is reproducible byte for byte.
    """

    name: str
    source: str
    status: str = "error"  # ok | skipped | error
    error: Optional[str] = None
    order: Optional[int] = None
    prime: Optional[int] = None
    structure: Optional[StructureReport] = None
    central: Optional[CentralAutReport] = None
    central_skipped: Optional[str] = None
    verdict: Optional[Verdict] = None
    agreement: Optional[bool] = None
    expected: Optional[str] = None
    expected_ok: Optional[bool] = None
    seconds: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)


@contextmanager
def _stage(rec: AnalysisRecord, name: str) -> Iterator[None]:
    """Add the wall time of the block to rec.stages[name], even on error."""
    start = time.perf_counter()
    try:
        yield
    finally:
        rec.stages[name] = rec.stages.get(name, 0.0) + time.perf_counter() - start


def analyze_source(
    name: str,
    source: str,
    expected: Optional[str] = None,
    cap: int = DEFAULT_ORDER_CAP,
    hom_cap: int = DEFAULT_HOM_CAP,
) -> AnalysisRecord:
    """Build, classify and brute-force one group; a group error or a
    failed check of the count's own (RuntimeError) ends in an error record,
    never a raise."""
    rec = AnalysisRecord(name=name, source=source, expected=expected)
    start = time.perf_counter()
    try:
        with _stage(rec, "resolve"):
            G = resolve_source(source, cap=cap)
        rec.order = G.order
        rec.prime = G.prime
        with _stage(rec, "structure"):
            rec.structure = structure_report(G)
        try:
            with _stage(rec, "classify"):
                rec.verdict = classify_report(rec.structure)
        except AbelianGroup as e:
            rec.status = "skipped"
            rec.error = f"abelian group: {e}"
            return rec
        try:
            with _stage(rec, "enumerate"):
                rec.central = central_automorphism_count(G, hom_cap=hom_cap)
        except EnumerationCapExceeded as e:
            rec.central_skipped = str(e)
        if rec.central is not None and rec.verdict.decision != UNDECIDED:
            rec.agreement = (rec.verdict.decision == MINIMAL) == rec.central.minimal
            rec.verdict = Verdict(
                rec.verdict.decision,
                rec.verdict.rule,
                rec.verdict.details,
                brute_force_agrees=rec.agreement,
            )
        if expected is not None and rec.verdict is not None:
            rec.expected_ok = rec.verdict.decision == expected
        rec.status = "ok"
    except (CentautError, RuntimeError) as e:
        rec.status = "error"
        rec.error = f"{type(e).__name__}: {e}"
    finally:
        rec.seconds = time.perf_counter() - start
    return rec


def _worker(args: tuple) -> AnalysisRecord:
    name, source, expected, cap, hom_cap = args
    return analyze_source(name, source, expected, cap=cap, hom_cap=hom_cap)


@dataclass
class VerificationReport:
    records: list[AnalysisRecord]

    @property
    def summary(self) -> dict:
        s = {
            "entries": len(self.records),
            "minimal": 0,
            "notMinimal": 0,
            "undecided": 0,
            "mismatches": 0,
            "skipped": 0,
            "errors": 0,
            "expectationFailures": 0,
            "minimalClassGe3": 0,
        }
        for r in self.records:
            if r.status == "error":
                s["errors"] += 1
                continue
            if r.status == "skipped" or r.central_skipped is not None:
                s["skipped"] += 1
            if r.verdict is None:
                continue
            key = {MINIMAL: "minimal", NOT_MINIMAL: "notMinimal", UNDECIDED: "undecided"}
            s[key[r.verdict.decision]] += 1
            if r.agreement is False:
                s["mismatches"] += 1
            if r.expected_ok is False:
                s["expectationFailures"] += 1
            if (
                r.verdict.decision == MINIMAL
                and r.structure is not None
                and r.structure.nilpotency_class >= 3
            ):
                s["minimalClassGe3"] += 1
        return s

    @property
    def ok(self) -> bool:
        s = self.summary
        return s["mismatches"] == 0 and s["expectationFailures"] == 0 and s["errors"] == 0


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size for `jobs` requested workers: at most one per task and per CPU."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def run_verification(
    manifest: Optional[Manifest] = None,
    jobs: int = 1,
    cap: int = DEFAULT_ORDER_CAP,
    hom_cap: int = DEFAULT_HOM_CAP,
) -> VerificationReport:
    """Analyze every manifest entry, preserving manifest order in the output."""
    if manifest is None:
        manifest = default_corpus()
    tasks = [(e.name, e.source, e.expected, cap, hom_cap) for e in manifest.entries]
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        records = [_worker(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_worker, tasks))
    return VerificationReport(records)


def format_timings(records: Sequence[AnalysisRecord]) -> str:
    """Seconds per stage summed over the records, and their total; the
    resolve row adds the bytes of the group files read and their rate, and
    the enumerate row the candidate maps enumerated, the label rows that
    tested them (one per class of candidates, central._label_classes) and
    their label cells (rows x |G/G'| per group), the maps and the cells
    each with its rate.  For a separate channel, never for the report."""
    totals = {name: sum(r.stages.get(name, 0.0) for r in records) for name in STAGES}
    totals["total"] = sum(r.seconds for r in records)
    lines = [f"{'stage':<10} {'seconds':>9}"]
    lines += [f"{name:<10} {sec:>9.3f}" for name, sec in totals.items()]
    nbytes = sum(file_bytes(r.source) for r in records)
    sec = totals["resolve"]
    rate = f"{nbytes / sec / 1e6:.1f}" if sec > 0 else "-"
    lines[1 + STAGES.index("resolve")] += f"  {nbytes} bytes read, {rate} MB/s"
    enumerated = [r for r in records if r.central is not None]
    maps = sum(r.central.hom_candidates for r in enumerated)
    rows = sum(r.central.label_rows for r in enumerated)
    cells = sum(r.central.label_rows * r.structure.abelianization.order for r in enumerated)
    sec = totals["enumerate"]
    rates = [f"{n / sec:.0f}" if sec > 0 else "-" for n in (maps, cells)]
    lines[1 + STAGES.index("enumerate")] += (
        f"  {maps} candidates, {rates[0]}/s, {rows} label rows, {cells} label cells, {rates[1]}/s"
    )
    return "\n".join(lines) + "\n"


def _structure_dict(rep: StructureReport) -> dict:
    return {
        "class": rep.nilpotency_class,
        "coclass": rep.coclass,
        "d": rep.d,
        "dCenter": rep.d_center,
        "dInnerCenter": rep.d_inner_center,
        "abelianization": list(rep.abelianization.exponents),
        "center": list(rep.center.exponents),
        "innerCenter": list(rep.inner_center.exponents),
        "centerInDerived": rep.center_in_derived,
        "secondCenterAbelian": rep.second_center_abelian,
        "orderExp": rep.order_exp,
    }


def record_dict(rec: AnalysisRecord) -> dict:
    """JSON form of a record; excludes timing by design."""
    out: dict = {
        "name": rec.name,
        "source": rec.source,
        "status": rec.status,
        "error": rec.error,
        "order": rec.order,
        "prime": rec.prime,
        "structure": _structure_dict(rec.structure) if rec.structure else None,
        "central": None,
        "centralSkipped": rec.central_skipped,
        "verdict": None,
        "agreement": rec.agreement,
        "expected": rec.expected,
        "expectedOk": rec.expected_ok,
    }
    if rec.central is not None:
        out["central"] = {
            "homCandidates": rec.central.hom_candidates,
            "autCount": rec.central.aut_count,
            "zInnOrder": rec.central.z_inn_order,
            "minimal": rec.central.minimal,
        }
    if rec.verdict is not None:
        out["verdict"] = {
            "decision": rec.verdict.decision,
            "rule": rec.verdict.rule,
            "details": rec.verdict.details,
            "bruteForceAgrees": rec.verdict.brute_force_agrees,
        }
    return out


_CSV_FIELDS = (
    "name,source,status,order,prime,class,coclass,decision,rule,"
    "homCandidates,autCount,zInnOrder,agreement,expected,expectedOk,error"
).split(",")


def format_report(report: VerificationReport, fmt: str = "json") -> str:
    """Deterministic rendering; identical runs give identical bytes."""
    if fmt == "json":
        payload = {
            "format": "verification-report",
            "summary": report.summary,
            "records": [record_dict(r) for r in report.records],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
        w.writeheader()
        for r in report.records:
            d = record_dict(r)
            # no key repeats between a record and its nested dicts
            flat = {**d, **(d["structure"] or {}), **(d["verdict"] or {}), **(d["central"] or {})}
            w.writerow({k: ("" if flat.get(k) is None else flat[k]) for k in _CSV_FIELDS})
        return buf.getvalue()
    if fmt == "table":
        head = f"{'name':<12} {'order':>6} {'cls':>3} {'cc':>3} {'decision':<11} {'rule':<12} {'aut':>8} {'zinn':>6} {'ok':<5}"
        lines = [head, "-" * len(head)]
        for r in report.records:
            cls = r.structure.nilpotency_class if r.structure else "-"
            cc = r.structure.coclass if r.structure else "-"
            dec = r.verdict.decision if r.verdict else "-"
            rule = r.verdict.rule if r.verdict else "-"
            aut = r.central.aut_count if r.central else "-"
            zinn = r.central.z_inn_order if r.central else "-"
            ok = {True: "yes", False: "NO", None: "-"}[r.agreement]
            lines.append(
                f"{r.name:<12} {r.order or '-':>6} {cls:>3} {cc:>3} {dec:<11} {rule:<12} {aut:>8} {zinn:>6} {ok:<5}"
            )
        s = report.summary
        lines.append("-" * len(head))
        lines.append(
            f"entries={s['entries']} minimal={s['minimal']} notMinimal={s['notMinimal']} "
            f"undecided={s['undecided']} mismatches={s['mismatches']} skipped={s['skipped']} "
            f"errors={s['errors']} expectationFailures={s['expectationFailures']}"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be one of {list(REPORT_FORMATS)}, got {fmt!r}")
