"""centaut benchmark: one workload, serially, in this process.

    python3 perfbench/run.py --workload corpus|tables|homs --seed N \
        --seconds S --trace 0|1

Imports centaut from the src/ directory next to this one, never from an
installed copy.  A pass calls harness.analyze_source on every entry of the
workload and then harness.format_report(..., "json"), which is what a
serial `centaut verify` does, except that each pass visits the entries in
its own seeded order (the report keeps the listed order).  A run makes as
many passes as fit in --seconds at the nominal pass times in PASS_S, and
at least as many as the latency percentiles need samples.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics from the traced ones (see
spans.py).  Every outcome is checked; the last stdout line is one JSON
object with correct, attempted, failed and metrics, and the exit code is 1
when a check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Set-up repeats at least this often and for at least this long; the
# median is reported.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# p90 needs ten samples beyond it: at least 100 latencies per run.
MIN_SAMPLES = 100
# Nominal pass time of each workload at the seed commit, on the baseline
# machine in its fast phase.  --seconds / PASS_S fixes the pass count, so
# every run of a workload samples the same entries equally often, whatever
# the speed of the program or of the machine at that moment.
PASS_S = {"corpus": 7.0, "tables": 7.5, "homs": 3.75}

# The metrics BENCHMARK.json bounds.  entry_p90_ms is printed beside them
# but not bounded: its rank falls between entries that the host's slow
# phases slow by different factors, so its ten-run spread reached 0.27-0.33.
END_TO_END = (
    ("wall_s", "s"),
    ("entry_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# One core of work: keep numerical libraries from starting thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import spans  # noqa: E402
import workloads  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_centaut():
    """A fresh import of centaut from SRC; module-level work is repeated."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "centaut" or m.startswith("centaut.")]:
        del sys.modules[name]
    ct = importlib.import_module("centaut")
    if not Path(ct.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"centaut imported from {ct.__file__}, not from {SRC}")
    return ct


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def run_pass(ct, entries, latencies: list[float], tracer=None, order=None):
    """One serial pass; returns (wall seconds, records, JSON report).

    Entries are analyzed in `order` (default: as listed); the records are
    reported as listed, so the report does not depend on the order.
    """
    harness = ct.harness
    records = [None] * len(entries)
    clock = time.perf_counter
    start = clock()
    for i in range(len(entries)) if order is None else order:
        e = entries[i]
        if tracer is not None:
            tracer.entry = e.name
        t0 = clock()
        records[i] = harness.analyze_source(e.name, e.source, e.expected)
        latencies.append(clock() - t0)
    if tracer is not None:
        tracer.entry = None
    report = harness.format_report(harness.VerificationReport(records), "json")
    return clock() - start, records, report


class Checker:
    """Counts entries whose outcome misses its pin, and report digests that
    differ from the pinned one."""

    def __init__(self, entries, pinned_digest):
        self.entries = entries
        self.pinned_digest = pinned_digest
        self.attempted = 0
        self.failed = 0
        self.missed: list[str] = []
        self.bad_digests = 0

    def check(self, records, report: str) -> None:
        for e, rec in zip(self.entries, records):
            self.attempted += 1
            if not workloads.outcome_ok(e, rec):
                self.failed += 1
                if e.name not in self.missed:
                    self.missed.append(e.name)
        if self.pinned_digest is not None and workloads.digest(report) != self.pinned_digest:
            self.bad_digests += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.bad_digests == 0


@dataclass
class Measurement:
    walls: list = field(default_factory=list)  # untraced passes
    traced_walls: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # untraced analyze_source calls
    layers: list = field(default_factory=list)  # layer metrics per traced pass
    spans: list = field(default_factory=list)  # of every traced pass


def pass_count(workload: str, seconds: float, entries: int) -> int:
    return max(-(-MIN_SAMPLES // entries), int(seconds // PASS_S[workload]))


def measure(ct, entries, checker, passes: int, seed: int, tracer=None) -> Measurement:
    """Run `passes` untraced passes, or with a tracer half as many untraced
    and traced passes (at least two of each), alternating so both see the
    same machine state.

    Each pass visits the entries in its own seeded order.  In listed order
    the small entries of a workload run in one burst, so a slow moment of a
    shared host would move all their latencies at once; shuffled, they
    sample the whole pass.
    """
    m = Measurement()
    rng = random.Random(seed)
    if tracer is not None:
        passes = max(4, passes // 2 * 2)
    for i in range(passes):
        order = rng.sample(range(len(entries)), len(entries))
        if tracer is not None and i % 2:
            tracer.spans = []
            tracer.install()
            try:
                wall, records, report = run_pass(ct, entries, [], tracer, order)
            finally:
                tracer.uninstall()
            m.traced_walls.append(wall)
            m.layers.append(spans.layer_metrics(tracer.spans))
            m.spans.extend(tracer.spans)
        else:
            wall, records, report = run_pass(ct, entries, m.latencies, order=order)
            m.walls.append(wall)
        checker.check(records, report)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "centaut" / "__init__.py").is_file():
        print(f"error: no centaut package under {SRC}", file=sys.stderr)
        return 2
    pins = workloads.load_pins()
    workdir = OUT / f"{args.workload}-inputs"
    tracer = spans.Tracer() if args.trace else None
    setups = []
    try:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            ct = import_centaut()
            entries = workloads.make_entries(args.workload, ct, args.seed, workdir, pins)
            setups.append(time.perf_counter() - t0)
        checker = Checker(entries, pins[args.workload].get("digest"))
        passes = pass_count(args.workload, args.seconds, len(entries))
        m = measure(ct, entries, checker, passes, args.seed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(m.walls)
    failed_frac = checker.failed / checker.attempted
    info = {
        "workload": args.workload,
        "env": environment(args.seed),
        "entries_per_pass": len(entries),
        "pass_walls_s": m.walls,
        "traced_pass_walls_s": m.traced_walls,
        "failed_frac": failed_frac,
        "missed": checker.missed,
        "bad_digests": checker.bad_digests,
    }
    if tracer is None:
        p90 = percentile(m.latencies, 0.90)
        values = {
            "wall_s": wall,
            "entry_p50_ms": 1000.0 * percentile(m.latencies, 0.50),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        info["entry_p90_ms"] = 1000.0 * p90
        info["samples"] = {
            "wall_s": len(m.walls),
            "entry_p50_ms": len(m.latencies),
            "entry_p90_ms": len(m.latencies),
            "beyond_p90": sum(x > p90 for x in m.latencies),
            "setup_s": len(setups),
        }
    else:
        values = spans.median_metrics(m.layers)
        values["trace.overhead_s"] = statistics.median(m.traced_walls) - wall
        units = dict(spans.PER_LAYER)
        info["samples"] = {"layers": len(m.traced_walls), "untraced_walls": len(m.walls)}
        info["absent_spans"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([vars(s) for s in m.spans]) + "\n", encoding="utf-8")
        info["spans_file"] = str(path.relative_to(ROOT))

    for k, v in values.items():
        print(f"{k} = {v:.6g} {units[k]}")
    if "entry_p90_ms" in info:
        print(f"entry_p90_ms = {info['entry_p90_ms']:.6g} ms")
    print(f"failed_frac = {failed_frac:.6g} ratio")
    print(json.dumps({"info": info}, sort_keys=True))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
