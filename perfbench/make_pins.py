"""Pin the outcomes the benchmark checks, from one pass per workload.

    python3 perfbench/make_pins.py

Writes perfbench/pins.json: the decision of every corpus entry and of every
valid `tables` file, and the sha256 of the JSON report of a corpus and a
homs pass.  The homs decisions are pinned in homs.json itself.  Run it
only on a commit whose answers define correctness.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    ct = run.import_centaut()
    workdir = run.OUT / "pin-inputs"
    pins = {}
    try:
        corpus = [
            workloads.Entry(e.name, e.source, e.expected) for e in ct.default_corpus().entries
        ]
        homs = workloads.homs_entries()
        tables = workloads.table_entries(ct, 0, workdir, {})
        for name, entries in (("corpus", corpus), ("homs", homs), ("tables", tables)):
            _, records, report = run.run_pass(ct, entries, [])
            pins[name] = {}
            if name != "homs":  # homs.json carries its own pinned decisions
                pins[name]["decisions"] = {
                    r.name: r.verdict.decision for r in records if r.status == "ok"
                }
            if name != "tables":  # table files live at run-specific paths
                pins[name]["digest"] = workloads.digest(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = workloads.HERE / "pins.json"
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
