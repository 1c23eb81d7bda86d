"""Inputs of the three workloads, and the checks on what centaut returns.

corpus  the bundled default_corpus(), as `centaut verify` runs it.
tables  Cayley-format files of large builtins, plus seeded corrupted copies;
        every file goes through the table validator.
homs    builtin direct products with 2e3..1.6e4 candidate maps each, so the
        central-automorphism enumeration does most of the work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "tables", "homs")

# Orders 243..729; the products skip validation when built in process but
# not when read back from a file.  The 2-groups admit the intercalate switch.
TABLE_BASES = (
    ("mc27_9xc3", "metacyclic(27,9,4) x cyclic(3)"),
    ("m625", "modular(5,625)"),
    ("d256xc2", "dihedral(256) x cyclic(2)"),
    ("sd256xc2", "semidihedral(256) x cyclic(2)"),
    ("q128xc2", "quaternion(128) x cyclic(2)"),
    ("es243-", "extraspecial(3,243,-)"),
    ("wr3xc3", "wreath(3) x cyclic(3)"),
    ("m243", "modular(3,243)"),
)
COPIES_PER_BASE = 3

# Corruption kind -> the error class the validator must name.
CORRUPTIONS = {
    "latin": "NotLatinSquare",
    "identity": "NoIdentityAtZero",
    "assoc": "NotAssociative",
}


@dataclass(frozen=True)
class Entry:
    """One analyze_source call and the outcome it must have.

    `expected` is passed to the program, as a manifest's expected field is
    by `centaut verify`.  A group entry must come back "ok" with decision
    `want`; a corrupted table must come back "error" naming class `error`.
    """

    name: str
    source: str
    expected: Optional[str] = None
    want: Optional[str] = None
    error: Optional[str] = None


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


def corpus_entries(ct, pins: dict) -> list[Entry]:
    decisions = pins["corpus"]["decisions"]
    return [
        Entry(e.name, e.source, e.expected, decisions.get(e.name))
        for e in ct.default_corpus().entries
    ]


def homs_entries() -> list[Entry]:
    data = json.loads((HERE / "homs.json").read_text(encoding="utf-8"))
    return [
        Entry(e["name"], e["source"], e["expected"], e["expected"])
        for e in data["entries"]
    ]


def corrupt(table: np.ndarray, kind: str, rng: random.Random) -> np.ndarray:
    """A copy of a group table broken in one seeded place.

    latin     one cell repeats another value of its row;
    identity  the group relabelled by the transposition (0 k), so the table
              is still a Latin square but its identity sits at k != 0;
    assoc     an intercalate (rows r, rt; columns c, tc for an involution t)
              switched away from row and column 0: still a Latin square with
              identity 0, but no longer a group table.
    """
    t = np.array(table, dtype=np.int64)
    n = len(t)
    if kind == "latin":
        r, c = rng.randrange(n), rng.randrange(n)
        c2 = rng.randrange(n - 1)
        t[r, c] = t[r, c2 + (c2 >= c)]
        return t
    if kind == "identity":
        k = rng.randrange(1, n)
        perm = np.arange(n)
        perm[0], perm[k] = k, 0
        return perm[t[np.ix_(perm, perm)]]
    if kind == "assoc":
        involutions = [int(x) for x in np.flatnonzero(t[np.arange(n), np.arange(n)] == 0) if x]
        if not involutions:
            raise ValueError("an intercalate switch needs an element of order 2")
        inv = rng.choice(involutions)
        r = rng.choice([x for x in range(1, n) if x != inv])
        c = rng.choice([x for x in range(1, n) if x != inv])
        r2, c2 = t[r, inv], t[inv, c]
        x, y = t[r, c], t[r, c2]
        t[r, c], t[r, c2], t[r2, c], t[r2, c2] = y, x, x, y
        return t
    raise ValueError(f"unknown corruption {kind!r}")


def _write_table(path: Path, table: np.ndarray, name: str) -> None:
    """A Cayley-format group file for a table that is not a group.

    Written compactly, as another tool might write it; json's indented
    output is several times slower to produce at these sizes.
    """
    data = {"format": "cayley", "name": name, "order": len(table), "table": table.tolist()}
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def table_entries(
    ct, seed: int, workdir: Path, decisions: dict, bases=TABLE_BASES
) -> list[Entry]:
    """Write each base as a group file, followed by its corrupted copies.

    The seed picks each copy's kind and position; the program only ever
    sees the files.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, spec in bases:
        G = ct.parse_group_spec(spec)
        path = workdir / f"{name}.json"
        ct.write_group(G, path, name=name)
        want = decisions.get(name)
        entries.append(Entry(name, str(path), want, want))
        kinds = sorted(CORRUPTIONS) if G.prime == 2 else ["identity", "latin"]
        # Every kind a base admits before any repeats, in seeded order, so
        # the seed moves costs between entries but not the mix of kinds.
        kinds = rng.sample(kinds, len(kinds))
        for i in range(COPIES_PER_BASE):
            kind = kinds[i % len(kinds)]
            cname = f"{name}.{kind}{i}"
            cpath = workdir / f"{cname}.json"
            _write_table(cpath, corrupt(G.table, kind, rng), cname)
            entries.append(Entry(cname, str(cpath), error=CORRUPTIONS[kind]))
    return entries


def make_entries(workload: str, ct, seed: int, workdir: Path, pins: dict) -> list[Entry]:
    if workload == "corpus":
        return corpus_entries(ct, pins)
    if workload == "homs":
        return homs_entries()
    if workload == "tables":
        return table_entries(ct, seed, workdir, pins["tables"]["decisions"])
    raise ValueError(f"unknown workload {workload!r}")


def outcome_ok(entry: Entry, rec) -> bool:
    """Whether an AnalysisRecord is the outcome the entry must have.

    For a corrupted table only the error class is checked, not the triple
    or cell the message names, so another validator may report another
    violation of the same kind.
    """
    if entry.error is not None:
        return rec.status == "error" and (rec.error or "").startswith(entry.error + ":")
    return (
        rec.status == "ok"
        and rec.verdict is not None
        and rec.verdict.decision == entry.want
        and rec.agreement is not False
    )


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()
