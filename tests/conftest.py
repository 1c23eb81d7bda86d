from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import settings

from centaut.groupio import default_corpus, read_manifest, resolve_source
from centaut.harness import run_verification
from centaut.structure import structure_report

TESTS = Path(__file__).resolve().parent
HOMS = TESTS.parent / "perfbench" / "homs.json"

# Property tests draw the same examples on every run and write no example
# database, so the suite stays deterministic and its time bounded.
settings.register_profile(
    "centaut", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("centaut")


@pytest.fixture(scope="session")
def corpus():
    """name -> (source string, expected verdict or None)."""
    return {e.name: (e.source, e.expected) for e in default_corpus().entries}


@pytest.fixture(scope="session")
def corpus_groups(corpus):
    return {name: resolve_source(src) for name, (src, _) in corpus.items()}


@pytest.fixture(scope="session")
def homs_groups():
    """The direct products of the `homs` benchmark workload, name -> Group."""
    return {e.name: resolve_source(e.source) for e in read_manifest(HOMS).entries}


@pytest.fixture(scope="session")
def all_entries():
    """The manifest entries of the corpus, the `homs` workload and the witnesses."""
    manifests = (default_corpus(), read_manifest(HOMS), read_manifest(TESTS / "witnesses.json"))
    return [e for m in manifests for e in m.entries]


@pytest.fixture(scope="session")
def corpus_structures(corpus_groups):
    return {name: structure_report(g) for name, g in corpus_groups.items()}


@pytest.fixture(scope="session")
def corpus_run():
    """One full verification sweep, shared by every test that needs records."""
    t0 = time.perf_counter()
    report = run_verification(default_corpus(), jobs=2)
    return report, time.perf_counter() - t0
