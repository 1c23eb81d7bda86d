"""Each demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


def _run(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")},
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_structure_tour_prints_the_series_and_frattini_order(tmp_path):
    """Demo 02 reads D16's upper series orders and d(G) from the library
    and prints |Phi(G)| = |G| / 2^d."""
    lines = _run(ROOT / "demos" / "02_structure_tour.py", tmp_path).stdout.splitlines()
    for line in (
        "upper series orders: [1, 2, 4, 16]",
        "minimal generators d(G) = 2",
        "Frattini subgroup order: 4",
    ):
        assert line in lines
