"""Benchmark harness support.

``test_experiments.py`` runs each paper experiment once, checks its
claims, and writes its report to ``benchmarks/results/<name>.txt`` through
the ``report_file`` fixture — the inputs to EXPERIMENTS.md.
"""

import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))


@pytest.fixture
def report_file():
    """Writer: report_file(name, text) persists a result artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        # also echo so `pytest -s` shows it inline
        print(f"\n=== {name} ===\n{text}")

    return write
