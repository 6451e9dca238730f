"""Byte-for-byte goldens for the post-hoc obs commands.

``report``, ``perf-diff`` and ``diagnose`` read traces and incident
bundles back and render them; these tests pin what each one prints, so
a change to a reader or a renderer that moves one byte fails here.

Inputs: two trace captures committed under ``data/`` —
``explain.jsonl`` (``python -m repro explain --trace explain.jsonl
--trace-format jsonl``, two rigs) and ``table2.trace.json``
(``python -m repro table2 --reps 1 --trace table2.trace.json``, Chrome
format) — and the chaos incident bundles that
:func:`tests.obs.test_flightrec._emit` writes (seeds 3 and 4).

Each golden under ``data/golden/`` is the command's stdout, run from the
directory the test changes into (so the paths it prints are relative).
Regenerate one only for a change that means to move it.
"""

import pathlib

import pytest

from repro.__main__ import main
from tests.obs.test_flightrec import _emit

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    """A directory holding chaos bundles ``a`` (seed 3) and ``b`` (seed 4)."""
    out = tmp_path_factory.mktemp("bundles")
    _emit(out, "a", seed=3)
    _emit(out, "b", seed=4)
    return out


def _run(capsys, argv, expected_code=0):
    assert main(argv) == expected_code
    return capsys.readouterr().out


@pytest.mark.parametrize("argv, golden", [
    (["report", "explain.jsonl"], "report.txt"),
    (["report", "explain.jsonl", "--json"], "report.json"),
    (["perf-diff", "explain.jsonl", "table2.trace.json"], "perf_diff.txt"),
    (["perf-diff", "explain.jsonl", "table2.trace.json", "--json"],
     "perf_diff.json"),
])
def test_capture_commands_match_golden(argv, golden, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    assert _run(capsys, argv) == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    (["diagnose", "a"], "diagnose.txt"),
    (["perf-diff", "a", "b"], "perf_diff_bundles.txt"),
    (["perf-diff", "a", "b", "--json"], "perf_diff_bundles.json"),
])
def test_bundle_commands_match_golden(argv, golden, bundle_dir, capsys,
                                      monkeypatch):
    monkeypatch.chdir(bundle_dir)
    assert _run(capsys, argv) == (GOLDEN / golden).read_text()
