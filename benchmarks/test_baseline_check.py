"""The host-time benches' baseline check (``conftest.check_baseline``).

    python -m pytest benchmarks/test_baseline_check.py -q
"""

import json

import pytest

from benchmarks import conftest
from benchmarks.conftest import baseline_failures, check_baseline

BASELINE = {
    "benchmark": "fig5_scale_attach_touch_detach",
    "npages": 262144,
    "required_speedup": 10.0,
    "slowpath_seconds": 1.0,
    "speedup": 20.0,
}


def with_(**changes):
    return {**BASELINE, **changes}


@pytest.mark.parametrize("key,value", [
    ("slowpath_seconds", 1.16),   # lower is better: 16% slower
    ("speedup", 16.9),            # higher is better: 15.5% smaller
])
def test_a_regressed_gated_key_fails(key, value):
    (line,) = baseline_failures(BASELINE, with_(**{key: value}))
    assert line.startswith(f"{key}: {value!r} against baseline")


@pytest.mark.parametrize("key,value", [
    ("benchmark", "columnar_16gib_recurring_attach"),
    ("npages", 262143),
    ("required_speedup", 9.0),
])
def test_a_changed_identity_key_fails(key, value):
    (line,) = baseline_failures(BASELINE, with_(**{key: value}))
    assert line.endswith("(must be equal)")


def test_a_missing_key_fails():
    results = with_()
    del results["speedup"]
    assert baseline_failures(BASELINE, results) == [
        "speedup: missing from the results"]


def test_improvements_and_drift_within_tolerance_pass():
    assert baseline_failures(BASELINE, with_(
        slowpath_seconds=0.2, speedup=90.0)) == []
    assert baseline_failures(BASELINE, with_(
        slowpath_seconds=1.14, speedup=17.1)) == []


def test_keys_beyond_the_baseline_are_not_checked():
    assert baseline_failures(BASELINE, with_(dark_seconds=9.9)) == []


def test_check_baseline_reads_the_file_and_checks_only_owned_keys(
        tmp_path, monkeypatch):
    (tmp_path / "BENCH_x.json").write_text(json.dumps(
        {**BASELINE, "columnar_speedup": 15.0}))
    monkeypatch.setattr(conftest, "BASELINES_DIR", tmp_path)
    check_baseline("BENCH_x", BASELINE,
                   lambda key: not key.startswith("columnar_"))
    with pytest.raises(AssertionError, match="columnar_speedup: missing"):
        check_baseline("BENCH_x", BASELINE)
