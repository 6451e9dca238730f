"""Pinned incident-bundle bytes for the chaos scenario.

The chaos run drives every client request path of ``XememModule``: plain
requests, fault-timed retries, and (with an overload spec) the breaker,
retry budget and retry-after pacing. The sha256 of each run's bundle
``MANIFEST.json`` covers the spans, metrics and flight-recorder notes
those paths produce, so a refactor of the request code that reorders a
single scheduled call, RNG draw or counter shows up here.

The bundle's ``config.json`` records the ``REPRO_*`` environment apart
from the twin switches, so the runs here clear the other ``REPRO_*``
variables (CI sets ``REPRO_AUDIT`` and ``REPRO_CHAOS_SEED``).
"""

import hashlib
import os
from pathlib import Path

import pytest

from repro.faults.chaos import run_chaos
from repro.obs.flightrec import TWIN_ENV

#: (seed, overload spec) -> sha256 of the bundle's MANIFEST.json.
MANIFEST_SHA256 = {
    (0, None): "cb0d1818a49eecb69fa3bfa2b209221db6bbd8ef6c7542075a0aa00b0b8f5fe9",
    (0, "workers=1"): "3a076817ef4a396c2e8ec3547e5f3512fd0e36997694e7f4f209022879c0126d",
    (1, None): "4bd1829ea58edc9d6e1445f494bf516ad61bc33c4b87812c9e55bd16bddc599b",
    (1, "workers=1"): "cb458efea470c85c50bdee2771492ba1748460b1e4f6b4b66782b320be1db13e",
    (2, None): "50cbef863f9c8cd04fcdded1fa667c92f6efbe6e85189bc7875fc03a61839652",
    (2, "workers=1"): "ab6b6dcfd3397c2cdaa3301e2735bbd2a25a5cba6df522c062f975c1f73ce5e5",
}


@pytest.mark.parametrize("seed,overload_spec", sorted(
    MANIFEST_SHA256, key=lambda k: (k[0], k[1] or "")))
def test_chaos_bundle_manifest_is_pinned(tmp_path, monkeypatch, seed,
                                        overload_spec):
    for key in list(os.environ):
        if key.startswith("REPRO_") and key not in TWIN_ENV:
            monkeypatch.delenv(key)
    report = run_chaos(seed=seed, with_audit=False,
                       flightrec_dir=str(tmp_path / "bundle"),
                       overload_spec=overload_spec)
    assert report.bundle_path, "the default plan crashes an enclave"
    manifest = Path(report.bundle_path) / "MANIFEST.json"
    digest = hashlib.sha256(manifest.read_bytes()).hexdigest()
    assert digest == MANIFEST_SHA256[(seed, overload_spec)]
