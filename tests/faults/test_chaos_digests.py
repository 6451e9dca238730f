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
    (0, None): "dee71d25aacec611873932bdd98910a868c52fb676b599f754a6473db1e032ab",
    (0, "workers=1"): "2a41caff1510e9703847e5657d2cb70508cfec9a07c0af3a6a825309f7849385",
    (1, None): "3c6ecfe04628ee0eac7eb648b1201fc37cdaabb8d6cdb739327fb168544b74ad",
    (1, "workers=1"): "ee19cbaee55db21a9461a7661caca5321881cf9fed7c09b857d9bcc5f6372b55",
    (2, None): "739a0468a838b991547b7bf3910f6f1cf89f48cf2090fdd1644561d24f7c2929",
    (2, "workers=1"): "6df23c53e84716f47ebd457c99b93bf9e294077893b222467428741a84211ed6",
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
