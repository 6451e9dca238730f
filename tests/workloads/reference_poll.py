# Frozen copy of the original stop/go poll loop, kept as a test oracle: the
# poller under test must wake at the same ns, push the same engine entries
# and interleave with same-ns callbacks exactly as this one does. Do not
# edit it along with repro.workloads.insitu.
"""The in situ poll loop as first written: a generator that sleeps on the
engine between loads of the word, backing off from 1 us to a 1 ms cap."""

from __future__ import annotations

import struct

POLL_START_NS = 1_000
POLL_CAP_NS = 1_000_000


def poll_u64_at_least(engine, view, offset: int, target: int):
    """Generator: poll a shared word until it reaches ``target``."""
    interval = POLL_START_NS
    while struct.unpack("<Q", view.read(offset, 8))[0] < target:
        yield engine.sleep(interval)
        interval = min(interval * 2, POLL_CAP_NS)
