# Frozen copy of the original STREAM kernels, kept as a test oracle: the
# kernels under test must return the bitwise-same checksum and the same
# verdict as this one. Do not edit it along with repro.workloads.stream.
"""The four STREAM kernels as first written: fresh temporaries, an
``astype`` copy of the source and an ``allclose`` triad check."""

from __future__ import annotations

import numpy as np

SCALAR = 3.0


def real_kernels(source: np.ndarray) -> tuple:
    """Run copy/scale/add/triad for real; returns (checksum, ok)."""
    a = source.astype(np.float64)
    if a.size == 0:
        raise ValueError("empty STREAM source")
    c = a.copy()                      # COPY:  c = a
    b = SCALAR * c                    # SCALE: b = q*c
    c = a + b                         # ADD:   c = a + b
    a2 = b + SCALAR * c               # TRIAD: a = b + q*c
    expected = SCALAR * a + SCALAR * (a + SCALAR * a)
    ok = bool(np.allclose(a2, expected))
    return float(a2.sum()), ok
