# Frozen copy of the original noise model, kept as a test oracle: the
# model under test must return exactly the events and stolen time this
# one does. Do not edit it along with repro.kernels.noise.
"""OS noise models: Kitten's near-silent profile vs. Linux's fullweight one.

Noise sources are *analytic*: each can enumerate its detour events inside
any time window deterministically (a splitmix64 hash keyed by source seed
and occurrence index supplies jitter), so workloads can account for noise
without simulating millions of tick events, and the Selfish Detour
benchmark (Fig. 7) can enumerate exact event lists.

Profiles (constants in :class:`~repro.hw.costs.CostModel`):

* **Kitten** — a frequent ≈12 µs hardware baseline plus periodic ≈100 µs
  SMIs; the paper's Fig. 7 bottom panel.
* **Linux** — a 1 kHz timer tick plus background daemon bursts with
  exponentially distributed lengths; the heavy tail drives the Linux-only
  variance of Figs. 8 and 9.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.hw.costs import CostModel


def splitmix64(x: int) -> int:
    """The splitmix64 mixing function: deterministic, well-distributed."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _unit(seed: int, k: int, salt: int) -> float:
    """Deterministic uniform in [0, 1) for occurrence ``k`` of a source."""
    return splitmix64(splitmix64(seed * 0x100000001B3 + salt) ^ k) / 2**64


class NoiseSource:
    """Base interface: enumerate and integrate detours in a window."""

    tag = "noise"

    def events_in(self, t0: int, t1: int) -> List[Tuple[int, int]]:
        """(start_ns, duration_ns) of every detour starting in [t0, t1)."""
        raise NotImplementedError

    def stolen_in(self, t0: int, t1: int) -> int:
        """Nanoseconds stolen from the app in [t0, t1), clipped to it."""
        total = 0
        # Look back one mean period so a detour straddling t0 is counted.
        for start, dur in self.events_in(max(0, t0 - self.lookback_ns()), t1):
            lo, hi = max(start, t0), min(start + dur, t1)
            if hi > lo:
                total += hi - lo
        return total

    def lookback_ns(self) -> int:
        return 0


class PeriodicNoise(NoiseSource):
    """Detours every ``period_ns`` with optional phase jitter and
    exponentially distributed duration.

    ``duration_ns`` is the mean; with ``exp_duration`` the k-th event's
    length is ``-ln(u_k) * duration_ns`` (heavy tail, daemon-like),
    otherwise it is constant (tick/SMI-like). Phase jitter displaces each
    occurrence by up to ``jitter_frac`` of a period.
    """

    def __init__(self, period_ns: int, duration_ns: int, tag: str,
                 seed: int = 0, jitter_frac: float = 0.0,
                 exp_duration: bool = False, phase_ns: int = 0):
        if period_ns <= 0 or duration_ns < 0:
            raise ValueError("period must be positive, duration non-negative")
        if not 0.0 <= jitter_frac <= 0.5:
            raise ValueError("jitter_frac must be in [0, 0.5]")
        self.period_ns = period_ns
        self.duration_ns = duration_ns
        self.tag = tag
        self.seed = seed
        self.jitter_frac = jitter_frac
        self.exp_duration = exp_duration
        self.phase_ns = phase_ns

    def _occurrence(self, k: int) -> Tuple[int, int]:
        start = self.phase_ns + k * self.period_ns
        if self.jitter_frac:
            start += int(
                (2 * _unit(self.seed, k, 1) - 1) * self.jitter_frac * self.period_ns
            )
        if self.exp_duration:
            u = max(_unit(self.seed, k, 2), 1e-12)
            dur = int(-math.log(u) * self.duration_ns)
        else:
            dur = self.duration_ns
        return max(start, 0), dur

    def events_in(self, t0: int, t1: int) -> List[Tuple[int, int]]:
        """(start_ns, duration_ns) of occurrences starting in [t0, t1)."""
        if t1 <= t0:
            return []
        k_lo = max(0, (t0 - self.phase_ns) // self.period_ns - 1)
        k_hi = (t1 - self.phase_ns) // self.period_ns + 1
        out = []
        for k in range(k_lo, k_hi + 1):
            start, dur = self._occurrence(k)
            if t0 <= start < t1:
                out.append((start, dur))
        return out

    def lookback_ns(self) -> int:
        # Exponential durations are effectively bounded by ~30 means.
        return (30 if self.exp_duration else 2) * max(self.duration_ns, self.period_ns)


def kitten_noise_profile(costs: CostModel, seed: int = 0) -> List[NoiseSource]:
    """Fig. 7's Kitten profile: hardware baseline + SMIs."""
    return [
        PeriodicNoise(
            costs.kitten_baseline_period_ns,
            costs.kitten_baseline_detour_ns,
            tag="hw-baseline",
            seed=seed * 31 + 1,
            jitter_frac=0.2,
        ),
        PeriodicNoise(
            costs.smi_period_ns,
            costs.smi_detour_ns,
            tag="smi",
            seed=seed * 31 + 2,
            jitter_frac=0.05,
        ),
    ]


def linux_noise_profile(costs: CostModel, seed: int = 0) -> List[NoiseSource]:
    """Fullweight Linux: timer ticks plus heavy-tailed daemon bursts."""
    return [
        PeriodicNoise(
            costs.linux_tick_period_ns,
            costs.linux_tick_cost_ns,
            tag="tick",
            seed=seed * 31 + 3,
        ),
        PeriodicNoise(
            costs.linux_daemon_period_ns,
            costs.linux_daemon_burst_ns,
            tag="daemon",
            seed=seed * 31 + 4,
            jitter_frac=0.5,
            exp_duration=True,
        ),
        # SMIs hit regardless of the OS.
        PeriodicNoise(
            costs.smi_period_ns,
            costs.smi_detour_ns,
            tag="smi",
            seed=seed * 31 + 5,
            jitter_frac=0.05,
        ),
    ]


def attach_noise_profile(kernel, seed: int = 0) -> None:
    """Install the kernel-appropriate noise profile on every core it owns."""
    maker = (
        kitten_noise_profile
        if kernel.kernel_type == "kitten"
        else linux_noise_profile
    )
    for core in kernel.cores:
        kernel.noise_sources[core.core_id] = maker(
            kernel.costs, seed=seed * 1009 + core.core_id
        )
