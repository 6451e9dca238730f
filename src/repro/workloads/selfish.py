"""The Selfish Detour noise benchmark (Beckman et al., ANL) — Fig. 7.

Selfish Detour spins reading the timestamp counter and records a
"detour" whenever consecutive reads gap by more than a threshold — i.e.
whenever the CPU ran something other than the benchmark. Against the
simulation we can enumerate detours *exactly*: the analytic noise
sources report every occurrence in the window, and the core's steal log
holds every actually-simulated interruption (XEMEM attachment service,
IRQ handlers). The union, clipped to the window and filtered by the
detection threshold, is precisely what a spinning benchmark would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class DetourEvent:
    """One detected detour: when, how long, which source."""
    time_ns: int
    duration_ns: int
    source: str

    @property
    def duration_us(self) -> float:
        return self.duration_ns / 1e3


class SelfishDetour:
    """Detour detection over a window of one core's activity."""

    #: Below this, a gap is indistinguishable from benchmark self-time.
    DEFAULT_THRESHOLD_NS = 1_000

    def __init__(self, kernel, core_id: int,
                 threshold_ns: int = DEFAULT_THRESHOLD_NS):
        if threshold_ns <= 0:
            raise ValueError("threshold must be positive")
        self.kernel = kernel
        self.core_id = core_id
        self.threshold_ns = threshold_ns

    def detours(self, t0: int, t1: int,
                sources: Optional[Sequence[str]] = None) -> List[DetourEvent]:
        """All detours whose start lies in [t0, t1), sorted by start time
        (stable: ties keep noise sources first, in profile order, then
        the core's steal log). ``sources`` filters by tag prefix."""
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        out: List[DetourEvent] = []
        for src in self.kernel.noise_sources.get(self.core_id, []):
            if sources is not None and not any(src.tag.startswith(s) for s in sources):
                continue
            for start, dur in src.events_in(t0, t1):
                if dur >= self.threshold_ns:
                    out.append(DetourEvent(start, dur, src.tag))
        core = self.kernel.node.core(self.core_id)
        for start, dur, tag in core.steal_log:
            if sources is not None and not any(tag.startswith(s) for s in sources):
                continue
            if t0 <= start < t1 and dur >= self.threshold_ns:
                out.append(DetourEvent(start, dur, tag))
        out.sort(key=lambda ev: ev.time_ns)
        return out

    def stolen_fraction(self, t0: int, t1: int) -> float:
        """Fraction of the window the CPU was away from the application."""
        return self.kernel.stolen_ns(self.core_id, t0, t1) / (t1 - t0)
