"""The host's speed, sampled while a repetition runs.

The benchmark's host is a small VM on a shared machine, and its speed
drifts: for seconds to minutes at a time the same code runs up to about
3x slower, with no steal time to show for it, so wall times of one
commit spread by 10-35% across a set of runs. A :class:`Sampler` times
a fixed pure-Python :func:`kernel` on a timer signal every
:data:`PERIOD_S` of wall time, while the repetition's own code runs, so
the kernel sees the host as the simulator does at that moment.

Each period of wall time did ``NOMINAL_S / sample`` periods' worth of
work at the reference host speed, so a repetition's time at that speed
is its raw time times ``NOMINAL_S`` times the mean of ``1 / sample``:
``run.py`` multiplies by ``NOMINAL_S / Sampler.mean_s``, where
:attr:`Sampler.mean_s` is the harmonic mean of the samples. A repetition
made while the host was slow then reads about the same as one made while
it was fast. The kernel is no code of the simulator's, so a change to
the simulator moves the scaled times exactly as it moves the raw ones.

One workload slows more than the kernel does when the host is busy:
``vm_recurring_attach``, whose time goes mostly to a pointer-heavy
red-black tree. Over six 10-run sets made hours apart, the log of its
repetitions' raw time against the log of the kernel's time has a slope
of 1.2-1.4, where the other workloads' is 1.0-1.1, and its scaled times
still rose with the kernel's. :data:`SENSITIVITY` holds that slope, and
a workload's cell time is scaled by ``(NOMINAL_S / mean_s)`` to that
power. Two commits measured at the same host speed still compare by the
ratio of their raw times, whatever the power.

The kernel mixes the kinds of work the simulator does: dictionary
updates, small objects allocated by a generator, and reads scattered
over a buffer larger than the core's private caches. The handler costs
2-3% of the repetition's time; it runs inside whatever the repetition
is doing and is counted there, the same on every commit.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional

#: Wall time between samples.
PERIOD_S = 0.01
#: Size of the buffer the kernel reads; it is resident for the whole
#: repetition, so ``worker.py`` takes it off the peak RSS.
BUFFER_BYTES = 16 << 20
#: The reference host speed, as a kernel time: a round figure between
#: the kernel's time on a 2-vCPU Xeon VM when its host is quiet (about
#: 180 us) and when it is busy (250-300 us).
NOMINAL_S = 200e-6
#: Workload -> power of the host-speed ratio its cell time is scaled by
#: (1 when not listed); set-up time is always scaled by power 1.
SENSITIVITY = {"vm_recurring_attach": 1.2}

_LCG_MUL = 1103515245
_LCG_ADD = 12345


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _objects(n: int):
    for i in range(n):
        yield _Obj(i, (i, i))


def kernel(buffer: bytearray, state: List[int]) -> int:
    """A fixed amount of interpreter, allocator and memory work."""
    table = dict.fromkeys(range(64), 0)
    x = 0
    for i in range(300):
        table[i & 63] = i
        x += table[(i * 7) & 63]
    x += sum(o.a for o in _objects(120))
    mask = len(buffer) - 1
    j = state[0]
    for _ in range(300):
        j = (j * _LCG_MUL + _LCG_ADD) & mask
        x += buffer[j]
    state[0] = j
    return x


class Sampler:
    """While active, times :func:`kernel` once every :data:`PERIOD_S`
    of wall time and appends the seconds to :attr:`samples`.

    Uses ``SIGALRM`` and the real-time interval timer, and restores the
    previous handler on exit. One sample is taken on entry, so
    :attr:`mean_s` is defined however short the block.
    """

    def __init__(self):
        self.samples: List[float] = []
        # Written in full so every page is resident, not the shared zero page.
        self._buffer = bytearray(range(256)) * (BUFFER_BYTES // 256)
        self._state = [1]
        self._previous: Optional[object] = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel(self._buffer, self._state)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mean_s(self) -> float:
        """The harmonic mean of the samples (see the module docstring)."""
        return len(self.samples) / sum(1.0 / s for s in self.samples)
