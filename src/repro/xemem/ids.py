"""Identifier and permission types for the XEMEM name space.

Segment IDs (*segids*) are allocated by the centralized name server and
are globally unique across every enclave on the system (§3.1) — no
enclave coordinate is embedded in them, which is exactly what keeps
applications enclave-unaware. Access permits (*apids*) are grants handed
out by ``xpmem_get`` and consumed by ``xpmem_attach``, mirroring XPMEM.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Segids start here; low values are reserved for protocol sentinels.
SEGID_BASE = 0x1000


class XememError(RuntimeError):
    """Any XEMEM protocol or usage failure visible to applications."""


class PermissionError_(XememError):
    """``xpmem_get`` denied by the segment's permit."""


class XememTimeout(XememError):
    """A protocol request exhausted its deadline and retry budget.

    Only raised while a fault plan is armed (or a module-level request
    timeout is set): in the fault-free simulation every request is
    answered, so requests park on their response event without a timer."""


class XememOverload(XememError):
    """A request refused by overload protection.

    Raised client-side when a server rejects/sheds under admission
    control, when the local circuit breaker to that destination is open,
    or when the per-module retry budget is exhausted. Carries the
    server's seeded, deterministic retry-after hint so callers (and the
    module's own retry loop) can back off without guessing.

    Only raised while overload protection is armed on some module
    (:func:`repro.xemem.overload.arm_overload`); an unarmed client
    surfaces an armed owner's rejection once, without retrying."""

    def __init__(self, message: str, retry_after_ns: int = 0,
                 verdict: str = "reject"):
        super().__init__(message)
        self.retry_after_ns = retry_after_ns
        self.verdict = verdict


@dataclass(frozen=True)
class SegmentId:
    """A globally unique segment identifier."""

    value: int

    def __post_init__(self):
        if self.value < SEGID_BASE:
            raise ValueError(f"segid {self.value:#x} below SEGID_BASE")

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"segid:{self.value:#x}"


@dataclass(frozen=True)
class ApId:
    """An access-permit handle returned by ``xpmem_get``."""

    value: int

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"apid:{self.value:#x}"


@dataclass(frozen=True)
class Permit:
    """XPMEM-style permission: an octal mode, checked at ``xpmem_get``.

    The exporter always passes; others need the "other" read bit
    (0o004), and write access additionally needs 0o002. XPMEM's
    ``permit_type=XPMEM_PERMIT_MODE`` semantics, without users/groups
    (enclaves do not share a uid space — the paper's name server doesn't
    either).
    """

    mode: int = 0o666

    def __post_init__(self):
        if not 0 <= self.mode <= 0o777:
            raise ValueError(f"bad permit mode {self.mode:#o}")

    def allows(self, write: bool, is_owner: bool) -> bool:
        """Permission check: owners always pass; others need mode bits."""
        if is_owner:
            return True
        if not self.mode & 0o004:
            return False
        return bool(self.mode & 0o002) if write else True
