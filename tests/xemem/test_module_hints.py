"""Every annotation on ``XememModule`` must resolve.

The module uses postponed annotations, so a name that is never imported
only fails when something evaluates the hints (``typing.get_type_hints``,
documentation tools, runtime checkers)."""

import inspect
import typing

from repro.xemem.module import XememModule


def test_every_method_annotation_resolves():
    checked = 0
    for name, member in vars(XememModule).items():
        func = member.fget if isinstance(member, property) else member
        func = getattr(func, "__func__", func)
        if not inspect.isfunction(func):
            continue
        typing.get_type_hints(func)
        checked += 1
    assert checked > 40
