"""The protocol core stays engine-free.

``repro.xemem.core`` and ``repro.xemem.nameserver`` hold XEMEM's tables
and transitions; ``XememModule`` is the shell that yields, sends, counts
and drives the kernel around them. This keeps it that way: no generator
in the core, and no import of the packages that would let one creep in.
"""

import ast
import pathlib

import pytest

import repro.xemem

CORE_MODULES = ("core.py", "nameserver.py")
FORBIDDEN = ("repro.sim", "repro.pisces", "repro.enclave", "repro.kernels", "repro.obs")


def _tree(name):
    path = pathlib.Path(repro.xemem.__file__).parent / name
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """Every dotted name an import statement binds or reads from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "the core uses absolute imports only"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


@pytest.mark.parametrize("name", CORE_MODULES)
def test_core_never_yields(name):
    found = [
        f"line {node.lineno}"
        for node in ast.walk(_tree(name))
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await))
    ]
    assert not found, f"{name} yields at {', '.join(found)}"


@pytest.mark.parametrize("name", CORE_MODULES)
def test_core_imports_no_engine_side_package(name):
    bad = sorted({
        mod for mod in _imported(_tree(name))
        if any(mod == pkg or mod.startswith(pkg + ".") for pkg in FORBIDDEN)
    })
    assert not bad, f"{name} imports {bad}"
