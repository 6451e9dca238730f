"""Whole-program pass: call graph, taint chains, cross-module state.

Every test writes a small multi-file project into ``tmp_path`` and runs
:func:`lint_paths` from inside it, so module names derive from the
relative paths exactly as they do for the real tree.
"""

import pytest

from repro.lint.engine import lint_paths


@pytest.fixture
def project(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def build(**files):
        for name, text in files.items():
            path = tmp_path / f"{name}.py"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return sorted(f"{name}.py" for name in files)

    return build


UTIL = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)

APP = (
    "from util import stamp\n"
    "\n"
    "\n"
    "def handler():\n"
    "    return stamp()\n"
)


def test_cross_module_taint_chain(project):
    paths = project(util=UTIL, app=APP)
    findings, scanned = lint_paths(paths)
    assert scanned == 2
    assert [(f.path, f.code) for f in findings] == [
        ("app.py", "REP101"), ("util.py", "REP001"),
    ]
    chain = findings[0].chain
    assert chain == (
        ("app.py", 5, "app.handler calls stamp"),
        ("util.py", 5, "util.stamp: source time.time"),
    )


def test_chain_rendering_golden(project):
    paths = project(util=UTIL, app=APP)
    findings, _ = lint_paths(paths)
    assert findings[0].render() == (
        "app.py:5:11: REP101 call to stamp transitively reaches "
        "a host-wallclock read (time.time, 1 call away)\n"
        "    app.py:5: app.handler calls stamp\n"
        "    util.py:5: util.stamp: source time.time"
    )


def test_noqa_on_source_is_a_declared_boundary(project):
    sanctioned = UTIL.replace(
        "time.time()",
        "time.time()  # repro: noqa[REP001] reason=progress display only",
    )
    paths = project(util=sanctioned, app=APP)
    findings, _ = lint_paths(paths)
    assert findings == []


def test_noqa_on_edge_cuts_propagation_upward(project):
    mid = (
        "from util import stamp\n"
        "\n"
        "\n"
        "def relay():\n"
        "    return stamp()  # repro: noqa[REP101] reason=test relay\n"
    )
    top = (
        "from mid import relay\n"
        "\n"
        "\n"
        "def outer():\n"
        "    return relay()\n"
    )
    paths = project(util=UTIL, mid=mid, top=top)
    findings, _ = lint_paths(paths)
    # the cut edge is suppressed and nothing above it is tainted;
    # only the direct source itself remains
    assert [(f.path, f.code) for f in findings] == [("util.py", "REP001")]


def test_cross_module_shared_state(project):
    state = (
        "REGISTRY = {}\n"
        "\n"
        "\n"
        "class Config:\n"
        "    pass\n"
        "\n"
        "\n"
        "CONFIG = Config()\n"
    )
    app = (
        "from state import CONFIG, REGISTRY\n"
        "\n"
        "\n"
        "def put(k):\n"
        "    REGISTRY[k] = 1\n"
        "\n"
        "\n"
        "def tune(v):\n"
        "    CONFIG.mode = v\n"
    )
    paths = project(state=state, app=app)
    findings, _ = lint_paths(paths)
    assert [(f.path, f.line, f.code) for f in findings] == [
        ("app.py", 5, "REP110"), ("app.py", 9, "REP112"),
    ]


def test_alias_of_an_imported_table_written_in_a_subclass(project):
    state = "REGISTRY = {}\n"
    app = (
        "from state import REGISTRY\n"
        "\n"
        "\n"
        "class Memo:\n"
        "    def __init__(self):\n"
        "        self.table = REGISTRY\n"
        "\n"
        "\n"
        "class Child(Memo):\n"
        "    def put(self, k):\n"
        "        self.table[k] = 1\n"
    )
    paths = project(state=state, app=app)
    findings, _ = lint_paths(paths)
    assert [(f.path, f.line, f.code) for f in findings] == [
        ("app.py", 11, "REP110"),
    ]


def test_method_resolution_walks_the_mro(project):
    base = (
        "import time\n"
        "\n"
        "\n"
        "class Base:\n"
        "    def now(self):\n"
        "        return time.time()\n"
    )
    sub = (
        "from base import Base\n"
        "\n"
        "\n"
        "class Sub(Base):\n"
        "    def run(self):\n"
        "        return self.now()\n"
    )
    paths = project(base=base, sub=sub)
    findings, _ = lint_paths(paths)
    assert [(f.path, f.code) for f in findings] == [
        ("base.py", "REP001"), ("sub.py", "REP101"),
    ]
