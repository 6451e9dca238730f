"""CLI contract: exit codes, JSON schema, dirty-fixture gate behavior."""

import json

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.rules import CODES

#: One violation of every rule, REP001-REP008 + REP101-REP113.
DIRTY_FIXTURE = """\
import functools
import heapq
import os
import random
import time

from repro.sim.fidelity import FIDELITY

REGISTRY = {}


def wall():
    return time.time()


def clocked():
    return wall() + 1


def draw():
    return random.random()


def roll():
    return draw()


def flagged():
    return os.getenv("DIRTY_FLAG")


def keyed(obj):
    return id(obj)


def register(name, value):
    REGISTRY[name] = value


def materialize(a):
    return list(set(a))


def compare(x):
    return x == 0.5


def gate():
    if FIDELITY.fast:
        x = 1
    return 0


def poke(q):
    heapq.heappush(q, 1)


def swallow():
    try:
        materialize([1])
    except Exception:
        pass


def defaults(x=[]):
    return x


@functools.lru_cache
def memo(n):
    return n * 2


class Counter:
    count = 0

    def bump(self):
        self.__class__.count = self.count + 1


def build():
    fns = []
    for i in (1, 2):
        fns.append(lambda: i)
    return fns
"""


@pytest.fixture
def dirty(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY_FIXTURE)
    return path


def run(args, capsys):
    code = lint_main([str(a) for a in args])
    return code, capsys.readouterr().out


def test_dirty_fixture_trips_every_rule(dirty, capsys):
    code, out = run([dirty, "--format", "json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert sorted(report["counts"]) == sorted(CODES)
    assert all(n == 1 for n in report["counts"].values())
    assert report["ok"] is False


def test_json_schema(dirty, capsys):
    code, out = run([dirty, "--format", "json"], capsys)
    report = json.loads(out)
    assert report["version"] == 3
    assert report["files_scanned"] == 1
    assert sorted(report) == ["counts", "files_scanned", "findings", "ok",
                              "version"]
    for f in report["findings"]:
        assert sorted(f) == ["chain", "code", "col", "line", "message",
                             "path", "severity", "source_line"]
        assert f["severity"] in ("error", "warning")
        assert f["line"] >= 1 and f["col"] >= 0
        for step in f["chain"]:
            assert sorted(step) == ["line", "path", "text"]


def test_taint_findings_carry_chains(dirty, capsys):
    code, out = run([dirty, "--format", "json"], capsys)
    by_code = {f["code"]: f for f in json.loads(out)["findings"]}
    for code_ in ("REP101", "REP102"):
        chain = by_code[code_]["chain"]
        assert chain, f"{code_} finding should carry a propagation chain"
        assert "source" in chain[-1]["text"]
    assert by_code["REP103"]["chain"] == []  # direct read, no propagation


def test_text_format_renders_locations(dirty, capsys):
    code, out = run([dirty], capsys)
    assert code == 1
    assert f"{dirty}:13:" in out  # the time.time() line
    assert "REP001" in out and "16 findings" in out


def test_select_and_ignore(dirty, capsys):
    code, out = run([dirty, "--format", "json", "--select", "REP001"], capsys)
    assert json.loads(out)["counts"] == {"REP001": 1}
    code, out = run([dirty, "--format", "json", "--ignore", "REP001,REP004"],
                    capsys)
    counts = json.loads(out)["counts"]
    assert "REP001" not in counts and "REP004" not in counts
    assert len(counts) == len(CODES) - 2


def test_unknown_select_code_is_usage_error(dirty, capsys):
    with pytest.raises(SystemExit) as exc:
        lint_main([str(dirty), "--select", "REP999"])
    assert exc.value.code == 2


def test_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x + 1\n")
    code, out = run([clean], capsys)
    assert code == 0 and "clean: 1 files" in out


def test_no_python_files_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert lint_main([str(empty)]) == 2


def test_output_file(dirty, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _out = run([dirty, "--format", "json", "--output", report_path],
                     capsys)
    assert code == 1
    assert json.loads(report_path.read_text())["ok"] is False


def test_unwritable_output_is_io_error(tmp_path, capsys):
    # exit 2, not 1: an I/O failure must not read as "findings"
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x + 1\n")
    target = tmp_path / "no" / "such" / "r.json"
    assert lint_main([str(clean), "--format", "json",
                      "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in CODES + ("REP000",):
        assert code in out


def test_repro_main_dispatches_lint(dirty, capsys):
    from repro.__main__ import main as repro_main

    assert repro_main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "REP005" in out
