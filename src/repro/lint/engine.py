"""The lint driver: files in, findings out — in two phases.

Phase 1 (**index**) parses every given file once, building a
:class:`~repro.lint.index.FileIndex` per file (symbols, call sites,
nondeterminism sources, shared-state facts).

Phase 2 (**analyze**) merges the indexes into a
:class:`~repro.lint.project.ProjectIndex` (the call graph), runs the
whole-program REP1xx rules over it, runs the per-file REP0xx rules
over each file's tree, then applies suppression centrally: one noqa
pass covers both tiers, marks used directives, and reports stale ones
(REP000).

This is the library surface the CLI and the test suite share:
:func:`lint_source` for one blob (fixture tests — a one-file project),
:func:`lint_paths` for files/directories.
"""

from __future__ import annotations

import ast
import os

from repro.lint import noqa as noqa_mod
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.index import build_file_index
from repro.lint.project import ProjectIndex
from repro.lint.rules import ALL_RULES, _chosen, make_project_rules
from repro.lint.visitor import run_rules

#: Directories never descended into.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", "build",
})


class ProjectReporter:
    """Finding sink for project rules: anchors to source lines."""

    def __init__(self, lines_by_path: dict) -> None:
        self._lines = lines_by_path
        self.findings: list = []

    def report(self, rule, path: str, line: int, col: int, message: str,
               chain=()) -> None:
        lines = self._lines.get(path, ())
        text = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        self.findings.append(
            Finding(rule.code, message, path, line, col, rule.severity,
                    source_line=text, chain=tuple(chain))
        )


class _Workspace:
    """Everything both phases track for one lint run."""

    def __init__(self) -> None:
        self.sources: dict = {}  #: path -> source text
        self.lines: dict = {}  #: path -> source lines
        self.trees: dict = {}  #: path -> parsed AST
        self.directives: dict = {}  #: path -> {line: Directive}
        self.malformed: dict = {}  #: path -> [REP000 findings]
        self.broken: dict = {}  #: path -> syntax-error finding
        self.project = ProjectIndex()

    def load(self, path: str, source: str) -> None:
        """Phase-1 intake of one file (from disk or a string)."""
        self.sources[path] = source
        self.lines[path] = source.splitlines()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.broken[path] = Finding(
                noqa_mod.META_CODE, f"syntax error: {exc.msg}", path,
                exc.lineno or 1, (exc.offset or 1) - 1, Severity.ERROR,
            )
            return
        directives, malformed = noqa_mod.scan(source, path)
        self.trees[path] = tree
        self.directives[path] = directives
        self.malformed[path] = malformed
        self.project.add(build_file_index(path, tree, directives))


def _analyze(ws: _Workspace, select, ignore) -> list:
    """Phase 2: project rules + per-file rules + central noqa."""
    active = _chosen(select, ignore)

    project_findings: dict = {}
    reporter = ProjectReporter(ws.lines)
    for rule in make_project_rules(select=select, ignore=ignore):
        rule.check(ws.project, reporter)
    for f in reporter.findings:
        project_findings.setdefault(f.path, []).append(f)

    file_rule_classes = [cls for cls in ALL_RULES if cls.code in active]
    out: list = list(ws.broken.values())
    for path, tree in ws.trees.items():
        ctx = FileContext(path, ws.sources[path], tree)
        raw = run_rules(ctx, [cls() for cls in file_rule_classes])
        raw.extend(project_findings.get(path, ()))
        directives = ws.directives[path]
        kept, _suppressed = noqa_mod.apply(raw, directives)
        kept.extend(ws.malformed[path])
        kept.extend(
            noqa_mod.stale_findings(directives, active, path, ws.lines[path])
        )
        out.extend(kept)
    return sorted(out, key=lambda f: f.sort_key())


def lint_source(source: str, path: str = "<string>", select=None,
                ignore=None) -> list:
    """Lint one source blob as a one-file project; sorted findings.

    Both tiers run — per-file rules on the tree, project rules on the
    single-file call graph — so fixture tests exercise the same
    pipeline as a full run. Syntax errors come back as a single REP000
    finding rather than an exception, so one unparseable file cannot
    hide the rest of a run.
    """
    ws = _Workspace()
    ws.load(path, source)
    return _analyze(ws, select, ignore)


def iter_python_files(paths) -> list:
    """Expand files/directories into a sorted list of ``.py`` files.

    Sorted traversal keeps finding order — and therefore text/JSON
    output — byte-identical across filesystems (the linter holds itself
    to REP003). Paths are normalized so the same file discovered via
    different spellings (``app.py`` vs ``./app.py``) dedupes instead of
    indexing twice.
    """
    out: list = []
    for root_path in paths:
        if os.path.isfile(root_path):
            out.append(os.path.normpath(root_path))
            continue
        for dirpath, dirnames, filenames in os.walk(root_path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            out.extend(
                os.path.normpath(os.path.join(dirpath, name))
                for name in sorted(filenames)
                if name.endswith(".py")
            )
    return sorted(dict.fromkeys(out))


def lint_paths(paths, select=None, ignore=None) -> tuple:
    """Lint every ``.py`` file under ``paths`` as one project.

    Returns ``(findings, files_scanned)``; findings are sorted by
    (path, line, col, code).
    """
    files = iter_python_files(paths)
    ws = _Workspace()
    for path in files:
        with open(path, encoding="utf-8") as fp:
            ws.load(path, fp.read())
    return _analyze(ws, select, ignore), len(files)
