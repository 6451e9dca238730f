"""``python -m repro lint`` — the determinism & simulation-safety gate.

Exit codes: 0 clean (or everything suppressed), 1 findings, 2 usage or
I/O error. ``--format json`` emits the machine-readable report the CI
job uploads as an artifact (schema in docs/LINT.md).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.engine import lint_paths
from repro.lint.findings import Severity
from repro.lint.rules import ALL_RULES, PROJECT_RULES
from repro.pipes import tolerate_closed_stdout

#: Default lint targets, relative to the invocation directory.
DEFAULT_PATHS = ("src/repro", "tests")
#: JSON report schema version (2 added the per-finding "chain", 3
#: dropped the always-empty "baselined").
REPORT_VERSION = 3


class MetaRuleInfo:
    """REP000's catalog entry (the rule itself lives in noqa.py)."""

    code = "REP000"
    name = "suppressions"
    severity = Severity.ERROR

    @classmethod
    def summary(cls) -> str:
        return ("Malformed or stale '# repro: noqa[REPxxx] reason=...' "
                "directive (always on).")


#: Rule metadata order for --list-rules.
RULE_CATALOG = (MetaRuleInfo,) + ALL_RULES + PROJECT_RULES


def _codes(value: str) -> list:
    return [c.strip().upper() for c in value.split(",") if c.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Whole-program determinism & parallelism-safety "
                    "checks (per-file REP001-REP008 + call-graph "
                    "REP101-REP113; see docs/LINT.md).",
    )
    parser.add_argument("paths", nargs="*",
                        help=f"files/directories (default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", type=_codes, default=None, metavar="CODES",
                        help="comma-separated codes to run (default: all)")
    parser.add_argument("--ignore", type=_codes, default=None, metavar="CODES",
                        help="comma-separated codes to skip")
    parser.add_argument("--output", metavar="FILE",
                        help="also write the report to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _render_text(findings, files_scanned: int) -> str:
    lines = [f.render() for f in findings]
    n = len(findings)
    lines.append(f"{n} finding{'s' if n != 1 else ''} in {files_scanned} files"
                 if findings else f"clean: {files_scanned} files")
    return "\n".join(lines)


def _render_json(findings, files_scanned: int) -> str:
    by_code: dict = {}
    for f in findings:
        by_code[f.code] = by_code.get(f.code, 0) + 1
    report = {
        "version": REPORT_VERSION,
        "files_scanned": files_scanned,
        "findings": [f.as_dict() for f in findings],
        "counts": dict(sorted(by_code.items())),
        "ok": not findings,
    }
    return json.dumps(report, indent=2, sort_keys=True)


_RENDERERS = {"text": _render_text, "json": _render_json}


@tolerate_closed_stdout()
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in RULE_CATALOG:
            print(f"{cls.code} {cls.name:18s} {cls.summary()}")
        return 0

    paths = args.paths or list(DEFAULT_PATHS)
    try:
        findings, files_scanned = lint_paths(paths, select=args.select,
                                             ignore=args.ignore)
    except ValueError as exc:  # unknown --select/--ignore codes
        parser.error(str(exc))
    except OSError as exc:
        print(f"error: cannot lint {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    if files_scanned == 0:
        print(f"error: no python files under: {' '.join(paths)}",
              file=sys.stderr)
        return 2

    report = _RENDERERS[args.format](findings, files_scanned)
    print(report)
    if args.output:
        try:
            with open(args.output, "w") as fp:
                fp.write(report + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
