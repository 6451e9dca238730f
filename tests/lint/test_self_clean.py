"""Meta-test: the committed tree obeys its own determinism rules.

This is the in-repo twin of the CI ``lint-repro`` gate: ``src/repro``
(the analyzer included) and ``tests/`` must produce zero findings. If
this test fails, fix the new violation or suppress it with a reasoned
``# repro: noqa[REPxxx] reason=...``.
"""

import pathlib

from repro.lint import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _relative(findings):
    return [f.render().replace(str(REPO_ROOT) + "/", "") for f in findings]


def test_src_and_tests_lint_clean():
    findings, files_scanned = lint_paths(
        [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "tests")]
    )
    assert files_scanned > 150, "lint walked suspiciously few files"
    assert not findings, "findings:\n" + "\n".join(_relative(findings))


def test_linter_lints_itself():
    # The analyzer package alone: it must be spotless.
    findings, files_scanned = lint_paths(
        [str(REPO_ROOT / "src" / "repro" / "lint")]
    )
    assert files_scanned >= 14
    assert not findings, "lint package findings:\n" + "\n".join(
        _relative(findings)
    )
