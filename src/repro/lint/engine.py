"""The reprolint engine: walk a tree, run every checker, apply policy.

Orchestrates the pipeline: discover ``*.py`` files, parse, run the
single-file checkers (:mod:`repro.lint.checkers`) and the cross-file
protocol checker (:mod:`repro.lint.protocol_check`), then drop findings
suppressed inline.  Inline suppressions are the only exemption: a finding
is fixed, or suppressed where the reason is visible in the code.  The
result object carries everything the CLI renders and the exit code derives
from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .checkers import FileContext, check_file
from .findings import Finding, is_suppressed, suppressions_for
from .protocol_check import check_protocol

#: Directory names never scanned (caches, VCS internals).
_SKIP_DIRS = frozenset({"__pycache__", ".git"})


@dataclass
class LintResult:
    """Everything one lint run produced."""

    root: str
    files_checked: int = 0
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_jsonable(self) -> dict:
        return {
            "version": 2,
            "root": self.root,
            "files_checked": self.files_checked,
            "clean": self.clean,
            "findings": [finding.to_jsonable() for finding in self.findings],
            "suppressed": self.suppressed,
        }


def iter_python_files(root: Path) -> list[Path]:
    return sorted(
        path
        for path in root.rglob("*.py")
        if not any(part in _SKIP_DIRS for part in path.parts)
    )


def parse_tree(root: Path) -> tuple[dict[str, FileContext], list[Finding]]:
    """Parse every python file under ``root``; unparseable files become
    ``parse-error`` findings rather than crashing the run."""
    contexts: dict[str, FileContext] = {}
    errors: list[Finding] = []
    for path in iter_python_files(root):
        relpath = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="parse-error",
                    path=relpath,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        contexts[relpath] = FileContext(relpath, text, tree)
    return contexts, errors


def lint_root(root: Path) -> LintResult:
    """Lint every python file under ``root``."""
    root = root.resolve()
    result = LintResult(root=str(root))
    contexts, findings = parse_tree(root)
    result.files_checked = len(contexts) + len(findings)

    for ctx in contexts.values():
        findings.extend(check_file(ctx))
    findings.extend(check_protocol(contexts))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    suppression_cache: dict[str, dict[int, set[str]]] = {}
    for finding in findings:
        ctx = contexts.get(finding.path)
        if ctx is not None:
            if finding.path not in suppression_cache:
                suppression_cache[finding.path] = suppressions_for(ctx.text)
            if is_suppressed(finding, suppression_cache[finding.path]):
                result.suppressed += 1
                continue
        result.findings.append(finding)
    return result
