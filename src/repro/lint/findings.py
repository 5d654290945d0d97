"""Finding and suppression primitives shared by the reprolint checkers."""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Inline suppression marker.  ``# reprolint: disable=rule-a,rule-b`` on a
#: line suppresses those rules' findings anchored to that line;
#: ``disable=all`` suppresses every rule.
SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_\-, ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    #: Path relative to the scanned root, always with forward slashes
    #: (e.g. ``net/transport.py``).
    path: str
    line: int
    col: int
    message: str

    def to_jsonable(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def suppressions_for(text: str) -> dict[int, set[str]]:
    """Map line number -> rules suppressed on that line via inline markers."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = SUPPRESS_RE.search(line)
        if match:
            out[lineno] = {part.strip() for part in match.group(1).split(",") if part.strip()}
    return out


def is_suppressed(finding: Finding, suppressions: dict[int, set[str]]) -> bool:
    rules = suppressions.get(finding.line)
    return rules is not None and (finding.rule in rules or "all" in rules)
