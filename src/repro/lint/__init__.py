"""reprolint — AST-based invariant checker for the repro codebase.

The subsystems built so far rest on conventions nothing used to enforce:
sweep-cell caching is only sound if all randomness derives from seeded
``np.random.Generator`` streams, scalar/fast-path equivalence gates are
only meaningful if simulation code never reads wall clocks or parses
``REPRO_NET_FASTPATH`` ad hoc, and the distributed dispatcher is only
robust if every protocol message type that can be sent is actually
handled.  ``python -m repro.lint`` verifies those invariants statically on
every commit; see :data:`repro.lint.checkers.RULES` for the rule set and
``docs/LINT.md`` for the inline-suppression workflow.
"""

from .checkers import RULES, FileContext, check_file
from .engine import LintResult, lint_root
from .findings import Finding

__all__ = [
    "Finding",
    "FileContext",
    "LintResult",
    "RULES",
    "check_file",
    "lint_root",
]
