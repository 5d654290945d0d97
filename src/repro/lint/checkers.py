"""Per-file AST checkers encoding this codebase's determinism invariants.

Each checker is an :class:`ast.NodeVisitor` over one parsed module.  They
share a small amount of infrastructure: import-alias resolution (so
``import numpy as np`` / ``from time import monotonic`` cannot dodge a
rule) and enclosing-scope tracking (so allowlists can name individual
functions rather than whole files).

The cross-file protocol-exhaustiveness rule lives in
:mod:`repro.lint.protocol_check`; everything single-file lives here.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import Optional

from .findings import Finding

# ---------------------------------------------------------------------------
# Rule registry (ids + one-line rationale, surfaced by ``--list-rules``)
# ---------------------------------------------------------------------------

RULES: dict[str, str] = {
    "rng-discipline": (
        "all randomness must flow from an explicit seed or a passed-in "
        "np.random.Generator: the stdlib random module, np.random.seed, "
        "legacy module-level np.random draws, and argument-less "
        "np.random.default_rng() all break sweep-cell cache soundness"
    ),
    "wall-clock": (
        "simulation time comes from the event loop; wall-clock reads are "
        "confined to the repro.core.wallclock helpers so determinism and "
        "scalar/fast-path equivalence gates stay meaningful"
    ),
    "fastpath-flag": (
        "REPRO_NET_FASTPATH may only be read at net/emulator.py's "
        "fastpath_enabled() (and toggled by perfbench's fastpath_mode); "
        "ad-hoc parses desynchronise the scalar/vectorized mode switch"
    ),
    "hot-slots": (
        "dataclasses in hot-path modules must declare slots=True — a "
        "measured win on per-packet records (PR 3)"
    ),
    "protocol-exhaustive": (
        "every dispatcher message type declared in distrib/protocol.py must "
        "be sent somewhere and handled somewhere across "
        "coordinator.py/worker.py, and vice versa"
    ),
    "float-time-eq": (
        "==/!= between float-typed time expressions is the ULP bug class "
        "fixed twice in PR 1; compare with tolerances or orderings instead"
    ),
    "mutable-default": "mutable default arguments alias state across calls",
    "broad-except": (
        "bare except: anywhere, and except Exception/BaseException inside "
        "distrib/, swallow protocol and liveness bugs; catch specific "
        "exceptions or suppress with a justification"
    ),
    "socket-timeout": (
        "inside distrib/, every socket must carry a finite timeout: "
        "create_connection needs timeout=, settimeout(None) is banned, and "
        "sockets obtained from socket() or accept() must be given a "
        "settimeout() in the same function — a blocking-forever read turns "
        "one silent peer into a hung fleet"
    ),
    "print-discipline": (
        "bare print() in library code pollutes stdout that tools parse "
        "(JSONL status streams, reports, telemetry exports); only CLI entry "
        "modules (__main__.py, or a module with a top-level "
        "if __name__ == '__main__' guard) may print, and an explicit "
        "print(..., file=...) destination is always allowed"
    ),
    "unused-import": (
        "an imported name no code in the module uses is dead weight that "
        "hides real dependencies; package __init__ re-exports, __future__ "
        "imports and names listed in __all__ are exempt"
    ),
}

#: Modules whose dataclasses must declare ``slots=True`` (hot paths where
#: PR 3 measured per-record attribute access and allocation wins).
HOT_SLOTS_MODULES = frozenset(
    {
        "net/packet.py",
        "net/events.py",
        "net/transport.py",
        "net/congestion.py",
        "net/abr.py",
        "net/control.py",
        "distrib/protocol.py",
    }
)

#: ``(relpath, function qualname)`` pairs allowed to read wall clocks.
#: Deliberately function-granular: growing this list means adding a helper
#: to :mod:`repro.core.wallclock`, not blessing a whole file.
WALLCLOCK_ALLOWLIST = frozenset(
    {
        ("core/wallclock.py", "perf_counter"),
        ("core/wallclock.py", "monotonic"),
    }
)

#: ``(relpath, function qualname)`` pairs allowed to touch the
#: ``REPRO_NET_FASTPATH`` environment variable: the single read helper and
#: the equivalence gate's context manager that toggles it around each run.
FASTPATH_ALLOWLIST = frozenset(
    {
        ("net/emulator.py", "fastpath_enabled"),
        ("analysis/perfbench.py", "fastpath_mode"),
    }
)

FASTPATH_ENV_NAME = "REPRO_NET_FASTPATH"
#: Conventional constant name for the flag (``repro.net.emulator.FASTPATH_ENV``);
#: reading the environment through the constant is still a read.
FASTPATH_CONST_NAME = "FASTPATH_ENV"

_WALLCLOCK_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``np.random.<attr>`` accesses that are part of the seeded-Generator API
#: rather than the legacy global-state one.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: Identifier shapes treated as "a time expression" by ``float-time-eq``:
#: ``*_time``, ``*_s``, ``deadline``/``*_deadline``, ``*_instant``, ``now``.
TIME_NAME_RE = re.compile(r"(?:^|_)(?:time|instant|deadline|now)$|_s$")


def path_matches(relpath: str, candidates: frozenset[str]) -> bool:
    """Whether ``relpath`` names one of ``candidates`` (suffix-tolerant, so
    scanning from a parent directory still matches ``net/packet.py``)."""
    return any(
        relpath == candidate or relpath.endswith("/" + candidate) for candidate in candidates
    )


# ---------------------------------------------------------------------------
# Shared context
# ---------------------------------------------------------------------------


class FileContext:
    """One parsed module plus the alias maps the checkers resolve against."""

    def __init__(self, relpath: str, text: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        # local name -> imported module path ("np" -> "numpy")
        self.module_aliases: dict[str, str] = {}
        # local name -> fully qualified name ("default_rng" -> "numpy.random.default_rng")
        self.name_aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.module_aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.name_aliases[local] = f"{node.module}.{alias.name}"

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a ``Name``/``Attribute`` chain to a dotted path with
        import aliases substituted; None for anything more dynamic."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = parts[0]
        if root in self.module_aliases:
            return ".".join([self.module_aliases[root], *parts[1:]])
        if root in self.name_aliases:
            return ".".join([self.name_aliases[root], *parts[1:]])
        return ".".join(parts)


class ScopedVisitor(ast.NodeVisitor):
    """Visitor that tracks the enclosing class/function qualname."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._scope: list[str] = []

    @property
    def qualname(self) -> str:
        return ".".join(self._scope)

    def emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.ctx.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _walk_scoped(self, node: ast.AST) -> None:
        self._scope.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._walk_scoped(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._walk_scoped(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._walk_scoped(node)


# ---------------------------------------------------------------------------
# Rule 1: RNG discipline
# ---------------------------------------------------------------------------


class RngDisciplineChecker(ScopedVisitor):
    rule = "rng-discipline"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.emit(
                    node,
                    self.rule,
                    "the stdlib random module is banned: draw from a seeded "
                    "np.random.Generator passed in by the caller",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level and node.module and node.module.split(".")[0] == "random":
            self.emit(
                node,
                self.rule,
                "the stdlib random module is banned: draw from a seeded "
                "np.random.Generator passed in by the caller",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.ctx.resolve(node.func)
        if dotted:
            if dotted.startswith("numpy.random."):
                terminal = dotted[len("numpy.random.") :]
                if terminal == "seed":
                    self.emit(
                        node,
                        self.rule,
                        "np.random.seed mutates hidden global state; seed an "
                        "explicit np.random.default_rng(seed) instead",
                    )
                elif terminal == "default_rng":
                    if self._unseeded(node):
                        self.emit(
                            node,
                            self.rule,
                            "np.random.default_rng() without a seed is "
                            "entropy-seeded: results are unreproducible and "
                            "poison sweep-cell cache keys — pass an explicit "
                            "seed or accept a Generator argument",
                        )
                elif "." not in terminal and terminal not in _NP_RANDOM_ALLOWED:
                    self.emit(
                        node,
                        self.rule,
                        f"legacy module-level np.random.{terminal}() draws from "
                        "hidden global state; use a seeded np.random.Generator",
                    )
        self.generic_visit(node)

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        if len(node.args) == 1 and not node.keywords:
            arg = node.args[0]
            return isinstance(arg, ast.Constant) and arg.value is None
        return False


# ---------------------------------------------------------------------------
# Rule 2: wall-clock discipline
# ---------------------------------------------------------------------------


class WallClockChecker(ScopedVisitor):
    rule = "wall-clock"

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.ctx.resolve(node.func)
        if dotted in _WALLCLOCK_BANNED and not self._allowlisted():
            self.emit(
                node,
                self.rule,
                f"{dotted}() reads the wall clock: simulated time must come "
                "from the event loop; real-time needs go through "
                "repro.core.wallclock's allowlisted helpers",
            )
        self.generic_visit(node)

    def _allowlisted(self) -> bool:
        qual = self.qualname
        return any(
            path_matches(self.ctx.relpath, frozenset({path})) and qual == func
            for path, func in WALLCLOCK_ALLOWLIST
        )


# ---------------------------------------------------------------------------
# Rule 3: fast-path flag discipline
# ---------------------------------------------------------------------------


class FastpathFlagChecker(ScopedVisitor):
    rule = "fastpath-flag"

    def _is_flag(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and node.value == FASTPATH_ENV_NAME:
            return True
        return isinstance(node, ast.Name) and node.id == FASTPATH_CONST_NAME

    def _allowlisted(self) -> bool:
        qual = self.qualname
        return any(
            path_matches(self.ctx.relpath, frozenset({path})) and qual == func
            for path, func in FASTPATH_ALLOWLIST
        )

    def _check_key(self, node: ast.AST, key: ast.AST) -> None:
        if self._is_flag(key) and not self._allowlisted():
            self.emit(
                node,
                self.rule,
                f"{FASTPATH_ENV_NAME} may only be read via "
                "repro.net.emulator.fastpath_enabled() (and toggled by "
                "perfbench's fastpath_mode); ad-hoc access desynchronises "
                "the scalar/vectorized mode switch",
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.ctx.resolve(node.value) == "os.environ":
            self._check_key(node, node.slice)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.ctx.resolve(node.func)
        if dotted in (
            "os.getenv",
            "os.environ.get",
            "os.environ.pop",
            "os.environ.setdefault",
        ):
            if node.args:
                self._check_key(node, node.args[0])
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Rule 4: slots on hot-path dataclasses
# ---------------------------------------------------------------------------


class HotSlotsChecker(ScopedVisitor):
    rule = "hot-slots"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if path_matches(self.ctx.relpath, HOT_SLOTS_MODULES):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if self.ctx.resolve(target) in ("dataclass", "dataclasses.dataclass"):
                    if not self._has_slots(decorator):
                        self.emit(
                            node,
                            self.rule,
                            f"dataclass {node.name} in a hot-path module must "
                            "declare @dataclass(slots=True) — slotted records "
                            "are a measured per-packet win",
                        )
        self._walk_scoped(node)

    @staticmethod
    def _has_slots(decorator: ast.AST) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        for keyword in decorator.keywords:
            if keyword.arg == "slots":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False


# ---------------------------------------------------------------------------
# Rule 6: float time equality
# ---------------------------------------------------------------------------


class FloatTimeEqChecker(ScopedVisitor):
    rule = "float-time-eq"

    @classmethod
    def _terminal_name(cls, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Call):
            return cls._terminal_name(node.func)
        return None

    @classmethod
    def _is_time_like(cls, node: ast.AST) -> bool:
        name = cls._terminal_name(node)
        return name is not None and bool(TIME_NAME_RE.search(name))

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            # == 0.0 is an exact sentinel (assigned, never computed), the
            # one float-equality idiom that is reliable.
            and node.value != 0.0
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            time_like = sum(self._is_time_like(side) for side in pair)
            literalish = any(self._is_float_literal(side) for side in pair)
            if time_like == 2 or (time_like == 1 and literalish):
                self.emit(
                    node,
                    self.rule,
                    "==/!= between float time values is ULP-fragile (the bug "
                    "class fixed twice in PR 1): compare with a tolerance, an "
                    "ordering, or an integer tick count",
                )
                break
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Rule 7a/7b: hygiene
# ---------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "collections.defaultdict", "collections.deque"})


class MutableDefaultChecker(ScopedVisitor):
    rule = "mutable-default"

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and self.ctx.resolve(default.func) in _MUTABLE_CALLS
            )
            if mutable:
                self.emit(
                    default,
                    self.rule,
                    "mutable default argument is shared across calls; default "
                    "to None and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._walk_scoped(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._walk_scoped(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


class BroadExceptChecker(ScopedVisitor):
    rule = "broad-except"

    def _in_distrib(self) -> bool:
        return "distrib" in PurePosixPath(self.ctx.relpath).parts

    def _names(self, node: Optional[ast.AST]) -> list[str]:
        if node is None:
            return []
        if isinstance(node, ast.Tuple):
            return [name for elt in node.elts for name in self._names(elt)]
        dotted = self.ctx.resolve(node)
        return [dotted] if dotted else []

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.emit(
                node,
                self.rule,
                "bare except: catches SystemExit/KeyboardInterrupt too; name "
                "the exceptions this handler is for",
            )
        elif self._in_distrib():
            broad = [
                name
                for name in self._names(node.type)
                if name in ("Exception", "BaseException", "builtins.Exception", "builtins.BaseException")
            ]
            if broad:
                self.emit(
                    node,
                    self.rule,
                    f"except {broad[0]} in distrib/ swallows protocol and "
                    "liveness bugs; catch the specific exceptions (or suppress "
                    "inline with a justification)",
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Rule 8: print discipline
# ---------------------------------------------------------------------------


class PrintDisciplineChecker(ScopedVisitor):
    """No bare ``print()`` outside CLI entry modules.

    Library stdout is load-bearing here: CLIs emit JSONL and JSON reports,
    the report CLI pipes Markdown, and telemetry exports are byte-compared
    by equivalence gates — a stray ``print`` in a library module corrupts
    whichever of those streams happens to share the process.  Exemptions:

    * ``__main__.py`` modules (they *are* the CLI);
    * modules with a top-level ``if __name__ == "__main__":`` guard (the
      conventional CLI-entry shape — ``worker.py``, ``chaos.py``, ...);
    * calls passing an explicit ``file=`` destination, which state where
      the bytes go instead of defaulting to whoever owns stdout.
    """

    rule = "print-discipline"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._exempt_module = self._is_cli_module(ctx)

    @classmethod
    def _is_cli_module(cls, ctx: FileContext) -> bool:
        if PurePosixPath(ctx.relpath).name == "__main__.py":
            return True
        return any(
            isinstance(node, ast.If) and cls._is_main_guard(node.test)
            for node in ctx.tree.body
        )

    @staticmethod
    def _is_main_guard(test: ast.AST) -> bool:
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return False
        if not isinstance(test.ops[0], ast.Eq):
            return False
        operands = (test.left, test.comparators[0])
        has_name = any(
            isinstance(side, ast.Name) and side.id == "__name__" for side in operands
        )
        has_main = any(
            isinstance(side, ast.Constant) and side.value == "__main__" for side in operands
        )
        return has_name and has_main

    def visit_Call(self, node: ast.Call) -> None:
        if (
            not self._exempt_module
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not any(keyword.arg == "file" for keyword in node.keywords)
        ):
            self.emit(
                node,
                self.rule,
                "bare print() in a library module writes to stdout that "
                "tools parse; return the value, pass an explicit "
                "print(..., file=...), or move the output to a CLI module "
                "(__main__.py or one with an if __name__ == '__main__' guard)",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Rule 9: socket timeouts in distrib/
# ---------------------------------------------------------------------------


class SocketTimeoutChecker(ScopedVisitor):
    """No blocking-forever sockets in the dispatcher.

    distrib/-scoped (like broad-except's strict mode).  Three legs:

    * ``socket.create_connection(...)`` must pass a ``timeout`` (second
      positional or keyword);
    * ``settimeout(None)`` — re-enabling blocking mode — is banned outright;
    * a function that obtains a socket from ``socket.socket(...)`` or
      ``.accept()`` must call ``.settimeout(...)`` later in the same
      function, so no socket escapes its creation scope still blocking.
      (Scopes are checked by function; code in nested closures counts
      toward the enclosing function — an acceptable approximation for how
      sockets are actually handled here.)
    """

    rule = "socket-timeout"

    def _in_distrib(self) -> bool:
        return "distrib" in PurePosixPath(self.ctx.relpath).parts

    def visit_Module(self, node: ast.Module) -> None:
        if not self._in_distrib():
            return
        functions = [
            child
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        in_function: set[int] = set()
        for function in functions:
            for child in ast.walk(function):
                if child is not function:
                    in_function.add(id(child))
        # Innermost-function statements must not also count toward their
        # enclosing function twice; scope per top-level-visited function is
        # fine because nested defs are walked as part of the outer one.
        checked: set[int] = set()
        for function in functions:
            if id(function) in checked:
                continue
            scope_nodes = [child for child in ast.walk(function)]
            for child in scope_nodes:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    checked.add(id(child))
            self._check_scope(scope_nodes)
        # Module/class-level statements outside any function.
        self._check_scope(
            [child for child in ast.walk(node) if id(child) not in in_function]
        )

    def _check_scope(self, nodes: list[ast.AST]) -> None:
        creations: list[ast.Call] = []  # socket.socket(...) / .accept() sites
        settimeout_lines: list[int] = []
        for child in nodes:
            if not isinstance(child, ast.Call):
                continue
            dotted = self.ctx.resolve(child.func)
            if dotted == "socket.create_connection":
                if len(child.args) < 2 and not any(
                    keyword.arg == "timeout" for keyword in child.keywords
                ):
                    self.emit(
                        child,
                        self.rule,
                        "socket.create_connection without timeout= blocks "
                        "forever on an unresponsive peer; pass an explicit "
                        "timeout",
                    )
            elif dotted == "socket.socket":
                creations.append(child)
            elif isinstance(child.func, ast.Attribute):
                if child.func.attr == "accept":
                    creations.append(child)
                elif child.func.attr == "settimeout":
                    if (
                        len(child.args) == 1
                        and isinstance(child.args[0], ast.Constant)
                        and child.args[0].value is None
                    ):
                        self.emit(
                            child,
                            self.rule,
                            "settimeout(None) puts the socket back in "
                            "blocking-forever mode; set a finite timeout",
                        )
                    else:
                        settimeout_lines.append(getattr(child, "lineno", 0))
        for creation in creations:
            line = getattr(creation, "lineno", 0)
            if not any(timeout_line > line for timeout_line in settimeout_lines):
                what = (
                    "socket accepted here"
                    if isinstance(creation.func, ast.Attribute)
                    and creation.func.attr == "accept"
                    else "socket created here"
                )
                self.emit(
                    creation,
                    self.rule,
                    f"{what} never gets a settimeout() later in this "
                    "function; a silent peer would block it forever",
                )


# ---------------------------------------------------------------------------
# Rule 10: unused imports
# ---------------------------------------------------------------------------


class UnusedImportChecker(ScopedVisitor):
    """Imported names the module never uses.

    A name counts as used when it appears as an identifier anywhere in the
    module (scopes are not distinguished), inside a string annotation such
    as ``-> "BandwidthTrace"``, or as a string in a module-level
    ``__all__``.  Package ``__init__.py`` files re-export by importing and
    are skipped, as are ``from __future__`` imports.
    """

    rule = "unused-import"

    def visit_Module(self, node: ast.Module) -> None:
        if PurePosixPath(self.ctx.relpath).name == "__init__.py":
            return
        imports: list[tuple[ast.AST, str]] = []
        used: set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    imports.append((child, alias.asname or alias.name.split(".")[0]))
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                imports.extend((child, alias.asname or alias.name) for alias in child.names)
            elif isinstance(child, ast.Name):
                used.add(child.id)
            elif isinstance(child, (ast.arg, ast.AnnAssign)):
                used |= self._string_annotation_names(child.annotation)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used |= self._string_annotation_names(child.returns)
        used |= self._dunder_all(node)
        for import_node, name in imports:
            if name not in used and name != "*":
                self.emit(import_node, self.rule, f"{name!r} is imported but never used")

    @staticmethod
    def _string_annotation_names(annotation: Optional[ast.AST]) -> set[str]:
        names: set[str] = set()
        if annotation is None:
            return names
        for child in ast.walk(annotation):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                try:
                    parsed = ast.parse(child.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
        return names

    @staticmethod
    def _dunder_all(node: ast.Module) -> set[str]:
        for statement in node.body:
            targets = getattr(statement, "targets", [getattr(statement, "target", None)])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                value = statement.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    return {
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    }
        return set()


#: Single-file checkers, in reporting order.
FILE_CHECKERS = (
    RngDisciplineChecker,
    WallClockChecker,
    FastpathFlagChecker,
    HotSlotsChecker,
    FloatTimeEqChecker,
    MutableDefaultChecker,
    BroadExceptChecker,
    PrintDisciplineChecker,
    SocketTimeoutChecker,
    UnusedImportChecker,
)


def check_file(ctx: FileContext) -> list[Finding]:
    """Run every single-file checker over one parsed module."""
    findings: list[Finding] = []
    for checker_cls in FILE_CHECKERS:
        checker = checker_cls(ctx)
        checker.visit(ctx.tree)
        findings.extend(checker.findings)
    return findings
