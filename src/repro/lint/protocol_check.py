"""Cross-file protocol-exhaustiveness checker (rule ``protocol-exhaustive``).

The dispatcher's wire vocabulary is declared once, as ``MESSAGE_TYPES`` in
``distrib/protocol.py``.  Messages are constructed with
``channel.send("<type>", ...)`` and dispatched by comparing
``message.get("type")`` (directly or via a local variable) against string
literals in ``coordinator.py``/``worker.py``.  All three views must
agree:

* every declared type is sent somewhere and handled somewhere;
* every sent type is declared and handled;
* every handled type is actually sent by the other side.

A type that fails any leg is either dead vocabulary or — the dangerous
case — a message a peer can emit that the receiver silently drops on the
floor (the coordinator/worker ignore unknown types for forward
compatibility, so nothing crashes; the sweep just quietly misbehaves).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Optional

from .checkers import FileContext
from .findings import Finding

RULE = "protocol-exhaustive"

#: The declaration the vocabulary is extracted from.
VOCAB_NAME = "MESSAGE_TYPES"


def _string_elements(node: ast.AST) -> Optional[set[str]]:
    """Constant string elements of a set/list/tuple literal (possibly
    wrapped in ``frozenset(...)``/``set(...)``); None if not that shape."""
    if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("frozenset", "set"):
            return _string_elements(node.args[0])
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        out: set[str] = set()
        for element in node.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            out.add(element.value)
        return out
    return None


def extract_vocabulary(ctx: FileContext) -> Optional[tuple[set[str], int]]:
    """``(types, lineno)`` of the ``MESSAGE_TYPES`` declaration, or None."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if VOCAB_NAME in targets:
                elements = _string_elements(node.value)
                if elements is not None:
                    return elements, node.lineno
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name) and node.target.id == VOCAB_NAME:
                elements = _string_elements(node.value)
                if elements is not None:
                    return elements, node.lineno
    return None


def collect_sent(ctx: FileContext) -> dict[str, tuple[str, int]]:
    """Message types constructed in ``ctx``: type -> first (path, line).

    A send site is ``<channel>.send("<type>", ...)`` — the
    :class:`~repro.distrib.protocol.MessageChannel` API — or a literal
    ``{"type": "<type>", ...}`` dict passed to ``send_message``.
    """
    sent: dict[str, tuple[str, int]] = {}

    def record(value: str, lineno: int) -> None:
        sent.setdefault(value, (ctx.relpath, lineno))

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "send" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                record(first.value, node.lineno)
        dotted = ctx.resolve(func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "send_message":
            for arg in node.args:
                if isinstance(arg, ast.Dict):
                    for key, value in zip(arg.keys, arg.values):
                        if (
                            isinstance(key, ast.Constant)
                            and key.value == "type"
                            and isinstance(value, ast.Constant)
                            and isinstance(value.value, str)
                        ):
                            record(value.value, node.lineno)
    return sent


def _is_type_access(node: ast.AST) -> bool:
    """``<expr>.get("type")`` or ``<expr>["type"]``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "get" and node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value == "type"
    if isinstance(node, ast.Subscript):
        key = node.slice
        return isinstance(key, ast.Constant) and key.value == "type"
    return False


def collect_handled(ctx: FileContext) -> dict[str, tuple[str, int]]:
    """Message types dispatched on in ``ctx``: type -> first (path, line).

    Covers direct comparisons (``message.get("type") == "hello"``),
    comparisons through a local binding (``kind = message.get("type")``
    then ``kind == "next"``), and membership tests against literal
    collections.
    """
    type_vars: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and _is_type_access(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    type_vars.add(target.id)

    handled: dict[str, tuple[str, int]] = {}

    def record(value: str, lineno: int) -> None:
        handled.setdefault(value, (ctx.relpath, lineno))

    def is_type_expr(node: ast.AST) -> bool:
        if _is_type_access(node):
            return True
        return isinstance(node, ast.Name) and node.id in type_vars

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for side, other in ((left, right), (right, left)):
                    if is_type_expr(side) and isinstance(other, ast.Constant):
                        if isinstance(other.value, str):
                            record(other.value, node.lineno)
            elif isinstance(op, (ast.In, ast.NotIn)) and is_type_expr(left):
                elements = _string_elements(right)
                if elements:
                    for value in sorted(elements):
                        record(value, node.lineno)
    return handled


def check_protocol(contexts: dict[str, FileContext]) -> list[Finding]:
    """Cross-check vocabulary, send sites and dispatch sites.

    Applies to every scanned directory holding a ``protocol.py`` under a
    ``distrib`` path component; ``coordinator.py``/``worker.py`` siblings
    are the dispatch surfaces.
    """
    findings: list[Finding] = []
    for relpath, ctx in sorted(contexts.items()):
        path = PurePosixPath(relpath)
        if path.name != "protocol.py" or "distrib" not in path.parts:
            continue
        siblings = [
            contexts[str(path.with_name(name))]
            for name in ("coordinator.py", "worker.py")
            if str(path.with_name(name)) in contexts
        ]
        findings.extend(_check_one(ctx, siblings))
    return findings


def _check_one(protocol_ctx: FileContext, siblings: list[FileContext]) -> list[Finding]:
    findings: list[Finding] = []
    vocabulary = extract_vocabulary(protocol_ctx)
    if vocabulary is None:
        return [
            Finding(
                rule=RULE,
                path=protocol_ctx.relpath,
                line=1,
                col=0,
                message=(
                    f"protocol module declares no {VOCAB_NAME} literal set; "
                    "the wire vocabulary must be statically enumerable"
                ),
            )
        ]
    declared, vocab_line = vocabulary

    sent: dict[str, tuple[str, int]] = {}
    handled: dict[str, tuple[str, int]] = {}
    for ctx in (protocol_ctx, *siblings):
        for value, site in collect_sent(ctx).items():
            sent.setdefault(value, site)
        for value, site in collect_handled(ctx).items():
            handled.setdefault(value, site)

    def emit(path: str, line: int, message: str) -> None:
        findings.append(Finding(rule=RULE, path=path, line=line, col=0, message=message))

    for value in sorted(sent):
        path, line = sent[value]
        if value not in declared:
            emit(
                path,
                line,
                f"message type {value!r} is sent but not declared in "
                f"{VOCAB_NAME} ({protocol_ctx.relpath})",
            )
        if value not in handled:
            emit(
                path,
                line,
                f"message type {value!r} is sent but no dispatch branch in "
                "coordinator.py/worker.py handles it — the "
                "receiver will silently drop it",
            )
    for value in sorted(handled):
        path, line = handled[value]
        if value not in sent:
            emit(
                path,
                line,
                f"message type {value!r} has a dispatch branch but nothing "
                "ever sends it — dead protocol surface or a missing send",
            )
        if value not in declared:
            emit(
                path,
                line,
                f"message type {value!r} is dispatched on but not declared "
                f"in {VOCAB_NAME} ({protocol_ctx.relpath})",
            )
    for value in sorted(declared):
        if value not in sent:
            emit(
                protocol_ctx.relpath,
                vocab_line,
                f"message type {value!r} is declared in {VOCAB_NAME} but "
                "never sent by coordinator.py/worker.py",
            )
        if value not in handled:
            emit(
                protocol_ctx.relpath,
                vocab_line,
                f"message type {value!r} is declared in {VOCAB_NAME} but "
                "never handled by coordinator.py/worker.py",
            )
    return findings
