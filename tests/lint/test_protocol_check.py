"""Tests for the cross-file protocol-exhaustiveness checker."""

from __future__ import annotations

import ast
from pathlib import Path

from conftest import FIXTURES, rules_of

from repro.distrib.protocol import MESSAGE_TYPES
from repro.lint.checkers import FileContext
from repro.lint.engine import lint_root, parse_tree
from repro.lint.protocol_check import (
    collect_handled,
    collect_sent,
    extract_vocabulary,
)

DISTRIB_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "distrib"


def ctx_for(relpath: str, source: str) -> FileContext:
    return FileContext(relpath, source, ast.parse(source))


class TestBrokenFixture:
    def test_exactly_six_findings(self):
        result = lint_root(FIXTURES / "broken_protocol")
        assert rules_of(result) == ["protocol-exhaustive"] * 6

    def test_each_failure_leg_is_reported(self):
        result = lint_root(FIXTURES / "broken_protocol")
        messages = [finding.message for finding in result.findings]

        def one(fragment: str) -> None:
            matching = [m for m in messages if fragment in m]
            assert len(matching) == 1, (fragment, messages)

        one("'status' is sent but not declared")
        one("'status' is sent but no dispatch branch")
        one("'ack' has a dispatch branch but nothing")
        one("'ack' is dispatched on but not declared")
        one("'shutdown' is declared in MESSAGE_TYPES but never sent")
        one("'shutdown' is declared in MESSAGE_TYPES but never handled")

    def test_findings_anchor_to_the_offending_files(self):
        result = lint_root(FIXTURES / "broken_protocol")
        by_path = {finding.path for finding in result.findings}
        assert by_path == {
            "distrib/protocol.py",
            "distrib/coordinator.py",
            "distrib/worker.py",
        }


class TestMissingVocabulary:
    def test_protocol_without_message_types_is_one_finding(self, lint_tree):
        result = lint_tree(
            {
                "distrib/protocol.py": "PROTOCOL_VERSION = 1\n",
                "distrib/worker.py": "def pull(channel):\n    channel.send('hello')\n",
            }
        )
        assert rules_of(result) == ["protocol-exhaustive"]
        assert "declares no MESSAGE_TYPES" in result.findings[0].message

    def test_protocol_outside_distrib_is_ignored(self, lint_tree):
        result = lint_tree({"net/protocol.py": "PROTOCOL_VERSION = 1\n"})
        assert rules_of(result) == []


class TestExtraction:
    def test_vocabulary_from_frozenset_literal(self):
        ctx = ctx_for(
            "distrib/protocol.py",
            'MESSAGE_TYPES = frozenset({"a", "b"})\n',
        )
        vocabulary = extract_vocabulary(ctx)
        assert vocabulary is not None
        assert vocabulary[0] == {"a", "b"}

    def test_non_literal_vocabulary_is_rejected(self):
        ctx = ctx_for(
            "distrib/protocol.py",
            'MESSAGE_TYPES = frozenset(x for x in names)\n',
        )
        assert extract_vocabulary(ctx) is None

    def test_collect_sent_sees_send_calls_and_send_message_dicts(self):
        ctx = ctx_for(
            "distrib/worker.py",
            "def go(channel, sock):\n"
            '    channel.send("hello", seed=1)\n'
            '    send_message(sock, {"type": "result", "ok": True})\n',
        )
        assert set(collect_sent(ctx)) == {"hello", "result"}

    def test_collect_handled_sees_direct_var_and_membership_dispatch(self):
        ctx = ctx_for(
            "distrib/coordinator.py",
            "def dispatch(message):\n"
            '    if message.get("type") == "hello":\n'
            "        return 1\n"
            '    kind = message.get("type")\n'
            '    if kind == "result":\n'
            "        return 2\n"
            '    if kind in ("heartbeat", "bye"):\n'
            "        return 3\n"
            '    if message["type"] != "task":\n'
            "        return 4\n",
        )
        assert set(collect_handled(ctx)) == {
            "hello",
            "result",
            "heartbeat",
            "bye",
            "task",
        }


class TestRealDispatcherCoverage:
    """Prove the checker sees every real message type — the acceptance
    criterion that protocol exhaustiveness covers all of distrib/protocol.py."""

    def _contexts(self) -> dict[str, FileContext]:
        contexts, errors = parse_tree(DISTRIB_SRC.parent)
        assert not errors
        return contexts

    def test_static_vocabulary_equals_runtime_vocabulary(self):
        contexts = self._contexts()
        vocabulary = extract_vocabulary(contexts["distrib/protocol.py"])
        assert vocabulary is not None
        assert vocabulary[0] == set(MESSAGE_TYPES)

    def test_every_runtime_type_is_seen_sent_and_handled(self):
        contexts = self._contexts()
        sent: set[str] = set()
        handled: set[str] = set()
        for relpath in ("distrib/coordinator.py", "distrib/worker.py"):
            sent |= set(collect_sent(contexts[relpath]))
            handled |= set(collect_handled(contexts[relpath]))
        assert sent == set(MESSAGE_TYPES)
        assert handled == set(MESSAGE_TYPES)

    def test_shipped_distrib_tree_has_no_protocol_findings(self):
        result = lint_root(DISTRIB_SRC.parent)
        assert "protocol-exhaustive" not in rules_of(result)
