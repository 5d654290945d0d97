"""Positive and negative fixture-snippet tests for every reprolint rule."""

from __future__ import annotations

import textwrap

from conftest import rules_of


def snippet(source: str) -> str:
    return textwrap.dedent(source).lstrip()


class TestRngDiscipline:
    def test_stdlib_random_import_flagged(self, lint_tree):
        result = lint_tree({"video/sim.py": "import random\nrandom.random()\n"})
        assert rules_of(result) == ["rng-discipline"]

    def test_stdlib_random_from_import_flagged(self, lint_tree):
        result = lint_tree({"video/sim.py": "from random import choice\nchoice([1])\n"})
        assert rules_of(result) == ["rng-discipline"]

    def test_np_random_seed_flagged(self, lint_tree):
        source = snippet(
            """
            import numpy as np
            np.random.seed(3)
            """
        )
        assert rules_of(lint_tree({"mllm/sim.py": source})) == ["rng-discipline"]

    def test_legacy_module_level_draw_flagged(self, lint_tree):
        source = snippet(
            """
            import numpy
            x = numpy.random.normal(0.0, 1.0, size=8)
            """
        )
        assert rules_of(lint_tree({"mllm/sim.py": source})) == ["rng-discipline"]

    def test_argless_default_rng_flagged(self, lint_tree):
        source = snippet(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert rules_of(lint_tree({"devibench/sim.py": source})) == ["rng-discipline"]

    def test_none_seeded_default_rng_flagged_even_via_from_import(self, lint_tree):
        source = snippet(
            """
            from numpy.random import default_rng
            rng = default_rng(None)
            """
        )
        assert rules_of(lint_tree({"devibench/sim.py": source})) == ["rng-discipline"]

    def test_seeded_generator_api_is_clean(self, lint_tree):
        source = snippet(
            """
            import numpy as np

            def draw(rng: np.random.Generator, seed: int):
                local = np.random.default_rng(seed)
                alt = np.random.Generator(np.random.PCG64(seed))
                return rng.random(), local.random(), alt.random()
            """
        )
        assert rules_of(lint_tree({"video/sim.py": source})) == []


class TestWallClock:
    def test_time_time_flagged(self, lint_tree):
        source = snippet(
            """
            import time
            stamp = time.time()
            """
        )
        assert rules_of(lint_tree({"core/sim.py": source})) == ["wall-clock"]

    def test_aliased_and_from_imports_cannot_dodge(self, lint_tree):
        source = snippet(
            """
            import time as t
            from time import monotonic

            def f():
                return t.perf_counter_ns() + monotonic()
            """
        )
        assert rules_of(lint_tree({"analysis/sim.py": source})) == ["wall-clock"] * 2

    def test_datetime_now_flagged(self, lint_tree):
        source = snippet(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        )
        assert rules_of(lint_tree({"analysis/sim.py": source})) == ["wall-clock"]

    def test_sleep_is_not_a_clock_read(self, lint_tree):
        source = snippet(
            """
            import time
            time.sleep(0.1)
            """
        )
        assert rules_of(lint_tree({"distrib/sim.py": source})) == []

    def test_wallclock_helpers_are_allowlisted(self, lint_tree):
        source = snippet(
            '''
            import time as _time

            def perf_counter() -> float:
                """Allowlisted helper."""
                return _time.perf_counter()

            def monotonic() -> float:
                return _time.monotonic()
            '''
        )
        assert rules_of(lint_tree({"core/wallclock.py": source})) == []

    def test_allowlist_is_function_granular_not_file_granular(self, lint_tree):
        source = snippet(
            """
            import time as _time

            def perf_counter() -> float:
                return _time.perf_counter()

            def rogue() -> float:
                return _time.time()
            """
        )
        result = lint_tree({"core/wallclock.py": source})
        assert rules_of(result) == ["wall-clock"]
        assert result.findings[0].line == 7


class TestFastpathFlag:
    def test_environ_get_flagged(self, lint_tree):
        source = snippet(
            """
            import os
            enabled = os.environ.get("REPRO_NET_FASTPATH", "1") != "0"
            """
        )
        assert rules_of(lint_tree({"video/sim.py": source})) == ["fastpath-flag"]

    def test_subscript_write_and_getenv_flagged(self, lint_tree):
        source = snippet(
            """
            import os
            FASTPATH_ENV = "REPRO_NET_FASTPATH"
            os.environ["REPRO_NET_FASTPATH"] = "0"
            value = os.getenv(FASTPATH_ENV)
            """
        )
        assert rules_of(lint_tree({"analysis/sim.py": source})) == ["fastpath-flag"] * 2

    def test_single_helper_in_emulator_is_allowlisted(self, lint_tree):
        source = snippet(
            """
            import os

            FASTPATH_ENV = "REPRO_NET_FASTPATH"

            def fastpath_enabled() -> bool:
                return os.environ.get(FASTPATH_ENV, "1") != "0"
            """
        )
        assert rules_of(lint_tree({"net/emulator.py": source})) == []

    def test_other_env_vars_are_fine(self, lint_tree):
        source = snippet(
            """
            import os
            home = os.environ.get("HOME")
            """
        )
        assert rules_of(lint_tree({"analysis/sim.py": source})) == []


class TestHotSlots:
    def test_dataclass_without_slots_in_hot_module_flagged(self, lint_tree):
        source = snippet(
            """
            from dataclasses import dataclass

            @dataclass
            class Packet:
                sequence: int

            @dataclass(frozen=True)
            class Other:
                x: int
            """
        )
        assert rules_of(lint_tree({"net/packet.py": source})) == ["hot-slots"] * 2

    def test_slotted_dataclass_is_clean(self, lint_tree):
        source = snippet(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Packet:
                sequence: int
            """
        )
        assert rules_of(lint_tree({"net/transport.py": source})) == []

    def test_cold_modules_are_not_constrained(self, lint_tree):
        source = snippet(
            """
            from dataclasses import dataclass

            @dataclass
            class Report:
                cells: int
            """
        )
        assert rules_of(lint_tree({"analysis/report.py": source})) == []


class TestFloatTimeEq:
    def test_equality_between_time_expressions_flagged(self, lint_tree):
        source = snippet(
            """
            def check(a, b, deadline, t_s):
                if a.send_time == b.complete_time:
                    return True
                return deadline != t_s
            """
        )
        assert rules_of(lint_tree({"net/sim.py": source})) == ["float-time-eq"] * 2

    def test_time_vs_float_literal_flagged(self, lint_tree):
        source = snippet(
            """
            def check(now):
                return now == 1.5
            """
        )
        assert rules_of(lint_tree({"net/sim.py": source})) == ["float-time-eq"]

    def test_orderings_zero_sentinels_and_non_time_names_are_clean(self, lint_tree):
        source = snippet(
            """
            def check(elapsed_s, send_time, rate, other_rate, count):
                if elapsed_s <= 0.0 or send_time == 0.0:
                    return False
                return rate == other_rate and count == 3
            """
        )
        assert rules_of(lint_tree({"net/sim.py": source})) == []


class TestHygiene:
    def test_mutable_defaults_flagged(self, lint_tree):
        source = snippet(
            """
            def f(items=[], *, index={}):
                g = lambda seen=set(): seen
                return items, index, g
            """
        )
        assert rules_of(lint_tree({"core/sim.py": source})) == ["mutable-default"] * 3

    def test_none_and_tuple_defaults_are_clean(self, lint_tree):
        source = snippet(
            """
            def f(items=None, pair=(), name="x"):
                return items, pair, name
            """
        )
        assert rules_of(lint_tree({"core/sim.py": source})) == []

    def test_bare_except_flagged_everywhere(self, lint_tree):
        source = snippet(
            """
            def f():
                try:
                    return 1
                except:
                    return 0
            """
        )
        assert rules_of(lint_tree({"video/sim.py": source})) == ["broad-except"]

    BROAD_EXCEPT = snippet(
        """
        def f():
            try:
                return 1
            except Exception:
                return 0
        """
    )

    def test_broad_except_flagged_in_distrib(self, lint_tree):
        result = lint_tree({"distrib/sim.py": self.BROAD_EXCEPT})
        assert rules_of(result) == ["broad-except"]

    def test_broad_except_tolerated_outside_distrib(self, lint_tree):
        result = lint_tree({"analysis/sim.py": self.BROAD_EXCEPT})
        assert rules_of(result) == []

    def test_specific_exceptions_in_distrib_are_clean(self, lint_tree):
        source = snippet(
            """
            def f():
                try:
                    return 1
                except (OSError, ValueError):
                    return 0
            """
        )
        assert rules_of(lint_tree({"distrib/sim.py": source})) == []


class TestSuppressions:
    def test_inline_disable_suppresses_matching_rule(self, lint_tree):
        source = snippet(
            """
            import time
            stamp = time.time()  # reprolint: disable=wall-clock
            """
        )
        result = lint_tree({"analysis/sim.py": source})
        assert rules_of(result) == []
        assert result.suppressed == 1

    def test_disable_all_suppresses_any_rule(self, lint_tree):
        source = snippet(
            """
            import time
            stamp = time.time()  # reprolint: disable=all
            """
        )
        assert rules_of(lint_tree({"analysis/sim.py": source})) == []

    def test_wrong_rule_disable_does_not_suppress(self, lint_tree):
        source = snippet(
            """
            import time
            stamp = time.time()  # reprolint: disable=hot-slots
            """
        )
        assert rules_of(lint_tree({"analysis/sim.py": source})) == ["wall-clock"]


class TestParseErrors:
    def test_unparseable_file_is_a_finding_not_a_crash(self, lint_tree):
        result = lint_tree({"core/bad.py": "def broken(:\n"})
        assert rules_of(result) == ["parse-error"]


class TestSocketTimeout:
    """distrib/-scoped: no socket may block forever."""

    def test_create_connection_without_timeout_flagged(self, lint_tree):
        source = snippet(
            """
            import socket

            def dial(address):
                return socket.create_connection(address)
            """
        )
        assert rules_of(lint_tree({"distrib/worker.py": source})) == ["socket-timeout"]

    def test_create_connection_with_timeout_keyword_clean(self, lint_tree):
        source = snippet(
            """
            import socket

            def dial(address):
                return socket.create_connection(address, timeout=5.0)
            """
        )
        assert rules_of(lint_tree({"distrib/worker.py": source})) == []

    def test_create_connection_with_positional_timeout_clean(self, lint_tree):
        source = snippet(
            """
            import socket

            def dial(address):
                return socket.create_connection(address, 5.0)
            """
        )
        assert rules_of(lint_tree({"distrib/worker.py": source})) == []

    def test_settimeout_none_flagged(self, lint_tree):
        source = snippet(
            """
            def patient(sock):
                sock.settimeout(None)
            """
        )
        assert rules_of(lint_tree({"distrib/coordinator.py": source})) == ["socket-timeout"]

    def test_socket_without_later_settimeout_flagged(self, lint_tree):
        source = snippet(
            """
            import socket

            def serve():
                server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                server.bind(("127.0.0.1", 0))
                return server
            """
        )
        assert rules_of(lint_tree({"distrib/coordinator.py": source})) == ["socket-timeout"]

    def test_socket_with_later_settimeout_clean(self, lint_tree):
        source = snippet(
            """
            import socket

            def serve():
                server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                server.settimeout(1.0)
                return server
            """
        )
        assert rules_of(lint_tree({"distrib/coordinator.py": source})) == []

    def test_accept_without_settimeout_flagged(self, lint_tree):
        source = snippet(
            """
            def accept_loop(server):
                conn, peer = server.accept()
                return conn
            """
        )
        assert rules_of(lint_tree({"distrib/coordinator.py": source})) == ["socket-timeout"]

    def test_accepted_socket_given_timeout_clean(self, lint_tree):
        source = snippet(
            """
            def accept_loop(server):
                conn, peer = server.accept()
                conn.settimeout(2.0)
                return conn
            """
        )
        assert rules_of(lint_tree({"distrib/coordinator.py": source})) == []

    def test_rule_is_scoped_to_distrib(self, lint_tree):
        source = snippet(
            """
            import socket

            def dial(address):
                sock = socket.create_connection(address)
                sock.settimeout(None)
                return sock
            """
        )
        assert rules_of(lint_tree({"analysis/fetch.py": source})) == []


class TestPrintDiscipline:
    """Bare print() is banned outside CLI entry modules."""

    def test_bare_print_in_library_module_flagged(self, lint_tree):
        source = snippet(
            """
            def summarize(report):
                print(report)
            """
        )
        assert rules_of(lint_tree({"analysis/report.py": source})) == ["print-discipline"]

    def test_module_level_print_flagged_too(self, lint_tree):
        assert rules_of(lint_tree({"net/debug.py": 'print("loaded")\n'})) == [
            "print-discipline"
        ]

    def test_dunder_main_module_is_exempt(self, lint_tree):
        source = snippet(
            """
            def main():
                print("results written")
            """
        )
        assert rules_of(lint_tree({"analysis/__main__.py": source})) == []

    def test_module_with_main_guard_is_exempt(self, lint_tree):
        source = snippet(
            """
            import sys

            def main():
                print("worker done")
                return 0

            if __name__ == "__main__":
                sys.exit(main())
            """
        )
        assert rules_of(lint_tree({"distrib/worker.py": source})) == []

    def test_reversed_main_guard_is_exempt(self, lint_tree):
        source = snippet(
            """
            def main():
                print("ok")

            if "__main__" == __name__:
                main()
            """
        )
        assert rules_of(lint_tree({"distrib/tool.py": source})) == []

    def test_explicit_file_destination_is_clean(self, lint_tree):
        source = snippet(
            """
            import sys

            def warn(message):
                print(message, file=sys.stderr)

            def dump(profile, out):
                print(profile, file=out)
            """
        )
        assert rules_of(lint_tree({"analysis/perfbench.py": source})) == []

    def test_inline_disable_suppresses(self, lint_tree):
        source = snippet(
            """
            def trace(event):
                print(event)  # reprolint: disable=print-discipline
            """
        )
        result = lint_tree({"net/debug.py": source})
        assert rules_of(result) == []
        assert result.suppressed == 1


class TestUnusedImport:
    def test_unused_module_import_flagged(self, lint_tree):
        result = lint_tree({"video/sim.py": "import os\nimport numpy as np\n\nx = np.zeros(3)\n"})
        assert rules_of(result) == ["unused-import"]
        assert "'os'" in result.findings[0].message

    def test_each_unused_name_of_a_from_import_flagged(self, lint_tree):
        source = snippet(
            """
            from typing import Optional, Sequence, Union

            def pick(x: Optional[int]) -> int:
                return x or 0
            """
        )
        result = lint_tree({"net/sim.py": source})
        assert rules_of(result) == ["unused-import", "unused-import"]
        assert sorted(f.message.split("'")[1] for f in result.findings) == ["Sequence", "Union"]

    def test_unused_function_local_import_flagged(self, lint_tree):
        source = snippet(
            """
            def build():
                import copy
                return 1
            """
        )
        assert rules_of(lint_tree({"core/sim.py": source})) == ["unused-import"]

    def test_exemptions_are_clean(self, lint_tree):
        source = snippet(
            """
            from __future__ import annotations

            from typing import Optional

            from .emulator import BandwidthTrace, LossModel
            from .spec import ConfigError

            __all__ = ["ConfigError"]

            def trace_of(model: "LossModel") -> "Optional[BandwidthTrace]":
                return None
            """
        )
        files = {"net/sim.py": source, "net/__init__.py": "from .sim import trace_of\n"}
        assert rules_of(lint_tree(files)) == []

    def test_inline_disable_suppresses_a_side_effect_import(self, lint_tree):
        source = snippet(
            """
            def ensure_registered():
                from . import experiments  # reprolint: disable=unused-import
            """
        )
        result = lint_tree({"analysis/registry.py": source})
        assert rules_of(result) == []
        assert result.suppressed == 1
