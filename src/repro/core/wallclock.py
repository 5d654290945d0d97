"""The only place repro code may read the host's clocks.

Simulated time always comes from the event loop (:class:`repro.net.events.
EventLoop`); reading a wall clock inside simulation code silently breaks
determinism, poisons sweep-cell cache keys, and invalidates the scalar/fast
path equivalence gates.  The few legitimate consumers of real time — sweep
bookkeeping reporting elapsed wall time, wall-clock telemetry spans, and the
distributed dispatcher's liveness deadlines — route through the two helpers
below, which are the *entire* wall-clock allowlist of
``python -m repro.lint`` (rule ``wall-clock``).  Calling ``time.time()``
and friends anywhere else in ``repro`` fails lint; add a helper here (and
to the allowlist) instead of sprinkling new call sites.
"""

from __future__ import annotations

import time as _time


def perf_counter() -> float:
    """High-resolution wall timer for benchmarking (``time.perf_counter``)."""
    return _time.perf_counter()


def monotonic() -> float:
    """Monotonic wall clock for liveness deadlines (``time.monotonic``)."""
    return _time.monotonic()
