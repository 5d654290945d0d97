"""Deterministic, seeded fault injection for the distributed dispatcher.

The chaos layer sits at the exact :class:`~repro.distrib.protocol.
MessageChannel` boundary the real network occupies: a
:class:`ChaosChannel` wraps a worker's connected socket and, driven by a
seeded :class:`FaultPlan`, injects message delays, dropped/corrupt frames,
link partitions, crash-at-nth-message preemption and slow-executor stalls.
Every fault decision for the *n*-th operation of a stream is a pure
function of ``(plan.seed, worker_index, reconnect_attempt, stream, n)`` —
a fresh ``np.random.Generator`` seeded with that tuple per decision — so a
replayed plan draws the identical fault schedule regardless of OS thread
interleaving, and two runs of the same plan kill the same worker at the
same message.

Faults are injected on the **worker side only**, which exercises both
endpoints: the coordinator sees EOFs, garbage frames, oversized length
prefixes and heartbeat silence exactly as a hostile network would deliver
them.  Two modelling choices keep the injection honest about what TCP can
do:

* A "dropped" non-heartbeat message severs the connection (raises
  :class:`ChaosInjected`).  TCP cannot lose one message from a healthy
  stream; silently swallowing a ``result`` would instead model a byzantine
  worker and livelock the sweep.  Dropped *heartbeats* are silently
  swallowed — that models a stalled scheduler, and losing one is harmless
  by design (the coordinator tolerates ``MIN_HEARTBEAT_RATIO`` missed
  beats).
* Corrupt frames are written to the wire for real (truncated body, garbage
  JSON, or an absurd length prefix) before the link severs, so the
  coordinator's typed :class:`~repro.distrib.protocol.ProtocolError` /
  :class:`~repro.distrib.protocol.FrameTooLargeError` handling and requeue
  path run against actual bad bytes.

The soak driver (``python -m repro.distrib.chaos --plans N``) runs the
smoke grid under N sampled plans (plus any ``--preset``\\ s) and asserts
the convergence invariants after each: every cell resolves exactly once,
the persisted results tree is byte-identical to a fault-free baseline
(timing stripped), a re-run serves entirely from cache, reconnecting
workers re-offer cached cells instead of recomputing, and no threads leak.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..analysis.sweeps import (
    SweepGrid,
    SweepRunner,
    bernoulli_scenario,
    execute_cell_record,
    gilbert_elliott_scenario,
)
from ..core import wallclock
from ..core.spec import to_spec
from .backend import DistributedBackend
from .config import ConfigError, DistribTimeouts
from .protocol import _HEADER, MessageChannel
from .worker import WorkerCellCache, WorkerOutcome, run_worker


class ChaosInjected(OSError):
    """A fault fired: the chaos layer severed (or refused) the operation.

    Subclasses :class:`OSError` so every existing I/O-failure path —
    worker session teardown, heartbeat thread exit, coordinator requeue —
    handles an injected fault exactly like a real one.
    """


# Per-decision RNG stream identifiers (folded into the seed tuple).
_STREAM_HEARTBEAT = 0
_STREAM_SESSION = 1
_STREAM_STALL = 2


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault schedule, a JSON spec (:mod:`repro.core.spec`).

    Probabilities are per *operation* (one send or receive on the session
    stream; one heartbeat on the heartbeat stream; one cell execution for
    ``stall_prob``).  ``crash_after`` preempts the link at exactly that
    session-operation index — the kill-at-random-point knob.  A severed
    worker redials up to ``max_reconnects`` times, carrying its
    completed-cell cache so finished work is re-offered, not recomputed.
    """

    name: str
    seed: int
    delay_prob: float = 0.0
    delay_max_s: float = 0.02
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    crash_prob: float = 0.0
    crash_after: Optional[int] = None
    #: Extra sever probability applied only to ``result`` messages — the
    #: spot-preemption sweet spot: the cell is computed (and cached) but the
    #: coordinator never hears, so it requeues and the reconnect re-offers.
    result_loss_prob: float = 0.0
    stall_prob: float = 0.0
    stall_s: float = 0.2
    max_reconnects: int = 6
    reconnect_delay_s: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("fault plan needs a name")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be an int >= 0, got {self.seed!r}")
        for prob_name in (
            "delay_prob",
            "drop_prob",
            "corrupt_prob",
            "crash_prob",
            "result_loss_prob",
            "stall_prob",
        ):
            value = getattr(self, prob_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{prob_name} must be in [0, 1], got {value!r}")
        for dur_name in ("delay_max_s", "stall_s", "reconnect_delay_s"):
            value = getattr(self, dur_name)
            if value < 0:
                raise ConfigError(f"{dur_name} must be >= 0, got {value!r}")
        if self.crash_after is not None and not (
            isinstance(self.crash_after, int) and self.crash_after >= 1
        ):
            raise ConfigError(f"crash_after must be None or an int >= 1, got {self.crash_after!r}")
        if not (isinstance(self.max_reconnects, int) and self.max_reconnects >= 0):
            raise ConfigError(f"max_reconnects must be an int >= 0, got {self.max_reconnects!r}")


#: Named plans for CI and the CLI's ``--preset``.  Seeds are fixed so a
#: preset names one exact fault schedule, not a family.
PRESET_PLANS: dict[str, FaultPlan] = {
    "crash": FaultPlan(name="crash", seed=101, crash_after=5, max_reconnects=0),
    "partition": FaultPlan(
        name="partition", seed=202, crash_prob=0.08, result_loss_prob=0.4, max_reconnects=10
    ),
    "corrupt-frame": FaultPlan(
        name="corrupt-frame", seed=303, corrupt_prob=0.08, result_loss_prob=0.3, max_reconnects=10
    ),
    "drop": FaultPlan(name="drop", seed=404, drop_prob=0.1, max_reconnects=10),
    "delay": FaultPlan(name="delay", seed=505, delay_prob=0.5, delay_max_s=0.03),
    "stall": FaultPlan(name="stall", seed=606, stall_prob=0.5, stall_s=0.25),
}


def sample_plans(count: int, seed: int) -> list[FaultPlan]:
    """Draw ``count`` mixed fault plans from one seeded generator.

    Each plan combines independently-activated fault dimensions (including
    kill-at-a-random-message preemption), so a soak covers the cross
    products no hand-written preset list would.  Same ``(count, seed)`` →
    the same plans, field for field.
    """
    rng = np.random.default_rng(seed)
    plans = []
    for index in range(count):
        crash_after = int(rng.integers(1, 25)) if rng.random() < 0.5 else None
        plans.append(
            FaultPlan(
                name=f"sampled-{seed}-{index}",
                seed=int(rng.integers(0, 2**31)),
                delay_prob=float(rng.random() * 0.5) if rng.random() < 0.5 else 0.0,
                delay_max_s=0.02,
                drop_prob=float(rng.random() * 0.15) if rng.random() < 0.35 else 0.0,
                corrupt_prob=float(rng.random() * 0.12) if rng.random() < 0.35 else 0.0,
                crash_prob=float(rng.random() * 0.1) if rng.random() < 0.35 else 0.0,
                crash_after=crash_after,
                result_loss_prob=float(rng.random() * 0.5) if rng.random() < 0.4 else 0.0,
                stall_prob=float(rng.random() * 0.5) if rng.random() < 0.3 else 0.0,
                stall_s=0.15,
                max_reconnects=8,
                reconnect_delay_s=0.05,
            )
        )
    return plans


def _op_rng(plan: FaultPlan, worker_index: int, attempt: int, stream: int, op: int):
    """The decision generator for one operation — a pure function of its
    coordinates, so fault schedules replay identically under any thread
    interleaving."""
    return np.random.default_rng([plan.seed, worker_index, attempt, stream, op])


class ChaosChannel(MessageChannel):
    """A :class:`MessageChannel` that mis-delivers according to a plan.

    Hooks the two override points the base class exposes: ``_send_locked``
    (called with the send lock held) and ``recv``.  Session operations
    (every non-heartbeat send, every receive) share one op counter — which
    is what ``crash_after`` indexes — while heartbeats count separately, so
    heartbeat cadence never shifts the session fault schedule.
    """

    def __init__(self, sock, plan: FaultPlan, worker_index: int, attempt: int) -> None:
        super().__init__(sock)
        self._plan = plan
        self._worker_index = worker_index
        self._attempt = attempt
        self._session_ops = 0
        self._heartbeat_ops = 0

    # -- fault decisions ---------------------------------------------------

    def _session_fault(self, direction: str, message_type: Optional[str] = None) -> None:
        """Apply this session operation's faults; raises to sever the link."""
        plan = self._plan
        op = self._session_ops
        self._session_ops += 1
        if plan.crash_after is not None and op >= plan.crash_after:
            raise ChaosInjected(f"chaos: crash point reached at session op {op}")
        rng = _op_rng(plan, self._worker_index, self._attempt, _STREAM_SESSION, op)
        if plan.crash_prob and rng.random() < plan.crash_prob:
            raise ChaosInjected(f"chaos: link partitioned at session op {op}")
        if plan.delay_prob and rng.random() < plan.delay_prob:
            time.sleep(float(rng.random()) * plan.delay_max_s)
        if plan.drop_prob and rng.random() < plan.drop_prob:
            # TCP cannot drop one message from a live stream; model the loss
            # as the connection failing (the worker will redial and re-offer).
            raise ChaosInjected(f"chaos: {direction} message lost at session op {op}")
        if plan.corrupt_prob and rng.random() < plan.corrupt_prob:
            if direction == "send":
                self._send_corrupt_frame(rng)
            raise ChaosInjected(f"chaos: {direction} frame corrupted at session op {op}")
        if (
            message_type == "result"
            and plan.result_loss_prob
            and rng.random() < plan.result_loss_prob
        ):
            # The cell is computed and cached but its report never leaves the
            # worker — the canonical re-offer-after-reconnect scenario.
            raise ChaosInjected(f"chaos: result lost in transit at session op {op}")

    def _send_corrupt_frame(self, rng) -> None:
        """Put genuinely bad bytes on the wire before severing, so the
        coordinator's frame validation runs against real corruption."""
        mode = int(rng.integers(3))
        if mode == 0:  # truncated: promise 64 body bytes, deliver 7, hang up
            self.sock.sendall(_HEADER.pack(64) + b"\x00\x01\x02\x03\x04\x05\x06")
        elif mode == 1:  # well-framed garbage that is not JSON
            body = b"\xff\xfe chaos garbage \x00"
            self.sock.sendall(_HEADER.pack(len(body)) + body)
        else:  # absurd length prefix (trips FrameTooLargeError server-side)
            self.sock.sendall(_HEADER.pack(0x7FFF_FFFF))

    # -- MessageChannel override points ------------------------------------

    def _send_locked(self, message: dict) -> None:
        plan = self._plan
        if message.get("type") == "heartbeat":
            op = self._heartbeat_ops
            self._heartbeat_ops += 1
            rng = _op_rng(plan, self._worker_index, self._attempt, _STREAM_HEARTBEAT, op)
            if plan.drop_prob and rng.random() < plan.drop_prob:
                return  # a lost heartbeat is silent — liveness absorbs it
            if plan.delay_prob and rng.random() < plan.delay_prob:
                time.sleep(float(rng.random()) * plan.delay_max_s)
            super()._send_locked(message)
            return
        self._session_fault("send", message_type=message.get("type"))
        super()._send_locked(message)

    def recv(self) -> Optional[dict]:
        self._session_fault("recv")
        return super().recv()


class _StallingExecutor:
    """Wraps the cell executor with seeded slow-worker stalls and counts
    real executions (the recompute-vs-re-offer evidence)."""

    def __init__(self, plan: FaultPlan, worker_index: int, inner: Callable[[dict], dict]) -> None:
        self._plan = plan
        self._worker_index = worker_index
        self._inner = inner
        self.calls = 0

    def __call__(self, payload: dict) -> dict:
        op = self.calls
        self.calls += 1
        plan = self._plan
        if plan.stall_prob:
            # Stalls are keyed per worker (not per reconnect attempt): the
            # n-th cell a worker runs stalls identically however many times
            # the link broke before it got there.
            rng = _op_rng(plan, self._worker_index, 0, _STREAM_STALL, op)
            if rng.random() < plan.stall_prob:
                time.sleep(plan.stall_s)
        return self._inner(payload)


@dataclass
class ChaosWorkerResult:
    """Everything one chaos worker did across its reconnect attempts."""

    worker_index: int
    outcomes: list[WorkerOutcome] = field(default_factory=list)
    executed: int = 0
    cache_hits: int = 0

    @property
    def attempts(self) -> int:
        return len(self.outcomes)


def run_chaos_worker(
    address: tuple[str, int],
    plan: FaultPlan,
    worker_index: int,
    fingerprint: Optional[str] = None,
    executor: Optional[Callable[[dict], dict]] = None,
    heartbeat_interval_s: float = 0.1,
    connect_timeout_s: float = 2.0,
    io_timeout_s: float = 10.0,
) -> ChaosWorkerResult:
    """One elastic worker under chaos: dial, serve, get severed, redial.

    The :class:`~repro.distrib.worker.WorkerCellCache` is shared across
    attempts, so cells completed before a sever are re-offered on
    reconnect.  The loop ends on any voluntary outcome (``done``,
    ``rejected``, ``connect_failed`` — the coordinator is gone) or when the
    plan's reconnect budget runs out.
    """
    stalling = _StallingExecutor(plan, worker_index, executor or execute_cell_record)
    cache = WorkerCellCache()
    result = ChaosWorkerResult(worker_index=worker_index)
    for attempt in range(plan.max_reconnects + 1):
        def _factory(sock, attempt=attempt):
            return ChaosChannel(sock, plan, worker_index, attempt)

        outcome = run_worker(
            connect=address,
            fingerprint=fingerprint,
            worker_name=f"chaos-{plan.name}-w{worker_index}",
            executor=stalling,
            heartbeat_interval_s=heartbeat_interval_s,
            connect_timeout_s=connect_timeout_s,
            io_timeout_s=io_timeout_s,
            cache=cache,
            channel_factory=_factory,
        )
        result.outcomes.append(outcome)
        if outcome.status not in ("disconnected", "crashed"):
            break
        time.sleep(plan.reconnect_delay_s)
    result.executed = stalling.calls
    result.cache_hits = cache.hits
    return result


# ---------------------------------------------------------------------------
# Soak driver
# ---------------------------------------------------------------------------


#: Tight-but-valid timing for chaos runs: fast heartbeats so severed links
#: are detected in tenths of seconds, generous enough I/O timeouts that a
#: stalled-but-heartbeating worker survives.
CHAOS_TIMEOUTS = DistribTimeouts(
    wait_poll_s=0.05,
    heartbeat_interval_s=0.1,
    heartbeat_timeout_s=1.0,
    connect_timeout_s=5.0,
    io_timeout_s=15.0,
    linger_s=0.5,
)


def smoke_grid() -> SweepGrid:
    """The 8-cell smoke grid (same shape CI's dispatcher smoke uses)."""
    return SweepGrid(
        experiments=("section1_latency_budget", "section21_jitter_invariance"),
        scenarios=(bernoulli_scenario(0.02), gilbert_elliott_scenario(p_good_to_bad=0.05)),
        seeds=(0, 1),
    )


def load_stripped_records(results_dir: Path) -> dict[str, Any]:
    """Persisted records keyed by relative path, ``elapsed_s`` stripped.

    Wall time necessarily differs between runs; every other byte —
    including the path, which encodes experiment, scenario slug, seed and
    cache-key prefix — must match the fault-free baseline exactly.
    """
    out: dict[str, Any] = {}
    for path in sorted(Path(results_dir).glob("*/*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        record.pop("elapsed_s", None)
        out[str(path.relative_to(results_dir))] = record
    return out


@dataclass
class PlanOutcome:
    """Convergence evidence for one plan (``violations`` empty = pass)."""

    plan: FaultPlan
    cells: int = 0
    dispatched: int = 0
    requeued: int = 0
    duplicates_dropped: int = 0
    fallback_cells: int = 0
    executed_by_workers: int = 0
    cache_reoffers: int = 0
    reconnects: int = 0
    elapsed_s: float = 0.0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        flag = "ok" if self.ok else "FAIL"
        return (
            f"plan {self.plan.name}: {flag} — {self.cells} cells, "
            f"dispatched={self.dispatched}, requeued={self.requeued}, "
            f"duplicates={self.duplicates_dropped}, fallback={self.fallback_cells}, "
            f"executed={self.executed_by_workers}, re-offered={self.cache_reoffers}, "
            f"reconnects={self.reconnects}, {self.elapsed_s:.1f}s"
            + ("" if self.ok else " — " + "; ".join(self.violations))
        )


def run_plan(
    plan: FaultPlan,
    grid: SweepGrid,
    baseline: Mapping[str, Any],
    results_dir: Path,
    workers: int = 2,
    startup_timeout_s: float = 3.0,
) -> PlanOutcome:
    """Run the grid under one fault plan and check every invariant.

    ``baseline`` is the fault-free results tree
    (:func:`load_stripped_records` of a local run of the same grid).
    ``results_dir`` must be fresh — the cache-hit re-run check depends on
    exactly this plan's records being there.
    """
    outcome = PlanOutcome(plan=plan)
    thread_floor = threading.active_count()
    started = wallclock.perf_counter()

    # The requeue budget must outlast the worst case the plan can inflict —
    # every attempt of every worker dying mid-cell — or cells resolve to
    # WorkerLost error records and break byte-identity.  Convergence then
    # rests on the local fallback, not on luck.
    max_requeues = workers * (plan.max_reconnects + 1) + 5
    backend = DistributedBackend(
        listen=("127.0.0.1", 0),
        timeouts=CHAOS_TIMEOUTS,
        max_requeues=max_requeues,
        startup_timeout_s=startup_timeout_s,
        local_fallback=True,
        fallback_processes=1,
    )
    fleet: list[ChaosWorkerResult] = []
    threads = []

    def _fleet_member(index: int) -> None:
        # Hold the fleet back until the sweep's cells are registered: the
        # chaos schedule should fault the *work*, not however many idle
        # wait/poll round-trips the grid's cache resolution happened to
        # take (which would make the fault point depend on disk speed).
        deadline = wallclock.monotonic() + 10.0
        while not backend.coordinator.submitted and wallclock.monotonic() < deadline:
            time.sleep(0.005)
        fleet.append(run_chaos_worker(backend.address, plan, worker_index=index))

    for index in range(workers):
        thread = threading.Thread(
            target=_fleet_member, args=(index,), name=f"chaos-worker-{index}", daemon=True
        )
        threads.append(thread)
        thread.start()
    try:
        report = SweepRunner(results_dir=results_dir, backend=backend).run(grid)
    finally:
        for thread in threads:
            thread.join(timeout=30)
    outcome.elapsed_s = wallclock.perf_counter() - started

    stats = backend.stats
    outcome.cells = len(report.cells)
    outcome.dispatched = stats.dispatched
    outcome.requeued = stats.requeued
    outcome.duplicates_dropped = stats.duplicates_dropped
    outcome.fallback_cells = stats.fallback_cells
    outcome.executed_by_workers = sum(result.executed for result in fleet)
    outcome.cache_reoffers = sum(result.cache_hits for result in fleet)
    outcome.reconnects = sum(max(0, result.attempts - 1) for result in fleet)

    # Invariant 1: every cell resolved exactly once.
    if len(report.cells) != grid.cell_count:
        outcome.violations.append(
            f"{len(report.cells)} cells resolved, expected {grid.cell_count}"
        )
    keys = [cell.cache_key for cell in report.cells]
    if len(set(keys)) != len(keys):
        outcome.violations.append("a cell resolved more than once")
    if report.failed_cells:
        outcome.violations.append(
            f"{len(report.failed_cells)} cell(s) resolved to error records"
        )

    # Invariant 2: the persisted tree is byte-identical to the fault-free
    # baseline (modulo wall time) — chaos may reorder and retry work but
    # must never change a result.
    records = load_stripped_records(results_dir)
    if records != dict(baseline):
        missing = sorted(set(baseline) - set(records))
        extra = sorted(set(records) - set(baseline))
        differing = sorted(
            path for path in set(records) & set(baseline) if records[path] != baseline[path]
        )
        outcome.violations.append(
            f"results differ from fault-free baseline "
            f"(missing={missing}, extra={extra}, differing={differing})"
        )

    # Invariant 3: accounting closes — worker executions plus fallback
    # executions cover every dispatch-completed cell, with re-offers (not
    # recomputes) making up the difference.
    if outcome.executed_by_workers + outcome.cache_reoffers + outcome.fallback_cells < grid.cell_count:
        outcome.violations.append(
            f"accounting gap: {outcome.executed_by_workers} executed + "
            f"{outcome.cache_reoffers} re-offered + {outcome.fallback_cells} fallback "
            f"< {grid.cell_count} cells"
        )

    # Invariant 4: a re-run over the same results dir is served entirely
    # from cache — chaos left a complete, loadable tree behind.
    rerun = SweepRunner(results_dir=results_dir, processes=1).run(grid)
    if rerun.executed != 0 or rerun.cached != grid.cell_count:
        outcome.violations.append(
            f"re-run not fully cached ({rerun.executed} executed, {rerun.cached} cached)"
        )

    # Invariant 5: no thread leaks — the fleet, the coordinator's accept
    # loop and every connection thread wind down.
    deadline = wallclock.monotonic() + 10.0
    while threading.active_count() > thread_floor and wallclock.monotonic() < deadline:
        time.sleep(0.05)
    if threading.active_count() > thread_floor:
        leaked = [
            thread.name
            for thread in threading.enumerate()
            if thread is not threading.main_thread()
        ]
        outcome.violations.append(f"thread leak: {threading.active_count()} alive ({leaked})")

    return outcome


def run_soak(
    plans: list[FaultPlan],
    results_root: Path,
    workers: int = 2,
    grid: Optional[SweepGrid] = None,
    echo: Callable[[str], None] = print,
) -> list[PlanOutcome]:
    """Run every plan against a shared fault-free baseline; returns outcomes.

    The across-plans re-offer invariant is appended to the *last* outcome's
    violations if no plan exercised the reconnect-and-re-offer path at all
    (a soak that never re-offered proved nothing about elasticity).
    """
    grid = grid or smoke_grid()
    baseline_dir = results_root / "baseline"
    echo(f"fault-free baseline: {grid.cell_count} cells -> {baseline_dir}")
    baseline_report = SweepRunner(results_dir=baseline_dir, processes=1).run(grid)
    if baseline_report.failed_cells:
        raise RuntimeError("fault-free baseline failed; cannot judge chaos runs")
    baseline = load_stripped_records(baseline_dir)

    outcomes = []
    for index, plan in enumerate(plans):
        plan_dir = results_root / f"plan-{index:03d}-{plan.name}"
        outcome = run_plan(plan, grid, baseline, plan_dir, workers=workers)
        outcomes.append(outcome)
        echo(outcome.summary_line())
    if outcomes and not any(outcome.cache_reoffers for outcome in outcomes):
        outcomes[-1].violations.append(
            "no plan in the soak produced a cache re-offer; elasticity untested"
        )
    return outcomes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos soak for the distributed dispatcher: run the smoke "
        "grid under seeded fault plans and assert convergence invariants."
    )
    parser.add_argument(
        "--plans", type=int, default=0, metavar="N", help="number of sampled fault plans"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --plans sampling (plans are derived)"
    )
    parser.add_argument(
        "--preset",
        action="append",
        default=[],
        choices=sorted(PRESET_PLANS),
        help="also run this named preset plan (repeatable)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="chaos workers per plan (default 2)"
    )
    parser.add_argument(
        "--results",
        default=None,
        metavar="DIR",
        help="results root (default: a temporary directory, removed on success)",
    )
    parser.add_argument(
        "--show-plan",
        action="store_true",
        help="print each plan's JSON spec before running it",
    )
    args = parser.parse_args(argv)

    plans = [PRESET_PLANS[name] for name in args.preset]
    plans += sample_plans(args.plans, args.seed)
    if not plans:
        parser.error("nothing to run: give --plans N and/or --preset NAME")

    if args.results is not None:
        results_root = Path(args.results)
        results_root.mkdir(parents=True, exist_ok=True)
        ephemeral = False
    else:
        results_root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        ephemeral = True

    if args.show_plan:
        for plan in plans:
            print(json.dumps(to_spec(plan), sort_keys=True))

    outcomes = run_soak(plans, results_root, workers=args.workers)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    reoffers = sum(outcome.cache_reoffers for outcome in outcomes)
    reconnects = sum(outcome.reconnects for outcome in outcomes)
    print(
        f"chaos soak: {len(outcomes) - len(failed)}/{len(outcomes)} plans converged, "
        f"{reconnects} reconnects, {reoffers} cells re-offered from worker caches"
    )
    if failed:
        print(f"results kept at {results_root}")
        return 1
    if ephemeral:
        shutil.rmtree(results_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
