"""Workloads of the end-to-end benchmark and the loop that measures them.

Each workload is one closed-loop caller driving the library through its
public entry points: it issues an op, waits for the result, checks it, and
issues the next.  All inputs come from the workload seed.  A workload's ops
form a fixed plan; a timed run walks the plan from the start (wrapping
around if it outlasts it) until its time is up.

Every op yields a digest of its discrete outcomes plus its floats rounded
to 6 significant digits.  At seed 0 the digests must equal ``golden.json``
(``run.py --write-golden`` regenerates it); at any seed the per-op
invariants must hold.  A mismatch, a broken invariant or an exception counts
the op as failed and keeps it out of the latency percentiles.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from e2e_layers import LayerTracer, p90
from repro.analysis.sweeps import SweepGrid, SweepRunner, corpus_scenarios
from repro.core.pipeline import AIVideoChatSession, ChatSessionConfig
from repro.devibench import build_benchmark
from repro.devibench.evaluate import BenchmarkEvaluator
from repro.net.control import controller_from_spec, preset_controller_spec
from repro.net.emulator import (
    BernoulliLoss,
    GilbertElliottLoss,
    PathConfig,
    bandwidth_trace_from_spec,
    loss_model_from_spec,
)
from repro.net.fec import FecConfig
from repro.net.traces import corpus
from repro.net.transport import (
    FixedBitrateWorkload,
    TransportConfig,
    VideoTransportSession,
    drive_closed_loop,
    drive_fixed_bitrate,
)
from repro.video.scene import SCENE_BUILDERS

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: End-to-end metrics: name -> (unit, better).  run.py measures ``setup_s``
#: (interpreter start to the end of the warm-up op, median of several set-ups).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class InvariantError(RuntimeError):
    """An op's output broke a property that holds at every seed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


def digest(value: Any) -> str:
    """Short stable hash of ``value`` with every float rounded to 6 significant digits."""
    text = json.dumps(_rounded(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


@dataclass
class Op:
    """One op's outcome: its digest and, when not the step's wall time, its latency."""

    digest: str
    latency_s: Optional[float] = None


class Workload:
    """One closed-loop caller over a fixed op plan.

    A *step* is one call of :meth:`run_step`; it yields ``ops_per_step`` ops
    (one, except for the sweep, whose step runs a grid slice of cells).
    """

    name = ""
    ops_per_step = 1
    #: Ops in a traced run: a fixed count, so simulated counters repeat exactly.
    trace_ops = 0
    #: Wrapped layers that must record calls in a traced run.  A workload
    #: without any runs untraced code; only its runner-side telemetry counts.
    layers: tuple[str, ...] = ()
    #: Per-layer counters that must be non-zero in a traced run.
    counters: tuple[str, ...] = ()
    #: Pool worker processes the workload starts besides its own.
    processes = 1

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        #: Set while a traced run is in progress.
        self.tracer: Optional[LayerTracer] = None

    @property
    def n_steps(self) -> int:
        raise NotImplementedError

    @property
    def n_ops(self) -> int:
        return self.n_steps * self.ops_per_step

    def setup(self, seed: int) -> None:
        """Generate the inputs from ``seed``."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One unchecked op before timing starts, so lazy set-up is not timed."""
        self.run_step(0)

    def run_step(self, index: int) -> list[Op]:
        raise NotImplementedError


class ChatDialogue(Workload):
    """Multi-turn dialogues over the five scene kinds (the paper's turn path)."""

    name = "chat_dialogue"
    rounds = 6
    height, width = 240, 432
    bitrates_bps = (200_000.0, 430_000.0, 850_000.0)
    trace_ops = 30
    layers = (
        "core.turn",
        "core.encode_frame",
        "mllm.clip",
        "mllm.answer",
        "video.render",
        "video.encode",
        "video.decode",
        "video.rate_control",
        "video.quality",
        "net.session",
        "net.buffer",
    )

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self._seed = seed
        self._dialogues: list[tuple[Any, ChatSessionConfig]] = []
        self._turns: list[tuple[int, Any]] = []
        for round_index in range(self.rounds):
            for build in SCENE_BUILDERS.values():
                scene = build(seed=1000 * seed + round_index, height=self.height, width=self.width)
                config = ChatSessionConfig(
                    target_bitrate_bps=float(rng.choice(self.bitrates_bps)),
                    use_jitter_buffer=bool(rng.integers(2)),
                )
                dialogue = len(self._dialogues)
                self._dialogues.append((scene, config))
                self._turns.extend((dialogue, fact) for fact in scene.facts)
        self._session: Optional[AIVideoChatSession] = None

    @property
    def n_steps(self) -> int:
        return len(self._turns)

    def _new_session(self, dialogue: int) -> AIVideoChatSession:
        scene, config = self._dialogues[dialogue]
        uplink = PathConfig(
            loss_model=GilbertElliottLoss(0.02, 0.3, 0.5), seed=1000 * self._seed + dialogue
        )
        return AIVideoChatSession(scene, session_config=config, uplink_config=uplink)

    def warm_up(self) -> None:
        # A session of its own: the warm-up must not advance a dialogue's state.
        dialogue, fact = self._turns[0]
        self._new_session(dialogue).run_turn(fact)

    def run_step(self, index: int) -> list[Op]:
        dialogue, fact = self._turns[index]
        if index == 0 or self._turns[index - 1][0] != dialogue:
            self._session = self._new_session(dialogue)
        result = self._session.run_turn(fact)
        budget = result.latency_budget
        check(result.frames_delivered <= result.frames_sent, "delivered more frames than sent")
        check(budget.total_ms >= budget.inference_ms, "turn latency below its inference part")
        return [
            Op(
                digest(
                    {
                        "answer": result.answer.answer,
                        "correct": result.correct,
                        "frames_sent": result.frames_sent,
                        "frames_delivered": result.frames_delivered,
                        "turn_latency_ms": budget.total_ms,
                        "bitrate_bps": result.achieved_bitrate_bps,
                        "evidence": result.answer.evidence_quality,
                    }
                )
            )
        ]


class DevibenchEval(Workload):
    """Figure 9: every DeViBench sample, baseline vs context-aware, at three bitrates.

    One op evaluates one sample at one bitrate with both methods.  Pairing
    them keeps the op latency unimodal: a context-aware evaluation costs
    about three baseline ones, so single evaluations would put the median
    between two modes and make it jump with the op count.
    """

    name = "devibench_eval"
    video_count = 12
    height, width = 240, 432
    bitrates_bps = (850_000.0, 430_000.0, 200_000.0)
    trace_ops = 24
    layers = (
        "devibench.prepare",
        "devibench.generate",
        "devibench.filter",
        "devibench.verify",
        "devibench.evaluate",
        "core.encode_frame",
        "mllm.clip",
        "mllm.answer",
        "video.render",
        "video.encode",
        "video.decode",
        "video.rate_control",
        "video.quality",
    )

    def setup(self, seed: int) -> None:
        benchmark = build_benchmark(
            video_count=self.video_count, seed=seed, height=self.height, width=self.width
        ).benchmark
        self._evaluator = BenchmarkEvaluator(benchmark)
        self._ops = [(sample, bitrate) for sample in benchmark for bitrate in self.bitrates_bps]

    @property
    def n_steps(self) -> int:
        return len(self._ops)

    def warm_up(self) -> None:
        # One evaluation per scene fills the evaluator's frame cache, so no
        # op renders; a single op would leave the other scenes cold.
        firsts = {}
        for sample, _ in self._ops:
            firsts.setdefault(sample.scene_name, sample)
        for sample in firsts.values():
            self._evaluator.evaluate_sample(sample, self.bitrates_bps[0], context_aware=False)

    def run_step(self, index: int) -> list[Op]:
        sample, bitrate = self._ops[index]
        outcomes = []
        for context_aware in (False, True):
            evaluation = self._evaluator.evaluate_sample(sample, bitrate, context_aware)
            check(evaluation.answer in sample.options, "answer is not one of the options")
            check(evaluation.correct == sample.is_correct(evaluation.answer), "grading disagrees")
            check(evaluation.achieved_bitrate_bps > 0, "nothing was encoded")
            outcomes.append(
                {
                    "answer": evaluation.answer,
                    "correct": evaluation.correct,
                    "bitrate_bps": evaluation.achieved_bitrate_bps,
                    "evidence": evaluation.evidence_quality,
                }
            )
        return [Op(digest(outcomes))]


class Uplink(Workload):
    """20 s transport sessions over the scenario corpus, open and closed loop.

    One op runs one condition (scenario, path seed, bitrate) twice: at a
    fixed bitrate and under the GCC controller starting from that bitrate.
    As with DeViBench, pairing the two keeps the op latency from splitting
    into a cheap and a costly mode around the median.
    """

    corpus_seeds = 1
    fec = False
    duration_s = 20.0
    fps = 30.0
    bitrates_bps = (250_000.0, 1_000_000.0, 4_000_000.0)
    report_interval_s = 0.2
    layers = ("net.session",)
    counters = ("net.session.packets_sent",)

    def setup(self, seed: int) -> None:
        self._conditions = [
            (scenario, 1000 * (seed + k) + position, bitrate)
            for k in range(self.corpus_seeds)
            for position, scenario in enumerate(corpus(seed + k))
            for bitrate in self.bitrates_bps
        ]

    @property
    def n_steps(self) -> int:
        return len(self._conditions)

    def run_step(self, index: int) -> list[Op]:
        scenario, path_seed, bitrate = self._conditions[index]
        return [Op(digest([self._session(scenario, path_seed, bitrate, closed_loop)
                           for closed_loop in (False, True)]))]

    def _session(self, scenario: Any, path_seed: int, bitrate: float, closed_loop: bool) -> dict:
        uplink = PathConfig(
            loss_model=(
                loss_model_from_spec(scenario.loss_model)
                if scenario.loss_model is not None
                else BernoulliLoss(0.0)
            ),
            bandwidth_trace=bandwidth_trace_from_spec(scenario.bandwidth_trace),
            seed=path_seed,
        )
        fec = FecConfig(group_size=5) if self.fec else None
        telemetry = self.tracer.telemetry(spans=False) if self.tracer is not None else None
        source = FixedBitrateWorkload(bitrate_bps=bitrate, fps=self.fps)
        if closed_loop:
            spec = {
                **preset_controller_spec("gcc"),
                "estimator": {"kind": "gcc", "initial_rate_bps": bitrate},
            }
            if self.fec:
                spec["adapt_fec"] = True
            session = VideoTransportSession(
                uplink_config=uplink,
                transport_config=TransportConfig(report_interval_s=self.report_interval_s, fec=fec),
                controller=controller_from_spec(spec),
                telemetry=telemetry,
            )
            drive_closed_loop(session, source, self.duration_s)
        else:
            session = VideoTransportSession(
                uplink_config=uplink, transport_config=TransportConfig(fec=fec), telemetry=telemetry
            )
            drive_fixed_bitrate(session, source, self.duration_s)
        session.finalize_telemetry()

        summary = session.stats.summary()
        path = session.uplink.stats
        check(summary.delivered <= summary.count, "delivered more frames than sent")
        check(path.packets_delivered <= path.packets_offered, "path delivered more than offered")
        return {
            "frames": summary.count,
            "delivered": summary.delivered,
            "packets_sent": session.sender.packets_sent,
            "retransmissions": session.sender.retransmissions_sent,
            "dropped": path.packets_lost_random + path.packets_dropped_queue,
            "actions": len(session.control_log),
            "fec": session.fec_summary(),
            "mean_latency_s": summary.mean_s,
            "p90_latency_s": summary.p90_s,
        }


class UplinkPlain(Uplink):
    name = "uplink_plain"
    corpus_seeds = 4
    trace_ops = 72


class UplinkFec(Uplink):
    name = "uplink_fec"
    corpus_seeds = 2
    fec = True
    trace_ops = 36
    counters = ("net.session.packets_sent", "net.session.fec.recovered")


class SweepGridWorkload(Workload):
    """The sweep engine as examples and CI run it: pool, persistence, cache.

    One step runs one grid seed's slice (every experiment x scenario) through
    the pool into a fresh results directory, then re-runs it from the cache.
    Its ops are the slice's cells, timed by the worker that executed them.
    """

    name = "sweep_grid"
    experiments = ("figure3_latency", "closed_loop_session", "end_to_end_turn")
    scenario_count = 8
    grid_seeds = 8
    cached_reruns = 10
    counters = ("sweep.cells.executed", "sweep.cells.cached")

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.processes = min(2, len(os.sched_getaffinity(0)))

    @property
    def ops_per_step(self) -> int:
        return len(self.experiments) * self.scenario_count

    @property
    def trace_ops(self) -> int:
        return 2 * self.ops_per_step

    def setup(self, seed: int) -> None:
        scenarios = corpus_scenarios(seed, duration_s=10, height=160, width=288)
        self._scenarios = tuple(scenarios[: self.scenario_count])

    @property
    def n_steps(self) -> int:
        return self.grid_seeds

    def warm_up(self) -> None:
        # A one-cell grid outside the plan: fingerprinting the source tree
        # and the first cache-key derivation land in the set-up.
        grid = SweepGrid(("end_to_end_turn",), self._scenarios[:1], (self.grid_seeds,))
        with self._results_dir() as results_dir:
            SweepRunner(results_dir=results_dir, processes=1).run(grid)

    @contextlib.contextmanager
    def _results_dir(self):
        path = Path(tempfile.mkdtemp(prefix="results-", dir=self.workdir))
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def run_step(self, index: int) -> list[Op]:
        grid = SweepGrid(self.experiments, self._scenarios, (index,))
        telemetry = self.tracer.telemetry(spans=True) if self.tracer is not None else None
        with self._results_dir() as results_dir:
            runner = SweepRunner(
                results_dir=results_dir, processes=self.processes, telemetry=telemetry
            )
            report = runner.run(grid)
            check(not report.failed_cells, f"{len(report.failed_cells)} cells failed")
            check(report.executed == grid.cell_count, "a fresh results dir served cells from cache")
            records = [_cell_record(cell) for cell in report.cells]
            canonical = json.dumps(records, sort_keys=True)
            for _ in range(self.cached_reruns):
                again = runner.run(grid)
                check(again.executed == 0, f"a cached re-run executed {again.executed} cells")
                rerun = json.dumps([_cell_record(cell) for cell in again.cells], sort_keys=True)
                check(rerun == canonical, "a cached re-run returned different records")
        return [Op(digest(record), cell.elapsed_s) for record, cell in zip(records, report.cells)]


def _cell_record(cell: Any) -> dict:
    """A sweep cell as persisted, without its wall-clock ``elapsed_s``."""
    return {
        "experiment": cell.experiment,
        "scenario": cell.scenario.to_jsonable(),
        "seed": cell.seed,
        "cell_seed": cell.cell_seed,
        "result": cell.result,
    }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ChatDialogue, DevibenchEval, UplinkPlain, UplinkFec, SweepGridWorkload)
}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    attempted: int
    failed: int
    latencies_s: list[float]
    elapsed_s: float

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed_s if self.elapsed_s > 0 else 0.0


def measure(
    workload: Workload,
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
    golden: Optional[list[str]] = None,
) -> Measurement:
    """Run steps from the start of the plan until ``seconds`` or ``max_ops`` is reached."""
    if golden is not None and len(golden) != workload.n_ops:
        raise RuntimeError(
            f"golden.json holds {len(golden)} digests for {workload.name}, whose plan has "
            f"{workload.n_ops} ops: regenerate it with run.py --write-golden"
        )
    latencies: list[float] = []
    attempted = failed = step = 0
    started = time.perf_counter()
    while (max_ops is None or attempted < max_ops) and (
        seconds is None or time.perf_counter() - started < seconds
    ):
        index = step % workload.n_steps
        if workload.tracer is not None:
            workload.tracer.op = index
        step_started = time.perf_counter()
        try:
            ops: list[Optional[Op]] = list(workload.run_step(index))
        except Exception:  # an op that raises is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            ops = [None] * workload.ops_per_step
        wall = time.perf_counter() - step_started
        for offset, op in enumerate(ops):
            attempted += 1
            position = index * workload.ops_per_step + offset
            if op is None or (golden is not None and op.digest != golden[position]):
                if op is not None:
                    print(f"{workload.name}: op {position} digest {op.digest} != golden "
                          f"{golden[position]}", file=sys.stderr)
                failed += 1
            else:
                latencies.append(wall if op.latency_s is None else op.latency_s)
        step += 1
    return Measurement(attempted, failed, latencies, time.perf_counter() - started)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(measurement: Measurement) -> dict[str, float]:
    """Every end-to-end metric except ``setup_s``."""
    latencies_ms = [latency * 1000.0 for latency in measurement.latencies_s]
    return {
        "ops_per_s": measurement.ops_per_s,
        "op_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
        "op_p90_ms": p90(latencies_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(
    workload: Workload, seed: int, golden: Optional[list[str]] = None
) -> tuple[dict[str, float], Measurement, LayerTracer]:
    """Set up and run ``trace_ops`` ops traced, then the same ops untraced.

    Set-up is traced too, so the DeViBench build shows in its layers.
    Returns every per-layer metric, the combined measurement and the tracer.
    Raises if a layer the workload must reach recorded no calls.
    """
    tracer = LayerTracer()
    workload.tracer = tracer
    started = time.perf_counter()
    try:
        with tracer if workload.layers else contextlib.nullcontext():
            workload.setup(seed)
            workload.warm_up()
            traced = measure(workload, max_ops=workload.trace_ops, golden=golden)
        traced_wall = time.perf_counter() - started
    finally:
        workload.tracer = None
    untraced = measure(workload, max_ops=workload.trace_ops, golden=golden)

    metrics = tracer.layer_metrics(traced_wall, workload.processes)
    metrics["trace.overhead_frac"] = (
        1.0 - traced.ops_per_s / untraced.ops_per_s if untraced.ops_per_s else 0.0
    )
    missing = [f"{layer}.calls" for layer in workload.layers if not metrics[f"{layer}.calls"]]
    missing += [name for name in workload.counters if not metrics[name]]
    if missing:
        raise RuntimeError(f"{workload.name}: traced run recorded nothing for {missing}")
    combined = Measurement(
        traced.attempted + untraced.attempted,
        traced.failed + untraced.failed,
        traced.latencies_s + untraced.latencies_s,
        traced.elapsed_s + untraced.elapsed_s,
    )
    return metrics, combined, tracer


def load_golden(name: str) -> list[str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["workloads"][name]


def golden_digests(workload: Workload) -> list[str]:
    """Every op digest of the seed-0 plan, in plan order."""
    workload.setup(0)
    return [op.digest for step in range(workload.n_steps) for op in workload.run_step(step)]

