"""Multi-scenario sweep engine over the experiment registry.

The paper's evaluation (like most) reports each figure at a single operating
point — one loss process, one seed.  The sweep engine turns every registered
experiment into a grid job: (experiment × scenario × seed) cells are fanned
out through a pluggable :class:`CellBackend` — a local ``multiprocessing``
pool by default, or :class:`repro.distrib.DistributedBackend` to serve cells
to worker agents on other machines — each cell gets a deterministic seed
derived from its coordinates, results are persisted as JSON under a results
directory, and a content-hash cache makes re-running an unchanged
(runner, scenario, seed) cell free.

A :class:`Scenario` describes the network conditions as plain JSON-able
specs (loss model kind + parameters, optional bandwidth trace, plus
arbitrary runner keyword overrides); workers rebuild the live
:class:`~repro.net.emulator.LossModel` / ``BandwidthTrace`` objects locally
via the factories in :mod:`repro.net.emulator`.  Runners that do not accept
a given scenario ingredient simply don't receive it (the registry filters
kwargs against each runner's signature).
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import os
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from ..core import wallclock
from ..net.emulator import bandwidth_trace_from_spec, fastpath_enabled, loss_model_from_spec
from ..obs import NULL_TELEMETRY, Telemetry
from .registry import ExperimentSpec, get_experiment

DEFAULT_RESULTS_DIR = "results"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One operating point of the grid, described entirely by plain data.

    ``loss_model`` / ``bandwidth_trace`` are spec dicts (see
    :func:`repro.net.emulator.loss_model_from_spec`); ``overrides`` are extra
    keyword arguments forwarded to the runner (resolution, duration, ...).
    """

    name: str
    loss_model: Optional[dict] = None
    bandwidth_trace: Optional[dict] = None
    overrides: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "loss_model": self.loss_model,
            "bandwidth_trace": self.bandwidth_trace,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Scenario":
        return cls(
            name=data["name"],
            loss_model=data.get("loss_model"),
            bandwidth_trace=data.get("bandwidth_trace"),
            overrides=dict(data.get("overrides") or {}),
        )

    def runner_kwargs(self, seed: int) -> dict[str, Any]:
        """Live objects + overrides a runner may accept for this scenario."""
        kwargs: dict[str, Any] = dict(self.overrides)
        if self.loss_model is not None:
            kwargs["loss_model"] = loss_model_from_spec(self.loss_model)
        if self.bandwidth_trace is not None:
            kwargs["bandwidth_trace"] = bandwidth_trace_from_spec(self.bandwidth_trace)
        # A seed pinned explicitly in the overrides wins over the derived
        # per-cell seed (so a scenario can reproduce one specific run).
        kwargs.setdefault("seed", seed)
        return kwargs


def bernoulli_scenario(loss_rate: float, name: Optional[str] = None, **overrides: Any) -> Scenario:
    """I.i.d. loss at ``loss_rate``."""
    return Scenario(
        name=name or f"bernoulli-{loss_rate:g}",
        loss_model={"kind": "bernoulli", "loss_rate": loss_rate},
        overrides=overrides,
    )


def gilbert_elliott_scenario(
    p_good_to_bad: float = 0.01,
    p_bad_to_good: float = 0.3,
    loss_in_bad: float = 0.5,
    loss_in_good: float = 0.0,
    name: Optional[str] = None,
    **overrides: Any,
) -> Scenario:
    """Bursty two-state loss (the Gilbert-Elliott chain of the emulator)."""
    return Scenario(
        name=name or f"gilbert-elliott-{p_good_to_bad:g}-{loss_in_bad:g}",
        loss_model={
            "kind": "gilbert_elliott",
            "p_good_to_bad": p_good_to_bad,
            "p_bad_to_good": p_bad_to_good,
            "loss_in_bad": loss_in_bad,
            "loss_in_good": loss_in_good,
        },
        overrides=overrides,
    )


def trace_scenario(
    times: Sequence[float],
    rates_bps: Sequence[float],
    loss_rate: float = 0.0,
    name: Optional[str] = None,
    **overrides: Any,
) -> Scenario:
    """A time-varying link following a piecewise-constant bandwidth trace."""
    return Scenario(
        name=name or f"trace-{len(times)}steps",
        loss_model={"kind": "bernoulli", "loss_rate": loss_rate},
        bandwidth_trace={"times": list(times), "rates_bps": list(rates_bps)},
        overrides=overrides,
    )


def default_scenarios() -> list[Scenario]:
    """A small representative grid: i.i.d., bursty, and time-varying links."""
    return [
        bernoulli_scenario(0.02),
        gilbert_elliott_scenario(p_good_to_bad=0.02, p_bad_to_good=0.25, loss_in_bad=0.5),
        trace_scenario(
            times=[0.0, 5.0, 10.0, 15.0],
            rates_bps=[10e6, 2e6, 6e6, 10e6],
            loss_rate=0.01,
            name="trace-droop",
        ),
    ]


def corpus_scenarios(
    seed: int = 0,
    families: Optional[Sequence[str]] = None,
    **overrides: Any,
) -> list[Scenario]:
    """The named scenario corpus from :mod:`repro.net.traces`.

    ``families=None`` takes every registered family (LTE drive traces, Wi-Fi
    step drops, congestion sawtooths, Gilbert-Elliott grids, loss ladders,
    handover outages, contention links, steady baselines, degrading ramps);
    ``overrides`` merge into every scenario so one call can scale the corpus
    to smoke-test cost.  Deterministic under ``seed``.
    """
    from ..net.traces import corpus

    return corpus(seed=seed, families=families, overrides=overrides or None)


# ---------------------------------------------------------------------------
# Grid and cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """The cross product (experiments × scenarios × seeds)."""

    experiments: tuple[str, ...]
    scenarios: tuple[Scenario, ...]
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not self.experiments or not self.scenarios or not self.seeds:
            raise ValueError("grid must have at least one experiment, scenario and seed")

    @property
    def cell_count(self) -> int:
        return len(self.experiments) * len(self.scenarios) * len(self.seeds)

    def cells(self) -> Iterable[tuple[str, Scenario, int]]:
        for experiment in self.experiments:
            for scenario in self.scenarios:
                for seed in self.seeds:
                    yield experiment, scenario, seed


def derive_cell_seed(experiment: str, scenario_name: str, seed: int) -> int:
    """Deterministic per-cell seed, stable across runs and processes."""
    digest = hashlib.sha256(f"{experiment}|{scenario_name}|{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def scenario_slug(name: str) -> str:
    """Filesystem-safe form of a scenario name for result file paths.

    ``Scenario.name`` is unconstrained user input; anything outside
    ``[A-Za-z0-9._-]`` (path separators especially) is collapsed to ``-``,
    leading/trailing dots and dashes are stripped so names like ``"../x"``
    cannot write outside the results directory, and the result is truncated
    to stay within filesystem name limits.  Names that slug identically stay
    distinct on disk through the cache-key suffix, which hashes the real name.
    """
    slug = _SLUG_UNSAFE.sub("-", name).strip(".-")[:100]
    return slug or "scenario"


def _package_source_files() -> list[Path]:
    package_root = Path(__file__).resolve().parent.parent
    return sorted(package_root.rglob("*.py"))


def _compute_package_fingerprint() -> str:
    """Content hash of the entire ``repro`` source tree.

    A runner's result depends on far more than its own source — the
    transport, emulator, codec and every other module it calls — so the
    cache key folds in a fingerprint of the whole package: editing shared
    simulator code invalidates cached cells instead of silently serving
    stale results.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in _package_source_files():
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


_package_fingerprint_cache: Optional[str] = None


def _package_fingerprint() -> str:
    """The tree fingerprint, computed on first use and frozen thereafter.

    Lazy, so merely importing the package does not pay for hashing the
    tree; frozen, so every sweep of a long-lived process keys its results
    to one snapshot rather than re-reading files a stale loaded module no
    longer matches.  (An edit landing between import and the first sweep
    of a process can still skew the snapshot — restart the process after
    editing source, as with any Python code change.)
    """
    global _package_fingerprint_cache
    if _package_fingerprint_cache is None:
        _package_fingerprint_cache = _compute_package_fingerprint()
    return _package_fingerprint_cache


def cell_cache_key(spec: ExperimentSpec, scenario: Scenario, seed: int) -> str:
    """Content hash of (runner source, package source tree, scenario, seed,
    delivery mode).

    Editing the runner, any module of the ``repro`` package, the scenario,
    or the seed, or flipping ``REPRO_NET_FASTPATH``, invalidates the cell;
    an unchanged cell re-loads its persisted JSON instead of re-running.
    """
    try:
        source = inspect.getsource(spec.fn)
    except (OSError, TypeError):  # builtins / interactively-defined runners
        source = f"{spec.fn.__module__}.{spec.fn.__qualname__}"
    payload = json.dumps(
        {
            "experiment": spec.name,
            "source": source,
            "package": _package_fingerprint(),
            "scenario": scenario.to_jsonable(),
            "seed": seed,
            "fastpath": fastpath_enabled(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class SweepCell:
    """Outcome of one (experiment, scenario, seed) cell.

    ``result`` is always the JSON-able form (dataclasses flattened, numpy
    unwrapped) so that fresh and cache-loaded cells look identical.  A cell
    whose runner raised (or whose distributed worker was lost for good)
    carries the failure under ``error`` (``{"type", "message", "traceback"}``)
    with ``result=None``.
    """

    experiment: str
    scenario: Scenario
    seed: int
    cell_seed: int
    result: Any
    from_cache: bool
    elapsed_s: float
    path: Path
    cache_key: str
    error: Optional[dict] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class SweepReport:
    """Everything one :meth:`SweepRunner.run` produced."""

    cells: list[SweepCell]
    elapsed_s: float

    @property
    def executed(self) -> int:
        return sum(1 for cell in self.cells if not cell.from_cache)

    @property
    def cached(self) -> int:
        return sum(1 for cell in self.cells if cell.from_cache)

    @property
    def failed_cells(self) -> list[SweepCell]:
        """Cells that produced an error record instead of a result."""
        return [cell for cell in self.cells if cell.failed]

    def for_experiment(self, experiment: str) -> list[SweepCell]:
        return [cell for cell in self.cells if cell.experiment == experiment]

    def summary(self) -> dict[str, Any]:
        return {
            "cells": len(self.cells),
            "executed": self.executed,
            "cached": self.cached,
            "failed": len(self.failed_cells),
            "elapsed_s": self.elapsed_s,
            "experiments": sorted({cell.experiment for cell in self.cells}),
            "scenarios": sorted({cell.scenario.name for cell in self.cells}),
        }


# ---------------------------------------------------------------------------
# JSON conversion
# ---------------------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """Recursively convert runner results to JSON-compatible structures.

    Handles dataclasses, numpy scalars/arrays, tuples, and dict keys that are
    not strings (several runners key results by float bitrate or ratio).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ---------------------------------------------------------------------------
# Worker (must be importable at module top level for multiprocessing)
# ---------------------------------------------------------------------------


def _execute_cell(payload: dict) -> dict:
    """Run one cell inside a worker process and return a JSON-able record."""
    spec = get_experiment(payload["experiment"])
    scenario = Scenario.from_jsonable(payload["scenario"])
    started = wallclock.perf_counter()
    result = spec.run(**scenario.runner_kwargs(payload["cell_seed"]))
    return {
        "experiment": payload["experiment"],
        "scenario": payload["scenario"],
        "seed": payload["seed"],
        "cell_seed": payload["cell_seed"],
        "cache_key": payload["cache_key"],
        "elapsed_s": wallclock.perf_counter() - started,
        "result": to_jsonable(result),
    }


def error_record(payload: dict, error: dict, elapsed_s: float = 0.0) -> dict:
    """A cell record describing a failure instead of a result.

    Shares the persisted-record shape with :func:`_execute_cell` so failed
    cells flow through the same persistence/reporting pipeline; the cache
    loader refuses them, so a re-run retries the cell instead of serving the
    failure from disk.
    """
    return {
        "experiment": payload["experiment"],
        "scenario": payload["scenario"],
        "seed": payload["seed"],
        "cell_seed": payload["cell_seed"],
        "cache_key": payload["cache_key"],
        "elapsed_s": elapsed_s,
        "result": None,
        "error": dict(error),
    }


def execute_cell_record(payload: dict) -> dict:
    """Fault-isolating cell executor: a raising runner yields an error record.

    One crashing cell must not take down the whole pool (or a remote
    worker): the exception is captured as ``{"type", "message",
    "traceback"}`` and the sweep carries on; completed cells persist as
    usual and the failure surfaces through ``SweepReport.failed_cells`` and
    the report tooling.
    """
    started = wallclock.perf_counter()
    try:
        return _execute_cell(payload)
    except Exception as exc:  # noqa: BLE001 - the whole point is isolation
        return error_record(
            payload,
            {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
            elapsed_s=wallclock.perf_counter() - started,
        )


def _execute_cell_indexed(item: tuple[int, dict]) -> tuple[int, dict]:
    """imap_unordered wrapper: carry the grid position alongside the record."""
    position, payload = item
    return position, execute_cell_record(payload)


# ---------------------------------------------------------------------------
# Execution backends
# ---------------------------------------------------------------------------


class CellBackend:
    """Pluggable execution engine for sweep cells.

    A backend receives the *non-cached* cells of a grid as ``(position,
    payload)`` pairs (cached cells are resolved by :class:`SweepRunner`
    before any backend sees them — they are never dispatched) and yields
    ``(position, record)`` pairs as cells finish, in any order.  Records are
    the JSON-able shape produced by :func:`execute_cell_record`: either a
    result record or an error record for a cell that could not run.
    """

    def execute(self, items: list[tuple[int, dict]]) -> Iterable[tuple[int, dict]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources.

        :meth:`SweepRunner.run` calls this when the run ends *for any
        reason* — including an exception before ``execute`` was ever
        consumed.  Stateful backends (the distributed coordinator binds a
        port and may hold connected workers from construction time) must
        make this idempotent; the default is a no-op.
        """

    def describe(self) -> str:
        return type(self).__name__


class LocalPoolBackend(CellBackend):
    """Today's execution path: a local ``multiprocessing`` pool.

    ``processes=None`` sizes the pool to ``min(cells, cpu_count)``;
    ``processes<=1`` runs cells inline (useful under pytest and for
    debugging).  Cells are submitted through ``imap_unordered`` with a
    chunk size sized to roughly four chunks per worker: large enough to
    amortise task dispatch, small enough to keep the pool balanced when
    cell runtimes differ.
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        self.processes = processes

    def describe(self) -> str:
        return f"local pool (processes={self.processes or 'auto'})"

    def execute(self, items: list[tuple[int, dict]]) -> Iterable[tuple[int, dict]]:
        if not items:
            return
        processes = self.processes
        if processes is None:
            processes = min(len(items), os.cpu_count() or 1)
        if processes <= 1 or len(items) == 1:
            for item in items:
                yield _execute_cell_indexed(item)
            return
        chunksize = max(1, len(items) // (processes * 4))
        with multiprocessing.Pool(processes=processes) as pool:
            yield from pool.imap_unordered(_execute_cell_indexed, items, chunksize=chunksize)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


class SweepRunner:
    """Executes a :class:`SweepGrid` through a :class:`CellBackend` with caching.

    The default backend is a :class:`LocalPoolBackend` over ``processes``
    workers; pass ``backend=`` (for example
    :class:`repro.distrib.DistributedBackend`, which serves cells to worker
    agents on other machines) to execute cells elsewhere.  Each cell's JSON
    lands at ``<results_dir>/<experiment>/<scenario-slug>-seed<k>-<hash12>.json``
    regardless of where it ran.

    The cache key covers the runner's source, a fingerprint of the whole
    ``repro`` package, the scenario, and the seed, so editing shared
    simulator code (transport, emulator, codec, ...) invalidates cached
    cells automatically.  Pass ``use_cache=False`` (or delete the results
    directory) to force fresh runs regardless; results are still persisted
    either way.  Error records (failed cells) are persisted but never
    cache-loaded, so re-running a sweep retries its failures.
    """

    def __init__(
        self,
        results_dir: str | Path = DEFAULT_RESULTS_DIR,
        processes: Optional[int] = None,
        use_cache: bool = True,
        backend: Optional[CellBackend] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.results_dir = Path(results_dir)
        self.processes = processes
        self.use_cache = use_cache
        self.backend = backend
        # Runner-side telemetry only: cell spans and counters are recorded
        # here, never written into the persisted cell records, which must
        # stay byte-identical across local/distributed/chaos runs.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # -- cache ----------------------------------------------------------------

    def cell_path(self, experiment: str, scenario: Scenario, seed: int, key: str) -> Path:
        slug = scenario_slug(scenario.name)
        return self.results_dir / experiment / f"{slug}-seed{seed}-{key[:12]}.json"

    def _load_cached(self, path: Path, key: str) -> Optional[dict]:
        if not self.use_cache or not path.exists():
            return None
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if record.get("cache_key") != key:
            return None
        if record.get("error") is not None:
            # A persisted failure documents what happened, but is never
            # served from cache: re-running the sweep retries the cell.
            return None
        return record

    # -- execution ------------------------------------------------------------

    def run(self, grid: SweepGrid) -> SweepReport:
        try:
            return self._run(grid)
        finally:
            if self.backend is not None:
                # Whatever happened above — even an exception while
                # resolving the cache, before the backend saw a single
                # cell — the backend must get its shutdown call (a
                # distributed coordinator may already hold connected
                # workers that would otherwise poll a zombie forever).
                self.backend.close()

    def _run(self, grid: SweepGrid) -> SweepReport:
        started = wallclock.perf_counter()
        trace = self.telemetry.trace
        metrics = self.telemetry.metrics
        cached_cells = metrics.counter("sweep.cells.cached")
        executed_cells = metrics.counter("sweep.cells.executed")
        failed_cells = metrics.counter("sweep.cells.failed")
        run_span = trace.start(
            "sweep.run", started, clock="wall", cells=grid.cell_count
        )
        try:
            cells, pending = self._resolve_cache(grid, cached_cells, trace)

            paths = {position: path for position, _, path in pending}
            # Everything after this instant is dispatch + queue + execute:
            # a cell's queue wait is the gap between this mark and the start
            # of its (worker-measured) execution interval.
            dispatch_started = wallclock.perf_counter()
            for position, record in self._execute_stream(
                [(position, payload) for position, payload, _ in pending]
            ):
                # Each cell's JSON is streamed to disk as soon as its record
                # arrives, so a long sweep's finished cells survive interruption
                # instead of being persisted only after every cell completes.
                path = paths[position]
                self._persist(path, record)
                scenario = Scenario.from_jsonable(record["scenario"])
                failed = record.get("error") is not None
                (failed_cells if failed else executed_cells).inc()
                if trace.enabled:
                    arrival = wallclock.perf_counter()
                    execute_s = float(record["elapsed_s"])
                    trace.record(
                        "sweep.cell",
                        max(dispatch_started, arrival - execute_s),
                        arrival,
                        clock="wall",
                        experiment=record["experiment"],
                        scenario=scenario.name,
                        seed=record["seed"],
                        disposition="failed" if failed else "executed",
                        queue_wait_s=max(0.0, arrival - dispatch_started - execute_s),
                        execute_s=execute_s,
                        worker=(record.get("error") or {}).get("worker"),
                    )
                cells[position] = SweepCell(
                    experiment=record["experiment"],
                    scenario=scenario,
                    seed=record["seed"],
                    cell_seed=record["cell_seed"],
                    result=record["result"],
                    from_cache=False,
                    elapsed_s=record["elapsed_s"],
                    path=path,
                    cache_key=record["cache_key"],
                    error=record.get("error"),
                )
        finally:
            trace.finish(run_span, wallclock.perf_counter())

        ordered = [cells[position] for position in sorted(cells)]
        return SweepReport(cells=ordered, elapsed_s=wallclock.perf_counter() - started)

    def _resolve_cache(
        self, grid: SweepGrid, cached_cells, trace
    ) -> tuple[dict[int, SweepCell], list[tuple[int, dict, Path]]]:
        """Split the grid into cache-resolved cells and pending payloads."""
        cells: dict[int, SweepCell] = {}
        pending: list[tuple[int, dict, Path]] = []
        for position, (experiment, scenario, seed) in enumerate(grid.cells()):
            spec = get_experiment(experiment)
            key = cell_cache_key(spec, scenario, seed)
            path = self.cell_path(experiment, scenario, seed, key)
            cached = self._load_cached(path, key)
            if cached is not None:
                cached_cells.inc()
                if trace.enabled:
                    resolved = wallclock.perf_counter()
                    trace.record(
                        "sweep.cell",
                        resolved,
                        resolved,
                        clock="wall",
                        experiment=experiment,
                        scenario=scenario.name,
                        seed=seed,
                        disposition="cached",
                        queue_wait_s=0.0,
                        execute_s=0.0,
                        worker=None,
                    )
                cells[position] = SweepCell(
                    experiment=experiment,
                    scenario=scenario,
                    seed=seed,
                    cell_seed=cached["cell_seed"],
                    result=cached["result"],
                    from_cache=True,
                    elapsed_s=0.0,
                    path=path,
                    cache_key=key,
                )
                continue
            payload = {
                "experiment": experiment,
                "scenario": scenario.to_jsonable(),
                "seed": seed,
                "cell_seed": derive_cell_seed(experiment, scenario.name, seed),
                "cache_key": key,
            }
            pending.append((position, payload, path))
        return cells, pending

    def _execute_stream(
        self, items: list[tuple[int, dict]]
    ) -> Iterable[tuple[int, dict]]:
        """Yield (position, record) pairs as cells finish (order not guaranteed).

        Delegates to the configured :class:`CellBackend`; the default is a
        :class:`LocalPoolBackend` sized by ``processes``.  The backend is
        invoked even for an empty item list (a fully cached grid): stateful
        backends (the distributed coordinator, which may already hold
        connected workers) need the call to shut down and release them.
        """
        backend = self.backend if self.backend is not None else LocalPoolBackend(self.processes)
        yield from backend.execute(items)

    def _persist(self, path: Path, record: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        tmp.replace(path)
