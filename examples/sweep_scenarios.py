"""Multi-scenario sweep: every loss regime × seeds × experiments, in parallel.

The paper evaluates each figure at one operating point (a Bernoulli loss
rate on a fixed 10 Mbps link).  This example fans experiment runners out
across a scenario grid — by default i.i.d. loss, Gilbert-Elliott bursty
loss, and a trace-driven time-varying link; with ``--corpus`` the whole
named scenario corpus from ``repro.net.traces`` (LTE drive traces, Wi-Fi
step drops, congestion sawtooths, handover outages, ...) — with several
seeds per cell, using every core available.  Results are persisted as JSON
under ``results/`` and re-running the script is (almost) free: unchanged
cells load from the content-hash cache instead of re-executing.

``--report`` aggregates the persisted cells across seeds (mean ± 95% CI
for every numeric metric) and writes ``report.md`` / ``report.json`` next
to them — a paste-ready cross-scenario comparison.

Cells can also execute on *other machines*: ``--serve [HOST:]PORT`` turns
this process into a sweep coordinator that hands cells to worker agents
(``python -m repro.distrib.worker --connect HOST:PORT``, one per machine or
core).  Results land in the same ``results/`` tree as a local run —
caching and ``--report`` work unchanged.

Closed-loop cells ride the same machinery: ``--controller gcc`` (or any
preset name / inline JSON spec, see ``repro.net.control``) adds the
``closed_loop_session`` experiment to the grid with that sender controller
in every scenario, so feedback-driven runs sweep and cache like any other
axis.

Run with:
    PYTHONPATH=src python examples/sweep_scenarios.py                     # full default grid
    PYTHONPATH=src python examples/sweep_scenarios.py --smoke --report    # 8-cell CI smoke run + report
    PYTHONPATH=src python examples/sweep_scenarios.py --corpus lte_drive loss_ladder --report
    PYTHONPATH=src python examples/sweep_scenarios.py --controller aimd --report
    PYTHONPATH=src python examples/sweep_scenarios.py --serve 0.0.0.0:7071   # distribute cells
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics

from repro.analysis import (
    SweepGrid,
    SweepReport,
    SweepRunner,
    bernoulli_scenario,
    corpus_scenarios,
    digest_results_dir,
    gilbert_elliott_scenario,
    trace_scenario,
    write_report,
)
from repro.net.control import preset_controller_spec
from repro.net.traces import list_families

#: Keep runner costs modest so the full grid finishes in well under a minute.
FAST = {"duration_s": 4.0, "height": 160, "width": 288}

SCENARIOS = (
    bernoulli_scenario(0.02, name="iid-2pct", **FAST),
    gilbert_elliott_scenario(
        p_good_to_bad=0.03,
        p_bad_to_good=0.3,
        loss_in_bad=0.5,
        name="bursty",
        **FAST,
    ),
    trace_scenario(
        times=[0.0, 1.5, 3.0],
        rates_bps=[10e6, 2.5e6, 8e6],
        loss_rate=0.01,
        name="trace-droop",
        **FAST,
    ),
)

#: The smoke grid keeps two seeds so the --report aggregation exercises real
#: across-seed statistics (mean ± CI) even in CI.  Each smoke scenario
#: carries a controller spec so the closed-loop cells (and, through the
#: dispatcher smoke step, the distributed wire format) exercise the sender
#: control plane end-to-end; the open-loop experiment simply ignores the
#: kwarg (the registry filters by runner signature).
SMOKE_SCENARIOS = tuple(
    dataclasses.replace(
        scenario,
        overrides={**scenario.overrides, "controller": preset_controller_spec("gcc")},
    )
    for scenario in SCENARIOS[:2]
)
SMOKE_SEEDS = (0, 1)

EXPERIMENTS = ("figure2_redundancy", "figure3_latency", "end_to_end_turn")
SEEDS = (0, 1, 2, 3)


def summarize(report: SweepReport) -> None:
    print(
        f"{len(report.cells)} cells — {report.executed} executed, "
        f"{report.cached} from cache, {report.elapsed_s:.2f}s"
    )
    for experiment in sorted({cell.experiment for cell in report.cells}):
        cells = report.for_experiment(experiment)
        by_scenario: dict[str, list] = {}
        for cell in cells:
            by_scenario.setdefault(cell.scenario.name, []).append(cell)
        print(f"\n  {experiment}")
        for scenario_name, group in sorted(by_scenario.items()):
            metric = _headline_metric(experiment, group)
            print(f"    {scenario_name:<20} ({len(group)} seeds)  {metric}")


def _headline_metric(experiment: str, cells: list) -> str:
    """One human-readable number per (experiment, scenario) group."""
    try:
        if experiment == "figure2_redundancy":
            values = [cell.result["frame_redundancy"] for cell in cells]
            return f"frame_redundancy ≈ {statistics.mean(values):.3f}"
        if experiment == "figure3_latency":
            values = [row["mean_latency_ms"] for cell in cells for row in cell.result]
            return f"mean latency ≈ {statistics.mean(values):.1f} ms"
        if experiment == "end_to_end_turn":
            values = [cell.result["response_latency_ms"] for cell in cells]
            return f"response latency ≈ {statistics.mean(values):.1f} ms"
        if experiment == "closed_loop_session":
            values = [cell.result["delivered_rate_bps"] for cell in cells]
            return f"delivered ≈ {statistics.mean(values) / 1e6:.2f} Mbps"
    except (KeyError, TypeError, statistics.StatisticsError):
        pass
    return "(see JSON)"


def parse_controller_spec(value: str) -> dict:
    """``--controller`` accepts a preset name or an inline JSON spec."""
    if value.lstrip().startswith("{"):
        return json.loads(value)
    return preset_controller_spec(value)


def build_grid(args: argparse.Namespace) -> SweepGrid:
    if args.smoke:
        return SweepGrid(
            experiments=("figure3_latency", "closed_loop_session"),
            scenarios=SMOKE_SCENARIOS,
            seeds=SMOKE_SEEDS,
        )
    seeds = tuple(range(args.seeds)) if args.seeds is not None else SEEDS
    experiments = EXPERIMENTS
    if args.corpus is not None:
        families = args.corpus or None  # bare --corpus means every family
        scenarios = tuple(
            corpus_scenarios(seed=args.corpus_seed, families=families, **FAST)
        )
    else:
        scenarios = SCENARIOS
    if args.controller is not None:
        spec = parse_controller_spec(args.controller)
        experiments = experiments + ("closed_loop_session",)
        scenarios = tuple(
            dataclasses.replace(
                scenario, overrides={**scenario.overrides, "controller": spec}
            )
            for scenario in scenarios
        )
    return SweepGrid(experiments=experiments, scenarios=scenarios, seeds=seeds)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run an 8-cell grid (2 experiments × 2 scenarios × 2 seeds) for CI",
    )
    parser.add_argument(
        "--controller",
        metavar="SPEC",
        default=None,
        help=(
            "add a closed_loop_session experiment with this sender controller "
            "to every scenario: a preset name (gcc, aimd, fixed, gcc-buffer, "
            "aimd-buffer, gcc-ai, aimd-ai) or an inline JSON spec"
        ),
    )
    parser.add_argument(
        "--corpus",
        nargs="*",
        default=None,
        metavar="FAMILY",
        help=(
            "sweep the named scenario-corpus families from repro.net.traces "
            f"(bare --corpus takes all: {', '.join(list_families())})"
        ),
    )
    parser.add_argument(
        "--corpus-seed",
        type=int,
        default=0,
        help="seed for the randomised corpus families (default 0)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="number of seeds per cell (default 4; --smoke pins 2)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="aggregate the results directory into report.md / report.json",
    )
    parser.add_argument("--results-dir", default="results")
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="pool size (default: one per cell up to the CPU count)",
    )
    parser.add_argument(
        "--serve",
        metavar="[HOST:]PORT",
        default=None,
        help=(
            "distribute cells: listen for workers "
            "(python -m repro.distrib.worker --connect HOST:PORT)"
        ),
    )
    parser.add_argument(
        "--startup-timeout",
        type=float,
        default=120.0,
        help="abort a distributed sweep if no worker connects in this many seconds",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "coordinator liveness timeout: a worker silent this long is "
            "presumed dead and its cells requeue (default "
            "%(default)s -> repro.distrib.DEFAULT_TIMEOUTS; validated "
            "against the heartbeat interval)"
        ),
    )
    parser.add_argument(
        "--max-requeues",
        type=int,
        default=None,
        help=(
            "times a cell is re-served after its worker dies before it "
            "resolves to an error record (default: 2)"
        ),
    )
    parser.add_argument(
        "--no-local-fallback",
        action="store_true",
        help=(
            "fail a distributed sweep when the worker pool empties instead "
            "of degrading to the local multiprocessing pool"
        ),
    )
    parser.add_argument(
        "--status-json",
        metavar="PATH",
        default=None,
        help=(
            "append one fleet status snapshot per interval, plus a "
            "terminal frame, to this JSONL file (autoscaling hook)"
        ),
    )
    parser.add_argument(
        "--status-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between --status-json snapshots",
    )
    args = parser.parse_args()

    backend = None
    fleet_errors: tuple[type[Exception], ...] = ()
    if args.serve is not None:
        from repro.distrib import (
            ConfigError,
            DEFAULT_TIMEOUTS,
            DistributedBackend,
            NoWorkersError,
        )

        fleet_errors = (NoWorkersError,)

        try:
            backend = DistributedBackend(
                listen=args.serve,
                timeouts=DEFAULT_TIMEOUTS.override(heartbeat_timeout_s=args.heartbeat_timeout),
                max_requeues=args.max_requeues,
                startup_timeout_s=args.startup_timeout,
                local_fallback=not args.no_local_fallback,
                status_json=args.status_json,
                status_interval_s=args.status_interval,
            )
        except ConfigError as exc:
            parser.error(str(exc))
        print(f"distributed backend: {backend.describe()}")

    grid = build_grid(args)
    runner = SweepRunner(
        results_dir=args.results_dir, processes=args.processes, backend=backend
    )
    print(f"sweeping {grid.cell_count} cells into {args.results_dir}/ ...")
    try:
        report = runner.run(grid)
    except fleet_errors as exc:
        # Only reachable with --no-local-fallback: the pool emptied and the
        # operator asked for an abort instead of local degradation.
        raise SystemExit(f"error: {exc}") from exc
    summarize(report)
    failed = report.failed_cells
    if failed:
        print(f"\nERROR: {len(failed)} cell(s) failed:")
        for cell in failed:
            error = cell.error or {}
            print(
                f"  ! {cell.experiment} / {cell.scenario.name} / seed {cell.seed}: "
                f"{error.get('type')}: {error.get('message')}"
            )
    if report.cached:
        print("\n(cached cells were loaded from disk; delete the results dir to force re-runs)")

    if args.report:
        digest = digest_results_dir(args.results_dir)
        print()
        print(digest.render_text())
        paths = write_report(digest, args.results_dir)
        print(f"\nwrote {paths['markdown']} and {paths['json']}")

    if failed:
        # Fault isolation keeps one bad cell from sinking a long sweep, but
        # the process must still signal the failures (CI greps on exit code).
        raise SystemExit(1)


if __name__ == "__main__":
    main()
