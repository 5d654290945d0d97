"""Tests for the experiment registry and the scenario sweep engine."""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import (
    Scenario,
    SweepGrid,
    SweepRunner,
    bernoulli_scenario,
    default_scenarios,
    get_experiment,
    gilbert_elliott_scenario,
    run_experiment,
    trace_scenario,
)
from repro.analysis import sweeps
from repro.analysis.sweeps import (
    cell_cache_key,
    derive_cell_seed,
    scenario_slug,
    to_jsonable,
)
from repro.net.emulator import FASTPATH_ENV, BandwidthTrace, BernoulliLoss, GilbertElliottLoss


class TestRegistry:
    def test_core_experiments_registered(self):
        for expected in (
            "figure2_redundancy",
            "figure3_latency",
            "figure9_accuracy",
            "end_to_end_turn",
            "section1_latency_budget",
        ):
            assert get_experiment(expected).name == expected

    def test_unknown_experiment_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="figure3_latency"):
            get_experiment("figure99_nope")

    def test_kwargs_filtered_to_signature(self):
        spec = get_experiment("section1_latency_budget")
        assert spec.supported({"seed": 1, "loss_model": BernoulliLoss(0.1)}) == {}
        spec = get_experiment("figure3_latency")
        supported = spec.supported({"seed": 1, "nonsense": True})
        assert supported == {"seed": 1}

    def test_run_experiment_drops_unsupported_kwargs(self):
        result = run_experiment(
            "section21_jitter_invariance", seed=0, bandwidth_trace="ignored"
        )
        assert result["mllm_input_identical"] == 1.0

    def test_registered_fn_unchanged_by_decoration(self):
        from repro.analysis.experiments import run_figure3_latency

        assert get_experiment("figure3_latency").fn is run_figure3_latency


class TestScenario:
    def test_jsonable_roundtrip(self):
        scenario = gilbert_elliott_scenario(
            p_good_to_bad=0.05, loss_in_bad=0.6, duration_s=2.0
        )
        rebuilt = Scenario.from_jsonable(json.loads(json.dumps(scenario.to_jsonable())))
        assert rebuilt == scenario

    def test_runner_kwargs_builds_live_objects(self):
        scenario = trace_scenario(
            times=[0.0, 1.0], rates_bps=[1e6, 2e6], loss_rate=0.03, duration_s=2.0
        )
        kwargs = scenario.runner_kwargs(seed=7)
        assert isinstance(kwargs["loss_model"], BernoulliLoss)
        assert isinstance(kwargs["bandwidth_trace"], BandwidthTrace)
        assert kwargs["seed"] == 7
        assert kwargs["duration_s"] == 2.0

    def test_pinned_override_seed_wins_over_cell_seed(self):
        scenario = bernoulli_scenario(0.02, seed=42)
        assert scenario.runner_kwargs(seed=7)["seed"] == 42

    def test_gilbert_elliott_scenario_builds_chain(self):
        kwargs = gilbert_elliott_scenario(p_good_to_bad=0.02).runner_kwargs(seed=0)
        assert isinstance(kwargs["loss_model"], GilbertElliottLoss)

    def test_default_scenarios_cover_three_regimes(self):
        scenarios = default_scenarios()
        assert len(scenarios) >= 3
        kinds = {s.loss_model["kind"] for s in scenarios}
        assert "bernoulli" in kinds and "gilbert_elliott" in kinds
        assert any(s.bandwidth_trace is not None for s in scenarios)


class TestSeedingAndHashing:
    def test_cell_seed_deterministic_and_distinct(self):
        a = derive_cell_seed("figure3_latency", "bursty", 0)
        assert a == derive_cell_seed("figure3_latency", "bursty", 0)
        assert a != derive_cell_seed("figure3_latency", "bursty", 1)
        assert a != derive_cell_seed("figure2_redundancy", "bursty", 0)

    def test_cache_key_sensitive_to_scenario_and_seed(self):
        spec = get_experiment("section1_latency_budget")
        a = bernoulli_scenario(0.02)
        b = bernoulli_scenario(0.05)
        assert cell_cache_key(spec, a, 0) == cell_cache_key(spec, a, 0)
        assert cell_cache_key(spec, a, 0) != cell_cache_key(spec, b, 0)
        assert cell_cache_key(spec, a, 0) != cell_cache_key(spec, a, 1)

    def test_cache_key_sensitive_to_package_source(self, monkeypatch):
        """Editing shared simulator code must invalidate cached cells."""
        spec = get_experiment("section1_latency_budget")
        scenario = bernoulli_scenario(0.02)
        before = cell_cache_key(spec, scenario, 0)
        monkeypatch.setattr(sweeps, "_package_fingerprint", lambda: "edited-tree")
        assert cell_cache_key(spec, scenario, 0) != before

    def test_cache_key_sensitive_to_delivery_mode(self, monkeypatch):
        """A cell cached under one REPRO_NET_FASTPATH mode is not served to the other."""
        spec = get_experiment("section1_latency_budget")
        scenario = bernoulli_scenario(0.02)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        fast = cell_cache_key(spec, scenario, 0)
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert cell_cache_key(spec, scenario, 0) != fast

    def test_package_fingerprint_stable(self):
        assert sweeps._package_fingerprint() == sweeps._package_fingerprint()
        assert len(sweeps._package_fingerprint()) == 64


class TestScenarioSlug:
    def test_safe_names_unchanged(self):
        assert scenario_slug("bernoulli-0.02") == "bernoulli-0.02"
        assert scenario_slug("trace_droop.v2") == "trace_droop.v2"

    def test_path_separators_and_dots_neutralised(self):
        assert "/" not in scenario_slug("a/b")
        assert scenario_slug("../../etc/passwd") == "etc-passwd"
        assert scenario_slug("..") == "scenario"
        assert scenario_slug("") == "scenario"

    def test_long_names_truncated(self):
        assert len(scenario_slug("a" * 300)) <= 100

    def test_cell_path_stays_inside_results_dir(self, tmp_path):
        runner = SweepRunner(results_dir=tmp_path)
        hostile = Scenario(name="../../escape")
        path = runner.cell_path("exp", hostile, 0, "deadbeefdeadbeef")
        assert path.resolve().is_relative_to(tmp_path.resolve())


class TestToJsonable:
    def test_dataclass_numpy_and_float_keys(self):
        @dataclasses.dataclass
        class Row:
            value: float
            ratio: np.float64

        data = {
            0.5: Row(value=1.0, ratio=np.float64(0.25)),
            "arr": np.arange(3),
            "tup": (1, 2),
        }
        converted = to_jsonable(data)
        json.dumps(converted)  # must not raise
        assert converted["0.5"]["ratio"] == 0.25
        assert converted["arr"] == [0, 1, 2]


class TestSweepRunner:
    GRID = SweepGrid(
        experiments=("section1_latency_budget", "section21_jitter_invariance"),
        scenarios=(bernoulli_scenario(0.02), gilbert_elliott_scenario(p_good_to_bad=0.05)),
        seeds=(0, 1),
    )

    def test_serial_run_persists_json(self, tmp_path):
        runner = SweepRunner(results_dir=tmp_path, processes=1)
        report = runner.run(self.GRID)
        assert len(report.cells) == self.GRID.cell_count == 8
        assert report.executed == 8 and report.cached == 0
        for cell in report.cells:
            assert cell.path.exists()
            record = json.loads(cell.path.read_text())
            assert record["cache_key"] == cell.cache_key
            assert record["result"] == cell.result

    def test_second_run_hits_cache(self, tmp_path):
        runner = SweepRunner(results_dir=tmp_path, processes=1)
        first = runner.run(self.GRID)
        second = runner.run(self.GRID)
        assert second.cached == self.GRID.cell_count
        assert second.executed == 0
        by_key = {cell.cache_key: cell.result for cell in first.cells}
        for cell in second.cells:
            assert cell.result == by_key[cell.cache_key]

    def test_changed_scenario_misses_cache(self, tmp_path):
        runner = SweepRunner(results_dir=tmp_path, processes=1)
        grid = SweepGrid(
            experiments=("section1_latency_budget",),
            scenarios=(bernoulli_scenario(0.02),),
            seeds=(0,),
        )
        runner.run(grid)
        changed = SweepGrid(
            experiments=("section1_latency_budget",),
            scenarios=(bernoulli_scenario(0.05),),
            seeds=(0,),
        )
        report = runner.run(changed)
        assert report.executed == 1 and report.cached == 0

    def test_corrupt_cache_file_reruns(self, tmp_path):
        runner = SweepRunner(results_dir=tmp_path, processes=1)
        grid = SweepGrid(
            experiments=("section1_latency_budget",),
            scenarios=(bernoulli_scenario(0.02),),
            seeds=(0,),
        )
        first = runner.run(grid)
        first.cells[0].path.write_text("{not json")
        report = runner.run(grid)
        assert report.executed == 1

    def test_use_cache_false_forces_reruns(self, tmp_path):
        grid = SweepGrid(
            experiments=("section1_latency_budget",),
            scenarios=(bernoulli_scenario(0.02),),
            seeds=(0,),
        )
        SweepRunner(results_dir=tmp_path, processes=1).run(grid)
        report = SweepRunner(results_dir=tmp_path, processes=1, use_cache=False).run(grid)
        assert report.executed == 1 and report.cached == 0

    def test_multiprocessing_pool_path(self, tmp_path):
        """The grid really goes through a process pool (processes=2)."""
        runner = SweepRunner(results_dir=tmp_path, processes=2)
        grid = SweepGrid(
            experiments=("section1_latency_budget",),
            scenarios=(bernoulli_scenario(0.02), gilbert_elliott_scenario(p_good_to_bad=0.05)),
            seeds=(0, 1),
        )
        report = runner.run(grid)
        assert report.executed == 4
        again = runner.run(grid)
        assert again.cached == 4

    def test_cell_seeds_recorded_and_deterministic(self, tmp_path):
        runner = SweepRunner(results_dir=tmp_path, processes=1)
        report = runner.run(self.GRID)
        for cell in report.cells:
            assert cell.cell_seed == derive_cell_seed(
                cell.experiment, cell.scenario.name, cell.seed
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(experiments=(), scenarios=(bernoulli_scenario(0.0),), seeds=(0,))


class TestScenarioPluggableRunners:
    def test_figure3_with_gilbert_elliott_model(self):
        rows = run_experiment(
            "figure3_latency",
            bitrates_bps=(200_000,),
            duration_s=2.0,
            loss_model=GilbertElliottLoss(p_good_to_bad=0.05, p_bad_to_good=0.4, loss_in_bad=0.5),
        )
        assert len(rows) == 1
        model_loss = GilbertElliottLoss(
            p_good_to_bad=0.05, p_bad_to_good=0.4, loss_in_bad=0.5
        ).steady_state_loss
        assert rows[0].loss_rate == pytest.approx(model_loss)
        assert rows[0].mean_latency_ms > 0

    def test_figure3_with_bandwidth_trace_slows_delivery(self):
        fast = run_experiment(
            "figure3_latency", bitrates_bps=(4_000_000,), loss_rates=(0.0,), duration_s=3.0
        )
        constrained = run_experiment(
            "figure3_latency",
            bitrates_bps=(4_000_000,),
            loss_rates=(0.0,),
            duration_s=3.0,
            bandwidth_trace=BandwidthTrace(times=[0.0, 1.0], rates_bps=[10e6, 1e6]),
        )
        assert constrained[0].mean_latency_ms > fast[0].mean_latency_ms

    def test_figure2_dead_link_reports_zero_not_lossless(self):
        result = run_experiment(
            "figure2_redundancy",
            capture_fps=30.0,
            duration_s=1.0,
            height=120,
            width=160,
            loss_model=GilbertElliottLoss(
                p_good_to_bad=1.0, p_bad_to_good=0.0, loss_in_bad=1.0, loss_in_good=1.0
            ),
        )
        assert result["delivered_frame_fraction"] == 0.0
        assert result["perceived_throughput_bps"] == 0.0

    def test_figure2_loss_reduces_delivered_frames(self):
        clean = run_experiment(
            "figure2_redundancy", capture_fps=30.0, duration_s=1.0, height=120, width=160
        )
        lossy = run_experiment(
            "figure2_redundancy",
            capture_fps=30.0,
            duration_s=1.0,
            height=120,
            width=160,
            loss_model=BernoulliLoss(0.4),
        )
        assert clean["delivered_frame_fraction"] == pytest.approx(1.0)
        assert lossy["delivered_frame_fraction"] < 1.0


def _register_probe_experiments():
    """Register tiny deterministic runners used by the fault-isolation tests.

    The registry is process-global and rejects duplicates, so registration
    is guarded for repeated imports within one pytest session.
    """
    from repro.analysis.registry import _REGISTRY, experiment

    if "_test_faulty_probe" in _REGISTRY:
        return

    @experiment("_test_faulty_probe", description="raises when told to (tests only)")
    def _faulty_probe(seed: int = 0, boom: bool = False):
        if boom:
            raise ValueError(f"probe exploded (seed {seed})")
        return {"ok": 1.0}


class TestFaultIsolation:
    """A raising runner yields an error record instead of crashing the pool."""

    def _grid(self):
        _register_probe_experiments()
        return SweepGrid(
            experiments=("_test_faulty_probe",),
            scenarios=(
                bernoulli_scenario(0.02, name="healthy"),
                bernoulli_scenario(0.02, name="explosive", boom=True),
            ),
            seeds=(0, 1),
        )

    def test_failures_become_error_records(self, tmp_path):
        report = SweepRunner(results_dir=tmp_path, processes=1).run(self._grid())
        assert len(report.cells) == 4
        failed = report.failed_cells
        assert sorted((cell.scenario.name, cell.seed) for cell in failed) == [
            ("explosive", 0),
            ("explosive", 1),
        ]
        for cell in failed:
            assert cell.result is None and cell.failed
            assert cell.error["type"] == "ValueError"
            assert "probe exploded" in cell.error["message"]
            assert "ValueError" in cell.error["traceback"]
        assert report.summary()["failed"] == 2

    def test_completed_cells_persist_alongside_failures(self, tmp_path):
        report = SweepRunner(results_dir=tmp_path, processes=1).run(self._grid())
        for cell in report.cells:
            record = json.loads(cell.path.read_text())
            if cell.failed:
                assert record["error"]["type"] == "ValueError"
                assert record["result"] is None
            else:
                assert record["result"] == {"ok": 1.0}
                assert "error" not in record

    def test_error_records_not_served_from_cache(self, tmp_path):
        runner = SweepRunner(results_dir=tmp_path, processes=1)
        runner.run(self._grid())
        again = runner.run(self._grid())
        # Successes load from cache; failures re-execute (and fail again).
        assert again.cached == 2 and again.executed == 2
        assert len(again.failed_cells) == 2

    def test_failures_survive_the_process_pool(self, tmp_path):
        """The error record must pickle back from a real pool worker."""
        report = SweepRunner(results_dir=tmp_path, processes=2).run(self._grid())
        assert len(report.failed_cells) == 2

    def test_report_flags_failures(self, tmp_path):
        from repro.analysis import digest_results_dir

        SweepRunner(results_dir=tmp_path, processes=1).run(self._grid())
        digest = digest_results_dir(tmp_path)
        assert digest.cell_count == 4
        assert sorted((cell.scenario, cell.seed) for cell in digest.failed_cells) == [
            ("explosive", 0),
            ("explosive", 1),
        ]
        assert digest.failed_cells[0].error_type == "ValueError"
        # Failures are flagged, never aggregated: the explosive scenario
        # contributes no aggregate group at all.
        for experiment in digest.experiments:
            assert [s.scenario for s in experiment.scenarios] == ["healthy"]
            for scenario in experiment.scenarios:
                assert set(scenario.seeds) == {0, 1}
        assert "FAILED CELLS (2" in digest.render_text()
        assert "Failed cells" in digest.render_markdown()
        assert digest.to_jsonable()["failed"] == 2


class TestBackendPlumbing:
    def test_default_backend_is_local_pool(self, tmp_path):
        from repro.analysis import LocalPoolBackend

        backend = LocalPoolBackend(processes=1)
        runner = SweepRunner(results_dir=tmp_path, backend=backend)
        grid = SweepGrid(
            experiments=("section1_latency_budget",),
            scenarios=(bernoulli_scenario(0.02),),
            seeds=(0,),
        )
        report = runner.run(grid)
        assert report.executed == 1
        assert "local pool" in backend.describe()

    def test_backend_never_sees_cached_cells(self, tmp_path):
        from repro.analysis import CellBackend

        class CountingBackend(CellBackend):
            def __init__(self):
                self.seen = 0

            def execute(self, items):
                self.seen += len(items)
                for item in items:
                    yield sweeps._execute_cell_indexed(item)

        grid = SweepGrid(
            experiments=("section1_latency_budget",),
            scenarios=(bernoulli_scenario(0.02),),
            seeds=(0, 1),
        )
        first = CountingBackend()
        SweepRunner(results_dir=tmp_path, backend=first).run(grid)
        assert first.seen == 2
        second = CountingBackend()
        SweepRunner(results_dir=tmp_path, backend=second).run(grid)
        assert second.seen == 0
