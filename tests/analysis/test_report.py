"""Tests for the sweep reporting subsystem (repro.analysis.report)."""

import json
import math
import os

import pytest

from repro.analysis.report import (
    MetricAggregate,
    SweepDigest,
    build_digest,
    digest_results_dir,
    flatten_numeric,
    load_records,
    main,
    t_critical_95,
    write_report,
)
from repro.analysis.sweeps import (
    SweepGrid,
    SweepRunner,
    bernoulli_scenario,
    gilbert_elliott_scenario,
)


def _record(experiment, scenario, seed, result):
    return {
        "experiment": experiment,
        "scenario": {"name": scenario},
        "seed": seed,
        "result": result,
    }


class TestFlattenNumeric:
    def test_nested_dicts_and_lists(self):
        flat = flatten_numeric(
            {
                "a": 1,
                "b": {"c": 2.5, "d": [3, {"e": 4}]},
                "skip_str": "x",
                "skip_none": None,
                "skip_bool": True,
            }
        )
        assert flat == {"a": 1.0, "b.c": 2.5, "b.d[0]": 3.0, "b.d[1].e": 4.0}

    def test_top_level_list_of_rows(self):
        flat = flatten_numeric([{"x": 1.0}, {"x": 2.0}])
        assert flat == {"[0].x": 1.0, "[1].x": 2.0}

    def test_bare_scalar(self):
        assert flatten_numeric(7) == {"value": 7.0}

    def test_non_finite_floats_kept(self):
        flat = flatten_numeric({"nan": float("nan")})
        assert math.isnan(flat["nan"])


class TestMetricAggregate:
    def test_two_values_student_t_interval(self):
        agg = MetricAggregate.from_values("m", [1.0, 3.0])
        assert agg.count == 2
        assert agg.mean == pytest.approx(2.0)
        assert agg.std == pytest.approx(math.sqrt(2.0))
        # t(df=1) * std / sqrt(2) = 12.706 * sqrt(2)/sqrt(2)
        assert agg.ci95 == pytest.approx(12.706, rel=1e-6)
        assert (agg.minimum, agg.maximum) == (1.0, 3.0)

    def test_single_value_has_zero_spread(self):
        agg = MetricAggregate.from_values("m", [5.0])
        assert agg.std == 0.0 and agg.ci95 == 0.0
        assert agg.format() == "5"

    def test_format_includes_ci(self):
        assert "±" in MetricAggregate.from_values("m", [1.0, 2.0]).format()

    def test_t_table_monotone_and_bounded(self):
        values = [t_critical_95(df) for df in range(1, 40)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(1.96, abs=0.01)


class TestBuildDigest:
    RECORDS = [
        _record("exp", "iid", 0, {"latency_ms": 10.0, "nested": {"ratio": 0.5}, "iid_only": 1.0}),
        _record("exp", "iid", 1, {"latency_ms": 14.0, "nested": {"ratio": 0.7}, "iid_only": 2.0}),
        _record("exp", "bursty", 0, {"latency_ms": 30.0, "nested": {"ratio": 0.2}}),
        _record("other", "iid", 0, {"score": 1.0}),
    ]

    def test_groups_by_experiment_and_scenario(self):
        digest = build_digest(self.RECORDS)
        assert digest.cell_count == 4
        assert [d.experiment for d in digest.experiments] == ["exp", "other"]
        exp = digest.experiments[0]
        assert [s.scenario for s in exp.scenarios] == ["bursty", "iid"]
        iid = exp.scenarios[1]
        assert iid.seeds == (0, 1)
        assert iid.metrics["latency_ms"].mean == pytest.approx(12.0)
        assert iid.metrics["nested.ratio"].count == 2

    def test_heterogeneous_metrics_aggregate_present_seeds(self):
        records = [
            _record("exp", "s", 0, {"a": 1.0, "b": 2.0}),
            _record("exp", "s", 1, {"a": 3.0}),
        ]
        digest = build_digest(records)
        metrics = digest.experiments[0].scenarios[0].metrics
        assert metrics["a"].count == 2
        assert metrics["b"].count == 1

    def test_markdown_is_a_cross_scenario_table(self):
        md = build_digest(self.RECORDS).render_markdown()
        assert "## exp" in md and "## other" in md
        assert "| metric | bursty (n=1) | iid (n=2) |" in md
        assert "±" in md
        # every numeric metric appears as a row
        for metric in ("latency_ms", "nested.ratio", "iid_only", "score"):
            assert f"`{metric}`" in md
        # a metric one scenario never reported renders as a dash in its column
        assert "| `iid_only` | — | 1.5 ± " in md

    def test_text_render_mentions_every_scenario(self):
        text = build_digest(self.RECORDS).render_text()
        for token in ("exp", "bursty (n=1)", "iid (n=2)", "latency_ms"):
            assert token in text


class TestLoadRecords:
    def _write(self, path, record, mtime=None):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))
        if mtime is not None:
            os.utime(path, (mtime, mtime))

    def test_loads_cells_and_skips_junk(self, tmp_path):
        self._write(tmp_path / "exp" / "a-seed0-abc.json", _record("exp", "a", 0, {"x": 1}))
        (tmp_path / "exp" / "corrupt.json").write_text("{nope")
        (tmp_path / "report.json").write_text(json.dumps({"cells": 99}))
        (tmp_path / "exp" / "not-a-cell.json").write_text(json.dumps({"foo": 1}))
        records = load_records(tmp_path)
        assert len(records) == 1
        assert records[0]["scenario"]["name"] == "a"

    def test_newest_duplicate_wins(self, tmp_path):
        stale = _record("exp", "a", 0, {"x": 1.0})
        fresh = _record("exp", "a", 0, {"x": 2.0})
        self._write(tmp_path / "exp" / "a-seed0-old.json", stale, mtime=1_000)
        self._write(tmp_path / "exp" / "a-seed0-new.json", fresh, mtime=2_000)
        records = load_records(tmp_path)
        assert len(records) == 1
        assert records[0]["result"]["x"] == 2.0


class TestEndToEnd:
    GRID = SweepGrid(
        experiments=("section1_latency_budget",),
        scenarios=(
            bernoulli_scenario(0.02, name="iid"),
            gilbert_elliott_scenario(p_good_to_bad=0.05, name="bursty"),
        ),
        seeds=(0, 1),
    )

    def test_digest_results_dir_counts_every_seed(self, tmp_path):
        SweepRunner(results_dir=tmp_path, processes=1).run(self.GRID)
        digest = digest_results_dir(tmp_path)
        assert digest.cell_count == 4
        for experiment in digest.experiments:
            for scenario in experiment.scenarios:
                assert scenario.seeds == (0, 1)
                assert scenario.metrics  # every numeric leaf aggregated
                for aggregate in scenario.metrics.values():
                    assert aggregate.count == 2

    def test_write_report_and_cli(self, tmp_path, capsys):
        SweepRunner(results_dir=tmp_path, processes=1).run(self.GRID)
        digest = digest_results_dir(tmp_path)
        paths = write_report(digest, tmp_path)
        data = json.loads(paths["json"].read_text())
        assert data["cells"] == 4
        assert paths["markdown"].read_text().startswith("# Sweep report")

        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep report" in out and "report.md" in out
        # the written report.json must not be swallowed back in as a cell
        assert digest_results_dir(tmp_path).cell_count == 4

    def test_cli_empty_dir_fails_cleanly(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 1
        assert "no sweep cells" in capsys.readouterr().out


class TestMarkdownEscaping:
    def test_pipe_in_scenario_and_metric_names_escaped(self):
        records = [
            _record("exp", "bursty|2pct", 0, {"a|b": 1.0}),
            _record("exp", "bursty|2pct", 1, {"a|b": 2.0}),
        ]
        md = build_digest(records).render_markdown()
        assert "bursty\\|2pct (n=2)" in md
        assert "`a\\|b`" in md
        # every table row keeps the same column count
        rows = [line for line in md.splitlines() if line.startswith("|")]
        widths = {row.count("|") - row.count("\\|") for row in rows}
        assert len(widths) == 1


class TestFailedCells:
    """Error records are flagged and excluded from aggregation."""

    def _records(self):
        ok = {
            "experiment": "exp",
            "scenario": {"name": "s1"},
            "seed": 0,
            "result": {"metric": 1.0},
        }
        ok2 = dict(ok, seed=1, result={"metric": 3.0})
        bad = {
            "experiment": "exp",
            "scenario": {"name": "s1"},
            "seed": 2,
            "result": None,
            "error": {"type": "ValueError", "message": "x" * 200, "traceback": "tb"},
        }
        return [ok, ok2, bad]

    def test_build_digest_splits_failures(self):
        from repro.analysis.report import build_digest

        digest = build_digest(self._records())
        assert digest.cell_count == 3
        assert len(digest.failed_cells) == 1
        failed = digest.failed_cells[0]
        assert (failed.experiment, failed.scenario, failed.seed) == ("exp", "s1", 2)
        # The failed seed contributes nothing to the aggregate.
        scenario = digest.experiments[0].scenarios[0]
        assert scenario.seeds == (0, 1)
        assert scenario.metrics["metric"].mean == 2.0

    def test_renderers_and_json_flag_failures(self):
        from repro.analysis.report import build_digest

        digest = build_digest(self._records())
        text = digest.render_text()
        assert "FAILED CELLS (1" in text and "ValueError" in text
        markdown = digest.render_markdown()
        assert "Failed cells" in markdown
        assert "..." in markdown  # long messages truncate in listings
        payload = digest.to_jsonable()
        assert payload["failed"] == 1
        assert payload["failed_cells"][0]["error_type"] == "ValueError"

    def test_clean_digest_has_no_failure_sections(self):
        from repro.analysis.report import build_digest

        digest = build_digest(self._records()[:2])
        assert digest.failed_cells == []
        assert "FAILED" not in digest.render_text()
        assert "Failed cells" not in digest.render_markdown()


class TestFailureHotspots:
    """Failures localize along error-type / cell / worker axes."""

    def _records(self):
        def bad(seed, error_type, worker=None, scenario="s1"):
            error = {"type": error_type, "message": "boom", "traceback": "tb"}
            if worker is not None:
                error["worker"] = worker
            return {
                "experiment": "exp",
                "scenario": {"name": scenario},
                "seed": seed,
                "result": None,
                "error": error,
            }

        ok = {
            "experiment": "exp",
            "scenario": {"name": "s1"},
            "seed": 0,
            "result": {"metric": 1.0},
        }
        return [
            ok,
            bad(1, "WorkerLost", worker="w0"),
            bad(2, "WorkerLost", worker="w0", scenario="s2"),
            bad(3, "ValueError"),
        ]

    def test_ranked_along_all_three_axes(self):
        from repro.analysis.report import build_digest

        hotspots = build_digest(self._records()).failure_hotspots()
        assert hotspots["error_type"] == [("WorkerLost", 2), ("ValueError", 1)]
        assert hotspots["cell"] == [("exp / s1", 2), ("exp / s2", 1)]
        # Worker attribution comes from the coordinator's error record;
        # local failures pool under "(local)".
        assert hotspots["worker"] == [("w0", 2), ("(local)", 1)]

    def test_renderers_and_json_carry_hotspots(self):
        from repro.analysis.report import build_digest

        digest = build_digest(self._records())
        markdown = digest.render_markdown()
        assert "### Failure hotspots" in markdown
        assert "| fault class | WorkerLost | 2 |" in markdown
        assert "[worker w0]" in markdown  # listing names the worker too
        text = digest.render_text()
        assert "failure hotspots:" in text
        assert "WorkerLost (2)" in text
        payload = digest.to_jsonable()
        assert payload["failure_hotspots"]["worker"][0] == {"label": "w0", "count": 2}
        attributions = {cell["worker"] for cell in payload["failed_cells"]}
        assert attributions == {"w0", None}

    def test_clean_digest_has_no_hotspot_sections(self):
        from repro.analysis.report import build_digest

        digest = build_digest(self._records()[:1])
        assert digest.failure_hotspots() == {"error_type": [], "cell": [], "worker": []}
        assert "hotspot" not in digest.render_markdown().lower()
        assert "hotspot" not in digest.render_text().lower()
