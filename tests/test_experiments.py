"""Experiment-layer tests: report rendering, table structure, spec memo."""
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.spec import measure_spec
from repro.core import costmodel as cm
from repro.experiments import fig7, fig8, fig10, fig11, opcount, report
from repro.experiments.report import (
    fig8_section,
    md_table,
    opcount_section,
)
from repro.experiments.specs import log_spec, s2s_spec, t2t_spec
from repro.workloads.queries import s2s_query
from tests.spark_jobs import count_jobs

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def same_spec(a, b) -> bool:
    """Field-by-field equality (a spec's arrays defeat dataclass ``==``)."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in fields(a)
    )


def committed_sections() -> dict[str, str]:
    """EXPERIMENTS.md's table sections keyed by heading line.

    ``jobs/build_experiments_md.py`` joins the header and the sections
    with blank lines and ends the file with one newline.
    """
    chunks = EXPERIMENTS_MD.read_text()[:-1].split("\n\n## ")[1:]
    return {("## " + c).split("\n", 1)[0]: "## " + c for c in chunks}


class TestMdTable:
    def test_basic(self):
        s = md_table([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert "| a | b |" in s
        assert "| 1 | x |" in s
        assert s.count("\n") == 4

    def test_column_selection_and_order(self):
        s = md_table([{"a": 1, "b": 2}], ["b", "a"])
        assert s.splitlines()[0] == "| b | a |"

    def test_empty(self):
        assert "no rows" in md_table([])

    def test_missing_cell_blank(self):
        s = md_table([{"a": 1}], ["a", "b"])
        assert "| 1 |  |" in s


class TestFig8Experiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig8.run()

    def test_covers_all_scenarios(self, rows):
        keys = {(r["query"], r["change"], r["mode"]) for r in rows}
        assert len(keys) == 3 * 2 * 3  # 3 queries x 2 changes x 3 modes

    def test_jarvis_always_converges(self, rows):
        for r in rows:
            if r["mode"] == "jarvis":
                assert isinstance(r["epochs_after_detect"], int)
                assert r["epochs_after_detect"] <= 7  # paper: within 7 s

    def test_lp_only_diverges_where_paper_says(self, rows):
        by = {(r["query"], r["change"]): r["epochs_after_detect"]
              for r in rows if r["mode"] == "lp_only"}
        assert by[("s2s", "90%->60% CPU")] == "no-conv"
        assert by[("t2t", "10%->100% CPU")] == "no-conv"

    def test_section_renders(self, rows):
        s = fig8_section(rows)
        assert "T-8" in s and "no-conv" in s


class TestOpcount:
    def test_section_renders(self):
        rows = [{"n_ops": 2, "worst_epochs": 9, "mean_epochs": 5.0, "n_configs": 10}]
        s = opcount_section(rows)
        assert "worst_epochs" in s


class TestSpecMeasurement:
    def test_measured_spec_matches_calibration(self, spark):
        """Spark-measured relay ratios must land near the calibrated
        constants the convergence experiments use."""
        spec = s2s_spec(spark)
        assert spec.relay[0] == pytest.approx(1.0)
        assert spec.relay[1] == pytest.approx(0.86, abs=0.04)
        assert spec.relay[2] < 0.1  # ~20 probes per pair-window at 10x
        assert spec.full_demand_core(26.2) == pytest.approx(0.85, abs=0.03)

    def test_rate_scale_preserves_group_population(self, spark):
        spec = s2s_spec(spark)
        half = spec.with_rate_scale(0.5)
        assert half.offered_mbps == pytest.approx(spec.offered_mbps / 2)
        # Output per window constant => bytes/record doubles.
        assert half.output_bytes_per_record == pytest.approx(
            2 * spec.output_bytes_per_record
        )


class TestSpecMemo:
    """Each spec is measured once per SparkSession and shared read-only."""

    def test_repeat_runs_no_spark_job(self, spark):
        first = s2s_spec(spark)
        again, jobs = count_jobs(spark, lambda: s2s_spec(spark))
        assert jobs == 0
        assert again is first

    def test_cached_spec_equals_fresh_measurement(self, spark):
        bundle = s2s_query(spark, n_sources=4, peers_per_source=60, n_windows=3,
                           probes_per_pair_per_window=20)
        fresh, jobs = count_jobs(
            spark, lambda: measure_spec(bundle, cm.s2s_costs(), cm.PINGMESH_RATE_MBPS_10X)
        )
        assert jobs > 0  # measure_spec itself is not cached
        assert same_spec(s2s_spec(spark), fresh)

    def test_arguments_key_distinct_entries(self, spark):
        base = s2s_spec(spark)
        half = s2s_spec(spark, scale=5.0)
        assert half is not base and half is s2s_spec(spark, scale=5.0)
        assert half.offered_mbps == pytest.approx(base.offered_mbps / 2)
        small, big = t2t_spec(spark, table_size=500), t2t_spec(spark, table_size=5000)
        assert big is not small and big is t2t_spec(spark, table_size=5000)
        assert big.cost_us[2] > small.cost_us[2]
        assert log_spec(spark) is not base


class TestTablesMatchExperimentsMd:
    """T-7, T-10 and T-11 regenerate byte-identical to EXPERIMENTS.md."""

    @pytest.mark.parametrize("fig", [fig7, fig10, fig11], ids=["T-7", "T-10", "T-11"])
    def test_section_unchanged(self, spark, fig):
        name = fig.__name__.rsplit(".", 1)[1]
        rendered = getattr(report, f"{name}_section")(fig.run(spark))
        assert rendered == committed_sections()[rendered.split("\n", 1)[0]]
