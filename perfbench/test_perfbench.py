"""Tests of the benchmark's own machinery (no Spark session needed).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import expmd, harness  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class FakeJobs:
    """Job groups with preset own-job counts."""

    def __init__(self, own: dict[int, int]) -> None:
        self.own = own
        self.n = 0
        self.depth = 0

    def push(self) -> str:
        g = str(self.n)
        self.n += 1
        self.depth += 1
        return g

    def pop(self) -> None:
        self.depth -= 1

    def count(self, group: str) -> tuple[int, int]:
        j = self.own.get(int(group), 0)
        return j, 10 * j


# -- spans ------------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    rec = SpanRecorder(clock=FakeClock())
    with rec.span("a"):
        with rec.span("b"):
            pass
        with rec.span("c"):
            pass
    a, b, c = rec.spans
    assert [s.name for s in rec.spans] == ["a", "b", "c"]
    assert b.parent == 0 and c.parent == 0 and a.parent is None
    assert rec.covered(0) == (b.closed - b.start) + (c.closed - c.start)
    assert rec.self_time(0) == a.duration - rec.covered(0)
    assert rec.self_time(1) == b.duration


def test_children_never_cover_more_than_duration():
    rng = random.Random(3)
    rec = SpanRecorder(clock=FakeClock())

    def nest(depth: int) -> None:
        for _ in range(rng.randint(0, 3)):
            with rec.span(f"d{depth}"):
                if depth < 4:
                    nest(depth + 1)

    for _ in range(20):
        with rec.span("root"):
            nest(0)
    for i, s in enumerate(rec.spans):
        assert 0.0 <= rec.covered(i) <= s.duration
        assert rec.self_time(i) >= 0.0


def test_job_counts_roll_up_to_parents():
    jobs = FakeJobs({0: 1, 1: 2, 2: 4})
    rec = SpanRecorder(jobs=jobs, clock=FakeClock())
    with rec.span("epoch"):
        with rec.span("execute"):
            with rec.span("run_partitioned"):
                pass
    rec.count_jobs()
    assert [(s.jobs, s.tasks) for s in rec.spans] == [(7, 70), (6, 60), (4, 40)]
    assert jobs.depth == 0


def test_count_jobs_refuses_open_span():
    rec = SpanRecorder(jobs=FakeJobs({}), clock=FakeClock())
    with rec.span("open"):
        with pytest.raises(RuntimeError):
            rec.count_jobs()


def test_spans_written_once_as_json_lines(tmp_path):
    rec = SpanRecorder(clock=FakeClock())
    with rec.span("a", "op0") as s:
        s.attrs["drained_records"] = 5
    out = tmp_path / "spans.jsonl"
    rec.write(out)
    (line,) = out.read_text().splitlines()
    row = json.loads(line)
    assert row["name"] == "a" and row["op"] == "op0" and row["drained_records"] == 5


# -- statistics -------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond():
    assert harness.tail([1.0] * 10) is None
    pct, v = harness.tail([float(i) for i in range(20)])
    assert pct == 50.0 and v == 9.0  # ten samples (10..19) lie above it


# -- correctness references catch wrong results -----------------------------------
def test_experiments_sections_round_trip_and_catch_a_changed_byte():
    secs = expmd.sections(ROOT / "EXPERIMENTS.md")
    t7 = next(v for k, v in secs.items() if k.startswith("## T-7 "))
    assert expmd.matches(secs, t7)
    assert not expmd.matches(secs, t7.replace("|", "!", 1))
    assert not expmd.matches(secs, t7 + "\n")


def test_checker_counts_failures():
    c = harness.Checker()
    c.check(True, "fine")
    c.check(False, "wrong result")
    assert (c.attempted, c.failed) == (2, 1)


def test_wrong_epoch_counts_are_caught(tmp_path):
    from perfbench.wl_epoch import EpochLoop

    wl = EpochLoop(seed=1, root=ROOT, work_dir=tmp_path)
    wl.windows, wl.ref, wl.consumed = [0, 1], {0: (100, 7), 1: (100, 9)}, 0
    c = harness.Checker()
    obs = SimpleNamespace(arrived=np.array([100.0]), output_rows=7.0)
    wl._check_epoch(c, "right window", obs, windows=1)  # consumes window 0
    wl._check_epoch(c, "profile reads the next two", obs, windows=2)  # ends on window 0
    wl._check_epoch(c, "wrong rows", obs, windows=1)  # window 1 has 9 rows
    assert (c.attempted, c.failed) == (3, 1)


def test_wrong_lp_and_sweep_results_are_caught():
    from perfbench.control import check_sweep, fixed_specs, lp_ok, sweep

    sol = SimpleNamespace(compute_per_record=1.0, drained_frac=0.5)
    assert lp_ok(sol, 1.0, 0.5)
    assert not lp_ok(sol, 0.9, 0.5)  # over budget
    assert not lp_ok(sol, 1.0, 0.4)  # worse than the grid optimum

    specs = fixed_specs()
    rows = sweep(specs)
    c = harness.Checker()
    check_sweep(c, specs, rows, "right")
    assert c.failed == 0
    for r in rows["s2s"]:
        if r["strategy"] == "Jarvis":
            r["throughput_mbps"] = 0.0
    check_sweep(c, specs, rows, "wrong")
    assert c.failed == 1


def test_count_self_check(tmp_path):
    store = tmp_path / "counts.json"
    c = harness.Checker()
    harness.self_check_counts(store, "fp1", {"jobs": [24, 43]}, c)
    harness.self_check_counts(store, "fp1", {"jobs": [24, 43]}, c)
    harness.self_check_counts(store, "fp1", {"jobs": [24, 44]}, c)
    assert (c.attempted, c.failed) == (2, 1)
    harness.self_check_counts(store, "fp2", {"jobs": [1]}, c)  # new sources: new baseline
    assert c.failed == 1


def test_failed_run_sets_no_count_baseline(tmp_path):
    store = tmp_path / "counts.json"
    c = harness.Checker()
    c.check(False, "wrong result")
    harness.self_check_counts(store, "fp1", {"jobs": [24, 44]}, c)
    assert not store.exists()


# -- BENCHMARK.json and the command-line contract ----------------------------------
def test_benchmark_json_matches_the_harness():
    from perfbench.workloads import make

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(harness.PER_LAYER)
    layer = {n for n, _, _ in harness.PER_LAYER}
    for w in bench["workloads"]:
        wl = make(w["name"], seed=1, root=ROOT, work_dir=ROOT / ".perfbench")
        assert wl.layer_names <= layer - harness.HARNESS_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
