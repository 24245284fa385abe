"""epoch_loop_s2s: the Jarvis runtime drives Spark epochs over S2S windows.

Closed loop, one caller: each epoch's load factors depend on the last
observation. One operation is an *episode*: a fresh
``JarvisRuntime(mode="jarvis")`` runs the Startup probe, a Profile epoch
and three Adapt epochs against a fresh ``SparkEpochExecutor`` over the
cached trace, with the budget following Fig. 8's first change
(10% -> 90%). Every episode consumes the same windows with the same
split seeds, so its phases, job counts and drained bytes repeat exactly.
"""
from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from unittest import mock

import duckdb
import numpy as np
from pyspark.sql import functions as F

from perfbench.harness import Op
from perfbench.spans import SpanRecorder
from perfbench.workloads import Workload
from repro.core import executor as executor_mod
from repro.core.executor import SparkEpochExecutor
from repro.core.partition_exec import drained_bytes, run_partitioned
from repro.core.proxy import QueryState
from repro.core.runtime import JarvisRuntime, Phase
from repro.workloads.pingmesh import pingmesh_trace_pandas
from repro.workloads.queries import S2S_ORACLE_SQL, s2s_query

#: 4 sources x 60 peers x 160 probes = 38,400 records per 10-s window:
#: the paper's 10x per-source epoch (cm.pingmesh_records_per_sec(10)
#: is 38,081), large enough that a 10% budget binds.
TRACE = {"n_sources": 4, "peers_per_source": 60, "probes_per_pair_per_window": 160}
#: Windows in the trace; the executor cycles through them, so one
#: window serves every epoch.
N_WINDOWS = 1
#: Budget (fraction of one core) of each epoch of an episode: the
#: Startup probe, a Profile epoch, then three Adapt epochs once the
#: budget rises (Fig. 8's first change).
EPISODE_BUDGETS = (0.10, 0.10, 0.90, 0.90, 0.90)
#: The set-up's warm-up episodes: one epoch of each phase, then a whole
#: episode. Measured on a 4-core machine, the per-episode epoch median
#: falls by 7-15% from the first whole episode to the second and by
#: 1-5% after that, and the first one differs most between processes.
WARMUP = (EPISODE_BUDGETS[:3], EPISODE_BUDGETS)
#: Non-stable epochs before Profile. The paper uses 3; 1 fits a whole
#: Probe -> Profile -> Adapt cycle into three epochs.
DETECT_EPOCHS = 1


class TracedExecutor:
    """Delegates to the Spark executor, recording one span per call."""

    def __init__(self, inner, rec, op: str) -> None:
        self._inner = inner
        self._rec = rec
        self._op = op

    def execute(self, p):
        with self._rec.span("executor.execute", self._op):
            return self._inner.execute(p)

    def profile(self):
        with self._rec.span("executor.profile", self._op):
            return self._inner.profile()


class EpochLoop(Workload):
    name = "epoch_loop_s2s"
    layer_names = frozenset(
        {
            "partition_exec.run_s",
            "partition_exec.jobs",
            "partition_exec.tasks",
            "partition_exec.drained_records",
            "partition_exec.drained_bytes",
            "partition_exec.source_partial_rows",
            "pipeline.apply_full_s",
            "executor.execute_s",
            "executor.execute_jobs",
            "executor.execute_tasks",
            "executor.profile_s",
            "executor.profile_jobs",
            "executor.profile_tasks",
            "executor.self_s",
            "executor.epoch_share",
            "executor.pending_frac",
            "executor.compute_used_s",
            "executor.drained_mb_per_epoch",
            "runtime.self_s",
            "runtime.probe_epochs",
            "runtime.profile_epochs",
            "runtime.adapt_epochs",
            "runtime.nonstable_epochs",
        }
    )

    # -- set-up -------------------------------------------------------------------
    def setup(self, checker) -> dict:
        self.start_spark()
        with self.timed("workloads.gen_s"):
            bundle = s2s_query(self.spark, n_windows=N_WINDOWS, seed=self.seed, **TRACE)
            self.df = bundle.input_df.cache()
            n = self.df.count()
        self.pipeline = bundle.pipeline
        with self.timed("reference_s"):
            pdf = pingmesh_trace_pandas(n_windows=N_WINDOWS, seed=self.seed, **TRACE)
            con = duckdb.connect()
            try:
                con.register("probes", pdf)
                arrived = dict(
                    con.execute(
                        "SELECT CAST(FLOOR(ts_s / 10) AS BIGINT), count(*) FROM probes GROUP BY 1"
                    ).fetchall()
                )
                rows = dict(
                    con.execute(
                        f"SELECT window_id, count(*) FROM ({S2S_ORACLE_SQL}) GROUP BY 1"
                    ).fetchall()
                )
            finally:
                con.close()
        # The executor cycles the trace's windows in ascending order.
        self.windows = sorted(arrived)
        self.ref = {w: (arrived[w], rows.get(w, 0)) for w in self.windows}
        checker.check(n == len(pdf), f"Spark trace has {n} records, reference {len(pdf)}")
        # Spark's driver keeps getting faster over the first episodes (JIT
        # compilation of query planning); the warm-up episodes take the
        # steep part of that curve out of the timings.
        with self.timed("warmup_s"):
            for i, budgets in enumerate(WARMUP):
                self._episode(checker, SpanRecorder(), f"warm-up{i}", False, budgets)
        return {**self._timings, "workloads.records": n}

    def _new_executor(self) -> None:
        """A fresh executor: window cursor and split seeds start over."""
        old = getattr(self, "executor", None)
        self.executor = SparkEpochExecutor(
            self.df, self.pipeline, budget_core=EPISODE_BUDGETS[0], seed=self.seed
        )
        if old is not None:
            old.df.unpersist()
        self.consumed = 0

    def _check_epoch(self, checker, label: str, obs, windows: int) -> None:
        """The epoch saw the unpartitioned counts of the window it consumed."""
        self.consumed += windows
        w = self.windows[(self.consumed - 1) % len(self.windows)]
        want = self.ref[w]
        got = (float(obs.arrived[0]), float(obs.output_rows))
        checker.check(
            got == (float(want[0]), float(want[1])),
            f"{label}: window {w} gave arrived/output rows {got}, reference {want}",
        )

    # -- one episode ----------------------------------------------------------------
    def op(self, checker, rec, k: int, traced: bool) -> Op:
        return self._episode(checker, rec, f"episode{k}", traced, EPISODE_BUDGETS)

    def _episode(self, checker, rec, name: str, traced: bool, budgets) -> Op:
        self._new_executor()  # outside the epoch timings (see Op.wall)
        ex = TracedExecutor(self.executor, rec, name) if traced else self.executor
        rt = JarvisRuntime(ex, self.pipeline.n_ops, mode="jarvis", detect_epochs=DETECT_EPOCHS)
        patch = (
            mock.patch.object(executor_mod, "run_partitioned", self._traced_run(rec, name))
            if traced
            else nullcontext()
        )
        latencies, epochs = [], []
        with patch:
            for i, budget in enumerate(budgets):
                self.executor.budget_core = budget
                t0 = time.perf_counter()
                with rec.span("runtime.run_epoch", f"{name}/epoch{i}"):
                    r = rt.run_epoch()
                latencies.append(time.perf_counter() - t0)
                profile = r.phase is Phase.PROFILE
                self._check_epoch(checker, f"{name} epoch {i} ({r.phase.value})", r.obs, 2 if profile else 1)
                epochs.append(
                    {
                        "phase": r.phase.value,
                        "state": r.state.value,
                        "nonstable": r.state is not QueryState.STABLE,
                        "p": [float(v) for v in r.p],
                        "arrived": float(r.obs.arrived[0]),
                        "output_rows": float(r.obs.output_rows),
                        "drained_bytes": float(r.obs.drained_bytes),
                        "pending_frac": float(np.max(r.obs.pending_frac)),
                        "compute_used": float(r.obs.compute_used),
                    }
                )
        return Op(
            latencies=latencies,
            work=len(latencies),
            counts={"epochs": epochs},
            wall=sum(latencies),
        )

    def _traced_run(self, rec, name: str):
        def traced(df, pipeline, p, **kw):
            with rec.span("partition_exec.run_partitioned", name) as s:
                run = run_partitioned(df, pipeline, p, **kw)
            s.attrs.update(
                drained_records=sum(run.drained_counts),
                drained_bytes=drained_bytes(
                    run, pipeline, drain_overhead=self.executor.drain_overhead
                ),
                source_partial_rows=run.source_partial_rows,
            )
            return run

        return traced

    def after_traced(self, rec, checker) -> None:
        """Time the unpartitioned query on one window: the data path's floor."""
        w = self.windows[0]
        win = self.df.filter(F.floor(F.col("ts_s") / 10) == w)
        with rec.span("pipeline.apply_full", "reference"):
            n = self.pipeline.apply_full(win).count()
        checker.check(n == self.ref[w][1], f"apply_full on window {w}: {n} rows, reference {self.ref[w][1]}")

    # -- metrics ----------------------------------------------------------------------
    def named_metrics(self, ops: list[Op]) -> dict:
        lat = [x for o in ops for x in o.latencies]
        epochs = [e for o in ops for e in o.counts["epochs"]]
        return {
            "epoch_p50_s": statistics.median(lat),
            "epoch_max_s": max(lat),
            "epochs_per_s": len(lat) / sum(o.wall for o in ops),
            "drained_mb_per_epoch": statistics.fmean(e["drained_bytes"] for e in epochs) / 1e6,
        }

    def layer_metrics(self, rec, ops: list[Op]) -> dict:
        def med(name: str, attr: str) -> float:
            return statistics.median(getattr(rec.spans[i], attr) for i in rec.named(name))

        execs = rec.named("executor.execute") + rec.named("executor.profile")
        parts = rec.named("partition_exec.run_partitioned")
        run_epochs = rec.named("runtime.run_epoch")
        epochs = [e for o in ops for e in o.counts["epochs"]]
        n_ops = len(ops)

        def per_episode_attr(key: str) -> float:
            return sum(rec.spans[i].attrs[key] for i in parts) / n_ops

        def per_episode_phase(phase: str) -> float:
            return sum(e["phase"] == phase for e in epochs) / n_ops

        return {
            "partition_exec.run_s": med("partition_exec.run_partitioned", "duration"),
            "partition_exec.jobs": med("partition_exec.run_partitioned", "jobs"),
            "partition_exec.tasks": med("partition_exec.run_partitioned", "tasks"),
            "partition_exec.drained_records": per_episode_attr("drained_records"),
            "partition_exec.drained_bytes": per_episode_attr("drained_bytes"),
            "partition_exec.source_partial_rows": per_episode_attr("source_partial_rows"),
            "pipeline.apply_full_s": med("pipeline.apply_full", "duration"),
            "executor.execute_s": med("executor.execute", "duration"),
            "executor.execute_jobs": med("executor.execute", "jobs"),
            "executor.execute_tasks": med("executor.execute", "tasks"),
            "executor.profile_s": med("executor.profile", "duration"),
            "executor.profile_jobs": med("executor.profile", "jobs"),
            "executor.profile_tasks": med("executor.profile", "tasks"),
            "executor.self_s": sum(rec.self_time(i) for i in execs) / len(epochs),
            "executor.epoch_share": sum(rec.spans[i].duration for i in execs)
            / sum(rec.spans[i].duration for i in run_epochs),
            "executor.pending_frac": statistics.fmean(e["pending_frac"] for e in epochs),
            "executor.compute_used_s": statistics.fmean(e["compute_used"] for e in epochs),
            "executor.drained_mb_per_epoch": statistics.fmean(e["drained_bytes"] for e in epochs) / 1e6,
            "runtime.self_s": statistics.median(rec.self_time(i) for i in run_epochs),
            "runtime.probe_epochs": per_episode_phase("probe"),
            "runtime.profile_epochs": per_episode_phase("profile"),
            "runtime.adapt_epochs": per_episode_phase("adapt"),
            "runtime.nonstable_epochs": sum(e["nonstable"] for e in epochs) / n_ops,
        }
