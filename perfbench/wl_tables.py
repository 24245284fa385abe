"""tables: one warm session regenerates the Spark-measured tables.

One operation measures the S2S spec of a seeded trace with a direct
``measure_spec`` call, then regenerates T-7, T-10 and T-11 through
``repro.experiments.figN.run`` and renders them with
``report.figN_section``; only the regeneration of the three tables is
timed. Each rendered section must equal the committed
EXPERIMENTS.md section byte for byte, and the measured spec must equal
one computed by DuckDB from the same trace. The traced run adds one
control-plane pass (``perfbench.control``) for the control layers.
"""
from __future__ import annotations

import statistics
import time

import duckdb
import numpy as np

from perfbench import control, expmd
from perfbench.harness import Op
from perfbench.spans import SpanRecorder
from perfbench.workloads import Workload
from repro.cluster.spec import measure_spec
from repro.core import costmodel as cm
from repro.experiments import fig7, fig10, fig11, report
from repro.workloads.pingmesh import pingmesh_trace_pandas
from repro.workloads.queries import S2S_ORACLE_SQL, s2s_query

#: The S2S trace ``specs.s2s_spec`` measures at the 10x rate.
SPEC_TRACE = {"n_sources": 4, "peers_per_source": 60, "n_windows": 3, "probes_per_pair_per_window": 20}
FIGS = ("fig7", "fig10", "fig11")
#: Regenerations in set-up. Measured on a 4-core machine, four in a row
#: took 13.4, 9.9, 8.5 and 8.6 s: the third is the first on the flat part.
WARMUP_REGENS = 2


class Tables(Workload):
    name = "tables"
    layer_names = frozenset(
        {
            "spec.measure_s",
            "spec.measure_jobs",
            "experiments.fig7_s",
            "experiments.fig10_s",
            "experiments.fig11_s",
            "experiments.jobs",
        }
    ) | control.LAYER_NAMES

    def setup(self, checker) -> dict:
        self.start_spark()
        with self.timed("reference_s"):
            md = expmd.sections(self.root / "EXPERIMENTS.md")
            self.expected = {k: v for k, v in md.items() if k.startswith(("## T-7 ", "## T-10 ", "## T-11 "))}
            pdf = pingmesh_trace_pandas(seed=self.seed, **SPEC_TRACE)
            con = duckdb.connect()
            try:
                con.register("probes", pdf)
                n_f = con.execute("SELECT count(*) FROM probes WHERE err_code = 0").fetchone()[0]
                n_g = con.execute(f"SELECT count(*) FROM ({S2S_ORACLE_SQL})").fetchone()[0]
            finally:
                con.close()
            n_in = len(pdf)
            # Pipeline.measure_relay_ratios / measure_spec, from DuckDB counts.
            self.ref_relay = np.clip(np.array([1.0, n_f / n_in, n_g / n_f]), 0.0, 1.0)
            self.ref_out_bpr = cm.s2s_costs().output_bytes * n_g / n_in
        checker.check(len(self.expected) == 3, "EXPERIMENTS.md lacks a T-7, T-10 or T-11 section")
        # Spark's driver keeps getting faster over the first tables (JIT
        # compilation of query planning); the warm-up regenerations take
        # the steep part of that curve out of the timings.
        with self.timed("warmup_s"):
            for _ in range(WARMUP_REGENS):
                self.op(checker, SpanRecorder(), -1, False)
        return dict(self._timings)

    def op(self, checker, rec, k: int, traced: bool) -> Op:
        name = f"regen{k}" if k >= 0 else "warm-up"
        with rec.span("workloads.s2s_query", name):
            bundle = s2s_query(self.spark, seed=self.seed, **SPEC_TRACE)
        with rec.span("spec.measure_spec", name):
            spec = measure_spec(bundle, cm.s2s_costs(), cm.PINGMESH_RATE_MBPS_10X)
        checker.check(
            np.array_equal(spec.relay, self.ref_relay) and spec.output_bytes_per_record == self.ref_out_bpr,
            f"{name}: measured spec relay {spec.relay} differs from reference {self.ref_relay}",
        )
        # Only the table regeneration is the user's wait: the direct
        # measure_spec call above feeds the per-layer spec metrics.
        mods = {"fig7": fig7, "fig10": fig10, "fig11": fig11}
        rendered = {}
        t0 = time.perf_counter()
        for fig in FIGS:
            with rec.span(f"experiments.{fig}", name):
                rendered[fig] = getattr(report, f"{fig}_section")(mods[fig].run(self.spark))
        wall = time.perf_counter() - t0
        for fig, text in rendered.items():
            checker.check(expmd.matches(self.expected, text), f"{name}: {fig} section differs from EXPERIMENTS.md")
        return Op(latencies=[wall], work=len(FIGS), counts={"relay": [float(v) for v in spec.relay]}, wall=wall)

    def after_traced(self, rec, checker) -> None:
        """One control-plane pass, for the control layers' metrics."""
        self.control_layer = control.traced_pass(checker, rec, self.seed, self.root / "EXPERIMENTS.md")

    def named_metrics(self, ops: list[Op]) -> dict:
        return {"tables_s": statistics.median(x for o in ops for x in o.latencies)}

    def layer_metrics(self, rec, ops: list[Op]) -> dict:
        def med(name: str, attr: str = "duration") -> float:
            return statistics.median(getattr(rec.spans[i], attr) for i in rec.named(name))

        fig_spans = [i for fig in FIGS for i in rec.named(f"experiments.{fig}")]
        return {
            "spec.measure_s": med("spec.measure_spec"),
            "spec.measure_jobs": med("spec.measure_spec", "jobs"),
            "experiments.fig7_s": med("experiments.fig7"),
            "experiments.fig10_s": med("experiments.fig10"),
            "experiments.fig11_s": med("experiments.fig11"),
            "experiments.jobs": sum(rec.spans[i].jobs for i in fig_spans) / len(ops),
            **self.control_layer,
        }
