"""Shared workload-spec construction for the experiments.

Relay ratios and output sizes are *measured* from Spark executions of
the synthetic traces (the oracle-checked pipelines); costs come from the
calibrated model.  One moderate-size trace per query is enough — relay
ratios are rate-independent (per-record probabilities).

Each spec is measured once per ``SparkSession``: the traces are seeded,
so a repeat measurement would return the same spec.  A repeat request
for the same query, ``scale`` and ``table_size`` in the same session
returns the first (read-only) :class:`WorkloadSpec` without a Spark job;
the first request in a session always measures.
"""
from __future__ import annotations

from functools import cache

from pyspark.sql import SparkSession

from repro.core import costmodel as cm
from repro.cluster.spec import WorkloadSpec, measure_spec
from repro.workloads.queries import log_query, s2s_query, t2t_query


def s2s_spec(spark: SparkSession, *, scale: float = 10.0) -> WorkloadSpec:
    return _s2s_spec(spark, scale)


def t2t_spec(
    spark: SparkSession, *, table_size: int = 500, scale: float = 10.0
) -> WorkloadSpec:
    return _t2t_spec(spark, table_size, scale)


def log_spec(spark: SparkSession, *, scale: float = 10.0) -> WorkloadSpec:
    return _log_spec(spark, scale)


# The caches hold each session for the life of the process; a session
# started after ``spark.stop()`` is a new key and measures afresh.
@cache
def _s2s_spec(spark: SparkSession, scale: float) -> WorkloadSpec:
    # Probe density tracks the rate scale: at 10x, ~20 probes per pair
    # per window over a fixed pair population (see pingmesh_trace).
    b = s2s_query(spark, n_sources=4, peers_per_source=60, n_windows=3,
                  probes_per_pair_per_window=max(2, int(2 * scale)))
    return measure_spec(b, cm.s2s_costs(), cm.PINGMESH_RATE_MBPS_10X * scale / 10.0)


@cache
def _t2t_spec(spark: SparkSession, table_size: int, scale: float) -> WorkloadSpec:
    b = t2t_query(
        spark, n_sources=4, peers_per_source=60, n_windows=3, table_size=table_size,
        probes_per_pair_per_window=max(2, int(2 * scale)),
    )
    return measure_spec(
        b, cm.t2t_costs(table_size), cm.PINGMESH_RATE_MBPS_10X * scale / 10.0
    )


@cache
def _log_spec(spark: SparkSession, scale: float) -> WorkloadSpec:
    b = log_query(spark, n_sources=4, lines_per_source_window=150, n_windows=3)
    return measure_spec(b, cm.log_costs(), cm.LOG_RATE_MBPS_10X * scale / 10.0)


def all_strategies():
    from repro.strategies.best_op import BestOp
    from repro.strategies.jarvis import Jarvis
    from repro.strategies.lb_dp import LoadBalanceDP
    from repro.strategies.static import AllSP, AllSrc, FilterSrc

    return [AllSP(), AllSrc(), FilterSrc(), BestOp(), LoadBalanceDP(), Jarvis()]
