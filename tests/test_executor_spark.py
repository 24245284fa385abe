"""Epoch accounting of the Spark executors.

Every executor bills an epoch through ``executor.account_epoch``: when
the compute budget binds, the overflow (pending) records are
force-drained and ship like planned drains, so the network bytes count
them too.
"""
import numpy as np
import pytest

from repro.core import costmodel as cm
from repro.core.executor import SparkEpochExecutor, account_epoch
from repro.streaming.pushdown import _BatchExecutor
from repro.workloads.queries import s2s_query

P = np.array([1.0, 0.8, 0.6])


@pytest.fixture(scope="module")
def s2s(spark):
    b = s2s_query(spark, n_sources=2, peers_per_source=20, n_windows=1)
    b.input_df.cache().count()
    return b


def billed_bytes(obs, stage_bytes):
    """(planned, overflow) drain bytes, each billed by the shared rule."""
    planned = cm.drain_bytes(obs.arrived - obs.forwarded, stage_bytes, cm.DRAIN_OVERHEAD)
    overflow = cm.drain_bytes(obs.forwarded - obs.processed, stage_bytes, cm.DRAIN_OVERHEAD)
    return planned, overflow


def spark_executor(s2s, budget):
    return SparkEpochExecutor(s2s.input_df, s2s.pipeline, budget)


def stream_executor(s2s, budget):
    ex = _BatchExecutor(s2s.pipeline, budget)
    ex.batch_df = s2s.input_df
    return ex


EXECUTORS = pytest.mark.parametrize("make", [spark_executor, stream_executor], ids=["spark", "stream"])


class TestAccountEpoch:
    def test_congested_epoch_bills_pending(self):
        fwd = np.array([100.0, 50.0])
        obs = account_epoch(
            fwd + [0.0, 50.0], fwd, np.array([0.0, 50.0]), np.array([10.0, 10.0]),
            np.array([80.0, 40.0]), budget_s=0.75e-3, drain_overhead=1.5,
        )
        # Demand 1.5 ms against 0.75 ms: half of each forward is pending.
        assert obs.processed == pytest.approx([50.0, 25.0])
        assert obs.drained == pytest.approx([50.0, 75.0])
        assert obs.drained_bytes == pytest.approx(50 * 80 + 75 * 40 * 1.5)
        assert obs.compute_used == pytest.approx(0.75e-3)


class TestSparkExecutorBilling:
    @EXECUTORS
    def test_congested_window_bills_force_drains(self, s2s, make):
        obs = make(s2s, 0.0002).execute(P)  # ~1 ms of demand
        planned, overflow = billed_bytes(obs, s2s.pipeline.stage_bytes)
        assert np.min(obs.pending_frac[obs.forwarded > 0]) > 0.5
        assert planned > 0 and overflow > 0
        assert obs.drained_bytes == pytest.approx(planned + overflow, rel=1e-12)

    @EXECUTORS
    def test_ample_budget_bills_planned_drains(self, s2s, make):
        obs = make(s2s, 10.0).execute(P)
        planned, overflow = billed_bytes(obs, s2s.pipeline.stage_bytes)
        assert overflow == 0.0
        assert obs.drained_bytes == pytest.approx(planned, rel=1e-12)
