"""The central correctness property of the reproduction:

    For ANY load-factor vector p, the merged output of the data-level
    partitioned execution equals the unpartitioned query — verified
    against DuckDB, not against Spark itself.

This is the paper's accuracy claim versus data synopses (§VI-D): query
partitioning reduces network traffic *without* touching the result.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.partition_exec import drained_bytes, run_partitioned
from repro.core.pipeline import Pipeline
from repro.oracle import assert_equivalent
from repro.workloads.queries import log_query, s2s_query, t2t_query
from tests.spark_jobs import count_jobs


@pytest.fixture(scope="module")
def s2s(spark):
    b = s2s_query(spark, n_sources=3, peers_per_source=25, n_windows=2)
    b.input_df.cache().count()
    return b


@pytest.fixture(scope="module")
def t2t(spark):
    b = t2t_query(spark, n_sources=3, peers_per_source=25, n_windows=2)
    b.input_df.cache().count()
    return b


@pytest.fixture(scope="module")
def logq(spark):
    b = log_query(spark, n_sources=3, lines_per_source_window=60, n_windows=2)
    b.input_df.cache().count()
    return b


class TestOracleEquivalenceS2S:
    @pytest.mark.parametrize(
        "p",
        [
            [0.0, 0.0, 0.0],  # All-SP
            [1.0, 1.0, 1.0],  # All-Src
            [1.0, 1.0, 0.0],  # Filter-Src-like (drain all G+R input)
            [1.0, 1.0, 0.5],  # data-level partial G+R
            [0.5, 0.5, 0.5],
            [0.25, 1.0, 0.75],
            [1.0, 0.0, 1.0],  # drain everything mid-pipeline
            [0.8, 0.8, 0.8],  # the LP's balanced subset plan
        ],
    )
    def test_any_p_matches_oracle(self, s2s, p):
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.array(p))
        assert_equivalent(run.result, s2s.oracle_sql, **s2s.oracle_tables)

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_any_split_seed_matches_oracle(self, s2s, seed):
        run = run_partitioned(
            s2s.input_df, s2s.pipeline, np.array([0.6, 0.6, 0.6]), seed=seed
        )
        assert_equivalent(run.result, s2s.oracle_sql, **s2s.oracle_tables)


class TestOracleEquivalenceT2T:
    @pytest.mark.parametrize(
        "p",
        [
            [0.0] * 5,
            [1.0] * 5,
            [1.0, 1.0, 0.0, 0.0, 0.0],  # operator-level F-only
            [1.0, 1.0, 0.5, 1.0, 0.3],  # partial join + partial G+R
            [0.7, 0.4, 0.9, 0.2, 0.6],
        ],
    )
    def test_any_p_matches_oracle(self, t2t, p):
        run = run_partitioned(t2t.input_df, t2t.pipeline, np.array(p))
        assert_equivalent(run.result, t2t.oracle_sql, **t2t.oracle_tables)

    def test_bigger_static_table_same_result(self, spark, t2t):
        big = t2t_query(
            spark, n_sources=3, peers_per_source=25, n_windows=2, table_size=5000
        )
        run = run_partitioned(big.input_df, big.pipeline, np.array([1, 1, 0.5, 1, 0.5]))
        assert_equivalent(run.result, big.oracle_sql, **big.oracle_tables)


class TestOracleEquivalenceLog:
    @pytest.mark.parametrize(
        "p",
        [
            [0.0] * 4,
            [1.0] * 4,
            [1.0, 1.0, 1.0, 0.4],
            [1.0, 0.9, 0.2, 0.8],
            [0.3, 0.3, 0.3, 0.3],
        ],
    )
    def test_any_p_matches_oracle(self, logq, p):
        run = run_partitioned(logq.input_df, logq.pipeline, np.array(p))
        assert_equivalent(run.result, logq.oracle_sql, **logq.oracle_tables)


class TestAccounting:
    def test_all_src_drains_nothing(self, s2s):
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.ones(3))
        assert run.drained_counts == (0, 0, 0)
        assert run.source_partial_rows > 0

    def test_all_sp_takes_nothing(self, s2s):
        n = s2s.input_df.count()
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.zeros(3))
        assert run.drained_counts[0] == n
        assert run.taken_counts == (0, 0, 0)
        assert run.source_partial_rows == 0

    def test_split_fractions_respected(self, s2s):
        n = s2s.input_df.count()
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.array([0.5, 1.0, 1.0]))
        assert run.taken_counts[0] / n == pytest.approx(0.5, abs=0.08)

    def test_seed_changes_split_not_result_size(self, s2s):
        p = np.array([0.5, 1.0, 1.0])
        a = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=1)
        b = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=2)
        assert a.taken_counts != b.taken_counts or a.drained_counts != b.drained_counts
        assert a.result.count() == b.result.count()

    def test_deterministic_same_seed(self, s2s):
        p = np.array([0.5, 0.5, 0.5])
        a = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=9)
        b = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=9)
        assert a.taken_counts == b.taken_counts
        assert a.drained_counts == b.drained_counts

    def test_drained_bytes_overhead(self, s2s):
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.array([1.0, 1.0, 0.0]))
        raw = run.drained_counts[2] * 86.0
        assert drained_bytes(run, s2s.pipeline, drain_overhead=1.5) == pytest.approx(
            raw * 1.5
        )
        # Stage-0 drains are bulk: overhead never applies.
        run0 = run_partitioned(s2s.input_df, s2s.pipeline, np.zeros(3))
        n = run0.drained_counts[0]
        assert drained_bytes(run0, s2s.pipeline, drain_overhead=1.5) == pytest.approx(
            n * 86.0
        )


class TestValidation:
    def test_wrong_p_length(self, s2s):
        with pytest.raises(ValueError, match="shape"):
            run_partitioned(s2s.input_df, s2s.pipeline, np.ones(2))

    def test_p_out_of_range(self, s2s):
        with pytest.raises(ValueError, match="0, 1"):
            run_partitioned(s2s.input_df, s2s.pipeline, np.array([1.5, 0, 0]))

    def test_missing_record_id(self, spark, s2s):
        bad = s2s.input_df.drop("record_id")
        with pytest.raises(ValueError, match="record_id"):
            run_partitioned(bad, s2s.pipeline, np.ones(3))


class TestDataLevelVsOperatorLevel:
    def test_partial_processing_reduces_drains(self, s2s):
        """Fig. 3's point: processing part of G+R's input shrinks the
        drain versus draining all of it (operator-level)."""
        op_level = run_partitioned(
            s2s.input_df, s2s.pipeline, np.array([1.0, 1.0, 0.0])
        )
        data_level = run_partitioned(
            s2s.input_df, s2s.pipeline, np.array([1.0, 1.0, 0.8])
        )
        assert data_level.drained_counts[2] < op_level.drained_counts[2]
        assert drained_bytes(data_level, s2s.pipeline) < drained_bytes(
            op_level, s2s.pipeline
        )


# --------------------------------------------------------------------------
# Counters: pinned against branch-per-proxy counting, one action per run
# --------------------------------------------------------------------------
def branch_counts(df, pipeline, p, seed):
    """Reference counters from one filtered branch per proxy.

    The straightforward plan: walk the source side proxy by proxy,
    counting with separate ``count()`` actions the records that reach
    each proxy and the share it drains, then the source's partial
    aggregate rows. The split predicate is spelled out here rather than
    shared, so a change to the hash would show.

    Returns (reached, drained, source_partial_rows).
    """
    def keep(i):
        h = F.xxhash64(F.col("record_id"), F.lit(i), F.lit(seed))
        return F.pmod(h, F.lit(1_000_000)) < F.lit(int(round(p[i] * 1_000_000)))

    reached, drained = [], []
    local = df
    for i, op in enumerate(pipeline.ops):
        reached.append(local.count())
        drained.append(local.filter(~keep(i)).count())
        local = local.filter(keep(i))
        if op is not pipeline.terminal_group_reduce:
            local = op.apply(local)
    gr = pipeline.terminal_group_reduce
    partial_rows = gr.partial(local).count() if gr is not None else 0
    return tuple(reached), tuple(drained), partial_rows


def _load_factors(kind, n_ops, seed):
    if kind == "zero":
        return np.zeros(n_ops)
    if kind == "one":
        return np.ones(n_ops)
    if kind == "graded":
        return np.linspace(0.9, 0.3, n_ops)
    return np.random.default_rng(seed).uniform(size=n_ops)


class TestCounterPinning:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kind", ["zero", "one", "graded", "random"])
    @pytest.mark.parametrize("query", ["s2s", "t2t", "logq"])
    def test_counters_match_branch_counting(self, request, query, kind, seed):
        b = request.getfixturevalue(query)
        p = _load_factors(kind, b.pipeline.n_ops, seed)
        run = run_partitioned(b.input_df, b.pipeline, p, seed=seed)
        reached, drained, partial_rows = branch_counts(b.input_df, b.pipeline, p, seed)
        assert run.drained_counts == drained
        assert tuple(t + d for t, d in zip(run.taken_counts, run.drained_counts)) == reached
        assert run.source_partial_rows == partial_rows
        assert run.output_rows == b.pipeline.apply_full(b.input_df).count()

    def test_stateless_pipeline(self, s2s):
        """Without a G+R the result is the prefix output, split or not."""
        pl = Pipeline(name="wf", ops=s2s.pipeline.ops[:2])
        p = np.array([0.7, 0.4])
        run = run_partitioned(s2s.input_df, pl, p, seed=3)
        reached, drained, _ = branch_counts(s2s.input_df, pl, p, 3)
        assert run.drained_counts == drained
        assert tuple(t + d for t, d in zip(run.taken_counts, run.drained_counts)) == reached
        assert run.source_partial_rows == 0
        ids = sorted(r[0] for r in run.result.select("record_id").collect())
        assert ids == sorted(r[0] for r in pl.apply_full(s2s.input_df).select("record_id").collect())
        assert run.output_rows == len(ids)


class TestSinglePass:
    @pytest.mark.parametrize("query", ["s2s", "t2t", "logq"])
    def test_run_is_one_count_of_its_plan(self, spark, request, query):
        """The counters add no job: a whole run costs at most what one
        more count of its result costs."""
        b = request.getfixturevalue(query)
        p = np.linspace(0.9, 0.3, b.pipeline.n_ops)
        run, run_jobs = count_jobs(spark, lambda: run_partitioned(b.input_df, b.pipeline, p))
        _, read_jobs = count_jobs(spark, lambda: (run.taken_counts, run.drained_counts, run.source_partial_rows))
        rows, count_jobs_ = count_jobs(spark, run.result.count)
        assert read_jobs == 0
        assert run.output_rows == rows
        assert 0 < run_jobs <= count_jobs_

    @pytest.mark.parametrize("query", ["s2s", "t2t"])
    def test_stage_counts_is_one_count_of_the_query(self, spark, request, query):
        b = request.getfixturevalue(query)
        counts, jobs = count_jobs(spark, lambda: b.pipeline.stage_counts(b.input_df))
        n_out, full_jobs = count_jobs(spark, b.pipeline.apply_full(b.input_df).count)
        assert counts[-1] == n_out
        assert 0 < jobs <= full_jobs


# --------------------------------------------------------------------------
# Degenerate windows: empty, filtered to nothing, every row fails F
# --------------------------------------------------------------------------
def _degenerate(spark, s2s, kind):
    if kind == "empty":
        return spark.createDataFrame([], s2s.input_df.schema)
    if kind == "filtered_to_nothing":
        return s2s.input_df.filter("record_id < 0")
    return s2s.input_df.withColumn("err_code", F.lit(1))


class TestDegenerateWindows:
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("kind", ["empty", "filtered_to_nothing", "all_fail_filter"])
    def test_run_partitioned(self, spark, s2s, kind, p):
        df = _degenerate(spark, s2s, kind)
        load = np.full(3, p)
        run = run_partitioned(df, s2s.pipeline, load)
        reached, drained, partial_rows = branch_counts(df, s2s.pipeline, load, 0)
        assert run.output_rows == 0
        assert run.result.count() == 0
        assert run.drained_counts == drained
        assert tuple(t + d for t, d in zip(run.taken_counts, run.drained_counts)) == reached
        # Nothing reaches the G+R, so its proxy and the partial count zero.
        assert (run.taken_counts[2], run.drained_counts[2], run.source_partial_rows) == (0, 0, 0)
        assert partial_rows == 0
        if kind != "all_fail_filter":
            assert run.taken_counts == run.drained_counts == (0, 0, 0)

    @pytest.mark.parametrize("kind", ["empty", "filtered_to_nothing", "all_fail_filter"])
    def test_stage_counts(self, spark, s2s, kind):
        df = _degenerate(spark, s2s, kind)
        n = df.count()
        assert s2s.pipeline.stage_counts(df) == (n, n, 0, 0)
        assert s2s.pipeline.measure_relay_ratios(df) == pytest.approx([1.0, 0.0 if n else 1.0, 1.0])
