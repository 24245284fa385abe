"""Lossless data-level partitioned query execution on Spark.

This is the reproduction's core: the control-proxy data path.  Given a
window of records tagged by ``source_id`` and a load-factor vector
``p`` (one entry per operator), each proxy forwards a deterministic
``p_i`` fraction of its operator's input to the *local* (source-side)
operator and **drains** the rest to the stream processor, where a
replicated copy of the remaining pipeline finishes the work.  Partial
aggregates from both sides merge into the final result.

Proxy ``i`` keeps a record when the bucket of
``xxhash64(record_id, i, seed)`` lies below ``p_i`` (:func:`hash_sample`),
so runs are deterministic and the per-stage splits are mutually
independent.  Every stateless operator carries ``record_id`` through,
so a record's fate at every proxy can be evaluated anywhere in the
plan, and the plan is one linear pass:

* **One pass.** The stateless prefix runs once over the whole window.
  A stateless operator gives the same output on the source as on the
  stream processor's replica, so the two shares need no branches.
* **Observed counters.** An :class:`~pyspark.sql.Observation` at proxy
  ``i``'s input counts ``taken = reached_i & keep_i`` and
  ``drained = reached_i & ~keep_i``, where ``reached_i`` means "kept by
  proxies ``0..i-1``": the record is still on the source.
* **Side-keyed partial.** The terminal G+R groups its partial aggregate
  by its keys plus a side column (source when every proxy kept the
  record). That yields exactly the source's and the stream processor's
  partial rows; an observation counts the source's, and ``merge``
  combines both sides.
* **One action.** ``run_partitioned`` counts the merged result; the
  counters come from the observations of that same pass.

Mapping to Spark: data sources are stream partitions; source-side
operators are narrow, pre-shuffle transformations; the partial
aggregate's exchange and the final merge are the shuffle.  For *any*
``p`` the merged output equals the unpartitioned query — the oracle
tests pin this invariant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core import costmodel as cm
from repro.core.observe import observe_counts
from repro.core.operators import RECORD_ID
from repro.core.pipeline import Pipeline

#: Hash-bucket resolution for load-factor splits (1e6 buckets ≈ 1e-6 p
#: granularity, far finer than the runtime's 1/16 grid).
HASH_BUCKETS = 1_000_000

#: Side column of the terminal G+R partial: true for source-side rows.
_SOURCE_SIDE = "__source_side"


@dataclass(frozen=True)
class PartitionedRun:
    """Outcome of one partitioned window execution.

    Attributes:
        result: final merged query output (equals the unpartitioned run).
        taken_counts: records processed locally per operator.
        drained_counts: records drained at each proxy (index = operator).
        source_partial_rows: partial-aggregate rows shipped by the source
            (0 when the pipeline has no terminal G+R or ``p_M`` = 0).
        output_rows: rows of ``result``, counted by the run's one action.
    """

    result: DataFrame
    taken_counts: tuple[int, ...]
    drained_counts: tuple[int, ...]
    source_partial_rows: int
    output_rows: int


def hash_sample(p: float, *salt: int) -> Column:
    """Deterministic Bernoulli(p) predicate on ``record_id``.

    True when ``pmod(xxhash64(record_id, *salt), HASH_BUCKETS)`` lies
    below ``p``'s share of the buckets. Proxy ``i`` salts with
    ``(i, seed)``; the WSP synopsis with ``(seed,)``.
    """
    h = F.xxhash64(F.col(RECORD_ID), *(F.lit(s) for s in salt))
    return F.pmod(h, F.lit(HASH_BUCKETS)) < F.lit(int(round(p * HASH_BUCKETS)))


def run_partitioned(
    df: DataFrame,
    pipeline: Pipeline,
    p: np.ndarray | list[float],
    *,
    seed: int = 0,
) -> PartitionedRun:
    """Execute ``pipeline`` on ``df`` under load-factor vector ``p``.

    Runs one Spark action (the count of the merged result); every proxy
    counter is observed in that pass.

    Args:
        df: one window (or epoch) of input records; must carry
            ``record_id``.
        pipeline: validated operator chain.
        p: load factor per operator, each in [0, 1]. ``p=1`` everywhere
            is All-Src; ``p=0`` everywhere is All-SP.
        seed: split seed — different seeds re-randomize proxy splits.

    Returns:
        PartitionedRun with the merged result and drain accounting.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (pipeline.n_ops,):
        raise ValueError(
            f"p has shape {p.shape}, expected ({pipeline.n_ops},) for "
            f"pipeline {pipeline.name}"
        )
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("load factors must lie in [0, 1]")
    if RECORD_ID not in df.columns:
        raise ValueError(f"input must carry a '{RECORD_ID}' column")

    gr = pipeline.terminal_group_reduce
    readers = []
    reached = F.lit(True)  # still on the source: kept by every proxy so far
    cur = df
    for i, op in enumerate(pipeline.ops):
        keep = hash_sample(float(p[i]), i, seed)
        cur, read = observe_counts(cur, taken=reached & keep, drained=reached & ~keep)
        readers.append(read)
        reached = reached & keep
        if op is not gr:
            cur = op.apply(cur)

    if gr is None:
        # Pure stateless pipeline: the final records are the prefix output.
        result, read_partial = cur, None
    else:
        partial = gr.partial(cur.withColumn(_SOURCE_SIDE, reached), _SOURCE_SIDE)
        partial, read_partial = observe_counts(partial, source=F.col(_SOURCE_SIDE))
        result = gr.merge(partial)

    output_rows = int(result.count())
    counts = [read() for read in readers]
    return PartitionedRun(
        result=result,
        taken_counts=tuple(c["taken"] for c in counts),
        drained_counts=tuple(c["drained"] for c in counts),
        source_partial_rows=read_partial()["source"] if read_partial else 0,
        output_rows=output_rows,
    )


def drained_bytes(
    run: PartitionedRun, pipeline: Pipeline, *, drain_overhead: float = 1.0
) -> float:
    """Network bytes shipped by the drain paths of one window
    (``costmodel.drain_bytes`` of its drained counts)."""
    return cm.drain_bytes(run.drained_counts, pipeline.stage_bytes, drain_overhead)
