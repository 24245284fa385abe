"""Row counters observed in the same pass that computes a query's result.

``observe_counts`` attaches ``count_if`` counters to one point of a plan
through a :class:`pyspark.sql.Observation`. Spark fills them while the
plan's first action runs, so reading them costs no job.
"""
from __future__ import annotations

from collections.abc import Callable

from py4j.protocol import Py4JJavaError
from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F


def observe_counts(
    df: DataFrame, **conds: Column
) -> tuple[DataFrame, Callable[[], dict[str, int]]]:
    """Count the rows of ``df`` matching each named condition.

    Returns ``df`` with the counters attached, and a reader to call once
    an action has run on a plan that contains it. The reader normally
    runs no job. When the optimizer removed the observed node because
    its input was provably empty (a statically empty relation, or an
    adaptive-execution stage that came out empty), Spark posts no
    metrics for it, and the reader counts ``df`` directly instead. That
    costs one job, but only on such degenerate windows.
    """
    obs = Observation()
    exprs = [F.count_if(c).alias(name) for name, c in conds.items()]
    observed = df.observe(obs, *exprs)

    def read() -> dict[str, int]:
        try:
            row = obs.get
        except Py4JJavaError:  # no metrics posted: the node never ran
            row = df.agg(*exprs).first().asDict()
        return {name: int(row[name]) for name in conds}

    return observed, read
