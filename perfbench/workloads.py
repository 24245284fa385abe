"""Workload registry and the pieces every workload shares."""
from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from perfbench.spans import SpanRecorder


class Workload:
    """Base class: a workload without Spark.

    Subclasses set ``name`` and ``layer_names`` (the per-layer metrics
    they emit) and implement ``setup``, ``op``, ``layer_metrics`` and
    ``named_metrics``. ``op(checker, rec, k, traced)`` records each
    measured call as a top-level span in ``rec`` (the harness counts its
    Spark jobs after the operation); only a traced operation adds spans
    inside those calls.
    """

    name = ""
    layer_names: frozenset[str] = frozenset()

    def __init__(self, *, seed: int, root: Path, work_dir: Path) -> None:
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.spark = None
        self.jobs = None
        self.spark_info = {"master": "none", "driver_memory": "none"}
        self._timings: dict[str, float] = {}

    # -- set-up helpers ---------------------------------------------------------
    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._timings[key] = self._timings.get(key, 0.0) + time.perf_counter() - t0

    def start_spark(self) -> None:
        from perfbench import sparkenv

        with self.timed("session.start_s"):
            self.spark = sparkenv.start_session(f"perfbench-{self.name}", self.work_dir)
        self.jobs = sparkenv.JobCounter(self.spark.sparkContext)
        self.spark_info = {"master": self.spark.sparkContext.master, "driver_memory": sparkenv.driver_memory()}

    def close(self) -> None:
        if self.spark is not None:
            from perfbench.sparkenv import stop_session

            spark, self.spark = self.spark, None
            stop_session(spark)

    # -- hooks --------------------------------------------------------------------
    def after_traced(self, rec: SpanRecorder, checker) -> None:
        """Extra traced calls made once after the last traced operation."""


def make(name: str, **kw) -> Workload:
    from perfbench.wl_epoch import EpochLoop
    from perfbench.wl_tables import Tables

    classes = {c.name: c for c in (EpochLoop, Tables)}
    if name not in classes:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(classes)}")
    return classes[name](**kw)
