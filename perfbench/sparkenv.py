"""The benchmark's Spark session, and a job and task counter.

The session is the program's own (``repro.session.get_session``: 64
shuffle partitions, broadcast joins off) driven from this one process.
The master is pinned to ``local[N]`` with N = min(4, usable cores), and
the driver memory follows the tier-1 rule: ``SPARK_DRIVER_MEM`` when
set, otherwise half the machine's RAM in GiB, clamped to 2..8 GiB. All
scratch space (Spark local dirs, JVM and Python temp files) lives under
the benchmark's work directory inside the checkout.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time

MAX_CORES = 4


def cores() -> int:
    return max(1, min(MAX_CORES, len(os.sched_getaffinity(0))))


def driver_memory() -> str:
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return f"{min(8, max(2, ram // (2 << 30)))}g"


def start_session(app: str, work_dir):
    """Start the program's SparkSession with the pinned master and memory.

    Must run before anything in the process has started a JVM: the
    driver memory and JVM options are read at JVM launch.
    """
    tmp = work_dir / "tmp"
    local = work_dir / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # for the JVM's child processes
    tempfile.tempdir = str(tmp)  # pyspark's own temp files
    # Every JVM Spark starts (the launcher too): temp files here, no
    # hsperfdata files.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_MASTER"] = f"local[{cores()}]"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--driver-memory", shlex.quote(driver_memory()),
            "--conf", shlex.quote(f"spark.local.dir={local}"),
            "--conf", shlex.quote(f"spark.sql.warehouse.dir={work_dir / 'warehouse'}"),
            "--conf", "spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    from repro.session import get_session

    spark = get_session(app)
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    try:
        spark.stop()
    finally:
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)


class JobCounter:
    """Counts Spark jobs and tasks per job group.

    ``push`` gives the caller a fresh job group (nested groups restore
    the enclosing one on ``pop``); ``count`` reads the group's jobs from
    ``statusTracker().getJobIdsForGroup`` and sums ``numTasks`` over the
    distinct stages of those jobs. Spark's status store is fed by an
    asynchronous listener, so ``count`` re-reads until two reads agree.
    """

    def __init__(self, sc, prefix: str = "perfbench") -> None:
        self._sc = sc
        self._prefix = prefix
        self._next = 0
        self._stack: list[str] = []

    def push(self) -> str:
        group = f"{self._prefix}-{self._next}"
        self._next += 1
        self._stack.append(group)
        self._sc.setJobGroup(group, group)
        return group

    def pop(self) -> None:
        self._stack.pop()
        if self._stack:
            self._sc.setJobGroup(self._stack[-1], self._stack[-1])
        else:
            self._sc.setLocalProperty("spark.jobGroup.id", None)

    def count(self, group: str) -> tuple[int, int]:
        tracker = self._sc.statusTracker()
        prev = None
        for _ in range(200):
            cur = self._read(tracker, group)
            if cur == prev:
                return cur
            prev = cur
            time.sleep(0.02)
        raise RuntimeError(f"job counts of group {group} never settled")

    @staticmethod
    def _read(tracker, group: str) -> tuple[int, int]:
        jobs = tracker.getJobIdsForGroup(group)
        stages: set[int] = set()
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        tasks = 0
        for s in stages:
            info = tracker.getStageInfo(s)
            if info is not None:
                tasks += info.numTasks
        return len(jobs), tasks
