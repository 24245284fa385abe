"""Spark job counting for tests that pin how many jobs a call runs."""
import time
import uuid


def count_jobs(spark, fn):
    """Run ``fn`` in a fresh job group; return (its result, Spark jobs run)."""
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    # The status store is fed by an asynchronous listener: re-read until
    # two reads agree.
    prev = None
    for _ in range(200):
        n = len(tracker.getJobIdsForGroup(group))
        if n == prev:
            return out, n
        prev = n
        time.sleep(0.05)
    raise RuntimeError(f"job count of group {group} never settled")
