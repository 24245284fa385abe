"""Benchmark harness: set-up, the measured loop, checks and the result line.

A workload object provides ``setup`` (untimed by the loop, timed as
``setup_s``), ``op`` (one measured operation) and ``layer_metrics``
(per-layer numbers derived from the spans of traced operations). The
harness runs operations back to back, one caller, until ``--seconds``
have passed, checks every output against the workload's reference and
prints one JSON result as the last line of standard output.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import SpanRecorder

#: End-to-end metrics: (name, unit). Every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("work_per_s", "1/s"),
)

#: Per-layer metrics: (name, unit, better). A workload that does not
#: exercise a layer reports 0 for its metrics.
PER_LAYER = (
    ("session.start_s", "s", "lower"),
    ("workloads.gen_s", "s", "lower"),
    ("workloads.records", "count", "lower"),
    ("partition_exec.run_s", "s", "lower"),
    ("partition_exec.jobs", "count", "lower"),
    ("partition_exec.tasks", "count", "lower"),
    ("partition_exec.drained_records", "count", "lower"),
    ("partition_exec.drained_bytes", "bytes", "lower"),
    ("partition_exec.source_partial_rows", "count", "lower"),
    ("pipeline.apply_full_s", "s", "lower"),
    ("executor.execute_s", "s", "lower"),
    ("executor.execute_jobs", "count", "lower"),
    ("executor.execute_tasks", "count", "lower"),
    ("executor.profile_s", "s", "lower"),
    ("executor.profile_jobs", "count", "lower"),
    ("executor.profile_tasks", "count", "lower"),
    ("executor.self_s", "s", "lower"),
    ("executor.epoch_share", "frac", "higher"),
    ("executor.pending_frac", "frac", "lower"),
    ("executor.compute_used_s", "s", "lower"),
    ("executor.drained_mb_per_epoch", "MB", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.probe_epochs", "count", "lower"),
    ("runtime.profile_epochs", "count", "lower"),
    ("runtime.adapt_epochs", "count", "lower"),
    ("runtime.nonstable_epochs", "count", "lower"),
    ("convergence_sim.sweep_s", "s", "lower"),
    ("runtime.scenarios_s", "s", "lower"),
    ("runtime.sim_epochs", "count", "lower"),
    ("lp.solve_us", "us", "lower"),
    ("simulator.sweep_s", "s", "lower"),
    ("strategies.evaluations", "count", "lower"),
    ("spec.measure_s", "s", "lower"),
    ("spec.measure_jobs", "count", "lower"),
    ("experiments.fig7_s", "s", "lower"),
    ("experiments.fig10_s", "s", "lower"),
    ("experiments.fig11_s", "s", "lower"),
    ("experiments.jobs", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

#: Per-layer metrics the harness itself fills in for every workload.
HARNESS_LAYER = {"session.start_s", "workloads.gen_s", "workloads.records", "trace.overhead_frac"}


class Checker:
    """Counts operations attempted and failed (raised or wrong output)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok

    def raised(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{what} raised")
        traceback.print_exc(file=sys.stderr)


@dataclass
class Op:
    """One measured operation, as the workload reports it.

    Attributes:
        latencies: wall time of each user-visible unit (an epoch, a
            table regeneration) inside the operation.
        work: units of work completed (``work_per_s`` numerator).
        counts: exact counts that must repeat for the same seed.
        wall: the operation's measured wall time; the harness times the
            whole call unless the workload sets it (to leave out
            per-operation preparation that is not the user's wait).
    """

    latencies: list[float]
    work: float
    counts: dict = field(default_factory=dict)
    wall: float | None = None
    traced: bool = False


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    return 100.0 * (n - 10) / n, s[n - 11]


def fingerprint(root: Path) -> str:
    """Hash of the benchmark and program sources (keys the count self-check)."""
    h = hashlib.sha256()
    files = sorted((root / "perfbench").rglob("*.py")) + sorted((root / "src").rglob("*.py"))
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def self_check_counts(store: Path, fp: str, counts: dict, checker: Checker) -> None:
    """Exact counts must repeat between runs of the same seed and sources.

    A run whose own checks failed is compared but never becomes the
    baseline.
    """
    counts = json.loads(json.dumps(counts))
    if store.exists():
        prev = json.loads(store.read_text())
        if prev["fingerprint"] == fp:
            checker.check(prev["counts"] == counts, f"counts differ from the earlier run in {store.name}")
            return
    if checker.failed:
        return
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"fingerprint": fp, "counts": counts}, sort_keys=True))


def _untraced_reference(results: Path, workload: str, fp: str) -> float | None:
    """Median op wall time over the earlier untraced runs of this workload."""
    walls = []
    for p in results.glob(f"{workload}-seed*-trace0.json"):
        rec = json.loads(p.read_text())
        if rec.get("fingerprint") == fp:
            walls.extend(rec.get("op_walls", []))
    return statistics.median(walls) if walls else None


def run(workload_name: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    from perfbench import workloads

    work_dir = root / ".perfbench"
    fp = fingerprint(root)
    checker = Checker()
    wl = workloads.make(workload_name, seed=seed, root=root, work_dir=work_dir)
    clock = time.perf_counter
    try:
        t0 = clock()
        setup = wl.setup(checker)
        setup_s = clock() - t0

        ref_wall = _untraced_reference(work_dir / "results", wl.name, fp) if trace else None
        ops: list[Op] = []
        recorder = SpanRecorder(jobs=wl.jobs)
        start = clock()
        while True:
            traced = trace and (ref_wall is not None or any(not o.traced for o in ops))
            # Untraced operations record their measured calls in a
            # throwaway recorder, so the traced one holds traced spans only.
            rec = recorder if traced else SpanRecorder(jobs=wl.jobs)
            mark = len(rec.spans)
            t_op = clock()
            try:
                op = wl.op(checker, rec, len(ops), traced)
            except Exception:  # an operation that raises is a failed operation
                checker.raised(f"{wl.name} op {len(ops)}")
                break
            if op.wall is None:
                op.wall = clock() - t_op
            op.traced = traced
            rec.count_jobs()
            if wl.jobs is not None:
                op.counts["units"] = [[s.name, s.jobs, s.tasks] for s in rec.spans[mark:] if s.parent is None]
            ops.append(op)
            if clock() - start >= seconds and (not trace or any(o.traced for o in ops)):
                break
        if trace and ops and ops[-1].traced:
            wl.after_traced(recorder, checker)
            recorder.count_jobs()
    finally:
        wl.close()

    if ops:
        counts = [o.counts for o in ops]
        checker.check(all(c == counts[0] for c in counts), "exact counts differ between operations of one run")
        self_check_counts(work_dir / "counts" / f"{wl.name}-seed{seed}.json", fp, counts[0], checker)

    untraced = [o for o in ops if not o.traced]
    traced_ops = [o for o in ops if o.traced]
    checker.check(bool(traced_ops if trace else untraced), "no operation completed, so nothing was measured")
    shown = untraced or traced_ops
    lat = [x for o in shown for x in o.latencies]
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fp,
        "spark": wl.spark_info,
        "setup": setup,
        "ops": len(ops),
        "op_walls": [o.wall for o in untraced],
        "ops_failed_frac": checker.failed / max(checker.attempted, 1),
        "failures": checker.messages,
    }
    if lat:
        t = tail(lat)
        report["latency"] = {
            "n": len(lat),
            "p50_s": statistics.median(lat),
            "max_s": max(lat),
            "tail": None if t is None else {"percentile": t[0], "value_s": t[1]},
        }
        report["named"] = wl.named_metrics(shown)

    metrics: dict[str, dict] = {}
    if not trace:
        if untraced:
            values = {
                "setup_s": setup_s,
                "latency_p50_s": statistics.median(lat),
                "work_per_s": sum(o.work for o in untraced) / sum(o.wall for o in untraced),
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    elif traced_ops:
        layer = dict.fromkeys((n for n, _, _ in PER_LAYER), 0.0)
        emitted = wl.layer_metrics(recorder, traced_ops)
        if set(emitted) != wl.layer_names:
            raise KeyError(f"{wl.name} emitted {sorted(emitted)}, declared {sorted(wl.layer_names)}")
        layer.update(emitted)
        layer.update({k: setup[k] for k in HARNESS_LAYER if k in setup})
        base = ref_wall if ref_wall is not None else statistics.median(o.wall for o in untraced)
        layer["trace.overhead_frac"] = statistics.median(o.wall for o in traced_ops) / base - 1.0
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}
        recorder.write(work_dir / "spans" / f"{wl.name}-seed{seed}.jsonl")
    report["metrics"] = {k: v["value"] for k, v in metrics.items()}

    results = work_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def print_report(r: dict) -> None:
    sp = r["spark"]
    print(
        f"perfbench {r['workload']} seed={r['seed']} seconds={r['seconds']} "
        f"trace={r['trace']} master={sp.get('master', '-')} "
        f"driver_memory={sp.get('driver_memory', '-')}"
    )
    print("setup: " + " ".join(f"{k}={v:.4g}" for k, v in r["setup"].items()))
    if "latency" in r:
        lat = r["latency"]
        t = lat["tail"]
        tail_txt = (
            f"p{t['percentile']:.1f}={t['value_s']:.4f}s"
            if t
            else f"n/a (n={lat['n']} < 11, max reported)"
        )
        print(f"latency: n={lat['n']} p50={lat['p50_s']:.4f}s max={lat['max_s']:.4f}s tail {tail_txt}")
        print("named: " + " ".join(f"{k}={v:.6g}" for k, v in r["named"].items()))
    print(f"ops={r['ops']} ops_failed_frac={r['ops_failed_frac']:.4g}")
    for k, v in r["metrics"].items():
        print(f"  {k} = {v:.6g}")
