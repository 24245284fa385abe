"""Run one workload on several seeds and report the spread of each metric.

Usage (from the repository root):

    python3 perfbench/steady.py --workload tables --seeds 1-10

Every run is untraced and measures ``run_seconds`` from BENCHMARK.json,
as a comparison does. For every end-to-end metric it prints the median of the runs, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and that spread against the
metric's ``bound`` in BENCHMARK.json. A run that fails or prints an
incorrect result is reported and counted.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    walls: list[float] = []
    bad = 0
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if res is None or not res["correct"]:
            bad += 1
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        row = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: wall={walls[-1]:.1f}s attempted={res['attempted']} " + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        b = bounds.get(k)
        verdict = "" if b is None else f" bound={b} {'ok' if spread <= b / 3 else 'OVER a third of bound'}"
        print(f"{k}: n={len(vs)} median={med:.6g} iqr/median={spread:.4f}{verdict}")
    print(f"failed runs: {bad}; run wall time median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
