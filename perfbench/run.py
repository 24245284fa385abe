"""Benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload epoch_loop_s2s --seed 1 --seconds 10 --trace 0

Prints a human-readable report, then one JSON result as the last line
of standard output. Exits non-zero without a result when the program's
sources or EXPERIMENTS.md are missing, or when set-up fails.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in ("src/repro", "EXPERIMENTS.md") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: cannot run, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
