#!/usr/bin/env python3
"""Run every randomized identity battery and print a summary table.

Usage:
    python3 scripts/run_identity_checks.py [--seed N] [--cases N] [--json]

With --json, prints one JSON object per battery instead of the table:
{"name", "seed", "cases", "seconds", "ok"}. Exits nonzero if any battery
produced a witness.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffalg.selfcheck import CHECKS  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", type=int, default=50)
    ap.add_argument("--json", action="store_true", help="one JSON line per battery")
    args = ap.parse_args()

    failed = False
    width = max(len(n) for n in CHECKS)
    for name, fn in CHECKS.items():
        t0 = time.perf_counter()
        outcome = fn(seed=args.seed, cases=args.cases)
        dt = time.perf_counter() - t0
        failed = failed or not outcome.ok
        if args.json:
            print(json.dumps({"name": name, "seed": args.seed, "cases": outcome.cases,
                              "seconds": round(dt, 4), "ok": outcome.ok}))
            continue
        status = "ok" if outcome.ok else f"FAILED ({len(outcome.failures)})"
        print(f"{name:<{width}}  {outcome.cases:>4} cases  {dt:7.2f}s  {status}")
        for witness in outcome.failures[:3]:
            print(f"    witness: {witness}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
