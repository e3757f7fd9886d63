"""The diffalg benchmark. Run from the repository root:

    python3 perfbench/run.py --workload cofactor --seed 1 --seconds 20 --trace 0

One process, one operation at a time (a closed loop with one client). The
run sets up (package import, the workload's inputs, one untimed warm-up
operation), then works through whole rounds of the workload's fixed
operation list until --seconds of operation time have passed, then checks
every output. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs one round
untraced, then the same round again with wrappers on diffalg's layers,
reports the per-layer totals of that round, and writes them with every span
and the tracing overhead to perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("batteries", "cofactor", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the package, make the workload and its first round, and run
    one untimed warm-up operation on inputs of its own."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = {"batteries": workloads.Batteries, "cofactor": workloads.Cofactor,
          "cli": workloads.Cli}[name](seed)
    first = wl.make_round(0)
    wl.run(wl.warmup_op())
    return wl, first


def time_set_up(args) -> float:
    """Median wall time, over SETUP_SAMPLES fresh interpreters, from process
    start to the point where the first timed operation would begin."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(samples)


def check(wl, ops, results):
    """(failed, correct): every operation whose output fails its check
    counts as failed; correct is False when any of them is not a known
    fault."""
    verdicts = wl.check(ops, results)
    failed = [op for op, ok in zip(ops, verdicts) if not ok]
    return len(failed), all(op.fault for op in failed)


def timed_run(args, wl, ops, setup_s):
    """Whole rounds until args.seconds of round time have passed. Each
    round's operations and outputs are pickled to disk between rounds, so
    memory does not grow with the number of rounds."""
    rounds_dir = OUT / f"rounds-{args.workload}-{args.seed}"
    rounds_dir.mkdir(parents=True, exist_ok=True)
    durations = []
    timed = 0.0
    rounds = 0
    try:
        while True:
            results = []
            round_start = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                results.append(wl.run(op))
                durations.append(time.perf_counter() - t0)
            timed += time.perf_counter() - round_start
            with open(rounds_dir / f"{rounds}.pickle", "wb") as fh:
                pickle.dump((ops, results), fh)
            del results
            rounds += 1
            if timed >= args.seconds:
                break
            ops = wl.make_round(rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct = 0, True
        for r in range(rounds):
            with open(rounds_dir / f"{r}.pickle", "rb") as fh:
                round_failed, round_correct = check(wl, *pickle.load(fh))
            failed += round_failed
            correct = correct and round_correct
    finally:
        shutil.rmtree(rounds_dir)
    metrics = {
        "ops_per_s": len(durations) / timed,
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": statistics.quantiles(durations, n=10)[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{args.workload}: {rounds} rounds, {len(durations)} operations, "
          f"{timed:.2f} s timed, {failed} failed")
    return correct, len(durations), failed, {
        name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(args, wl, ops):
    import tracing

    start = time.perf_counter()
    for op in ops:
        wl.run(op)
    untraced_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        results = [tracer.run_op(i, wl.run, op) for i, op in enumerate(ops)]
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    failed, correct = check(wl, ops, results)
    overhead = traced_s / untraced_s - 1
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "operations": [op.label for op in ops],
                        "untraced_s": untraced_s, "traced_s": traced_s,
                        "overhead": overhead})
    print(f"{args.workload}: one round of {len(ops)} operations, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s, overhead {overhead:+.1%}; spans in {path.relative_to(ROOT)}")
    values = tracer.metrics()
    return correct, len(ops), failed, {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in tracing.metric_names()}


def close(wl):
    if hasattr(wl, "close"):
        wl.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diffalg" / "__init__.py").is_file():
        print(f"error: no diffalg package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        wl, _ = set_up(args.workload, args.seed)
        try:
            print("ready", flush=True)
        finally:
            close(wl)
        return 0
    setup_s = None if args.trace else time_set_up(args)
    wl, ops = set_up(args.workload, args.seed)
    try:
        if args.trace:
            correct, attempted, failed, metrics = traced_run(args, wl, ops)
        else:
            correct, attempted, failed, metrics = timed_run(args, wl, ops, setup_s)
    finally:
        close(wl)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
