"""Quick self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

Runs a few operations of each workload through the same checks as a full
run, then shows that a corrupted cofactor and a corrupted line of CLI output
are each counted as failed. Exits 1 if any of that does not hold.
"""

from __future__ import annotations

import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

FEW = 4


def few_ops(wl):
    ops = wl.make_round(0)
    if isinstance(wl, workloads.Cli):
        # two goldens, one error document, every command on one document
        docs = [op for op in ops if op.payload[0] == "doc"]
        return ops[:2] + wl.errors[:1] + docs[:2 * len(workloads.COMMANDS)]
    return ops[:FEW]


def main() -> int:
    problems = []

    def report(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    made = []
    try:
        kept = {}
        for cls in (workloads.Batteries, workloads.Cofactor, workloads.Cli):
            wl = cls(0)
            made.append(wl)
            ops = few_ops(wl)
            results = [wl.run(op) for op in ops]
            failed, correct = run.check(wl, ops, results)
            known = sum(op.fault for op in ops)
            report(correct and failed == known,
                   f"{cls.__name__}: {len(ops)} operations, {failed} failed, "
                   f"all {known} known faults among them")
            kept[cls] = (wl, ops, results)

        wl, ops, results = kept[workloads.Cofactor]
        bad = results[0] + wl.ctx.one()
        failed, correct = run.check(wl, ops[:1], [bad])
        report(failed == 1 and not correct, "a cofactor plus 1 is counted as failed")

        wl, ops, results = kept[workloads.Cli]
        i = next(i for i, op in enumerate(ops) if op.label == "tau-text")
        code, out, err, exc = results[i]
        lines = out.splitlines()
        lines[1] += " + 1"  # 'tau f1: ...' becomes tau f1 + 1
        bad = (code, "\n".join(lines) + "\n", err, exc)
        failed, correct = run.check(wl, [ops[i]], [bad])
        report(failed == 1 and not correct,
               "a tau line of CLI output plus 1 is counted as failed")
    finally:
        for wl in made:
            run.close(wl)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
