"""Time the top rung of the cofactor scaling ladder once, for reference.

    python3 perfbench/ladder_top.py

f is the third of three sample_poly draws from one Random(5) (max_terms 4, 8,
16; max_order 3, max_power 2, coeff_degree 2) over Q(t1, t2) with tables
[["1","0"],["0","t2"]] and Context.standard(F, 2); the timed call is
tau_power_cofactor(f, 3). It is far too slow to be a workload.
"""

import pathlib
import sys
import time
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffalg import Context, base_field, tau_power_cofactor  # noqa: E402
from diffalg.sampling import sample_poly  # noqa: E402


def main():
    field = base_field(["t1", "t2"], [["1", "0"], ["0", "t2"]])
    ctx = Context.standard(field, 2)
    rng = Random(5)
    for max_terms in (4, 8, 16):
        f = sample_poly(rng, ctx, max_terms=max_terms, max_order=3, max_power=2,
                        coeff_degree=2)
    start = time.perf_counter()
    p = tau_power_cofactor(f, 3)
    elapsed = time.perf_counter() - start
    print(f"f: {len(f.terms)} terms, order {max(j.op.total for j in f.support())}; "
          f"cofactor: {len(p.terms)} terms; tau_power_cofactor(f, 3): {elapsed:.1f} s")


if __name__ == "__main__":
    main()
