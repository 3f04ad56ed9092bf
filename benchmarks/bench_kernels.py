"""Benchmark the row-reduction kernels.

Prints microseconds per call for each kernel of ``grassver.kernels`` and
for ``gf.extend_rows`` (extend a canonical basis by one row).

Usage: python3 benchmarks/bench_kernels.py [--reps N]
"""

from __future__ import annotations

import argparse
import random
import time

from grassver.gf import extend_rows
from grassver.kernels import rank2, rankp, rref2, rrefp


def bench(fn, args_list, reps):
    """Microseconds per call of fn over args_list."""
    t0 = time.perf_counter()
    for _ in range(reps):
        for args in args_list:
            fn(*args)
    return (time.perf_counter() - t0) / (reps * len(args_list)) * 1e6


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=200)
    opts = parser.parse_args()

    rng = random.Random(12345)
    gf2_cases = [
        ([rng.getrandbits(20) for _ in range(8)],) for _ in range(200)
    ]
    gfp_cases = [
        ([tuple(rng.randrange(3) for _ in range(10)) for _ in range(6)], 3)
        for _ in range(200)
    ]
    # the same inputs split into a canonical basis of the first rows and
    # one more row
    gf2_extend = [(rref2(rows[:-1]), rows[-1], 2) for (rows,) in gf2_cases]
    gfp_extend = [(rrefp(rows[:-1], q), rows[-1], q)
                  for rows, q in gfp_cases]

    workloads = [
        ("rref2 (GF(2), 8x20)", rref2, gf2_cases),
        ("rank2 (GF(2), 8x20)", rank2, gf2_cases),
        ("extend_rows (GF(2), 7+1 rows)", extend_rows, gf2_extend),
        ("rrefp (GF(3), 6x10)", rrefp, gfp_cases),
        ("rankp (GF(3), 6x10)", rankp, gfp_cases),
        ("extend_rows (GF(3), 5+1 rows)", extend_rows, gfp_extend),
    ]

    print(f"reps={opts.reps}  (us per call)")
    for title, fn, cases in workloads:
        print(f"{title:30s} {bench(fn, cases, opts.reps):.2f}us")


if __name__ == "__main__":
    main()
