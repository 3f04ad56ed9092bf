"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are record files written by ``run.py`` or directories of
them (``perfbench/out`` by default holds the latest run of each workload,
seed and trace setting).  For every workload and metric the output gives
each side's median and quartiles over its runs, and the change's median as
a share of the base median.  Two sets that ran different kernel backends
are not comparable: the comparison is refused with exit code 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(path: str) -> list[dict]:
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    records = []
    for name in files:
        with open(name, encoding="utf-8") as f:
            records.append(json.load(f))
    if not records:
        raise SystemExit(f"error: no records under {path}")
    return records


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    backends = {side: {r["header"]["backend"] for r in recs}
                for side, recs in (("base", base), ("change", change))}
    if len(backends["base"] | backends["change"]) != 1:
        print(f"error: refusing to compare different kernel backends: "
              f"{backends}", file=sys.stderr)
        return 2
    print(f"backend={backends['base'].pop()}")

    def group(recs):
        out: dict = {}
        for r in recs:
            key = (r["header"]["workload"], r["header"]["trace"])
            for name, value in r["metrics"].items():
                out.setdefault(key, {}).setdefault(name, []).append(value)
            out[key].setdefault("check_fail_frac", []).append(
                r["check_fail_frac"])
        return out

    a, b = group(base), group(change)
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"{workload} (trace={trace}): base n={len(a[key]['check_fail_frac'])}"
              f", change n={len(b[key]['check_fail_frac'])}")
        for name in a[key]:
            if name not in b[key]:
                continue
            qa, qb = _quartiles(a[key][name]), _quartiles(b[key][name])
            share = f"{qb[1] / qa[1]:.3f}" if qa[1] else "n/a"
            print(f"  {name:45s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  change/base {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
