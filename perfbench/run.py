"""Time-to-verdict benchmark for grassver.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \\
        --trace {0,1}

WORKLOAD is bundle, columns, graph, lattice-q3, or all (each in turn).
The benchmark runs from the root of a grassver checkout and imports the
package from its ``src/`` directory, with whichever kernel backend that
tree provides.  It is a closed loop with one caller: each repetition runs
in a fresh process (``perfbench/worker.py``), one after another, and new
repetitions start until the next one would end after S seconds (there is
always at least one).  Set-up is repeated in set-up-only processes until
there are SETUP_SAMPLES samples.  Every metric is the median over the
run's repetitions.  Times are in reference seconds: each repetition scales
its clock times by the host speed it sampled while it ran
(``worker.SpeedProbe``); the clock times are kept in the run record.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` the run makes one
untraced and one traced repetition and reports the per-layer metrics.
A human-readable summary goes to standard error, and the full record of
the run (header, every repetition, the traced span table) is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from layertrace import LAYERS  # noqa: E402
from worker import SIZES  # noqa: E402

WORKLOADS = tuple(SIZES)
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170  # the whole run, every repetition included

# the layers each workload's traced time should mostly be spent in
MAIN_LAYERS = {"bundle": ("operators", "scalars"),
               "columns": ("geometry", "kernels"),
               "graph": ("geometry", "kernels"),
               "lattice-q3": ("geometry", "kernels")}
E2E_UNITS = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s",
             "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def _spawn(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"{spec['workload']}: repetition exceeded the "
                         f"{RUN_TIMEOUT_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']}: worker exited with "
                         f"{proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # git would search the directories above
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """One benchmark run; returns the full record (see module docstring).

    ``sizes`` overrides the workload's default sizes (``worker.SIZES``);
    the self-tests use it to run at tiny sizes."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    spec = {"workload": workload, "seed": seed, "sizes": sizes or {}}
    reps = []
    if trace:
        reps.append(_spawn(spec, deadline))
        reps.append(_spawn(dict(spec, trace=True), deadline))
    else:
        while True:
            t0 = time.monotonic()
            reps.append(_spawn(spec, deadline))
            if time.monotonic() + (time.monotonic() - t0) > start + seconds:
                break
    setups = [r["setup_s"] for r in reps]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(dict(spec, setup_only=True), deadline)["setup_s"])

    backends = {r["backend"] for r in reps}
    if len(backends) != 1:
        raise BenchError(f"repetitions ran different backends: {backends}")
    main = clock = None
    if trace:
        untraced, traced = reps
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (
            traced["verdict_clock_s"] / untraced["verdict_clock_s"] - 1)
        total = sum(metrics[f"{layer}.self_s"]
                    for layer in LAYERS + ("bench",))
        share = sum(metrics[f"{layer}.self_s"]
                    for layer in MAIN_LAYERS[workload]) / total
        main = {"layers": MAIN_LAYERS[workload], "share": share}
    else:
        metrics = {"setup_s": statistics.median(setups)}
        for name in ("verdict_s", "cpu_s", "peak_rss_mib"):
            metrics[name] = statistics.median(r[name] for r in reps)
        clock = {name: statistics.median(r[name] for r in reps)
                 for name in ("verdict_clock_s", "cpu_clock_s")}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "header": {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "sizes": reps[0]["sizes"],
            "backend": reps[0]["backend"], "version": reps[0]["version"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "repetitions": len(reps),
            "setup_samples": len(setups),
        },
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "check_fail_frac": failed / attempted if attempted else 1.0,
        "main_layers": main,
        "clock": clock,
        "failures": [f for r in reps for f in r["failures"]][:20],
        "setup_samples": setups,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"}
                        for r in reps],
        "spans": reps[-1].get("spans"),
    }


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    field = name.rsplit(".", 1)[1]
    if field in ("self_s", "s"):
        return "s"
    if field in ("hit_ratio", "overhead_frac"):
        return "ratio"
    return "count"


def result_line(record: dict) -> dict:
    """The result line: correct, attempted, failed, metrics."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in record["metrics"].items()},
    }


def _summary(record: dict) -> str:
    h = record["header"]
    lines = [f"[{h['workload']}] backend={h['backend']} "
             f"grassver={h['version']} python={h['python']} "
             f"nproc={h['nproc']} commit={h['commit'][:12]} seed={h['seed']} "
             f"sizes={json.dumps(h['sizes'], sort_keys=True)} "
             f"repetitions={h['repetitions']}"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {_unit(name)}")
    if record["clock"]:
        lines.append("  clock times: " + ", ".join(
            f"{name} = {value:.6g} s"
            for name, value in record["clock"].items()))
    lines.append(f"  check_fail_frac = {record['check_fail_frac']:.6g} "
                 f"({record['failed']}/{record['attempted']} checks)")
    main = record["main_layers"]
    if main:
        verdict = "most" if main["share"] > 0.5 else "NOT most"
        lines.append(f"  main layers {'+'.join(main['layers'])}: "
                     f"{main['share']:.1%} of traced time ({verdict})")
    lines += [f"  FAILED {f}" for f in record["failures"]]
    return "\n".join(lines)


def _write(record: dict) -> None:
    h = record["header"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{h['workload']}-seed{h['seed']}-trace{h['trace']}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "grassver", "__init__.py")):
        print(f"error: no grassver source tree at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            _write(record)
            print(_summary(record), file=sys.stderr, flush=True)
            results[name] = result_line(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
