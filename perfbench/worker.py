"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, the seed, the workload sizes, whether to
trace, whether to stop after set-up, and the CLOCK_MONOTONIC time at which
the parent spawned this process (so set-up time includes interpreter start
and ``import grassver``).  The last line of standard output is one JSON
object with the repetition's timings, its check counts and, when traced,
the per-layer metrics.

An untraced repetition's times are also given in reference seconds: a
``SpeedProbe`` times a fixed loop every few milliseconds while it runs, and
each interval's time is scaled by how fast the loop ran in it (see
``SpeedProbe``).

Every check is compared with its expected outcome by a ``Gate``.  A check
whose verdict differs, or whose computation raises, is counted as failed;
the run goes on.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# workload -> default sizes; the self-tests pass smaller ones
SIZES = {
    "bundle": {},
    "columns": {"columns": 6},
    "graph": {"bfs_sources": 1, "bfs_targets": 64},
    "lattice-q3": {},
}

COLUMN_RELATIONS = tuple(f"REL-{t}" for t in range(1, 9)) + ("REL-8P",)
BUNDLE_CHECKS = 82
LATTICE_ARGV = ["verify", "--suite", "geometry", "--q", "3", "--n", "5",
                "--k", "2"]
LATTICE_CHECKS = 3


class Gate:
    """Counts checks and the ones whose verdict is not the expected one.

    Every check is expected to pass unless its id is in
    ``expected_failures`` (the self-tests use that to force a wrong
    expectation).
    """

    def __init__(self, expected_failures=frozenset()):
        self.expected_failures = frozenset(expected_failures)
        self.verdicts: dict[str, bool] = {}  # check id -> passed
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    def check(self, check_id: str, passed: bool, why: str = "") -> None:
        if check_id in self.verdicts:  # keep every check, even if ids repeat
            check_id = f"{check_id}#{len(self.verdicts)}"
        self.verdicts[check_id] = passed
        if passed == (check_id in self.expected_failures):
            want = "fail" if passed else "pass"
            self.failures.append(f"{check_id}: expected {want} {why}".strip())

    def raised(self, check_ids, exc: BaseException) -> None:
        for cid in check_ids:
            self.verdicts[cid] = False
            self.failures.append(f"{cid}: raised {exc!r}")


# ---------------------------------------------------------------------------
# workloads: setup(seed, sizes) -> state, then checks(state, gate).
# grassver is imported inside the functions: run.py imports this module
# for SIZES without putting src/ on the path.


def _sample_kspaces(ctx, count, rng, meet=None):
    """``count`` distinct k-spaces of ctx drawn by ``rng`` (rows), among
    those meeting y in ``meet`` dimensions when given."""
    from grassver import gf

    pool = [u.rows for u in gf.enumerate_subspaces(ctx.n, ctx.k, ctx.q)
            if meet is None or ctx.intersection_dim_with_y(u.rows) == meet]
    return rng.sample(pool, count)


def _setup_cli(seed, sizes):
    return {"out": os.path.join(ROOT, "perfbench", "out",
                                f".records-{os.getpid()}.ndjson")}


def _cli_checks(state, gate, argv, expected_count, resolution=None):
    """Run the CLI in process and gate each check record it writes."""
    from grassver import cli

    out = state["out"]
    os.makedirs(os.path.dirname(out), exist_ok=True)
    try:
        cli.main(argv + ["--format", "records", "--out", out])
        with open(out, encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
    except Exception as exc:  # a crash fails every check not yet written
        gate.raised([f"check#{t}" for t in range(expected_count)], exc)
        return
    finally:
        if os.path.exists(out):
            os.remove(out)
    for t in range(max(expected_count, len(records))):
        if t >= len(records):
            gate.check(f"check#{t}", False, "(missing)")
            continue
        rec = records[t]
        cid = (f"{rec['suite']}:{rec['check']}"
               f"({','.join(map(str, rec['instance']))})")
        passed = rec["pass"] and t < expected_count
        if resolution and rec["check"] == "REL-8-variant-resolution":
            passed = passed and rec.get("detail", {}).get("holds") == resolution
        gate.check(cid, passed)


def _bundle_checks(state, gate):
    _cli_checks(state, gate, ["verify"], BUNDLE_CHECKS, resolution="REL-8")


def _lattice_checks(state, gate):
    _cli_checks(state, gate, LATTICE_ARGV, LATTICE_CHECKS)


def _setup_columns(seed, sizes):
    from grassver import gf
    from grassver.geometry import GeometryContext

    ctx = GeometryContext(2, 7, 3, dims=())
    # A fixed sample moved by a seed-drawn symmetry of (F_2^7, y): every
    # seed gets columns of the same configuration, so how much work the
    # columns share (and so the cost of filling the caches) does not
    # depend on the seed.  Like `--mode columns`, the context that filters
    # the columns runs them.
    base = _sample_kspaces(ctx, sizes["columns"], random.Random(0), meet=1)
    g = _stabilizer_element(random.Random(seed), ctx.n, ctx.k)
    cols = [gf.rref_rows([_times(v, g) for v in rows], 2) for rows in base]
    return {"ctx": ctx, "columns": cols}


def _stabilizer_element(rng, n, k):
    """Rows of a uniformly drawn g in GL(n, 2) with y g = y, for
    y = span(e_0, ..., e_{k-1}): the first k rows lie in y."""
    from grassver import gf

    while True:
        g = ([rng.getrandbits(k) for _ in range(k)]
             + [rng.getrandbits(n) for _ in range(n - k)])
        if gf.rank_rows(g, 2) == n:
            return g


def _times(v: int, g) -> int:
    """The packed row vector v times the matrix with packed rows g."""
    out = 0
    for j, row in enumerate(g):
        if v >> j & 1:
            out ^= row
    return out


def _columns_checks(state, gate):
    from grassver import relations

    ctx, cols = state["ctx"], state["columns"]
    index = {rows: t for t, rows in enumerate(cols)}
    for rid in COLUMN_RELATIONS:
        ids = [f"{rid}[col {t}]" for t in range(len(cols))]
        try:
            rep = relations.verify_relation(rid, ctx, "columns", columns=cols)
        except Exception as exc:
            gate.raised(ids, exc)
            continue
        # the report keeps at most MAX_VIOLATIONS; past that every column
        # of the relation counts as failed
        bad = set(range(len(cols))) if rep.truncated else {
            index[_parse_rows(v.col)] for v in rep.violations}
        for t, cid in enumerate(ids):
            gate.check(cid, t not in bad)


def _parse_rows(ref: str) -> tuple:
    return tuple(int(r, 16) for r in ref.split(":"))


def _setup_graph(seed, sizes):
    from grassver.geometry import GeometryContext
    from grassver import gf, grassmann

    rng = random.Random(seed)
    # x is drawn on a throwaway context so the checked ones start cold
    x_rows = _sample_kspaces(GeometryContext(2, 8, 3, dims=()), 1, rng,
                             meet=1)[0]
    insts = []
    for _ in ("graph", "entries"):  # the CLI builds one context per suite
        ctx = GeometryContext(2, 8, 3, dims=())
        insts.append(grassmann.GrassmannInstance(
            ctx, i=2, x=gf.Subspace(2, 8, x_rows)))
    bfs_ctx = GeometryContext(2, 7, 3, dims=())
    nodes = _sample_kspaces(GeometryContext(2, 7, 3, dims=()),
                            sizes["bfs_sources"] + sizes["bfs_targets"], rng)
    nodes = [gf.Subspace(2, 7, rows) for rows in nodes]
    return {"graph": insts[0], "entries": insts[1], "bfs_ctx": bfs_ctx,
            "sources": nodes[:sizes["bfs_sources"]],
            "targets": nodes[sizes["bfs_sources"]:]}


def _graph_checks(state, gate):
    from grassver import gf, grassmann

    inst = state["graph"]
    tables = [
        ("graph:orbit-sizes",
         lambda: inst.orbit_sizes() == grassmann.expected_orbit_sizes(inst)),
        ("graph:structure-constants",
         lambda: grassmann.structure_constants(inst).holds),
        ("graph:edge-types", lambda: grassmann.count_edge_types(inst).holds),
        ("entries:entry-table",
         lambda: grassmann.verify_entry_table(state["entries"]).holds),
    ]
    for cid, run in tables:
        try:
            gate.check(cid, run())
        except Exception as exc:
            gate.raised([cid], exc)
    ctx = state["bfs_ctx"]
    vertices = gf.gaussian_binomial(ctx.n, ctx.k, ctx.q)
    for s, src in enumerate(state["sources"]):
        ids = [f"bfs[{s}]:reach"] + [
            f"bfs[{s}]:target[{t}]" for t in range(len(state["targets"]))]
        try:
            dist = grassmann.bfs_distances(src, ctx)
            got = [len(dist) == vertices] + [
                dist.get(v.rows) == grassmann.graph_distance(src, v, ctx)
                for v in state["targets"]]
        except Exception as exc:
            gate.raised(ids, exc)
            continue
        for cid, ok in zip(ids, got):
            gate.check(cid, ok)


WORKLOADS = {
    "bundle": (_setup_cli, _bundle_checks),
    "columns": (_setup_columns, _columns_checks),
    "graph": (_setup_graph, _graph_checks),
    "lattice-q3": (_setup_cli, _lattice_checks),
}


# ---------------------------------------------------------------------------
# host speed

PROBE_PERIOD_S = 0.02
# about the median time of one _probe_loop() while grassver runs, on the
# 2-core VM of perfbench/README.md; it only sets the unit of the reference
# seconds, so that they are close to clock seconds there
PROBE_REF_S = 0.00048


def _probe_loop() -> int:
    """A fixed piece of interpreter work like grassver's: tuple keys, dict
    reads and writes and small-int arithmetic (the GF(q) geometry), then
    Fraction arithmetic (the Q(sqrt q) scalars).  It uses nothing from
    grassver, so a change to the program cannot change the probe."""
    table: dict = {}
    acc = 0
    for i in range(600):
        key = (i & 31, i >> 5 & 7)
        acc = (acc * 31 + table.get(key, i)) & 0xFFFFF
        table[key] = acc ^ i
    x = Fraction(acc, 3)
    for i in range(1, 40):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    return acc + x.denominator


class SpeedProbe:
    """Samples how fast this host runs Python while a repetition runs.

    The machine is shared and its speed drifts by tens of percent over
    seconds to minutes, which wall and CPU clocks alone cannot tell from a
    change in the program.  Every PROBE_PERIOD_S of wall time a SIGALRM
    handler times one ``_probe_loop()`` (about 2% of the time).  For an
    interval whose samples ran at speeds s_i = PROBE_REF_S / t_i, the
    work done is (elapsed - probe time) * mean(s_i) reference seconds: the
    time the interval would have taken at the speed the probe has on the
    reference machine.  A program that does half the work takes half the
    reference seconds, whatever the speed of the host at the time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, wall, cpu

    def sample(self, *_) -> None:
        t0, c0 = time.monotonic(), time.process_time()
        _probe_loop()
        self.samples.append((t0, time.monotonic() - t0,
                             time.process_time() - c0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, t_from: float, t_to: float, wall: float,
                    cpu: float) -> tuple[float, float]:
        """(wall, cpu) seconds of [t_from, t_to) in reference seconds."""
        inside = [s for s in self.samples if t_from <= s[0] < t_to]
        wall_speed = statistics.fmean(PROBE_REF_S / w for _, w, _ in inside)
        cpu_speed = statistics.fmean(PROBE_REF_S / max(c, 1e-9)
                                     for _, _, c in inside)
        return ((wall - sum(w for _, w, _ in inside)) * wall_speed,
                (cpu - sum(c for _, _, c in inside)) * cpu_speed)


# ---------------------------------------------------------------------------
# one repetition


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run(spec: dict, gate: Gate | None = None) -> dict:
    """Set up and check one workload; returns the repetition's record.

    ``setup_s``, ``verdict_s`` and ``cpu_s`` are in reference seconds
    (``SpeedProbe``) and the ``*_clock_s`` fields are what the clocks
    read.  A traced repetition is not probed: its times are clock times.
    """
    if spec.get("trace"):
        return _run(spec, gate, None)
    probe = SpeedProbe()
    probe.sample()
    probe.start()
    try:
        return _run(spec, gate, probe)
    finally:
        probe.stop()


def _run(spec: dict, gate: Gate | None, probe: SpeedProbe | None) -> dict:
    name = spec["workload"]
    setup, checks = WORKLOADS[name]
    sizes = {**SIZES[name], **spec.get("sizes", {})}
    gate = gate or Gate()

    import grassver
    import grassver.cli  # noqa: F401  (every layer loaded before tracing)
    from grassver import kernels

    if os.path.dirname(grassver.__file__) != os.path.join(SRC, "grassver"):
        raise RuntimeError(f"grassver imported from {grassver.__file__}, "
                           f"not from {SRC}")

    tracer = None
    if spec.get("trace"):
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup(spec["seed"], sizes)
    t_first = time.monotonic()
    out = {
        "backend": kernels.BACKEND,
        "version": grassver.__version__,
        "sizes": sizes,
        "setup_clock_s": t_first - spec["spawned"],
    }
    out["setup_s"] = out["setup_clock_s"]
    if probe is not None:
        out["setup_s"] = probe.reference_s(
            0.0, t_first, out["setup_clock_s"], 0.0)[0]
    if spec.get("setup_only"):
        return out
    cpu0 = _cpu_s()
    if probe is not None:
        probe.sample()  # so the interval has a sample, however short
    checks(state, gate)
    t_last = time.monotonic()
    out["verdict_clock_s"] = t_last - t_first
    out["cpu_clock_s"] = _cpu_s() - cpu0
    out["verdict_s"], out["cpu_s"] = out["verdict_clock_s"], out["cpu_clock_s"]
    if probe is not None:
        out["verdict_s"], out["cpu_s"] = probe.reference_s(
            t_first, t_last, out["verdict_clock_s"], out["cpu_clock_s"])
        out["probe_samples"] = len(probe.samples)
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = gate.attempted
    out["failed"] = len(gate.failures)
    out["failures"] = gate.failures[:20]
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.table()
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    print(json.dumps(run(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
