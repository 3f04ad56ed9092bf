"""Command-line front end.

Subcommands: verify (run a verification suite), tables (print the
structure-constant and edge-type tables), enumerate (dump strata and cover
counts).  Every flag can also be set through an environment variable with
the GRASSVER_ prefix (e.g. GRASSVER_Q=3); explicit flags win.

Every input is checked, and the output (--out or stdout) opened, before
any work starts.  Each check is written out as soon as it finishes, so a
run that stops early keeps the checks it finished.  A skip record names
what was not run and why; it is not a check.  A full-mode algebra run
over more than ``FULL_MODE_NOTE_SIZE`` subspaces says on stderr, before it
starts, how many there are and that columns mode runs that size.

Exit codes: 0 all checks pass; 1 at least one verification failure, or an
exception inside a check (its FAIL record names the exception, the run
stops and ``error: ...`` goes to stderr); 2 invalid usage, including an
--out that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from types import SimpleNamespace

from . import closed
from .gf import gaussian_binomial
from .geometry import (
    GeometryContext,
    check_enumerable,
    cover_tallies,
    stratum_sizes,
    verify_cover_counts,
)
from .grassmann import (
    GrassmannInstance,
    count_edge_types,
    expected_orbit_sizes,
    structure_constants,
    verify_entry_table,
)
from .relations import relation_ids, verify_relation
from .reports import (
    CHECKS_CSV_HEADER,
    check_record,
    format_check,
    format_enumeration,
    format_table,
    record,
    skip_record,
)

ENV_PREFIX = "GRASSVER_"
SUITES = ("algebra", "geometry", "graph", "entries", "all")
MODES = ("full", "columns")
FORMATS = ("text", "csv", "records")
COLUMN_RELATIONS = tuple(f"REL-{t}" for t in range(1, 9)) + ("REL-8P",)
# a full-mode algebra run over more subspaces than this says on stderr,
# before it starts, that columns mode is the way to run its size
FULL_MODE_NOTE_SIZE = 10_000


class UsageError(Exception):
    """Bad input, refused before any work starts (exit 2)."""


def _env(name: str):
    # an empty value is unset; argparse converts a string default with the
    # option's type, refusing a bad int as a bad flag; _command checks choices
    return os.environ.get(ENV_PREFIX + name) or None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassver",
        description="Exact verification of Grassmann graph and "
                    "operator-algebra identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads
    for name, numbers in (("verify", "qnki"), ("tables", "qnki"),
                          ("enumerate", "qnk")):
        p = sub.add_parser(name)
        for flag in numbers:
            p.add_argument(f"--{flag}", type=int, default=_env(flag.upper()))
        if name == "verify":
            p.add_argument("--suite", choices=SUITES,
                           default=_env("SUITE") or "all")
            p.add_argument(
                "--mode", choices=MODES,
                default=_env("MODE") or "full",
                help="full enumerates every subspace of F_q^n (29,212 at "
                     "q=2, n=7) and checks every column; columns checks only "
                     "the k-spaces at distance i from y, walking covers "
                     "lazily, and is the way to run instances of that size")
        p.add_argument("--format", choices=FORMATS,
                       dest="output_format",
                       default=_env("FORMAT") or "text")
        p.add_argument("--out", dest="output_path",
                       default=_env("OUT"))
    return parser


def _validate_instance(q, n, k, what):
    # the library's own rules are checked by building the instance
    if q is None or n is None or k is None:
        raise UsageError(f"{what} needs --q, --n and --k")
    if k > 25 or n > 25:
        raise UsageError(f"need n, k <= 25, got n={n}, k={k}")


class _Output:
    """The one output stream of a command, in one format; counts failures
    for the exit code."""

    def __init__(self, stream, output_format: str):
        self.stream = stream
        self.format = output_format
        self.total = self.failed = 0

    def write(self, text: str) -> None:
        self.stream.write(text)
        self.stream.flush()

    def skip(self, suite, check, instance, reason) -> None:
        """Write a skip record; it is not counted as a check."""
        self.write(format_check(skip_record(suite, check, instance, reason),
                                self.format))

    @contextlib.contextmanager
    def check(self, suite, name, instance):
        """Time the body and write its check record when it ends.

        The body sets ``passed`` and may set ``detail`` on the object it
        gets.  If the body raises, the record is a FAIL whose detail names
        the exception, and the exception propagates.
        """
        result = SimpleNamespace(passed=False, detail=None)
        error = None
        t0 = time.perf_counter()
        try:
            yield result
        except Exception as exc:
            error = exc
            result.passed = False
            result.detail = {"error": f"{type(exc).__name__}: {exc}"}
        rec = check_record(suite, name, instance, result.passed,
                           time.perf_counter() - t0, result.detail)
        self.total += 1
        self.failed += not rec["pass"]
        self.write(format_check(rec, self.format))
        if error is not None:
            raise error


def _enumerated(built: dict, q, n, k) -> GeometryContext:
    """The enumerated context at (q, n, k), kept in ``built`` from the
    first call at that instance until a call at another one, so the
    geometry and algebra checks of an instance share one and no earlier
    instance's is kept.  The check that makes the first call builds it,
    so a failure to build it is that check's FAIL record."""
    ctx = built.get((q, n, k))
    if ctx is None:
        built.clear()
        ctx = built[q, n, k] = GeometryContext(q, n, k)
    return ctx


def _run_geometry(out: _Output, built, q, n, k):
    with out.check("geometry", "enumeration", (q, n, k)) as c:
        ctx = _enumerated(built, q, n, k)
        c.passed = all(
            len(ctx.ids_by_dim[d]) == gaussian_binomial(n, d, q)
            for d in range(n + 1)
        )
        c.detail = {"total": len(ctx.elements)}
    with out.check("geometry", "stratum-sizes", (q, n, k)) as c:
        sizes = stratum_sizes(ctx)
        c.passed = all(
            closed.stratum_size(q, n, k, *s) == m for s, m in sizes.items()
        ) and sum(sizes.values()) == len(ctx.elements)
    with out.check("geometry", "cover-counts", (q, n, k)) as c:
        rep = verify_cover_counts(ctx)
        c.passed = rep.holds
        c.detail = {"checked": rep.checked,
                    "violations": len(rep.violations)}


def _run_algebra_full(out: _Output, built, q, n, k):
    variant_holds = {}
    for rid in relation_ids():
        variant = rid in ("REL-8", "REL-8P")
        # the two printed variants of REL-8 are resolved separately below
        name = f"{rid}-evaluated" if variant else rid
        with out.check("algebra", name, (q, n, k)) as c:
            rep = verify_relation(rid, _enumerated(built, q, n, k), "full")
            if variant:
                variant_holds[rid] = rep.holds
                c.passed, c.detail = True, {"holds": rep.holds}
                continue
            c.passed = rep.holds
            if not rep.holds:
                c.detail = {"violations": [
                    v._asdict() for v in rep.violations[:5]]}
    holds = [rid for rid, held in variant_holds.items() if held]
    if k == 1 and len(holds) == 2:
        out.skip("algebra", "REL-8-variant-resolution", (q, n, k),
                 "at k = 1 F- is the zero operator, so REL-8 and REL-8P "
                 "are one identity")
        return
    with out.check("algebra", "REL-8-variant-resolution", (q, n, k)) as c:
        c.passed = len(holds) == 1
        c.detail = {"holds": holds[0] if c.passed else
                    "both" if holds else "neither"}


def _note_full_size(out: _Output, q, n, count):
    # stderr only: the records stay those of the run
    print(f"note: full mode checks every column of all {count:,} "
          f"subspaces of F_{q}^{n}; --mode columns --i I checks only the "
          f"k-spaces at distance I from y and is the way to run this size",
          file=sys.stderr)


def _run_algebra_columns(out: _Output, ctx, i):
    q, n, k = ctx.q, ctx.n, ctx.k
    columns = ctx.rows_at_distance(i)
    for rid in COLUMN_RELATIONS:
        with out.check("algebra", f"{rid}-columns", (q, n, k)) as c:
            rep = verify_relation(rid, ctx, "columns", columns=columns)
            c.passed = rep.holds
            c.detail = {"columns": rep.checked_columns, "i": i}


def _run_graph(out: _Output, inst):
    with out.check("graph", "orbit-sizes", inst.instance) as c:
        sizes = inst.orbit_sizes()
        c.passed = sizes == expected_orbit_sizes(inst)
        c.detail = {"sizes": sizes}
    with out.check("graph", "structure-constants", inst.instance) as c:
        c.passed = structure_constants(inst).holds
    with out.check("graph", "edge-types", inst.instance) as c:
        c.passed = count_edge_types(inst).holds


def _run_entries(out: _Output, inst):
    with out.check("entries", "entry-table", inst.instance) as c:
        c.passed = verify_entry_table(inst).holds


def _verify_steps(args, ctx, i) -> list[tuple]:
    """The check groups that verify runs at ctx's instance, as (function,
    *arguments).  The graph and entries suites share one instance, and the
    geometry and full algebra suites one enumerated context."""
    q, n, k, suite = ctx.q, ctx.n, ctx.k, args.suite
    steps, built = [], {}
    if suite in ("geometry", "all"):
        _check_enumerable(q, n)
        steps.append((_run_geometry, built, q, n, k))
    if suite in ("algebra", "all"):
        if args.mode == "full":
            count = _check_enumerable(q, n)
            if count > FULL_MODE_NOTE_SIZE:
                steps.append((_note_full_size, q, n, count))
            steps.append((_run_algebra_full, built, q, n, k))
        elif 0 <= i <= min(k, n - k):
            steps.append((_run_algebra_columns, ctx, i))
        else:
            raise UsageError(f"columns mode needs 0 <= i <= min(k, n-k) = "
                             f"{min(k, n - k)}, got i={i}")
    graph = {s: run for s, run in (("graph", _run_graph),
                                   ("entries", _run_entries))
             if suite in (s, "all")}
    try:
        inst = GrassmannInstance(ctx, i=i) if graph else None
    except ValueError as exc:
        if suite != "all":
            raise
        # no graph checks at this instance: say so, suite by suite
        return steps + [(_Output.skip, s, "*", (q, n, k, i), str(exc))
                        for s in graph]
    return steps + [(run, inst) for run in graph.values()]


def cmd_verify(out: _Output, steps) -> None:
    if out.format == "csv":
        out.write(CHECKS_CSV_HEADER)
    for run, *params in steps:
        run(out, *params)
    if out.format == "text":
        out.write(f"{out.total - out.failed}/{out.total} checks passed\n")


def cmd_tables(out: _Output, inst) -> None:
    for title, table in (("structure constants", structure_constants),
                         ("edge-type triples", count_edge_types)):
        report = table(inst)
        out.failed += not report.holds
        out.write(format_table(report, title, out.format))


def cmd_enumerate(out: _Output, q, n, k) -> None:
    ctx = GeometryContext(q, n, k)
    strata = [record("stratum", i=s.i, j=s.j, size=m,
                     closed_form=closed.stratum_size(q, n, k, *s))
              for s, m in sorted(stratum_sizes(ctx).items())]
    out.failed += sum(r["size"] != r["closed_form"] for r in strata)
    slash_below, back_below, *_ = cover_tallies(ctx)
    out.write(format_enumeration(strata + [record(
        "enumeration-summary", instance=[q, n, k], total=len(ctx.elements),
        slash_cover_pairs=sum(slash_below),
        backslash_cover_pairs=sum(back_below))], out.format))


def _check_enumerable(q, n) -> int:
    """The number of subspaces of F_q^n; the library's refusal of an F_q^n
    too large to enumerate, as usage, before any record is written."""
    try:
        return check_enumerable(q, n)
    except ValueError as exc:
        raise UsageError(f"{exc}; the graph and entries suites and "
                         f"--mode columns algebra do not enumerate") from None


def _command(args) -> tuple:
    """The command function and its arguments; UsageError on bad input."""
    for dest, name, choices in (("suite", "SUITE", SUITES),
                                ("mode", "MODE", MODES),
                                ("output_format", "FORMAT", FORMATS)):
        if vars(args).get(dest, choices[0]) not in choices:
            raise UsageError(f"{ENV_PREFIX}{name}: invalid choice: "
                             f"{vars(args)[dest]!r} (choose from "
                             f"{', '.join(choices)})")
    q, n, k = args.q, args.n, args.k
    if args.command == "verify" and args.suite == "all" and (
            (q, n, k) == (None, None, None)):
        # the bundle runs full mode at instances of its own
        for flag, given in (("--mode columns", args.mode == "columns"),
                            ("--i", args.i is not None)):
            if given:
                raise UsageError(f"{flag} needs --q, --n and --k")
        # canonical bundle: smallest instances exercising every check
        inst = GrassmannInstance(GeometryContext(2, 7, 3, dims=()), i=2)
        built: dict = {}
        return cmd_verify, ([
            (_run_geometry, built, 2, 4, 2),
            (_run_algebra_full, built, 2, 4, 2),
            (_run_geometry, built, 3, 4, 2),
            (_run_algebra_full, built, 3, 4, 2),
            (_run_graph, inst), (_run_entries, inst)],)
    _validate_instance(q, n, k, f"--suite {args.suite}"
                       if args.command == "verify" else args.command)
    try:
        ctx = GeometryContext(q, n, k, dims=())
        if args.command == "enumerate":
            _check_enumerable(q, n)
            return cmd_enumerate, (q, n, k)
        i = args.i if args.i is not None else 2
        if args.command == "verify":
            return cmd_verify, (_verify_steps(args, ctx, i),)
        return cmd_tables, (GrassmannInstance(ctx, i=i),)
    except ValueError as exc:  # the library refuses the instance
        raise UsageError(str(exc)) from None


def _open_output(path):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open --out {path}: {exc.strerror}") \
            from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        command, params = _command(args)
        with _open_output(args.output_path) as stream:
            out = _Output(stream, args.output_format)
            command(out, *params)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 1 if out.failed else 0


if __name__ == "__main__":
    sys.exit(main())
