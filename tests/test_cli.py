import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import grassver
from grassver import cli, reports
from grassver.cli import main
from grassver.geometry import GeometryContext, verify_cover_counts
from grassver.grassmann import (
    GrassmannInstance, structure_constants, verify_entry_table)
from grassver.relations import verify_relation
from grassver.reports import check_record, format_check


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_verify_geometry_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "geometry",
                       "--q", "2", "--n", "4", "--k", "2")
    assert code == 0
    assert "PASS geometry:enumeration (2,4,2)" in out
    assert "PASS geometry:cover-counts" in out
    assert "3/3 checks passed" in out


def test_verify_algebra_full(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra",
                       "--q", "2", "--n", "4", "--k", "2")
    assert code == 0
    assert "PASS algebra:REL-1 (2,4,2)" in out
    assert "PASS algebra:REL-8-variant-resolution" in out


def test_verify_algebra_records_names_winning_variant(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra",
                       "--q", "2", "--n", "4", "--k", "2",
                       "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines() if line]
    assert all(r["record"] == "check" for r in recs)
    res = [r for r in recs if r["check"] == "REL-8-variant-resolution"]
    assert len(res) == 1
    assert res[0]["pass"] is True
    assert res[0]["detail"]["holds"] == "REL-8"


def test_variant_resolution_reports_a_tie_at_k_1(capsys):
    # at k = 1, F- is the zero operator, so REL-8 and REL-8P are one
    # identity and both hold; the resolution is then a skip record that
    # says so, not a check, and the run exits 0
    code, out, _ = run(capsys, "verify", "--suite", "algebra",
                       "--q", "2", "--n", "4", "--k", "1",
                       "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    checks = {r["check"]: r for r in recs if r["record"] == "check"}
    for rid in ("REL-8", "REL-8P"):
        assert checks[f"{rid}-evaluated"]["detail"] == {"holds": True}
    assert all(r["pass"] for r in checks.values())
    assert recs[-1] == {
        "record": "skip", "version": 1, "suite": "algebra",
        "check": "REL-8-variant-resolution", "instance": [2, 4, 1],
        "reason": "at k = 1 F- is the zero operator, so REL-8 and REL-8P "
                  "are one identity"}
    assert "REL-8-variant-resolution" not in checks


@pytest.mark.parametrize("k,held,resolution", [
    (2, {"REL-8P": True}, "both"),
    (2, {"REL-8": False}, "neither"),
    (1, {"REL-8": False, "REL-8P": False}, "neither"),
], ids=["both-at-k-2", "neither-at-k-2", "neither-at-k-1"])
def test_variant_resolution_fails_unless_one_variant_holds(
        k, held, resolution, capsys, monkeypatch):
    # only a tie at k = 1 is a skip: both variants holding at k >= 2, or
    # neither at any k, is a failed resolution
    real = cli.verify_relation

    def patched(rid, ctx, mode, **kw):
        rep = real(rid, ctx, mode, **kw)
        return SimpleNamespace(holds=held.get(rid, rep.holds),
                               violations=rep.violations)

    monkeypatch.setattr(cli, "verify_relation", patched)
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--q", "2",
                       "--n", "4", "--k", str(k), "--format", "records")
    assert code == 1
    recs = [json.loads(line) for line in out.splitlines()]
    assert all(r["record"] == "check" for r in recs)
    assert [r for r in recs if not r["pass"]] == [recs[-1]]
    assert recs[-1]["check"] == "REL-8-variant-resolution"
    assert recs[-1]["detail"] == {"holds": resolution}


def test_verify_algebra_columns_mode(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra",
                       "--q", "2", "--n", "5", "--k", "2",
                       "--mode", "columns", "--i", "2")
    assert code == 0
    assert "PASS algebra:REL-1-columns" in out
    assert "PASS algebra:REL-8P-columns" in out


def test_verify_algebra_columns_mode_odd_codimension(capsys):
    # n-k odd: sqrt(q) coefficients on the stratum-(1,1) k-spaces, where
    # the printed REL-8P variant really fails
    code, out, err = run(capsys, "verify", "--suite", "algebra",
                         "--q", "2", "--n", "5", "--k", "2",
                         "--mode", "columns", "--i", "1")
    assert code == 1
    assert "Traceback" not in out + err
    for t in range(1, 9):
        assert f"PASS algebra:REL-{t}-columns (2,5,2)" in out
    assert "FAIL algebra:REL-8P-columns (2,5,2)" in out


def test_verify_graph_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "graph",
                       "--q", "2", "--n", "7", "--k", "3", "--i", "2")
    assert code == 0
    for name in ("orbit-sizes", "structure-constants", "edge-types"):
        assert f"PASS graph:{name} (2,7,3,2)" in out


def test_verify_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "all",
                       "--q", "2", "--n", "4", "--k", "5")
    assert code == 2
    assert "error:" in err


def test_verify_nonprime_q_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "geometry",
                       "--q", "6", "--n", "4", "--k", "2")
    assert code == 2
    assert "prime" in err


GRAPH_RANGE = "need n > 2k >= 6, got n={n}, k={k}"


@pytest.mark.parametrize("fmt", ["text", "csv", "records"])
def test_suite_all_writes_a_skip_for_each_graph_suite_it_does_not_run(
        fmt, capsys):
    # (2,4,2) is outside n > 2k >= 6: the graph and entries suites are
    # each a skip record carrying the library's refusal, and a skip is not
    # a check, so the summary and the exit code are those of the 39 checks
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "4",
                         "--k", "2", "--format", fmt)
    assert (code, err) == (0, "")
    reason = GRAPH_RANGE.format(n=4, k=2)
    lines = out.splitlines()
    if fmt == "text":
        assert lines[-3:] == [f"SKIP graph:* (2,4,2,2) {reason}",
                              f"SKIP entries:* (2,4,2,2) {reason}",
                              "39/39 checks passed"]
        assert len(lines) == 42
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["suite", "check", "instance", "pass", "seconds"]
        assert all(r[3] == "1" for r in rows[1:-2])
        assert rows[-2:] == [
            ["graph", "*", "2 4 2 2", f"skip: {reason}", ""],
            ["entries", "*", "2 4 2 2", f"skip: {reason}", ""]]
        assert len(rows) == 42
    else:
        recs = [json.loads(line) for line in lines]
        assert [r["record"] for r in recs] == ["check"] * 39 + ["skip"] * 2
        assert recs[-2:] == [
            {"record": "skip", "version": 1, "suite": suite, "check": "*",
             "instance": [2, 4, 2, 2], "reason": reason}
            for suite in ("graph", "entries")]


def test_suite_all_at_k_1_skips_the_resolution_and_the_graph_suites(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "3", "--k", "1",
                       "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    skips = [(r["suite"], r["check"]) for r in recs if r["record"] == "skip"]
    assert skips == [("algebra", "REL-8-variant-resolution"),
                     ("graph", "*"), ("entries", "*")]
    assert all(r["pass"] for r in recs if r["record"] == "check")


def _instance_refusal(q, n, k, i):
    try:
        GrassmannInstance(GeometryContext(q, n, k, dims=()), i=i)
    except ValueError as exc:
        return str(exc)
    return None


def test_the_cli_refuses_a_graph_instance_exactly_when_the_library_does():
    # the CLI keeps no copy of the instance rules: planning a graph run
    # (no check runs) is bad usage exactly when the library refuses to
    # build the instance, with the library's message
    parser = cli._build_parser()
    refused = 0
    for q in (2, 3, 4):
        for n in range(2, 10):
            for k in range(1, n):
                for i in range(k + 2):
                    args = parser.parse_args([
                        "verify", "--suite", "graph", "--q", str(q),
                        "--n", str(n), "--k", str(k), "--i", str(i)])
                    expected = _instance_refusal(q, n, k, i)
                    try:
                        cli._command(args)
                    except cli.UsageError as exc:
                        assert str(exc) == expected, (q, n, k, i)
                        refused += 1
                    else:
                        assert expected is None, (q, n, k, i)
    assert 0 < refused < 3 * sum(k + 2 for n in range(2, 10)
                                 for k in range(1, n))


@pytest.mark.parametrize("argv,code,err", [
    # k = 1 and k = 2: below 2k >= 6 whatever n is
    (["--q", "2", "--n", "3", "--k", "1"], 2, GRAPH_RANGE.format(n=3, k=1)),
    (["--q", "2", "--n", "5", "--k", "2"], 2, GRAPH_RANGE.format(n=5, k=2)),
    # n = 2k is refused, n = 2k + 1 is the first graph instance
    (["--q", "2", "--n", "6", "--k", "3"], 2, GRAPH_RANGE.format(n=6, k=3)),
    (["--q", "2", "--n", "7", "--k", "3"], 0, None),
    # i = 1 is refused, i = k - 1 is the last distance accepted
    (["--q", "2", "--n", "7", "--k", "3", "--i", "1"], 2,
     "need 1 < i < k, got i=1, k=3"),
    (["--q", "2", "--n", "7", "--k", "3", "--i", "2"], 0, None),
    (["--q", "2", "--n", "7", "--k", "3", "--i", "3"], 2,
     "need 1 < i < k, got i=3, k=3"),
    # the rules of the field and the lattice, from gf and geometry
    (["--q", "4", "--n", "7", "--k", "3"], 2,
     "field order must be prime, got 4"),
    (["--q", "2", "--n", "3", "--k", "3"], 2, "need n > k >= 1, got n=3, k=3"),
], ids=["k-1", "k-2", "n-2k", "n-2k+1", "i-1", "i-k-1", "i-k", "q-4",
        "n-k"])
def test_graph_instance_boundaries(argv, code, err, capsys):
    got, out, stderr = run(capsys, "verify", "--suite", "graph", *argv)
    assert got == code
    if err is None:
        assert stderr == ""
        assert "3/3 checks passed" in out
    else:
        assert (out, stderr) == ("", f"error: {err}\n")


def test_a_big_full_mode_run_says_so_on_stderr_before_it_starts(
        capsys, monkeypatch):
    # the relations are not run: the stub records what stderr held when
    # the full-mode run began
    began = []

    def algebra_full(out, built, q, n, k):
        began.append(((q, n, k), capsys.readouterr().err))

    monkeypatch.setattr(cli, "_run_algebra_full", algebra_full)
    code, out, err = run(capsys, "verify", "--suite", "algebra", "--q", "2",
                         "--n", "7", "--k", "3", "--format", "records")
    assert (code, out, err) == (0, "", "")
    [(instance, note)] = began
    assert instance == (2, 7, 3)
    assert note.count("\n") == 1 and note.endswith("\n")
    assert "29,212 subspaces of F_2^7" in note
    assert "--mode columns --i" in note
    # below the size, and outside full-mode algebra, nothing is said
    began.clear()
    code, out, err = run(capsys, "verify", "--suite", "algebra", "--q", "2",
                         "--n", "6", "--k", "3", "--format", "records")
    assert (code, out, err, began) == (0, "", "", [((2, 6, 3), "")])
    code, out, err = run(capsys, "verify", "--suite", "geometry", "--q", "2",
                         "--n", "7", "--k", "3", "--format", "records")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 3


def test_one_verify_run_sweeps_and_tallies_gamma_x_once(capsys,
                                                        monkeypatch):
    # the bundle's graph and entries suites share one instance, so Γ(x) is
    # split and its clique tallies are taken once per run, not per suite
    from grassver import grassmann

    split, tallied = [], []
    real_split = grassmann.letter_split
    real_tally = GrassmannInstance._count_neighbors

    def counted_split(*a):
        split.append(1)
        return real_split(*a)

    def counted_tally(self):
        tallied.append(self)
        return real_tally(self)

    monkeypatch.setattr(grassmann, "letter_split", counted_split)
    monkeypatch.setattr(GrassmannInstance, "_count_neighbors", counted_tally)
    code, out, _ = run(capsys, "verify", "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 82
    assert all(r["record"] == "check" and r["pass"] for r in recs)
    assert len(split) == 1
    assert len(tallied) == 1 and tallied[0].instance == (2, 7, 3, 2)


def _counted_contexts(monkeypatch, fail_full=False):
    """The instance and dims of every context the CLI builds from now on;
    with fail_full, building an enumerated one raises MemoryError."""
    built = []

    def counted(q, n, k, dims=None):
        built.append(((q, n, k), dims))
        if fail_full and dims is None:
            raise MemoryError("no room for the enumeration")
        return GeometryContext(q, n, k, dims=dims)

    monkeypatch.setattr(cli, "GeometryContext", counted)
    return built


def test_one_verify_run_enumerates_each_instance_once(capsys, monkeypatch):
    # the geometry and full algebra checks of an instance share one
    # enumerated context: two for the bundle, beside the graph's lazy one
    built = _counted_contexts(monkeypatch)
    code, out, _ = run(capsys, "verify", "--format", "records")
    assert code == 0
    assert len(out.splitlines()) == 82
    assert sorted(built, key=str) == [((2, 4, 2), None), ((2, 7, 3), ()),
                                      ((3, 4, 2), None)]
    built.clear()
    code, _, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--k", "2")
    assert code == 0
    assert built == [((2, 4, 2), ()), ((2, 4, 2), None)]


@pytest.mark.parametrize("suite,check", [
    ("geometry", "enumeration"), ("algebra", "REL-1"), ("all", "enumeration"),
])
def test_a_context_that_cannot_be_built_fails_the_check_building_it(
        suite, check, capsys, monkeypatch):
    # the first check that needs the enumeration builds it, so a failure
    # to build it is that check's FAIL record, and the run stops there
    _counted_contexts(monkeypatch, fail_full=True)
    code, out, err = run(capsys, "verify", "--suite", suite, "--q", "2",
                         "--n", "4", "--k", "2", "--format", "records")
    assert code == 1
    assert err == "error: MemoryError: no room for the enumeration\n"
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert (rec["suite"], rec["check"], rec["pass"]) == (
        "geometry" if suite == "all" else suite, check, False)
    assert rec["detail"] == {
        "error": "MemoryError: no room for the enumeration"}


def test_one_verify_run_looks_up_each_column_stratum_once(capsys,
                                                         monkeypatch):
    # the evaluator keeps the stratum of every column id it groups, so full
    # mode reads it once per element of each context, not once per
    # relation: at most 279 lookups (67 + 212 elements)
    seen = []
    real = GeometryContext.stratum_rows

    def counted(self, rows):
        if sys._getframe(1).f_globals["__name__"] == "grassver.relations":
            seen.append((self, rows))
        return real(self, rows)

    monkeypatch.setattr(GeometryContext, "stratum_rows", counted)
    code, _, _ = run(capsys, "verify", "--format", "records")
    assert code == 0
    assert 0 < len(seen) <= 67 + 212
    assert len(set(seen)) == len(seen)


def test_unknown_flag_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--frobnicate")
    assert code == 2


def test_workers_flag_is_unknown(capsys):
    # columns mode runs in one process; there is no worker count to set
    code, _, err = run(capsys, "verify", "--suite", "algebra", "--mode",
                       "columns", "--q", "2", "--n", "5", "--k", "2",
                       "--i", "1", "--workers", "2")
    assert code == 2
    assert "unrecognized arguments: --workers 2" in err


def test_sweep_x_flag_is_unknown(capsys):
    # every x at distance i gives the same tables, so there is no sweep over
    # x to ask for
    code, _, err = run(capsys, "verify", "--suite", "graph", "--q", "2",
                       "--n", "7", "--k", "3", "--i", "2", "--sweep-x")
    assert code == 2
    assert "unrecognized arguments: --sweep-x" in err


@pytest.mark.parametrize("argv", [
    ["tables", "--q", "2", "--n", "7", "--k", "3", "--suite", "graph"],
    ["tables", "--q", "2", "--n", "7", "--k", "3", "--mode", "columns"],
    ["enumerate", "--q", "2", "--n", "4", "--k", "2", "--i", "2"],
    ["enumerate", "--q", "2", "--n", "4", "--k", "2", "--suite", "all"],
    ["enumerate", "--q", "2", "--n", "4", "--k", "2", "--mode", "full"],
], ids=["tables-suite", "tables-mode", "enumerate-i", "enumerate-suite",
        "enumerate-mode"])
def test_subcommand_refuses_flags_it_does_not_read(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_missing_subcommand_exit_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_env_defaults(capsys, monkeypatch):
    monkeypatch.setenv("GRASSVER_Q", "2")
    monkeypatch.setenv("GRASSVER_N", "4")
    monkeypatch.setenv("GRASSVER_K", "2")
    monkeypatch.setenv("GRASSVER_SUITE", "geometry")
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "(2,4,2)" in out


def test_explicit_flags_beat_env(capsys, monkeypatch):
    monkeypatch.setenv("GRASSVER_Q", "7")
    code, out, _ = run(capsys, "verify", "--suite", "geometry",
                       "--q", "3", "--n", "4", "--k", "2")
    assert code == 0
    assert "(3,4,2)" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "checks.csv"
    code, out, _ = run(capsys, "verify", "--suite", "geometry",
                       "--q", "2", "--n", "4", "--k", "2",
                       "--format", "csv", "--out", str(path))
    assert code == 0
    assert out == ""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["suite", "check", "instance", "pass", "seconds"]
    assert all(r[3] == "1" for r in rows[1:])
    assert len(rows) == 4


def test_tables_text_and_exit(capsys):
    code, out, _ = run(capsys, "tables", "--q", "2", "--n", "7",
                       "--k", "3", "--i", "2")
    assert code == 0
    assert "structure constants" in out
    assert "edge-type triples" in out
    assert "MISMATCH" not in out


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "tables", "--q", "2", "--n", "7",
                       "--k", "3", "--i", "2", "--format", "csv")
    assert code == 0
    assert "structure-constants,2,7,3,2,A+|A+,27,27,1" in out


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--n", "4",
                       "--k", "2")
    assert code == 0
    assert "67 subspaces" in out
    assert "120 slash, 120 backslash" in out


def test_enumerate_records(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--n", "4",
                       "--k", "2", "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines() if line]
    strata = [r for r in recs if r["record"] == "stratum"]
    assert all(r["size"] == r["closed_form"] for r in strata)
    summary = recs[-1]
    assert summary["record"] == "enumeration-summary"
    assert summary["total"] == 67


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 5, 2), (5, 3, 1)])
def test_enumerate_cover_pairs_match_closed_forms(q, n, k, capsys):
    # n != 2k, so the slash and backslash totals differ: each is the sum
    # over strata of |P_{i,j}| times the cover count below one element,
    # q^j [i] slash and [j] backslash
    from grassver.gf import qint

    code, out, _ = run(capsys, "enumerate", "--q", str(q), "--n", str(n),
                       "--k", str(k), "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines() if line]
    strata = [r for r in recs if r["record"] == "stratum"]
    slash = sum(r["closed_form"] * q ** r["j"] * qint(r["i"], q)
                for r in strata)
    back = sum(r["closed_form"] * qint(r["j"], q) for r in strata)
    assert slash != back
    assert (recs[-1]["slash_cover_pairs"],
            recs[-1]["backslash_cover_pairs"]) == (slash, back)


def test_check_record_and_line_format():
    rec = check_record("algebra", "REL-1", (2, 4, 2), True, 0.1234)
    line = format_check(rec, "text")
    assert line == "PASS algebra:REL-1 (2,4,2) 0.12s\n"
    rec = check_record("graph", "orbit-sizes", (2, 7, 3, 2), False, 1.0,
                       {"why": "x"})
    assert format_check(rec, "text").startswith("FAIL graph:orbit-sizes")
    assert rec["detail"] == {"why": "x"}


@pytest.mark.slow
def test_verify_all_default_bundle(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "PASS geometry:enumeration (2,4,2)" in out
    assert "PASS geometry:enumeration (3,4,2)" in out
    assert "PASS graph:orbit-sizes (2,7,3,2)" in out
    assert "PASS entries:entry-table (2,7,3,2)" in out


def test_check_exception_writes_fail_record_and_exits_1(
        tmp_path, capsys, monkeypatch):
    # an internal error inside a check is a failure, not bad usage, and the
    # checks finished before it stay in the output
    def broken(inst):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "count_edge_types", broken)
    path = tmp_path / "checks.ndjson"
    code, out, err = run(capsys, "verify", "--suite", "graph",
                         "--q", "2", "--n", "7", "--k", "3", "--i", "2",
                         "--format", "records", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: ValueError: boom\n"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["check"], r["pass"]) for r in recs] == [
        ("orbit-sizes", True), ("structure-constants", True),
        ("edge-types", False)]
    assert recs[-1]["detail"] == {"error": "ValueError: boom"}


def test_cover_sweep_fault_fails_cover_counts_exit_1(
        tmp_path, capsys, monkeypatch):
    # a hyperplane basis that is no enumerated subspace is a fault of the
    # sweep: cover-counts fails naming the basis, and the run exits 1
    from grassver.geometry import GeometryContext

    real = GeometryContext.hyperplanes_rows

    def sweep(self, rows):  # reversed, no basis of two rows is canonical
        return (h[::-1] for h in real(self, rows))

    monkeypatch.setattr(GeometryContext, "hyperplanes_rows", sweep)
    path = tmp_path / "checks.ndjson"
    code, out, err = run(capsys, "verify", "--suite", "geometry",
                         "--q", "2", "--n", "4", "--k", "2",
                         "--format", "records", "--out", str(path))
    assert code == 1
    assert out == ""
    error = ("ValueError: hyperplane rows=4:2 of (dim=3, #51, rows=1:2:4) "
             "is not an enumerated subspace")
    assert err == f"error: {error}\n"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["check"], r["pass"]) for r in recs] == [
        ("enumeration", True), ("stratum-sizes", True),
        ("cover-counts", False)]
    assert recs[-1]["detail"] == {"error": error}


def test_lane_overflow_is_an_internal_error_exit_1(
        tmp_path, capsys, monkeypatch):
    # a residual too wide for its lanes is a fault of the evaluator: the
    # check fails with the error and the run exits 1, never 2 (usage)
    from grassver import relations

    real = relations._lanes

    def shifted(value, bits, count):  # every nonzero value past its lanes
        return real(value << bits * count, bits, count)

    monkeypatch.setattr(relations, "_lanes", shifted)
    path = tmp_path / "checks.ndjson"
    code, out, err = run(capsys, "verify", "--suite", "algebra",
                         "--q", "2", "--n", "4", "--k", "2",
                         "--format", "records", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: LaneOverflowError: ")
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert recs[-1]["pass"] is False
    assert recs[-1]["detail"]["error"].startswith("LaneOverflowError: ")
    assert all(r["pass"] for r in recs[:-1])


def test_tables_out_in_missing_directory_exit_2(tmp_path, capsys,
                                                monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "structure_constants", computed.append)
    code, out, err = run(capsys, "tables", "--q", "2", "--n", "7",
                         "--k", "3", "--i", "2",
                         "--out", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert err.startswith("error: cannot open --out")
    assert "Traceback" not in out + err
    assert computed == []


def test_verify_columns_mode_i_out_of_range_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "algebra",
                         "--mode", "columns", "--q", "2", "--n", "5",
                         "--k", "2", "--i", "5")
    assert code == 2
    assert out == ""
    assert "got i=5" in err


def test_usage_error_leaves_out_file_unopened(tmp_path, capsys):
    path = tmp_path / "checks.csv"
    code, _, _ = run(capsys, "verify", "--suite", "graph", "--q", "2",
                     "--n", "4", "--k", "2", "--out", str(path))
    assert code == 2
    assert not path.exists()


def test_instance_over_size_bound_exit_2(tmp_path, capsys):
    path = tmp_path / "checks.txt"
    code, out, err = run(capsys, "verify", "--suite", "geometry", "--q", "2",
                         "--n", "26", "--k", "2", "--out", str(path))
    assert code == 2
    assert out == ""
    assert "need n, k <= 25, got n=26, k=2" in err
    assert not path.exists()


@pytest.mark.parametrize("argv,flag", [
    (["--mode", "columns"], "--mode columns"), (["--i", "5"], "--i")])
def test_verify_refuses_an_instance_flag_without_an_instance(argv, flag,
                                                             capsys):
    # with no --q, --n, --k verify runs the bundle, which reads neither flag
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {flag} needs --q, --n and "
                                       f"--k\n")


@pytest.mark.parametrize("argv,what", [
    (["tables"], "tables"),
    (["enumerate", "--q", "2", "--n", "4"], "enumerate"),
    (["verify", "--suite", "geometry", "--k", "2"], "--suite geometry"),
])
def test_a_missing_instance_is_named_for_the_command(argv, what, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {what} needs --q, --n and "
                                       f"--k\n")


TOO_LARGE = ("error: F_3^7 has 2,052,656 subspaces, more than the 500,000 a "
             "full context enumerates; the graph and entries suites and "
             "--mode columns algebra do not enumerate\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "columns"], ["verify", "--suite", "geometry"],
    ["verify", "--suite", "algebra"], ["enumerate"]])
def test_an_enumeration_too_large_is_refused_before_any_work(argv, tmp_path,
                                                            capsys):
    # F_3^7 would take about 550 MiB to enumerate: the count is read in
    # closed form, and the run is refused before the output is opened
    path = tmp_path / "out"
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv, "--q", "3", "--n", "7", "--k", "3",
                         "--out", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out, err) == (2, "", TOO_LARGE)
    assert not path.exists()


@pytest.mark.parametrize("suite", ["algebra", "graph", "entries"])
def test_the_suites_that_enumerate_nothing_are_planned_at_any_size(suite):
    args = cli._build_parser().parse_args([
        "verify", "--suite", suite, "--mode", "columns", "--q", "3",
        "--n", "7", "--k", "3"])
    command, (steps,) = cli._command(args)
    assert command is cli.cmd_verify and len(steps) == 1


DATA = Path(__file__).parent / "data" / "cli"
FORMAT_SUFFIX = {"text": "txt", "csv": "csv", "records": "ndjson"}


def mask_seconds(text: str) -> str:
    """The output with every check's measured time replaced by S."""
    text = re.sub(r"(?m)^((?:PASS|FAIL) \S+ \(\S+\)) \d+\.\d+s$", r"\1 Ss",
                  text)
    text = re.sub(r'"seconds": [0-9.e-]+', '"seconds": S', text)
    return re.sub(r"(?m)^(\w+,[^,\n]+,[0-9 ]+,[01]),\d+\.\d+$", r"\1,S",
                  text)


@pytest.mark.parametrize("name,argv,fmt", [
    *[("verify-geometry-2-4-2", ["verify", "--suite", "geometry", "--q", "2",
                                 "--n", "4", "--k", "2"], fmt)
      for fmt in FORMAT_SUFFIX],
    *[("enumerate-2-4-2", ["enumerate", "--q", "2", "--n", "4", "--k", "2"],
       fmt) for fmt in FORMAT_SUFFIX],
    ("tables-2-7-3-2", ["tables", "--q", "2", "--n", "7", "--k", "3",
                        "--i", "2"], "records"),
    # odd primes: the rows are packed in lanes wider than one bit
    *[("verify-geometry-3-5-2", ["verify", "--suite", "geometry", "--q", "3",
                                 "--n", "5", "--k", "2"], fmt)
      for fmt in FORMAT_SUFFIX],
    *[("enumerate-5-4-2", ["enumerate", "--q", "5", "--n", "4", "--k", "2"],
       fmt) for fmt in FORMAT_SUFFIX],
    *[("tables-3-7-3-2", ["tables", "--q", "3", "--n", "7", "--k", "3",
                          "--i", "2"], fmt) for fmt in FORMAT_SUFFIX],
    *[("enumerate-3-4-2", ["enumerate", "--q", "3", "--n", "4", "--k", "2"],
       fmt) for fmt in FORMAT_SUFFIX],
    # the orbit sizes are in the graph suite's detail
    *[(f"verify-{suite}-{q}-7-3-2",
       ["verify", "--suite", suite, "--q", str(q), "--n", "7", "--k", "3",
        "--i", "2"], fmt)
      for suite in ("graph", "entries") for q in (2, 3)
      for fmt in FORMAT_SUFFIX],
])
def test_whole_output_matches_expected(name, argv, fmt, tmp_path, capsys):
    path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    expected = (DATA / f"{name}.{FORMAT_SUFFIX[fmt]}").read_text()
    assert mask_seconds(path.read_text()) == mask_seconds(expected)


def test_bad_env_value_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("GRASSVER_Q", "two")
    code, _, err = run(capsys, "verify", "--suite", "geometry")
    assert code == 2
    assert "invalid int value: 'two'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["SUITE", "MODE", "FORMAT"])
def test_a_bad_env_choice_is_refused_before_any_output(name, capsys,
                                                       monkeypatch):
    # argparse checks choices only for flags given, not for defaults
    monkeypatch.setenv(f"GRASSVER_{name}", "bogus")
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "4",
                         "--k", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: GRASSVER_{name}: invalid choice: "
                          "'bogus'")
    # with no instance, the variable is named, not a --suite bogus
    code, out, err = run(capsys, "verify")
    assert (code, out) == (2, "")
    assert f"GRASSVER_{name}" in err


def test_an_explicit_flag_replaces_a_bad_env_choice(capsys, monkeypatch):
    monkeypatch.setenv("GRASSVER_SUITE", "bogus")
    code, out, err = run(capsys, "verify", "--suite", "graph", "--q", "2",
                         "--n", "7", "--k", "3")
    assert (code, err) == (0, "")
    assert out.endswith("3/3 checks passed\n")


def test_every_record_kind_carries_the_one_header(capsys, monkeypatch):
    monkeypatch.setattr(reports, "RECORD_VERSION", 2)
    recs = []
    for argv in (["verify", "--q", "2", "--n", "4", "--k", "2"],
                 ["tables", "--q", "2", "--n", "7", "--k", "3"],
                 ["enumerate", "--q", "2", "--n", "4", "--k", "2"]):
        code, out, _ = run(capsys, *argv, "--format", "records")
        assert code == 0
        recs += [json.loads(line) for line in out.splitlines()]
    inst = GrassmannInstance(GeometryContext(2, 7, 3, dims=()), i=2)
    recs += [verify_entry_table(inst).to_record(),
             verify_relation("REL-1", GeometryContext(2, 4, 2)).to_record()]
    versions = {}
    for rec in recs:
        versions.setdefault(rec["record"], set()).add(rec["version"])
    assert versions == dict.fromkeys(
        ["check", "skip", "structure-constants-table", "edge-types-table",
         "entry-table-table", "relation-report", "stratum",
         "enumeration-summary"], {2})


def test_no_module_but_reports_writes_the_record_header():
    # a "record" or "version" key, as a dict literal key, a keyword or an
    # item assignment, is written by reports.record alone
    header = {"record", "version"}
    for src in Path(grassver.__file__).parent.glob("*.py"):
        if src.name == "reports.py":
            continue
        keys = []
        for node in ast.walk(ast.parse(src.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                keys += [k.value for k in node.keys
                         if isinstance(k, ast.Constant)]
            elif isinstance(node, ast.Call):
                keys += [kw.arg for kw in node.keywords]
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.slice, ast.Constant)):
                keys.append(node.slice.value)
        assert not header & set(keys), src.name


def test_python_m_grassver_runs_the_cli(capsys):
    argv = ["verify", "--suite", "geometry", "--q", "2", "--n", "4",
            "--k", "2"]
    code, out, err = run(capsys, *argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "grassver", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, mask_seconds(proc.stdout), proc.stderr) == (
        code, mask_seconds(out), err)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the reports are NamedTuples: dataclasses, and the inspect it
    # imports, made 12 of the 38 modules that importing the CLI loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, grassver.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("build,field", [
    (lambda: verify_relation("REL-1", GeometryContext(2, 4, 2)),
     "truncated"),
    (lambda: verify_cover_counts(GeometryContext(2, 4, 2)), "checked"),
    (lambda: structure_constants(GrassmannInstance(
        GeometryContext(2, 7, 3, dims=()), i=2)), "mismatches"),
], ids=["relation", "cover-counts", "table"])
def test_a_returned_report_is_a_value(build, field):
    report = build()
    with pytest.raises(AttributeError):
        setattr(report, field, getattr(report, field))


# runs one verify under perfbench's layer tracer and prints, last, what the
# benchmark worker reads: the exit code, the traced metrics, the backend,
# the version, and the named function keys that no layer module defines
_TRACED_RUN = """
import json
import grassver, grassver.cli, layertrace
from grassver import kernels

tracer = layertrace.Tracer()
tracer.install()
code = grassver.cli.main(["verify", "--suite", "all", "--q", "2", "--n", "4",
                          "--k", "2"])
metrics = tracer.metrics()
print(json.dumps({
    "code": code, "metrics": metrics, "backend": kernels.BACKEND,
    "version": grassver.__version__,
    "missing": [key for _, key, _ in layertrace.NAMED
                if key not in tracer.stats]}))
"""


# named benchmark metrics whose functions are already gone, so they read
# 0; the metric list can change only with a change to the benchmark
STALE_TRACED_NAMES = {
    "geometry.GeometryContext.typed_adjacency",
    "relations.ColumnEvaluator.evaluate_band_terms",
    "relations.ColumnEvaluator.apply_terms",
}


def test_the_names_the_benchmark_tracer_reads_exist():
    # the benchmark's tracer wraps grassver's functions by name from
    # outside the package; a deleted or renamed one breaks only traced
    # benchmark runs, or makes a named metric read 0, and the test suite
    # does not otherwise start such a run
    src = Path(cli.__file__).resolve().parents[1]
    perfbench = src.parent / "perfbench"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(perfbench), str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert got["metrics"]["relations.verify_relation.calls"] > 0
    assert got["backend"] == "python"
    assert got["version"] == grassver.__version__
    assert set(got["missing"]) <= STALE_TRACED_NAMES
