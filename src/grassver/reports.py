"""Serialization of verification results, the one output layer: ``record``
writes every record's header, ``cell_name`` and ``cell_value`` every table
cell.  Three output shapes: human-readable text lines, newline-delimited
JSON records (one self-describing record per check, table or stratum), and
CSV.  All output is deterministic: dict keys are sorted and rows are
emitted in a canonical order.
"""

from __future__ import annotations

import csv
import io
import json

RECORD_VERSION = 1


def record(kind: str, **fields) -> dict:
    """A record of ``kind``: the header, then ``fields`` in order."""
    return {"record": kind, "version": RECORD_VERSION, **fields}


def check_record(suite: str, check: str, instance, passed: bool,
                 seconds: float, detail: dict | None = None) -> dict:
    rec = record("check", suite=suite, check=check, instance=list(instance),
                 **{"pass": passed}, seconds=round(seconds, 3))
    if detail:
        rec["detail"] = detail
    return rec


def skip_record(suite: str, check: str, instance, reason: str) -> dict:
    """A check, or with check "*" a whole suite, that was not run, and
    why; it is not a check, so it neither passes nor fails."""
    return record("skip", suite=suite, check=check, instance=list(instance),
                  reason=reason)


def records_to_ndjson(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def csv_lines(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


CHECKS_CSV_HEADER = csv_lines([("suite", "check", "instance", "pass",
                                "seconds")])


def format_check(rec: dict, output_format: str) -> str:
    """One check or skip record as written out: a text line, a CSV row
    (after CHECKS_CSV_HEADER; a skip has "skip: <reason>" for pass and no
    seconds) or an NDJSON line."""
    skip = rec["record"] == "skip"
    if output_format == "text":
        inst = ",".join(str(v) for v in rec["instance"])
        status = "SKIP" if skip else "PASS" if rec["pass"] else "FAIL"
        return (f"{status} {rec['suite']}:{rec['check']} ({inst}) "
                + (rec["reason"] if skip else f"{rec['seconds']:.2f}s") + "\n")
    if output_format == "csv":
        return csv_lines([(
            rec["suite"], rec["check"],
            " ".join(str(v) for v in rec["instance"]),
            f"skip: {rec['reason']}" if skip else "1" if rec["pass"] else "0",
            "" if skip else f"{rec['seconds']:.3f}",
        )])
    return records_to_ndjson([rec])


def cell_name(cell: tuple) -> str:
    """A table cell, (O, N) or (product, class), named "O|N"."""
    return "|".join(cell)


def cell_value(value, output_format: str):
    """A cell's value: a triple is a list in a record, "(a b c)" elsewhere."""
    if isinstance(value, tuple):
        return (list(value) if output_format == "records"
                else "(" + " ".join(str(v) for v in value) + ")")
    return value


def table_to_csv(report) -> str:
    """CSV for a TableReport: one row per cell, brute and closed columns."""
    q, n, k, i = report.instance
    rows = [("kind", "q", "n", "k", "i", "cell",
             "brute", "closed", "match")]
    for cell in sorted(report.expected):
        bad = cell in report.mismatches or cell in report.inequitable
        rows.append((report.kind, q, n, k, i, cell_name(cell),
                     cell_value(report.observed.get(cell, ""), "csv"),
                     cell_value(report.expected[cell], "csv"),
                     "0" if bad else "1"))
    return csv_lines(rows)


def table_to_text(report, title: str) -> str:
    lines = [f"{title} at (q,n,k,i)={report.instance}"]
    width = max(len(cell_name(c)) for c in report.expected)
    for cell in sorted(report.expected):
        brute = cell_value(report.observed.get(cell, "?"), "text")
        closed = cell_value(report.expected[cell], "text")
        mark = ("NOT CONSTANT" if cell in report.inequitable
                else "MISMATCH" if cell in report.mismatches else "ok")
        lines.append(f"  {cell_name(cell):<{width}}  brute={brute:<14} "
                     f"closed={closed:<14} {mark}")
    lines.append(f"  => {'PASS' if report.holds else 'FAIL'}")
    return "\n".join(lines)


def format_table(report, title: str, output_format: str) -> str:
    """A TableReport as written out: titled text, CSV or its record."""
    if output_format == "text":
        return table_to_text(report, title) + "\n"
    if output_format == "csv":
        return table_to_csv(report)
    return records_to_ndjson([report.to_record()])


def format_enumeration(records, output_format: str) -> str:
    """An enumeration's stratum records, then its summary record, as written
    out; the text starts with the summary, the CSV has the strata only."""
    *strata, summary = records
    if output_format == "records":
        return records_to_ndjson(records)
    if output_format == "csv":
        return csv_lines([("i", "j", "size", "closed_form")] + [
            (r["i"], r["j"], r["size"], r["closed_form"]) for r in strata])
    return "\n".join([
        "P_q(n) at (q,n,k)=({},{},{}): {} subspaces".format(
            *summary["instance"], summary["total"]),
        *[f"  |P_{{{r['i']},{r['j']}}}| = {r['size']} "
          f"(closed form {r['closed_form']})" for r in strata],
        f"  cover pairs: {summary['slash_cover_pairs']} slash, "
        f"{summary['backslash_cover_pairs']} backslash\n"])
