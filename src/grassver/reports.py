"""Serialization of verification results.

Three output shapes: human-readable text lines, newline-delimited JSON
records (one self-describing record per check), and CSV.  All output is
deterministic: dict keys are sorted and rows are emitted in a canonical
order.
"""

from __future__ import annotations

import csv
import io
import json


def check_record(suite: str, check: str, instance, passed: bool,
                 seconds: float, detail: dict | None = None) -> dict:
    rec = {
        "record": "check",
        "version": 1,
        "suite": suite,
        "check": check,
        "instance": list(instance),
        "pass": passed,
        "seconds": round(seconds, 3),
    }
    if detail:
        rec["detail"] = detail
    return rec


def skip_record(suite: str, check: str, instance, reason: str) -> dict:
    """A check, or with check "*" a whole suite, that was not run, and
    why; it is not a check, so it neither passes nor fails."""
    return {"record": "skip", "version": 1, "suite": suite, "check": check,
            "instance": list(instance), "reason": reason}


def format_check_line(rec: dict) -> str:
    inst = ",".join(str(v) for v in rec["instance"])
    if rec["record"] == "skip":
        return f"SKIP {rec['suite']}:{rec['check']} ({inst}) {rec['reason']}"
    status = "PASS" if rec["pass"] else "FAIL"
    return (f"{status} {rec['suite']}:{rec['check']} "
            f"({inst}) {rec['seconds']:.2f}s")


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
    if output_format == "text":
        return format_check_line(rec) + "\n"
    if output_format == "csv":
        skip = rec["record"] == "skip"
        return csv_lines([(
            rec["suite"], rec["check"],
            " ".join(str(v) for v in rec["instance"]),
            f"skip: {rec['reason']}" if skip else "1" if rec["pass"] else "0",
            "" if skip else f"{rec['seconds']:.3f}",
        )])
    return records_to_ndjson([rec])


def _cell_str(value) -> str:
    if isinstance(value, tuple):
        return "(" + " ".join(str(v) for v in value) + ")"
    return str(value)


def table_to_csv(report) -> str:
    """CSV for a TableReport: one row per cell, brute and closed columns."""
    q, n, k, i = report.instance
    rows = [("kind", "q", "n", "k", "i", "cell",
             "brute", "closed", "match")]
    for cell in sorted(report.expected):
        name = "|".join(cell) if isinstance(cell, tuple) else str(cell)
        brute = report.observed.get(cell, "")
        closed = report.expected[cell]
        ok = (cell not in report.mismatches
              and cell not in report.inequitable)
        rows.append((report.kind, q, n, k, i, name,
                     _cell_str(brute), _cell_str(closed), "1" if ok else "0"))
    return csv_lines(rows)


def table_to_text(report, title: str) -> str:
    lines = [f"{title} at (q,n,k,i)={report.instance}"]
    width = max(len("|".join(c) if isinstance(c, tuple) else str(c))
                for c in report.expected)
    for cell in sorted(report.expected):
        name = "|".join(cell) if isinstance(cell, tuple) else str(cell)
        brute = _cell_str(report.observed.get(cell, "?"))
        closed = _cell_str(report.expected[cell])
        mark = "ok" if brute == closed else "MISMATCH"
        if cell in report.inequitable:
            mark = "NOT CONSTANT"
        lines.append(f"  {name:<{width}}  brute={brute:<14} "
                     f"closed={closed:<14} {mark}")
    lines.append(f"  => {'PASS' if report.holds else 'FAIL'}")
    return "\n".join(lines)
