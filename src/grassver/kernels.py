"""Row-reduction kernels, in plain Python.

Rows over GF(2) are packed into integers (bit ``j`` holds the coordinate of
column ``j``); rows over a general prime field are tuples of residues in
[0, q).  These four functions do every full row reduction of the package
(the geometry sweeps extend a basis by one row with ``gf.extend_rows``
instead).  ``benchmarks/bench_kernels.py`` times them per call.
"""

from __future__ import annotations

#: the kernel implementation, as named in benchmark run records
BACKEND = "python"


def rref2(rows):
    """Canonical reduced row-echelon form over GF(2).

    Args:
        rows: iterable of bit-packed rows.

    Returns:
        Tuple of nonzero RREF rows ordered by increasing pivot column.
    """
    piv = {}  # pivot bit -> row, kept mutually reduced
    for r in rows:
        # each row is zero at the other pivots, so any order reduces fully
        for p, b in piv.items():
            if r & p:
                r ^= b
        if r:
            low = r & -r
            for p, b in piv.items():
                if b & low:
                    piv[p] = b ^ r
            piv[low] = r
    return tuple(piv[p] for p in sorted(piv))


def rank2(rows):
    """GF(2) rank of bit-packed rows."""
    piv = {}
    for r in rows:
        while r:
            low = r & -r
            b = piv.get(low)
            if b is None:
                piv[low] = r
                break
            r ^= b
    return len(piv)


def rrefp(rows, q):
    """Canonical reduced row-echelon form over GF(q), q prime.

    Args:
        rows: iterable of rows, each a sequence of residues in [0, q).
        q: prime field order.

    Returns:
        Tuple of nonzero RREF rows (tuples), ordered by increasing pivot
        column, pivot entries 1, pivot columns zero elsewhere.
    """
    basis = []  # (pivot_col, row-list), kept mutually reduced
    for r in rows:
        r = list(r)
        for pc, b in basis:
            c = r[pc]
            if c:
                for t in range(len(r)):
                    r[t] = (r[t] - c * b[t]) % q
        pc = next((t for t, v in enumerate(r) if v), -1)
        if pc < 0:
            continue
        inv = pow(r[pc], -1, q)
        if inv != 1:
            for t in range(len(r)):
                r[t] = (r[t] * inv) % q
        for _, b in basis:
            c = b[pc]
            if c:
                for t in range(len(b)):
                    b[t] = (b[t] - c * r[t]) % q
        basis.append((pc, r))
    basis.sort(key=lambda e: e[0])
    return tuple(tuple(b) for _, b in basis)


def rankp(rows, q):
    """Rank over GF(q), q prime."""
    basis = []  # (pivot_col, row-list), forward-reduced only
    for r in rows:
        r = list(r)
        for pc, b in basis:
            c = r[pc]
            if c:
                for t in range(pc, len(r)):
                    r[t] = (r[t] - c * b[t]) % q
        pc = next((t for t, v in enumerate(r) if v), -1)
        if pc < 0:
            continue
        inv = pow(r[pc], -1, q)
        if inv != 1:
            for t in range(pc, len(r)):
                r[t] = (r[t] * inv) % q
        basis.append((pc, r))
        basis.sort(key=lambda e: e[0])
    return len(basis)
