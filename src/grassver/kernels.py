"""Row-reduction kernels, in plain Python.

Rows over GF(2) are packed into integers (bit ``j`` holds the coordinate of
column ``j``); rows over a general prime field are tuples of residues in
[0, q).  ``extend_rows`` is the one row-reduction step of the package: it
adds one row to a canonical basis.  ``rref2``/``rrefp`` fold it over their
rows, and the geometry sweeps call it directly (``gf`` re-exports it).
``reduce_row`` is its reducing half alone: the point of a vector modulo a
canonical basis, which the typed sweeps compare instead of building sums.
``rank2``/``rankp`` count pivots by forward elimination alone, which is
cheaper than a canonical basis when only the dimension is needed.
"""

from __future__ import annotations

#: the kernel implementation, as named in benchmark run records
BACKEND = "python"


def extend_rows(rows, v, q: int):
    """Canonical RREF of span(rows, v), for ``rows`` already canonical RREF.

    Takes O(d) row operations instead of a full reduction: reduce v by
    the rows whose pivot it hits, normalise it, clear its pivot column
    from the rows and insert it in pivot order.  Returns ``rows`` as a
    tuple when v already lies in their span.
    """
    out = []
    placed = False
    if q == 2:
        for r in rows:
            if v & r & -r:
                v ^= r
        if not v:
            return tuple(rows)
        low = v & -v
        for r in rows:
            if not placed and r & -r > low:
                out.append(v)
                placed = True
            out.append(r ^ v if r & low else r)
    else:
        for r in rows:
            c = v[r.index(1)]
            if c:
                v = [(a - c * b) % q for a, b in zip(v, r)]
        pc = next((t for t, a in enumerate(v) if a), -1)
        if pc < 0:
            return tuple(rows)
        inv = pow(v[pc], -1, q)
        v = tuple((a * inv) % q for a in v) if inv != 1 else tuple(v)
        for r in rows:
            if not placed and r.index(1) > pc:
                out.append(v)
                placed = True
            c = r[pc]
            out.append(tuple((a - c * b) % q for a, b in zip(r, v))
                       if c else r)
    if not placed:
        out.append(v)
    return tuple(out)


def reduce_row(rows, v, q: int):
    """The point of v modulo span(rows), for ``rows`` canonical RREF.

    Reduces v by the rows whose pivot it hits and scales the result so
    that its first nonzero entry is 1.  Two vectors give the same point
    exactly when each is a nonzero multiple of the other modulo the span;
    every vector of the span gives the zero row.
    """
    if q == 2:
        for r in rows:
            if v & r & -r:
                v ^= r
        return v
    for r in rows:
        c = v[r.index(1)]
        if c:
            v = [(a - c * b) % q for a, b in zip(v, r)]
    lead = next((a for a in v if a), 1)
    if lead != 1:
        inv = pow(lead, -1, q)
        return tuple((a * inv) % q for a in v)
    return tuple(v)


def rref2(rows):
    """Canonical reduced row-echelon form over GF(2).

    Args:
        rows: iterable of bit-packed rows.

    Returns:
        Tuple of nonzero RREF rows ordered by increasing pivot column.
    """
    basis = ()
    for r in rows:
        basis = extend_rows(basis, r, 2)
    return basis


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
    basis = ()
    for r in rows:
        basis = extend_rows(basis, r, q)
    return basis


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
