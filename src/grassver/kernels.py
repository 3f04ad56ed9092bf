"""Row-reduction kernels, in plain Python.

Rows over GF(2) are packed into integers (bit ``j`` holds the coordinate of
column ``j``); rows over a general prime field are tuples of residues.
``rrefp`` and ``rankp`` take rows of any integers and reduce them mod q
where the rows enter; every other kernel over GF(q > 2) expects residues
in [0, q).

There is one row-reduction algorithm.  ``reduce_row`` gives the point of
a vector modulo a canonical basis (reduced by the rows whose pivot it
hits, first nonzero entry 1), which the typed sweeps compare instead of
building sums.  ``insert_row`` adds such a point to the basis: it clears
the point's pivot column from the rows and puts it in pivot order, with no
reduction, so the cover sweeps call it directly on coset vectors that are
points already.  ``extend_rows`` is the two in turn, and ``rref2``/
``rrefp`` fold it over their rows (``gf`` re-exports it).  ``rank2``/
``rankp`` count pivots by forward elimination alone, which is cheaper than
a canonical basis when only the dimension is needed.
"""

from __future__ import annotations

#: the kernel implementation, as named in benchmark run records
BACKEND = "python"


def extend_rows(rows, v, q: int):
    """Canonical RREF of span(rows, v), for ``rows`` already canonical RREF.

    ``reduce_row`` followed by ``insert_row``: O(d) row operations instead
    of a full reduction.  Residues of v are in [0, q).  Returns ``rows`` as
    a tuple when v already lies in their span.
    """
    return insert_row(rows, reduce_row(rows, v, q), q)


def reduce_row(rows, v, q: int):
    """The point of v modulo span(rows), for ``rows`` canonical RREF.

    Reduces v by the rows whose pivot it hits and scales the result so
    that its first nonzero entry is 1.  Two vectors give the same point
    exactly when each is a nonzero multiple of the other modulo the span;
    every vector of the span gives the zero row.  Residues of v are in
    [0, q).
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


def insert_row(rows, w, q: int):
    """Canonical RREF of span(rows, w), for ``rows`` canonical RREF and w
    a point modulo them, as ``reduce_row`` gives it: residues in [0, q),
    zero on every pivot column of ``rows``, first nonzero entry 1.

    Clears w's pivot column from the rows and puts w in pivot order; no
    reduction.  Returns ``rows`` as a tuple when w is zero.
    """
    out = []
    placed = False
    if q == 2:
        if not w:
            return tuple(rows)
        low = w & -w
        for r in rows:
            if not placed and r & -r > low:
                out.append(w)
                placed = True
            out.append(r ^ w if r & low else r)
    else:
        if 1 not in w:  # the zero row
            return tuple(rows)
        pc = w.index(1)  # the first nonzero entry is 1
        for r in rows:
            if not placed and r.index(1) > pc:
                out.append(w)
                placed = True
            c = r[pc]
            out.append(tuple((a - c * b) % q for a, b in zip(r, w))
                       if c else r)
    if not placed:
        out.append(w)
    return tuple(out)


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
        rows: iterable of rows, each a sequence of integers; they are
            reduced mod q here.
        q: prime field order.

    Returns:
        Tuple of nonzero RREF rows (tuples), ordered by increasing pivot
        column, pivot entries 1, pivot columns zero elsewhere.
    """
    basis = ()
    for r in rows:
        basis = extend_rows(basis, tuple(v % q for v in r), q)
    return basis


def rankp(rows, q):
    """Rank over GF(q), q prime, of rows of integers (reduced mod q here)."""
    basis = []  # (pivot_col, row-list), forward-reduced only
    for r in rows:
        r = [v % q for v in r]
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
