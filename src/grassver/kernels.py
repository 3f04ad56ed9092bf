"""Row-reduction kernels, in plain Python.

A row of F_q^n is one packed int at every prime q.  Lane ``j`` holds the
residue of column ``j`` in ``lanes(q).bits`` bits: one bit at q = 2, so a
GF(2) row is a bitmask, and at q > 2 enough guard bits that a row
operation ``r + c*w`` (c < q) or a scaling ``c*v`` never carries into the
next lane.  One lane-wise Barrett step, ``reduce_lanes``, brings every lane
back to [0, q) after such an operation; the kernels below write that step
out in place, since they are the sweeps' inner loops.  Its constants are
mult = ceil(2^shift / q) for the least shift with top * e < 2^shift, where
e = mult*q - 2^shift and top = q*q - q is the largest lane value.  That
condition proves the step exact: for t = a*q + r <= top, with 0 <= r < q,
t * mult / 2^shift = a + (r + t*e / 2^shift) / q, and r + t*e / 2^shift
< q, so the floor is a = t // q.  It is checked once per shift, not once
per lane value, so a layout costs O(log q) steps, and each inverse mod q
is computed when a kernel first needs it.  Every kernel expects lanes in
[0, q); ``gf._pack_row`` is where residues are reduced mod q.

The pivot of a nonzero row is the lane of its lowest set bit, and a
canonical row's pivot entry is 1, so ``r & -r`` is the first bit of its
pivot lane at every q.  Only the row operation itself differs with q: XOR
at q = 2, add-and-reduce at q > 2.

There is one row-reduction algorithm.  ``reduce_row`` gives the point of
a vector modulo a canonical basis (reduced by the rows whose pivot it
hits, first nonzero entry 1), which the typed sweeps compare instead of
building sums.  ``insert_row`` adds such a point to the basis: it clears
the point's pivot column from the rows and puts it in pivot order, with no
reduction.  The sweep of covers above
(``GeometryContext.superspaces_rows``) writes that row operation out
itself, for all the coset vectors of one lead column at once, and calls
no kernel.  ``extend_rows`` is the two in turn, and ``rref2``/
``rrefp`` fold it over their rows (``gf`` re-exports it).  ``rank2``
keeps an XOR basis and ``rankp`` counts pivots by forward elimination:
either is cheaper than a canonical basis when only the dimension is
needed.  ``GeometryContext.intersection_dim_with_y`` writes ``rank2``'s
loop out once more, in its own frame.
"""

from __future__ import annotations

from typing import NamedTuple

#: the kernel implementation, as named in benchmark run records
BACKEND = "python"

#: the widest row the lane masks cover, in columns
MAX_COLUMNS = 1024


class Lanes(NamedTuple):
    """The packing of GF(q) rows: ``bits`` per lane, ``mask`` for one lane,
    and the Barrett constants of ``reduce_lanes``: for every lane value t
    in [0, q*q - q], t // q == (t * mult) >> shift, and ``quotient_mask``
    keeps the low ``bits - shift`` bits of every lane."""

    bits: int
    mask: int
    mult: int
    shift: int
    quotient_mask: int
    inverse: _Inverses  # inverse[c] = c^-1 mod q, for c in 1..q-1


class _Inverses(dict):
    """c -> c^-1 mod q, each computed on first use: a layout costs no
    table of all q residues, so a field too large to enumerate is refused
    before any such table is built."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        super().__init__()
        self.q = q

    def __missing__(self, c):
        inv = self[c] = pow(c, -1, self.q)
        return inv


class _Layouts(dict):
    """q -> Lanes; a miss builds the layout, so the kernels index it."""

    def __missing__(self, q):
        lay = self[q] = _layout(q)
        return lay


_LANES = _Layouts()


def lanes(q: int) -> Lanes:
    """The lane layout of rows over GF(q), q prime (cached)."""
    return _LANES[q]


def _layout(q: int) -> Lanes:
    inverse = _Inverses(q)
    if q == 2:
        return Lanes(1, 1, 0, 0, 0, inverse)
    top = q * q - q  # the largest lane value a row operation produces
    shift = 1
    while True:
        mult = -(-(1 << shift) // q)
        # top * e < 2^shift proves the step exact (see the module docstring)
        if top * (mult * q - (1 << shift)) < 1 << shift:
            break
        shift += 1
    bits = (top * mult).bit_length()
    lane_quotient = (1 << (bits - shift)) - 1
    quotient_mask = sum(lane_quotient << (j * bits)
                        for j in range(MAX_COLUMNS))
    return Lanes(bits, (1 << bits) - 1, mult, shift, quotient_mask, inverse)


def reduce_lanes(t: int, q: int) -> int:
    """Every lane of t reduced mod q, for lanes in [0, q*q - q]."""
    _, _, mult, shift, qmask, _ = _LANES[q]
    return t - q * (((t * mult) >> shift) & qmask)


def extend_rows(rows, v, q: int):
    """Canonical RREF of span(rows, v), for ``rows`` already canonical RREF.

    ``reduce_row`` followed by ``insert_row``: O(d) row operations instead
    of a full reduction.  Lanes of v are in [0, q).  Returns ``rows`` as a
    tuple when v already lies in their span.
    """
    return insert_row(rows, reduce_row(rows, v, q), q)


def reduce_row(rows, v, q: int):
    """The point of v modulo span(rows), for ``rows`` canonical RREF.

    Reduces v by the rows whose pivot it hits and scales the result so
    that its first nonzero entry is 1.  Two vectors give the same point
    exactly when each is a nonzero multiple of the other modulo the span;
    every vector of the span gives the zero row.  Lanes of v are in
    [0, q).
    """
    if q == 2:
        for r in rows:
            if v & r & -r:
                v ^= r
        return v
    bits, mask, mult, shift, qmask, inverse = _LANES[q]
    for r in rows:
        c = (v >> ((r & -r).bit_length() - 1)) & mask
        if c:
            v += (q - c) * r
            v -= q * (((v * mult) >> shift) & qmask)
    if v:
        lead = (v >> ((v & -v).bit_length() - 1) // bits * bits) & mask
        if lead != 1:
            v *= inverse[lead]
            v -= q * (((v * mult) >> shift) & qmask)
    return v


def insert_row(rows, w, q: int):
    """Canonical RREF of span(rows, w), for ``rows`` canonical RREF and w
    a point modulo them, as ``reduce_row`` gives it: lanes in [0, q),
    zero on every pivot column of ``rows``, first nonzero entry 1.

    Clears w's pivot column from the rows and puts w in pivot order; no
    reduction.  Returns ``rows`` as a tuple when w is zero.
    """
    if not w:
        return tuple(rows)
    out = []
    placed = False
    low = w & -w  # the first bit of w's pivot lane, which holds 1
    if q == 2:
        for r in rows:
            if not placed and r & -r > low:
                out.append(w)
                placed = True
            out.append(r ^ w if r & low else r)
    else:
        _, mask, mult, shift, qmask, _ = _LANES[q]
        at = low.bit_length() - 1
        for r in rows:
            if not placed and r & -r > low:
                out.append(w)
                placed = True
            c = (r >> at) & mask
            if c:
                r += (q - c) * w
                r -= q * (((r * mult) >> shift) & qmask)
            out.append(r)
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
    """GF(2) rank of bit-packed rows.

    An XOR basis: each row is reduced by the kept rows in the order kept,
    each step clearing a kept row's top bit (``r ^ b < r`` exactly when r
    has it), and kept if anything is left.  No kept row has the top bit of
    an earlier one, so the kept rows are independent and a row in their
    span reduces to zero.
    """
    basis = []
    for r in rows:
        for b in basis:
            if r ^ b < r:
                r ^= b
        if r:
            basis.append(r)
    return len(basis)


def rrefp(rows, q):
    """Canonical reduced row-echelon form over GF(q), q prime.

    Args:
        rows: iterable of packed rows, lanes in [0, q).
        q: prime field order.

    Returns:
        Tuple of nonzero RREF rows, ordered by increasing pivot column,
        pivot entries 1, pivot columns zero elsewhere.
    """
    basis = ()
    for r in rows:
        basis = extend_rows(basis, r, q)
    return basis


def rankp(rows, q):
    """Rank over GF(q), q an odd prime, of packed rows with lanes in
    [0, q); ``rank2`` is the GF(2) kernel.

    Forward elimination keyed by pivot lane, with each stored row scaled
    to pivot entry 1.
    """
    bits, mask, mult, shift, qmask, inverse = _LANES[q]
    piv = {}
    for r in rows:
        while r:
            at = ((r & -r).bit_length() - 1) // bits * bits
            c = (r >> at) & mask
            b = piv.get(at)
            if b is None:
                if c != 1:
                    r *= inverse[c]
                    r -= q * (((r * mult) >> shift) & qmask)
                piv[at] = r
                break
            r += (q - c) * b
            r -= q * (((r * mult) >> shift) & qmask)
    return len(piv)
