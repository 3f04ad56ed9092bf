"""Exact linear algebra over prime fields GF(q).

Subspaces of F_q^n are stored by their canonical reduced row-echelon basis,
so two equal subspaces are structurally identical (and hashable).  A row
is one packed int at every q: lane ``j`` holds the residue of column ``j``
in ``kernels.lanes(q).bits`` bits (one bit at q = 2, so GF(2) rows are
bitmasks).  ``_pack_row`` is the one place residues are reduced mod q.
Only prime q is supported.  The row-reduction kernels, the one-row step
``extend_rows`` among them, live in ``kernels``; ``extend_rows`` is
re-exported here.
"""

from __future__ import annotations

from itertools import combinations, product

from .kernels import (
    MAX_COLUMNS, extend_rows, lanes, rank2, rankp, rref2, rrefp)


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def validate_field_order(q: int) -> int:
    """Check that q is a prime field order; returns q."""
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"field order must be prime, got {q!r}")
    return q


def qint(m: int, q: int) -> int:
    """The q-integer [m] = 1 + q + ... + q^(m-1); [0] = 0."""
    if m < 0:
        raise ValueError("qint requires m >= 0")
    return (q**m - 1) // (q - 1)


def gaussian_binomial(n: int, l: int, q: int) -> int:
    """Number of l-dimensional subspaces of F_q^n."""
    if l < 0 or l > n:
        return 0
    num = den = 1
    for t in range(l):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    assert num % den == 0
    return num // den


def _pack_row(row, q: int) -> int:
    """The packed row of a sequence of integers, each reduced mod q."""
    if len(row) > MAX_COLUMNS:
        raise ValueError(f"rows are limited to {MAX_COLUMNS} columns")
    bits = lanes(q).bits
    acc = 0
    for j, v in enumerate(row):
        acc |= (v % q) << (j * bits)
    return acc


def _unpack_row(row: int, n: int, q: int) -> list[int]:
    """The residues of a packed row, one per column."""
    bits, mask = lanes(q)[:2]
    return [(row >> (j * bits)) & mask for j in range(n)]


def rref_rows(rows, q: int):
    """Canonical RREF of packed rows (dispatch on field order)."""
    if q == 2:
        return rref2(rows)
    return rrefp(rows, q)


def format_rows(rows, n: int, q: int) -> list[str]:
    """Compact row rendering: hex bitmask for q=2, digit string else."""
    if q == 2:
        return [format(r, "x") for r in rows]
    return ["".join(map(str, _unpack_row(r, n, q))) for r in rows]


def rank_rows(rows, q: int) -> int:
    if q == 2:
        return rank2(rows)
    return rankp(rows, q)


class Subspace:
    """A subspace of F_q^n in canonical RREF basis form.

    Immutable; equality and hashing are structural, so equal subspaces
    compare equal.  ``rows`` holds the packed basis rows (see module
    docstring for the packing).
    """

    __slots__ = ("q", "n", "rows", "_hash")

    def __init__(self, q: int, n: int, rows):
        """The row space of ``rows``: packed rows (lanes in [0, q)), in any
        order; ``from_matrix`` takes rows of any integers."""
        rows = tuple(rows)
        if not all(isinstance(r, int) and _pack_row(_unpack_row(r, n, q), q)
                   == r for r in rows):
            raise ValueError(f"Subspace takes packed rows of {n} lanes in "
                             f"[0, {q}); Subspace.from_matrix takes rows of "
                             "any integers")
        self.q = q
        self.n = n
        self.rows = rref_rows(rows, q)

    @classmethod
    def _canonical(cls, q: int, n: int, rows: tuple) -> "Subspace":
        """A Subspace on rows that are already a canonical RREF tuple."""
        u = object.__new__(cls)
        u.q = q
        u.n = n
        u.rows = rows
        return u

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_matrix(cls, matrix, q: int, n: int | None = None) -> "Subspace":
        """Row space of a matrix of any integers, in canonical form; every
        row has n entries, n defaulting to the first row's length."""
        matrix = [list(row) for row in matrix]
        if n is None:
            if not matrix:
                raise ValueError("ambient dimension required for empty matrix")
            n = len(matrix[0])
        if any(len(row) != n for row in matrix):
            raise ValueError(f"every row of the matrix needs n = {n} "
                             "entries")
        packed = [_pack_row(row, q) for row in matrix]
        return cls._canonical(q, n, rref_rows(packed, q))

    @classmethod
    def zero(cls, q: int, n: int) -> "Subspace":
        return cls._canonical(q, n, ())

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        return cls.coordinate_span(range(n), q, n)

    @classmethod
    def coordinate_span(cls, indices, q: int, n: int) -> "Subspace":
        bits = lanes(q).bits
        return cls._canonical(q, n, tuple(1 << (j * bits)
                                          for j in sorted(indices)))

    def basis_matrix(self) -> list[list[int]]:
        return [_unpack_row(r, self.n, self.q) for r in self.rows]

    def row_strings(self) -> list[str]:
        """The basis rows as ``format_rows`` renders them."""
        return format_rows(self.rows, self.n, self.q)

    def vectors(self):
        """Iterate every vector of the subspace (packed). Test-scale only."""
        matrix = self.basis_matrix()
        for coeffs in product(range(self.q), repeat=self.dim):
            yield _pack_row([sum(c * r[t] for c, r in zip(coeffs, matrix))
                             for t in range(self.n)], self.q)

    def contains_vector(self, vec) -> bool:
        """Membership test for a packed vector."""
        return len(extend_rows(self.rows, vec, self.q)) == self.dim

    def contains(self, other: "Subspace") -> bool:
        _check_compatible(self, other)
        return rank_rows(self.rows + other.rows, self.q) == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.q == other.q
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        # computed on first use: a sweep that reads only rows hashes nothing
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.q, self.n, self.rows))
            return h

    def __repr__(self):
        return f"Subspace(q={self.q}, n={self.n}, rows={self.row_strings()})"


def _check_compatible(u: Subspace, v: Subspace) -> None:
    if u.n != v.n or u.q != v.q:
        raise ValueError(
            f"incompatible subspaces: (q={u.q}, n={u.n}) vs (q={v.q}, n={v.n})"
        )


def sum_rows(urows, vrows, q: int):
    return rref_rows(tuple(urows) + tuple(vrows), q)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_compatible(u, v)
    return Subspace._canonical(u.q, u.n, sum_rows(u.rows, v.rows, u.q))


def intersect_rows(urows, vrows, n: int, q: int):
    """Basis of the intersection via the Zassenhaus stacked-basis trick:
    the rows (u, u) and (v, 0) in 2n columns, reduced; the rows that are
    zero on the first n columns span (0, u∩v)."""
    shift = n * lanes(q).bits
    low = (1 << shift) - 1
    stacked = [r | (r << shift) for r in urows] + list(vrows)
    return tuple(r >> shift for r in rref_rows(stacked, q) if not r & low)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    _check_compatible(u, v)
    return Subspace._canonical(u.q, u.n,
                               intersect_rows(u.rows, v.rows, u.n, u.q))


def dim_sum(u: Subspace, v: Subspace) -> int:
    _check_compatible(u, v)
    return rank_rows(u.rows + v.rows, u.q)


def dim_intersect(u: Subspace, v: Subspace) -> int:
    return u.dim + v.dim - dim_sum(u, v)


def enumerate_subspaces(n: int, l: int, q: int):
    """Yield every l-dimensional subspace of F_q^n exactly once.

    Generates RREF patterns directly: choose pivot columns, then fill the
    free entries (non-pivot columns to the right of each pivot).  The order
    is deterministic: lexicographic in the pivot columns, then in the free
    values.  The count equals gaussian_binomial(n, l, q).
    """
    validate_field_order(q)
    if l < 0 or l > n:
        raise ValueError(f"dimension {l} outside [0, {n}]")
    if l == 0:
        yield Subspace.zero(q, n)
        return
    bits = lanes(q).bits
    new = object.__new__
    for pivots in combinations(range(n), l):
        # the options of row t: 1 at its pivot, any value at each column
        # right of it that is no pivot, in lexicographic order
        choices = []
        for p in pivots:
            free = [c for c in range(p + 1, n) if c not in pivots]
            choices.append([sum((v << (c * bits)
                                 for c, v in zip(free, values)),
                                1 << (p * bits))
                            for values in product(range(q), repeat=len(free))])
        for rows in product(*choices):
            # Subspace._canonical inline: one call less per subspace
            u = new(Subspace)
            u.q = q
            u.n = n
            u.rows = rows
            yield u
