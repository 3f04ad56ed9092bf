"""Sparse exact operators indexed by the projective geometry.

Materialized matrices over Q(sqrt(q)), the brute-force reference of the
relation tests; the identities themselves are checked by the integer
evaluator in grassver.relations, which sweeps the geometry on its own and
imports nothing from here.
K1, K2 are diagonal (half-integer powers of q); L1, L2, R1, R2 (cover-kind
incidence) and F0, F+, F- (same-dimension pairs split by cover-kind
profile) are built from the geometry; R, L are compositions.  The algebraic
expressions for F0/F+/F- are *verification targets*, never constructors.
``OperatorSet.get`` takes the letters of Term words: I, K1, K1i, K2, K2i,
L1, L2, R1, R2, R, L, F0, F+, F-, F, O0, O1, O2.

``OperatorSet.evaluate_terms`` sums the Terms that the evaluator checks
(``grassver.relations.Term``, ``num / (q-1)^dq * q^(half/2) * word``),
each as its word's matrix, diagonal letters included, times its scalar.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import GeometryContext, pair_profile
from .gf import rank_rows
from .relations import Term, omega_terms
from .scalars import QSqrtScalar, q_pow_half


class SparseOperator:
    """Exact sparse matrix indexed by the enumerated elements of a context.

    Entries are QSqrtScalar; explicit zeros are never stored.  Immutable by
    convention: all operations return new operators.
    """

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: GeometryContext, rows=None):
        self.ctx = ctx
        self.rows = rows if rows is not None else {}

    @classmethod
    def zeros(cls, ctx) -> "SparseOperator":
        return cls(ctx, {})

    @classmethod
    def identity(cls, ctx) -> "SparseOperator":
        one = QSqrtScalar.from_int(1, ctx.q)
        return cls(ctx, {t: {t: one} for t in range(len(ctx.elements))})

    @classmethod
    def diagonal(cls, ctx, entry_fn) -> "SparseOperator":
        """Diagonal operator with (u,u)-entry entry_fn(stratum(u))."""
        rows = {}
        for t, u in enumerate(ctx.elements):
            v = entry_fn(ctx.stratum(u))
            if v:
                rows[t] = {t: v}
        return cls(ctx, rows)

    def _check(self, other: "SparseOperator"):
        if other.ctx is not self.ctx:
            raise ValueError("operators live on different contexts")

    def __add__(self, other):
        self._check(other)
        rows = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            mine = rows.setdefault(r, {})
            for c, v in row.items():
                cur = mine.get(c)
                s = v if cur is None else cur + v
                if s:
                    mine[c] = s
                elif cur is not None:
                    del mine[c]
            if not mine:
                del rows[r]
        return SparseOperator(self.ctx, rows)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(QSqrtScalar.from_int(-1, self.ctx.q))

    def scale(self, scalar) -> "SparseOperator":
        if not scalar:
            return SparseOperator.zeros(self.ctx)
        return SparseOperator(
            self.ctx,
            {r: {c: scalar * v for c, v in row.items()}
             for r, row in self.rows.items()},
        )

    def __matmul__(self, other):
        self._check(other)
        out = {}
        brows = other.rows
        for r, row in self.rows.items():
            acc: dict = {}
            for m, a in row.items():
                brow = brows.get(m)
                if not brow:
                    continue
                for c, b in brow.items():
                    v = a * b
                    cur = acc.get(c)
                    acc[c] = v if cur is None else cur + v
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                out[r] = acc
        return SparseOperator(self.ctx, out)

    def transpose(self) -> "SparseOperator":
        out: dict = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                out.setdefault(c, {})[r] = v
        return SparseOperator(self.ctx, out)

    def entry(self, r: int, c: int) -> QSqrtScalar:
        return self.rows.get(r, {}).get(c, QSqrtScalar.from_int(0, self.ctx.q))

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def nonzero_entries(self):
        for r, row in self.rows.items():
            for c, v in row.items():
                yield r, c, v

    def __eq__(self, other):
        return (
            isinstance(other, SparseOperator)
            and self.ctx is other.ctx
            and self.rows == other.rows
        )

    def __hash__(self):
        return id(self)


class OperatorSet:
    """Cached operators over one fully enumerated context."""

    def __init__(self, ctx: GeometryContext):
        self.ctx = ctx
        self._ops: dict[str, SparseOperator] = {}
        self._words: dict[tuple, SparseOperator] = {}

    # -- construction ------------------------------------------------------

    def _build_cover_incidence(self):
        ctx = self.ctx
        l1: dict = {}
        l2: dict = {}
        one = QSqrtScalar.from_int(1, ctx.q)
        for uid, u in enumerate(ctx.elements):
            i_u = ctx.intersection_dim_with_y(u.rows)
            for vrows in ctx.superspaces_rows(u.rows):
                vid = ctx.id_by_rows[vrows]
                if ctx.intersection_dim_with_y(vrows) == i_u + 1:
                    l1.setdefault(uid, {})[vid] = one
                else:
                    l2.setdefault(uid, {})[vid] = one
        self._ops["L1"] = SparseOperator(ctx, l1)
        self._ops["L2"] = SparseOperator(ctx, l2)
        self._ops["R1"] = self._ops["L1"].transpose()
        self._ops["R2"] = self._ops["L2"].transpose()

    def _build_f_matrices(self):
        """F0, F+, F- from the pairs of equal dimension found by rank
        alone, each classified by ``pair_profile`` and ``f_class``: the
        reference for the typed sweep, so it shares none of its code."""
        ctx = self.ctx
        mats = {"F0": {}, "F+": {}, "F-": {}}
        one = QSqrtScalar.from_int(1, ctx.q)
        for d, ids in ctx.ids_by_dim.items():
            members = [(t, ctx.elements[t]) for t in ids]
            for uid, u in members:
                for zid, z in members:
                    if rank_rows(u.rows + z.rows, ctx.q) != d + 1:
                        continue  # equal, or dim(u∩z) < d - 1
                    f = pair_profile(u, z, ctx).f_class()
                    if f is not None:
                        mats[f].setdefault(uid, {})[zid] = one
        for name, rows in mats.items():
            self._ops[name] = SparseOperator(ctx, rows)

    def get(self, sym: str) -> SparseOperator:
        op = self._ops.get(sym)
        if op is not None:
            return op
        ctx = self.ctx
        q, n, k = ctx.q, ctx.n, ctx.k
        if sym in ("L1", "L2", "R1", "R2"):
            self._build_cover_incidence()
        elif sym in ("F0", "F+", "F-"):
            self._build_f_matrices()
        elif sym == "I":
            self._ops["I"] = SparseOperator.identity(ctx)
        elif sym == "K1":
            self._ops["K1"] = SparseOperator.diagonal(
                ctx, lambda s: q_pow_half(k - 2 * s.i, q))
        elif sym == "K1i":
            self._ops["K1i"] = SparseOperator.diagonal(
                ctx, lambda s: q_pow_half(2 * s.i - k, q))
        elif sym == "K2":
            self._ops["K2"] = SparseOperator.diagonal(
                ctx, lambda s: q_pow_half(2 * s.j - (n - k), q))
        elif sym == "K2i":
            self._ops["K2i"] = SparseOperator.diagonal(
                ctx, lambda s: q_pow_half(n - k - 2 * s.j, q))
        elif sym == "R":
            self._ops["R"] = self.get("L1") @ self.get("R2")
        elif sym == "L":
            self._ops["L"] = self.get("R1") @ self.get("L2")
        elif sym == "F":
            self._ops["F"] = self.get("F0") + self.get("F+") + self.get("F-")
        elif sym in ("O0", "O1", "O2"):
            self._ops[sym] = self.evaluate_terms(omega_terms(sym, q, n, k))
        else:
            raise ValueError(f"unknown operator {sym!r}")
        return self._ops[sym]

    def word(self, word: tuple) -> SparseOperator:
        if not word:
            return self.get("I")
        op = self._words.get(word)
        if op is None:
            op = self.get(word[0])
            for sym in word[1:]:
                op = op @ self.get(sym)
            self._words[word] = op
        return op

    # -- Term evaluation ----------------------------------------------------

    def term_matrix(self, term: Term) -> SparseOperator:
        q = self.ctx.q
        return self.word(term.word).scale(
            q_pow_half(term.half, q) * Fraction(term.num, (q - 1) ** term.dq))

    def evaluate_terms(self, terms) -> SparseOperator:
        acc = SparseOperator.zeros(self.ctx)
        for term in terms:
            acc = acc + self.term_matrix(term)
        return acc


def operator_set(ctx: GeometryContext) -> OperatorSet:
    """Shared operator set per context, held among its companions."""
    ops = ctx.companions.get(OperatorSet)
    if ops is None:
        ops = ctx.companions[OperatorSet] = OperatorSet(ctx)
    return ops
