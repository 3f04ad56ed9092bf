"""Registry and verification of the operator identities.

A Term is ``num / (q-1)^dq * q^(half/2) * word``, where ``word`` is a
product of letters: the incidence letters below, the diagonal letters K1,
K1i, K2, K2i and the central elements O0, O1, O2 (``omega_terms``).
Every identity is registered once, by id in report order
(``relation_ids``), as its components, each a tuple of Terms summing to
the zero operator.  Both modes check a component column by column with
one exact integer evaluator.  Each incidence letter (L1, L2, R1, R2, R,
L, F0, F+, F-, F) moves the stratum (i, j) by a fixed step and K1, K2
scale by a power of sqrt(q) read off the stratum, so once the central
elements are expanded, a Term applied to e_x is a coefficient in
Q(sqrt(q)) fixed by the stratum of x times a word of 0/1 letters applied
to e_x.  Each check reads every expanded Term once into a plan
(``_plans``): its power of sqrt(q) is affine in the stratum (i, j), and
its word stays inside the strata on a box of them, so a stratum's
coefficients are a filter and integer sums.  Scaled per stratum by a unit
q^low / (q-1)^top, kept as the exponent pair (low, top), the coefficients
are integers a + b*sqrt(q) and the residual is a pair of integer vectors;
only reported violations become exact values, formatted from Fractions
(``_exact``), not with the ``scalars`` reference.  The evaluator looks up
the stratum of each column id once.  Columns are checked in batches of one
stratum, and a batch's word vectors live while it is checked, so suffixes
shared by its words are applied once.  A vector maps
the ids the evaluator gives the subspaces it visits to packed ints with
one signed lane per column of the batch, wide enough for any entry of the
residual (``_lane_bits``), so one pass of a word applies it to every
column of the batch.  Full mode checks every element of a fully
enumerated context (whose element ids the evaluator keeps) in batches of
up to ``FULL_MODE_BATCH`` columns of one stratum, which share their
coefficients and most of their neighbourhoods; columns mode checks the
given columns one per batch, sweeping their neighbourhoods lazily, as
given columns need not share neighbours.  The evaluator sweeps and groups
the covers above a subspace once (``GeometryContext.cover_groups``).  R1
and R2 at z are z's own zero group and the rest; the same-dimension
letters at z join the groups of z's hyperplanes, each named by
``geometry.letter_split``; L1 and L2 split z's hyperplanes
(``GeometryContext.covers_below``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import weakref
from fractions import Fraction
from typing import NamedTuple

from . import closed
from .geometry import GeometryContext, Stratum, letter_split
from .gf import Subspace, format_rows
from .reports import record

MAX_VIOLATIONS = 25  # reports stay readable; holds-flag still exact
# columns of one stratum that full mode checks together, one lane each;
# chosen by measurement of the default verify run and full mode at (2,6,3)
# (CHANGES.md): wider batches keep bigger vectors for a shrinking gain
FULL_MODE_BATCH = 128

# stratum step (di, dj) from column to row of each incidence letter
_STEPS = {
    "L1": (-1, 0), "L2": (0, -1), "R1": (1, 0), "R2": (0, 1),
    "R": (-1, 1), "L": (1, -1),
    "F0": (0, 0), "F+": (0, 0), "F-": (0, 0), "F": (0, 0),
}
# exponent of sqrt(q) of each diagonal letter, as multiples of
# (k - 2i, 2j - (n-k)) at the stratum it acts on
_DIAGONALS = {"K1": (1, 0), "K1i": (-1, 0), "K2": (0, 1), "K2i": (0, -1)}


# ---------------------------------------------------------------------------
# registry


class Term(NamedTuple):
    """One summand of an operator expression (see module docstring)."""

    num: int
    dq: int = 0
    half: int = 0
    word: tuple = ()


def T(num, word=(), dq=0, half=0) -> Term:
    return Term(num, dq, half, tuple(word))


def omega_terms(which: str, q: int, n: int, k: int) -> list[Term]:
    """The three central elements, as displayed operator expressions."""
    if which == "O0":
        return [
            T(q - 1, ("F0", "K1i", "K2i"), half=-n),
            T(1, ("K1i",), half=-k),
            T(1, ("K2i",), half=-(n - k)),
            T(-1, ("K1i", "K2i"), half=-n),
        ]
    if which == "O1":
        return [
            T(q, ("F0", "K2i"), half=-(n - k)),
            T(q - 1, ("F-", "K2i"), half=-(n - k)),
            T(1, ("K1", "K2i"), dq=1, half=k + 2 - (n - k)),
            T(1, ("K1i",), dq=1, half=k + 2),
            T(-1, ("K2i",), dq=1, half=2 - (n - k)),
            T(-q, dq=1),
        ]
    if which == "O2":
        return [
            T(q, ("F0", "K1i"), half=-k),
            T(q - 1, ("F+", "K1i"), half=-k),
            T(1, ("K1i", "K2"), dq=1, half=n - 2 * k + 2),
            T(1, ("K2i",), dq=1, half=n + 2 - k),
            T(-1, ("K1i",), dq=1, half=2 - k),
            T(-q, dq=1),
        ]
    raise ValueError(f"unknown central element {which!r}")


def _commutators(pairs) -> tuple:
    return tuple((f"[{a},{b}]", (T(1, (a, b)), T(-1, (b, a))))
                 for a, b in pairs)


@functools.cache
def _registry(q: int, n: int, k: int) -> dict[str, tuple]:
    """Relation id -> its components, in report order.

    A relation written as a list of Terms has that one component, named
    by the relation's id; REL-CENT and REL-COMM bundle named commutators.
    """
    rel8 = [
        T(q, ("R", "L")),
        T(-1, ("F", "F0")),
        T(-1, ("F+", "F-")),
        T(-1, ("K1", "F0"), dq=1, half=k),
        T(-1, ("K2", "F0"), dq=1, half=n - k),
        T(2, ("F0",), dq=1),
        T(-1, ("K1", "F+"), dq=1, half=k),
        T(1, ("F+",), dq=1),
        T(1, ("F-",), dq=1),
        T(-1, ("K1", "K2"), dq=2, half=n),
        T(1, ("K1",), dq=2, half=k),
        T(1, ("K2",), dq=2, half=n - k),
        T(-1, dq=2),
    ]
    rels = {
        "REL-1": [
            T(q * q, ("R", "F0")),
            T(-1, ("F0", "R")),
            T(1, ("K1", "R"), half=k),
            T(1, ("K2", "R"), half=n - k),
            T(-(q + 1), ("R",)),
        ],
        "REL-2": [
            T(q, ("R", "F+")),
            T(-1, ("F+", "R")),
            T(-1, ("F0", "R")),
            T(1, ("K1", "K2i", "R"), dq=1, half=n + 2),
            T(-1, ("K1", "R"), dq=1, half=k),
            T(-1, ("K2", "R"), dq=1, half=n - k),
            T(1, ("R",), dq=1),
        ],
        "REL-3": [
            T(q, ("R", "F-")),
            T(-1, ("F-", "R")),
            T(-1, ("F0", "R")),
            T(1, ("K1i", "K2", "R"), dq=1, half=n + 2),
            T(-1, ("K1", "R"), dq=1, half=k),
            T(-1, ("K2", "R"), dq=1, half=n - k),
            T(1, ("R",), dq=1),
        ],
        "REL-4": [
            T(q * q, ("F0", "L")),
            T(-1, ("L", "F0")),
            T(1, ("K1", "L"), half=k + 2),
            T(1, ("K2", "L"), half=n - k + 2),
            T(-(q + 1), ("L",)),
        ],
        "REL-5": [
            T(q, ("F+", "L")),
            T(-1, ("L", "F+")),
            T(-1, ("L", "F0")),
            T(1, ("K1", "K2i", "L"), dq=1, half=n + 2),
            T(-1, ("K1", "L"), dq=1, half=k + 2),
            T(-1, ("K2", "L"), dq=1, half=n - k + 2),
            T(1, ("L",), dq=1),
        ],
        "REL-6": [
            T(q, ("F-", "L")),
            T(-1, ("L", "F-")),
            T(-1, ("L", "F0")),
            T(1, ("K1i", "K2", "L"), dq=1, half=n + 2),
            T(-1, ("K1", "L"), dq=1, half=k + 2),
            T(-1, ("K2", "L"), dq=1, half=n - k + 2),
            T(1, ("L",), dq=1),
        ],
        "REL-7": [
            T(1, ("L", "R")),
            T(-q, ("F+", "F-")),
            T(-1, ("K1i", "K2", "F+"), dq=1, half=n + 2),
            T(1, ("K2", "F+"), dq=1, half=n - k + 2),
            T(-1, ("K1", "K2i", "F-"), dq=1, half=n + 2),
            T(1, ("K1", "F-"), dq=1, half=k + 2),
            T(-1, ("K1", "K2"), dq=2, half=n + 2),
            T(1, ("K1",), dq=2, half=2 * n - k + 2),
            T(1, ("K2",), dq=2, half=n + k + 2),
            T(-(q ** (n + 1)), dq=2),
        ],
        "REL-8": rel8 + [T(-1, ("K2", "F-"), dq=1, half=n - k)],
        # literal printing: scalar q^{(n-k)/2} instead of q^{(n-k)/2} K2
        "REL-8P": rel8 + [T(-1, ("F-",), dq=1, half=n - k)],
        # F0/F+/F- (geometric) minus their algebraic expressions
        "REL-F0A": [
            T(1, ("F0",)),
            T(-1, ("L1", "R1")),
            T(1, ("R1", "L1")),
            T(-1, ("K1i", "K2"), dq=1, half=n),
            T(1, ("K1",), dq=1, half=k),
            T(1, ("K2",), dq=1, half=n - k),
            T(-1, dq=1),
        ],
        "REL-F0B": [
            T(1, ("F0",)),
            T(-1, ("R2", "L2")),
            T(1, ("L2", "R2")),
            T(-1, ("K1", "K2i"), dq=1, half=n),
            T(1, ("K1",), dq=1, half=k),
            T(1, ("K2",), dq=1, half=n - k),
            T(-1, dq=1),
        ],
        "REL-F+": [
            T(1, ("F+",)),
            T(-1, ("L2", "R2")),
            T(1, ("K1", "K2i"), dq=1, half=n),
            T(-1, ("K1",), dq=1, half=k),
        ],
        "REL-F-": [
            T(1, ("F-",)),
            T(-1, ("R1", "L1")),
            T(1, ("K1i", "K2"), dq=1, half=n),
            T(-1, ("K2",), dq=1, half=n - k),
        ],
        "REL-CENT": _commutators(itertools.product(
            ("O0", "O1", "O2"), ("K1", "K2", "L1", "L2", "R1", "R2"))),
        # F0/F+/F- recovered from the central elements
        "REL-FC0": [
            T(1, ("F0",)),
            T(-1, ("O0", "K1", "K2"), dq=1, half=n),
            T(1, ("K1",), dq=1, half=k),
            T(1, ("K2",), dq=1, half=n - k),
            T(-1, dq=1),
        ],
        "REL-FC+": [
            T(1, ("F+",)),
            T(-1, ("O2", "K1"), dq=1, half=k),
            T(1, ("O0", "K2", "K1"), dq=2, half=n + 2),
            T(1, ("K1", "K2i"), dq=2, half=n + 2),
            T(-2, ("K1",), dq=2, half=k + 2),
        ],
        "REL-FC-": [
            T(1, ("F-",)),
            T(-1, ("O1", "K2"), dq=1, half=n - k),
            T(1, ("O0", "K1", "K2"), dq=2, half=n + 2),
            T(1, ("K1i", "K2"), dq=2, half=n + 2),
            T(-2, ("K2",), dq=2, half=n - k + 2),
        ],
        "REL-COMM": _commutators(
            itertools.combinations(("F0", "F+", "F-", "F"), 2)),
        "REL-A1(i)": [T(1, ("K1", "L1")), T(-q, ("L1", "K1"))],
        "REL-A1(ii)": [T(1, ("K1", "L2")), T(-1, ("L2", "K1"))],
        "REL-A1(iii)": [T(q, ("K1", "R1")), T(-1, ("R1", "K1"))],
        "REL-A1(iv)": [T(1, ("K1", "R2")), T(-1, ("R2", "K1"))],
        "REL-A1(v)": [T(1, ("K2", "L1")), T(-1, ("L1", "K2"))],
        "REL-A1(vi)": [T(q, ("K2", "L2")), T(-1, ("L2", "K2"))],
        "REL-A1(vii)": [T(1, ("K2", "R1")), T(-1, ("R1", "K2"))],
        "REL-A1(viii)": [T(1, ("K2", "R2")), T(-q, ("R2", "K2"))],
        "REL-A2(i)": [T(1, ("L1", "R2")), T(-1, ("R2", "L1"))],
        "REL-A2(ii)": [T(1, ("L2", "R1")), T(-1, ("R1", "L2"))],
        "REL-A2(iii)": [T(q, ("L1", "L2")), T(-1, ("L2", "L1"))],
        "REL-A2(iv)": [T(1, ("R1", "R2")), T(-q, ("R2", "R1"))],
        "REL-A3(i)": [
            T(1, ("R1", "R1", "L1")),
            T(-(q + 1), ("R1", "L1", "R1")),
            T(q, ("L1", "R1", "R1")),
            T(q + 1, ("K1i", "K2", "R1"), half=n - 2),
        ],
        "REL-A3(ii)": [
            T(q, ("R2", "R2", "L2")),
            T(-(q + 1), ("R2", "L2", "R2")),
            T(1, ("L2", "R2", "R2")),
            T(q + 1, ("K1", "K2i", "R2"), half=n),
        ],
        "REL-A3(iii)": [
            T(q, ("L1", "L1", "R1")),
            T(-(q + 1), ("L1", "R1", "L1")),
            T(1, ("R1", "L1", "L1")),
            T(q + 1, ("K1i", "K2", "L1"), half=n),
        ],
        "REL-A3(iv)": [
            T(1, ("L2", "L2", "R2")),
            T(-(q + 1), ("L2", "R2", "L2")),
            T(q, ("R2", "L2", "L2")),
            T(q + 1, ("K1", "K2i", "L2"), half=n - 2),
        ],
        "REL-A4": [
            T(1, ("L1", "R1")),
            T(-1, ("R1", "L1")),
            T(1, ("L2", "R2")),
            T(-1, ("R2", "L2")),
            T(-1, ("K1", "K2i"), dq=1, half=n),
            T(1, ("K1i", "K2"), dq=1, half=n),
        ],
    }
    return {rid: ((rid, tuple(c)),) if isinstance(c, list) else c
            for rid, c in rels.items()}


def relation_components(relation_id: str, q: int, n: int, k: int) -> tuple:
    """Components of a relation: (component name, Terms) pairs.

    Each component must evaluate to the zero operator.  Most relations have
    a single component; REL-CENT and REL-COMM bundle several commutators.
    """
    try:
        return _registry(q, n, k)[relation_id]
    except KeyError:
        raise ValueError(f"unknown relation id {relation_id!r}") from None


def relation_ids() -> list[str]:
    """Every relation id, in report order; the ids are the same at every
    instance."""
    return list(_registry(2, 4, 2))


# ---------------------------------------------------------------------------
# reports


class RelationViolation(NamedTuple):
    component: str
    row: str
    col: str
    value: str


class RelationReport(NamedTuple):
    relation_id: str
    instance: tuple[int, int, int]
    mode: str  # "full" or "columns"
    checked_columns: int | None  # columns mode only
    violations: list[RelationViolation]  # the first MAX_VIOLATIONS
    truncated: bool  # more violations than reported

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_record(self) -> dict:
        return record(
            "relation-report", relation_id=self.relation_id,
            instance=list(self.instance), mode=self.mode, holds=self.holds,
            checked_columns=self.checked_columns,
            violations=[v._asdict() for v in self.violations],
            violations_truncated=self.truncated)


# ---------------------------------------------------------------------------
# the integer evaluator


def _expand_terms(terms, q: int, n: int, k: int) -> list[Term]:
    """The Terms with every central element of a word replaced by its own
    Terms."""
    out = []
    for term in terms:
        parts = [term._replace(word=())]
        for sym in term.word:
            if sym in ("O0", "O1", "O2"):
                parts = [
                    p._replace(num=p.num * o.num, dq=p.dq + o.dq,
                               half=p.half + o.half, word=p.word + o.word)
                    for p in parts for o in omega_terms(sym, q, n, k)
                ]
            else:
                parts = [p._replace(word=p.word + (sym,)) for p in parts]
        out += parts
    return out


class _Plan(NamedTuple):
    """An expanded Term as read once, for columns of any stratum (i, j).

    ``word`` keeps only the incidence letters.  On a column of stratum
    (i, j) the Term's power of sqrt(q) is ``c0 + ci*i + cj*j``, and its
    word stays inside the strata exactly when ``ilo <= i <= ihi`` and
    ``jlo <= j <= jhi`` (the box); outside it the Term is zero there.
    """

    num: int
    dq: int
    word: tuple
    c0: int
    ci: int
    cj: int
    ilo: int
    ihi: int
    jlo: int
    jhi: int


def _plans(terms, k: int, nk: int) -> list[_Plan]:
    """The plan of each expanded Term, reading its word right to left.

    A diagonal letter adds its multiples of (k - 2i', 2j' - nk) at the
    stratum (i', j') it acts on: the column's (i, j) moved by the steps
    (di, dj) of the letters to its right, an affine term in i and j.  The
    box keeps i + di in [0, k] and j + dj in [0, nk] after every step.
    """
    plans = []
    for term in terms:
        c0, ci, cj = term.half, 0, 0
        di = dj = 0
        ilo, ihi, jlo, jhi = 0, k, 0, nk
        for sym in reversed(term.word):
            if sym in _DIAGONALS:
                a, b = _DIAGONALS[sym]
                c0 += a * (k - 2 * di) + b * (2 * dj - nk)
                ci -= 2 * a
                cj += 2 * b
            else:
                di, dj = di + _STEPS[sym][0], dj + _STEPS[sym][1]
                ilo, ihi = max(ilo, -di), min(ihi, k - di)
                jlo, jhi = max(jlo, -dj), min(jhi, nk - dj)
        word = tuple(sym for sym in term.word if sym in _STEPS)
        plans.append(_Plan(term.num, term.dq, word, c0, ci, cj,
                           ilo, ihi, jlo, jhi))
    return plans


def _stratum_coefficients(plans, stratum, q: int):
    """Integer coefficients of planned Terms on columns of one stratum.

    Returns (coeffs, (low, top)): coeffs maps each word of incidence
    letters to [a, b], its coefficient being (a + b*sqrt(q)) * q^low /
    (q-1)^top.  Terms whose word leaves the strata, and words whose Terms
    cancel, are left out.
    """
    i, j = stratum
    found = [(p.num, p.dq, p.word, p.c0 + p.ci * i + p.cj * j)
             for p in plans if p.ilo <= i <= p.ihi and p.jlo <= j <= p.jhi]
    top = max((dq for _, dq, _, _ in found), default=0)
    low = min((e2 for *_, e2 in found), default=0) // 2
    coeffs: dict = {}
    for num, dq, word, e2 in found:
        ab = coeffs.setdefault(word, [0, 0])
        ab[e2 % 2] += num * (q - 1) ** (top - dq) * q ** (e2 // 2 - low)
    return {w: ab for w, ab in coeffs.items() if ab[0] or ab[1]}, (low, top)


def _exact(a: int, b: int, low: int, top: int, q: int) -> str:
    """The value (a + b*sqrt(q)) * q^low / (q-1)^top, as "A + B*sqrt(q)"."""
    unit = Fraction(q) ** low / (q - 1) ** top
    return f"{a * unit} + {b * unit}*sqrt({q})"


class LaneOverflowError(ArithmeticError):
    """A packed residual left a remainder past its last lane: the lane
    bound was wrong, a fault of the evaluator and never of the input."""


def _lane_bits(stratum_coeffs, degree: int) -> int:
    """Bits of a signed lane that holds every entry of every residual of
    one stratum, given each component's (coeffs, unit) there: with at
    most degree^len(w) paths per word, no entry of a component reaches
    sum_w (|a_w| + |b_w|) * degree^len(w)."""
    bound = max((sum((abs(a) + abs(b)) * degree ** len(word)
                     for word, (a, b) in coeffs.items())
                 for coeffs, _ in stratum_coeffs), default=0)
    return bound.bit_length() + 2


def _lanes(value: int, bits: int, count: int) -> list[int]:
    """The count signed lanes of bits bits each that sum to value, lane t
    weighted by 2^(bits*t)."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(count):
        lane = value & mask
        value >>= bits
        if lane >= half:  # a negative lane borrowed one from the next
            lane -= 1 << bits
            value += 1
        out.append(lane)
    if value:
        raise LaneOverflowError(
            f"a residual does not fit {count} lanes of {bits} bits")
    return out


def _word_vector(word: tuple, memo: dict, apply):
    """The word applied to the columns memo[()], reusing stored suffixes."""
    vec = memo.get(word)
    if vec is None:
        vec = apply(word[0], _word_vector(word[1:], memo, apply))
        memo[word] = vec
    return vec


def _residual(coeffs: dict, memo: dict, apply) -> list:
    """Nonzero entries (row, a, b) of one batch's scaled residual."""
    acc: dict = {}
    for word, (ca, cb) in coeffs.items():
        for r, c in _word_vector(word, memo, apply).items():
            ab = acc.setdefault(r, [0, 0])
            ab[0] += ca * c
            ab[1] += cb * c
    return [(r, a, b) for r, (a, b) in acc.items() if a or b]


class ColumnEvaluator:
    """Applies incidence letters to integer vectors of one context.

    Every subspace the evaluator visits is interned as a small int id, and
    vectors are dicts keyed by id; the elements of an enumerated context
    keep their element ids.  A value packs one lane per column of a batch
    (``residuals``), and a letter adds values whole, so one application
    serves every column of the batch.  Each letter's column at a visited
    subspace is built once, as a tuple of row ids.  The same-dimension
    letters (R, L, F0, F+, F-, F) read the hyperplanes of the subspace:
    each hyperplane's covers are swept, interned and grouped by their
    point modulo m + y once per evaluator (``GeometryContext.cover_groups``),
    and ``geometry.letter_split`` joins whole groups into the columns.
    R1 and R2 are the zero group of the subspace's own covers and the rest;
    L1 and L2 split its hyperplanes (``GeometryContext.covers_below``).
    """

    def __init__(self, ctx: GeometryContext):
        self.ctx = ctx
        self.rows: list[tuple] = [u.rows for u in ctx.elements]  # id -> rows
        self._id: dict[tuple, int] = dict(ctx.id_by_rows)
        self._typed: dict[int, dict[str, tuple[int, ...]]] = {}
        # subspace rows -> (ids, ends) of its covers (_cover_groups)
        self._groups: dict[tuple, tuple] = {}
        self._cols: dict[str, dict[int, tuple]] = {s: {} for s in _STEPS}
        self._strata: dict[int, Stratum] = {}  # id -> stratum, read once

    def intern(self, rows) -> int:
        """The id of the subspace with canonical basis rows ``rows``."""
        z = self._id.get(rows)
        if z is None:
            z = self._id[rows] = len(self.rows)
            self.rows.append(rows)
        return z

    def _cover_groups(self, mrows) -> tuple:
        """(ids, ends) of a subspace, swept once: the ids of its covers,
        group after group as ``GeometryContext.cover_groups`` gives them,
        and the end of each group in ids."""
        entry = self._groups.get(mrows)
        if entry is None:
            covers, ends = self.ctx.cover_groups(mrows)
            entry = self._groups[mrows] = (tuple(map(self.intern, covers)),
                                           tuple(ends))
        return entry

    def typed_columns(self, z: int) -> dict[str, tuple[int, ...]]:
        """Row ids of the columns at z of F0, F+, F-, R and L."""
        cols = self._typed.get(z)
        if cols is not None:
            return cols
        split = letter_split(z, map(
            self._cover_groups, self.ctx.hyperplanes_rows(self.rows[z])))
        cols = self._typed[z] = {s: tuple(c) for s, c in split.items()}
        return cols

    def _column(self, sym: str, z: int) -> tuple[int, ...]:
        """Row ids of the nonzero (all 1) entries of column z of a letter."""
        if sym in ("R1", "R2"):
            # the covers above z: the zero group is the slash ones
            ids, ends = self._cover_groups(self.rows[z])
            return ids[:ends[0]] if sym == "R1" else ids[ends[0]:]
        if sym in ("L1", "L2"):
            slash, back = self.ctx.covers_below(self.rows[z])
            return tuple(map(self.intern, slash if sym == "L1" else back))
        cols = self.typed_columns(z)
        if sym == "F":
            return cols["F0"] + cols["F+"] + cols["F-"]
        return cols[sym]

    def apply_band_int(self, sym: str, vec: dict) -> dict:
        """An incidence letter applied to an integer vector keyed by id."""
        cols = self._cols[sym]
        out: dict = {}
        for z, val in vec.items():
            col = cols.get(z)
            if col is None:
                col = cols[z] = self._column(sym, z)
            for u in col:
                out[u] = out.get(u, 0) + val
        return out

    def residuals(self, components, columns, batch: int = 1):
        """Every nonzero residual entry of the components on the columns.

        Columns and rows are ids.  Yields (component index, row, column,
        a, b, (low, top)), the entry being (a + b*sqrt(q)) * q^low /
        (q-1)^top: the unit stays a pair of exponents, which ``_exact``
        turns into a value for the entries that are reported.  Each Term
        is planned once per call (``_plans``), so a stratum's coefficients
        are a filter and integer sums.  Columns of one stratum are
        evaluated together, up to ``batch`` at a time, column t of a batch
        in lane t of every value; the stratum of each column id is looked
        up once per evaluator.
        """
        ctx = self.ctx
        q, n, k = ctx.q, ctx.n, ctx.k
        plans = [_plans(_expand_terms(terms, q, n, k), k, n - k)
                 for _, terms in components]
        degree = closed.letter_degree(q, n)
        strata = self._strata
        by_stratum: dict = {}  # stratum -> (coefficients, lane bits)
        filling: dict = {}  # stratum -> columns of its next batch

        def run(s, xs):
            at = by_stratum.get(s)
            if at is None:
                coeffs = [_stratum_coefficients(p, s, q) for p in plans]
                at = by_stratum[s] = coeffs, _lane_bits(coeffs, degree)
            coeffs, bits = at
            # word -> vector; suffixes are shared by the words and columns
            memo = {(): {x: 1 << (bits * t) for t, x in enumerate(xs)}}
            zeros = [0] * len(xs)
            for t, (cs, unit) in enumerate(coeffs):
                for r, a, b in _residual(cs, memo, self.apply_band_int):
                    la = _lanes(a, bits, len(xs)) if a else zeros
                    lb = _lanes(b, bits, len(xs)) if b else zeros
                    for x, ax, bx in zip(xs, la, lb):
                        if ax or bx:
                            yield t, r, x, ax, bx, unit

        for x in columns:
            s = strata.get(x)
            if s is None:
                s = strata[x] = ctx.stratum_rows(self.rows[x])
            xs = filling.setdefault(s, [])
            xs.append(x)
            if len(xs) == batch:
                yield from run(s, filling.pop(s))
        for s, xs in filling.items():
            yield from run(s, xs)


# every live context's shared evaluator, both held weakly, so that tracing
# can read the evaluators' caches
_EVALUATORS: "weakref.WeakKeyDictionary[GeometryContext, ColumnEvaluator]" = (
    weakref.WeakKeyDictionary()
)


def column_evaluator(ctx: GeometryContext) -> ColumnEvaluator:
    """Shared evaluator per context, so typed sweeps are cached across
    calls.  The context holds it among its companions and it holds the
    context, so an evaluator outlives no context it reads, and a dropped
    context frees both."""
    ev = ctx.companions.get(ColumnEvaluator)
    if ev is None:
        ev = ctx.companions[ColumnEvaluator] = ColumnEvaluator(ctx)
        _EVALUATORS[ctx] = weakref.proxy(ev)
    return ev


def _column_rows(ctx: GeometryContext, col) -> tuple:
    """Accepts an element id, a Subspace, or packed basis rows; returns
    the canonical basis rows."""
    if isinstance(col, int):
        if not 0 <= col < len(ctx.elements):
            raise ValueError(f"column {col} is not an element id: the "
                             f"context has {len(ctx.elements)} elements")
        return ctx.elements[col].rows
    if not isinstance(col, Subspace):
        col = Subspace(ctx.q, ctx.n, col)
    elif (col.q, col.n) != (ctx.q, ctx.n):
        raise ValueError(f"column from (q, n) = ({col.q}, {col.n}) on a "
                         f"context of (q, n) = ({ctx.q}, {ctx.n})")
    return col.rows


def verify_relation(relation_id: str, ctx: GeometryContext,
                    mode: str = "full", columns=None) -> RelationReport:
    """Check one identity on every enumerated column or on given columns."""
    q, n, k = ctx.q, ctx.n, ctx.k
    components = relation_components(relation_id, q, n, k)
    names = [name for name, _ in components]
    ev = column_evaluator(ctx)
    if mode == "full":
        if not ctx.elements:
            raise ValueError("full mode needs an enumerated context; "
                             "use columns mode on a lazy context")
        ids = range(len(ctx.elements))
        batch, checked = FULL_MODE_BATCH, None

        def ref(u):
            return ctx.ref(ctx.elements[u])

        def order(v):  # component, row id, column id
            return v[:3]
    elif mode == "columns":
        # each distinct column once, in the order given
        ids = list(dict.fromkeys(
            ev.intern(_column_rows(ctx, c)) for c in columns or ()))
        if not ids:
            raise ValueError("columns mode requires a nonempty column list")
        batch, checked = 1, len(ids)

        def ref(u):
            return ":".join(format_rows(ev.rows[u], n, q))

        def order(v):  # column, component, row, as reported
            return ref(v[2]), names[v[0]], ref(v[1])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    kept = heapq.nsmallest(MAX_VIOLATIONS + 1,
                           ev.residuals(components, ids, batch), key=order)
    # only the reported entries become exact values
    violations = [
        RelationViolation(names[t], ref(r), ref(c),
                          _exact(a, b, low, top, q))
        for t, r, c, a, b, (low, top) in kept[:MAX_VIOLATIONS]]
    return RelationReport(relation_id, (q, n, k), mode, checked, violations,
                          len(kept) > MAX_VIOLATIONS)
