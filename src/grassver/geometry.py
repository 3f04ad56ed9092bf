"""The stratified projective geometry P_q(n) relative to a reference k-space.

A GeometryContext fixes (q, n, k, y) and classifies every subspace u into
its stratum (i, j) with i = dim(u ∩ y) and j = dim(u) - i.  A subspace v
covering u does so in exactly one of two ways: raising i (a slash cover) or
raising j (a backslash cover).  The context also enumerates covers above and
below a subspace, each written down as its canonical basis with no row
reduction: a cover above adds a coset vector that is already a point
modulo the rows (``kernels.insert_row``), and a hyperplane takes a
functional scaled so that its last nonzero entry is 1.  ``cover_groups``
groups the covers above by their point modulo the subspace + y, the zero
group being the slash covers (the evaluator's R1, the rest R2), and
``covers_below`` splits the hyperplanes (L1, L2).  The cover counts of a
full context come from ``cover_tallies`` instead, which visits each cover
pair once, from its top: one hyperplane sweep per subspace, each
hyperplane found by its canonical rows and counted at both ends.

Every computation that reads y lives here.  Besides the cover split, an
adjacent pair (u, z) of equal dimension gets the cover kinds of (u+z over
u, u+z over z, u over u∩z, z over u∩z), which fix its F-class and its
letter: the one of F0, F+, F-, R, L whose column at z holds u
(``LETTER_OF_PAIR``).  The pair's profile is read from one table,
``PAIR_PROFILES``, keyed by where rows of u and z outside the hyperplane
m = u∩z fall modulo m + y (``sum_with_y``).  Every cover u of m other
than z gets the letter of the group of its point, so ``cover_groups``
groups m's covers by point once for every z over m, and
``letter_split`` joins the neighbours of z from whole groups: it builds
no basis of u+z and looks up no stratum per neighbour.  ``grassmann``
reads its orbits off that split at x, and the evaluator in ``relations``
its typed columns off the same split of the groups it keeps.  The clique
tally of Γ(x) reads w∩y for the hyperplanes w of a cover as keys
(``hyperplane_meets``), and the default x and the columns of columns
mode are chosen here (``first_at_distance``, ``rows_at_distance``).

Rows are the packed ints of ``kernels`` at every q.  dim(u ∩ y) is
tabled once for each enumerated subspace, keyed by its canonical rows; any
other basis gets it computed and kept nowhere, so a lazy context holds no
per-subspace strata.  It is d minus the rank of u's rows modulo y: for
the coordinate y those rows are u's with y's k lanes shifted out, for any
other y u's rows reduced by y's canonical rows.  At q = 2 a lookup that
misses the table takes that rank with ``rank2``'s XOR-basis loop written
out in its own frame; the table fill and every q > 2 lookup go through
``rank_rows``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from typing import NamedTuple

from .gf import (
    Subspace,
    enumerate_subspaces,
    extend_rows,
    format_rows,
    gaussian_binomial,
    intersect_rows,
    qint,
    rank_rows,
    sum_rows,
    validate_field_order,
)
from .kernels import (
    MAX_COLUMNS, insert_row, lanes, reduce_lanes, reduce_row)


class Stratum(NamedTuple):
    i: int
    j: int


class AdjacentProfile(NamedTuple):
    """Cover-kind profile of a same-dimension adjacent pair (u, z).

    ``top_u``/``top_z``: True when u+z slash-covers u (resp. z);
    ``bot_u``/``bot_z``: True when u (resp. z) slash-covers u∩z.
    """

    top_u: bool
    top_z: bool
    bot_u: bool
    bot_z: bool

    @classmethod
    def from_dims(cls, i_u: int, i_z: int, i_s: int,
                  i_m: int) -> AdjacentProfile:
        """The profile from dim(· ∩ y) of u, z, s = u+z and m = u∩z."""
        return cls(i_s == i_u + 1, i_s == i_z + 1, i_u == i_m + 1,
                   i_z == i_m + 1)

    def f_class(self) -> str | None:
        """The F-class of the pair: "F0", "F+", "F-", or None for none.

        F0: u+z slash-covers both and neither slash-covers u∩z; F+: u+z
        slash-covers neither; F-: both slash-cover u∩z.  At most one holds:
        F+ forces u∩y = (u+z)∩y = z∩y ⊆ u∩z, which rules out F-.
        """
        if self.top_u and self.top_z and not self.bot_u and not self.bot_z:
            return "F0"
        if not self.top_u and not self.top_z:
            return "F+"
        if self.bot_u and self.bot_z:
            return "F-"
        return None


# The profile of an adjacent pair (u, z) over m = u∩z, by the points p_u,
# p_z of rows of u and z outside m modulo V = m + y, keyed by (p_u = 0,
# p_z = 0, p_u = p_z).  A point is zero when its row lies in V, and two
# nonzero points are equal when the rows span the same line modulo V.  So
# i_u = i_m + [p_u = 0], likewise i_z, and i_s = i_m + 2 - rank(p_u, p_z)
# for s = u+z, since s + y = V + <p_u, p_z>.
PAIR_PROFILES = {
    (zero_u, zero_z, same): AdjacentProfile.from_dims(
        zero_u, zero_z, 2 - rank, 0)
    for zero_u, zero_z, same, rank in (
        (True, True, True, 0), (True, False, False, 1),
        (False, True, False, 1), (False, False, True, 1),
        (False, False, False, 2))
}

# The letter whose column at z holds u, by the profile of (u, z): its
# F-class; else R when u+z slash-covers u but not z; else L (u slash-covers
# u∩z but z does not).  Every adjacent pair has one of these five profiles.
LETTER_OF_PAIR = {
    prof: prof.f_class() or ("R" if prof.top_u and not prof.top_z else "L")
    for prof in PAIR_PROFILES.values()
}

# The letters of the groups of covers of a hyperplane m of z, by whether
# z's point modulo m + y is zero: (z's own group, the zero group, every
# other group).  A group's index can stand for its point in the key of
# PAIR_PROFILES, which only tells points apart and zero from the rest.
_OWN_ZERO_OTHER = {
    zero_z: tuple(LETTER_OF_PAIR[PAIR_PROFILES[key]] for key in (
        (zero_z, zero_z, True), (True, zero_z, zero_z),
        (False, zero_z, False)))
    for zero_z in (False, True)
}


# a full context holds about 280 B per subspace (111 MiB for the 417,199
# of F_2^8), so enumerating past this many could exhaust memory unchecked
MAX_ENUMERATED = 500_000


def check_enumerable(q: int, n: int) -> int:
    """The number of subspaces of F_q^n, counted in closed form with no
    enumeration; ValueError when it is more than ``MAX_ENUMERATED``."""
    count = sum(gaussian_binomial(n, d, q) for d in range(n + 1))
    if count > MAX_ENUMERATED:
        raise ValueError(f"F_{q}^{n} has {count:,} subspaces, more than "
                         f"the {MAX_ENUMERATED:,} a full context enumerates")
    return count


class GeometryContext:
    """Fixed (q, n, k, y), fully enumerated or lazy.

    With ``dims=None`` every subspace of F_q^n goes into ``elements``, in
    dimension order, and ``id_by_rows`` gives its id by canonical rows;
    ``check_enumerable`` refuses an F_q^n too large for that.  ``dims=()``
    builds a lazy context with no enumeration, enough for local
    computations around given subspaces.  Immutable after construction,
    the stratum table included; safe to share.
    """

    def __init__(self, q: int, n: int, k: int,
                 y: Subspace | None = None, dims=None):
        validate_field_order(q)
        if not (n > k >= 1):
            raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
        if n > MAX_COLUMNS:
            raise ValueError(f"rows are limited to {MAX_COLUMNS} columns")
        self.q = q
        self.n = n
        self.k = k
        if y is None:
            y = Subspace.coordinate_span(range(k), q, n)
        if y.n != n or y.q != q or y.dim != k:
            raise ValueError("reference subspace must be a k-space of F_q^n")
        self.y = y
        self._canonical_y = y == Subspace.coordinate_span(range(k), q, n)
        if dims not in (None, ()):
            raise ValueError(f"dims must be None (every dimension) or () "
                             f"(none), got {dims!r}")
        if dims is None:
            check_enumerable(q, n)

        # for y the span of the first k columns, dim(u ∩ y) is dim(u)
        # minus the rank of u's rows with those k lanes shifted out
        self._past_y = k * lanes(q).bits

        self.elements: list[Subspace] = []
        self.id_by_rows: dict[tuple, int] = {}
        self.ids_by_dim: dict[int, range] = {}
        # dim(u ∩ y) by canonical rows, for the enumerated u only; filled
        # through _meet_y, so wrapping the public lookup (to count or trace
        # it) sees the lookups and not the fill
        self._strat_cache: dict[tuple, int] = {}
        for d in range(n + 1) if dims is None else ():
            start = len(self.elements)
            for u in enumerate_subspaces(n, d, q):
                self.id_by_rows[u.rows] = len(self.elements)
                self._strat_cache[u.rows] = self._meet_y(u.rows)
                self.elements.append(u)
            self.ids_by_dim[d] = range(start, len(self.elements))

    # -- strata ----------------------------------------------------------

    def intersection_dim_with_y(self, rows) -> int:
        """dim(u ∩ y) for packed basis rows: read from the table when u is
        enumerated and rows are its canonical basis, computed otherwise."""
        i = self._strat_cache.get(rows)
        if i is not None:
            return i
        if self.q != 2:
            return self._meet_y(rows)
        # d - rank(u's rows modulo y), in this frame: the lookup is the
        # geometry's most-called function.  Each row loses y's part (the
        # coordinate y's k lanes shifted out, any other y's canonical rows
        # cleared by pivot), then the XOR-basis loop of kernels.rank2
        canonical, shift, yrows = self._canonical_y, self._past_y, self.y.rows
        basis = []
        for r in rows:
            if canonical:
                r >>= shift
            else:
                for v in yrows:
                    if r & v & -v:
                        r ^= v
            for b in basis:
                if r ^ b < r:
                    r ^= b
            if r:
                basis.append(r)
        return len(rows) - len(basis)

    def _meet_y(self, rows) -> int:
        # d + k - dim(u + y), for any basis of u: the table fill, and the
        # lookup at q > 2
        if self._canonical_y:
            shift = self._past_y
            return len(rows) - rank_rows([r >> shift for r in rows], self.q)
        return len(rows) + self.k - rank_rows(tuple(rows) + self.y.rows,
                                              self.q)

    def stratum_rows(self, rows) -> Stratum:
        i = self.intersection_dim_with_y(rows)
        return Stratum(i, len(rows) - i)

    def stratum(self, u: Subspace) -> Stratum:
        if u.n != self.n or u.q != self.q:
            raise ValueError("subspace from a different ambient space")
        return self.stratum_rows(u.rows)

    def ref(self, u: Subspace) -> str:
        """Stable textual reference for a subspace in reports."""
        idx = self.id_by_rows.get(u.rows)
        loc = f"#{idx}" if idx is not None else "-"
        rows = ":".join(format_rows(u.rows, self.n, self.q))
        return f"(dim={u.dim}, {loc}, rows={rows})"

    # -- covers ----------------------------------------------------------

    def superspaces_rows(self, rows, modulo=()):
        """All covers above: canonical bases of the (d+1)-spaces over rows.

        Enumerates one coset representative w per cover and yields (cover
        rows, w).  Each w is supported on the non-pivot columns of ``rows``
        and its first nonzero entry is 1, so it is already its own point
        modulo them: ``insert_row`` adds it with no reduction, and each
        cover appears once.  Given canonical rows ``modulo``, it yields the
        point of w modulo their span (``reduce_row``) in place of w.
        """
        n, q = self.n, self.q
        if q == 2:
            pivmask = 0
            for r in rows:
                pivmask |= r & -r
            free_bit = [1 << j for j in range(n) if not (pivmask >> j) & 1]
            # the point is linear in w at q = 2, so it follows the walk
            point = ([reduce_row(modulo, b, q) for b in free_bit]
                     if modulo else free_bit)
            # Gray-code order: mask m differs from m-1 in bit ctz(m)
            w = p = 0
            for m in range(1, 1 << len(free_bit)):
                t = (m & -m).bit_length() - 1
                w ^= free_bit[t]
                p ^= point[t]
                yield insert_row(rows, w, q), p
        else:
            bits = lanes(q).bits
            pivots = {(r & -r).bit_length() - 1 for r in rows}
            free = [j * bits for j in range(n) if j * bits not in pivots]
            # the points with first nonzero entry at free[lead], the lead
            # taken from the last free column back, each in lexicographic
            # order of its entries right of the lead (``tails``)
            tails = [0]
            for lead in range(len(free) - 1, -1, -1):
                at = free[lead]
                for t in tails:
                    w = (1 << at) + t
                    yield (insert_row(rows, w, q),
                           reduce_row(modulo, w, q) if modulo else w)
                if lead:
                    tails = [(a << at) + t for a in range(q) for t in tails]

    def hyperplanes_rows(self, rows):
        """All covers below: canonical bases of the (d-1)-spaces under rows.

        One hyperplane per functional a on the coefficient space whose
        last nonzero entry a_t is 1: the rows r_s - a_s r_t (s < t) and
        r_s (s > t).  These are canonical as built, with no reduction.
        Each keeps its pivot, because r_t is zero before its own pivot,
        which lies right of every p_s with s < t.  Every pivot column
        stays clear, because r_t is zero on every pivot column but its own.
        The functionals are enumerated in this form directly: the rows
        above t, and the rows with a_s = 0, are reused as they are.
        """
        q = self.q
        for t, rt in enumerate(rows):
            # the choices for row s < t: r_s - c r_t for c = a_s in 0..q-1
            if q == 2:
                choices = [(r, r ^ rt) for r in rows[:t]]
            else:
                # r - c rt, as r + (q - c) rt with every lane reduced
                choices = [(r,) + tuple(reduce_lanes(r + (q - c) * rt, q)
                                        for c in range(1, q))
                           for r in rows[:t]]
            tail = rows[t + 1:]
            for head in product(*choices):
                yield head + tail

    def covers_below(self, rows):
        """The hyperplanes of rows, split into (slash, backslash): rows
        slash-covers those in the first list.  Each list is in
        ``hyperplanes_rows`` order."""
        # a cover pair is slash exactly when dim(·∩y) steps with dim
        i_slash = self.intersection_dim_with_y(rows) - 1
        slash, back = [], []
        for m in self.hyperplanes_rows(rows):
            if self.intersection_dim_with_y(m) == i_slash:
                slash.append(m)
            else:
                back.append(m)
        return slash, back

    def sum_with_y(self, rows):
        """Canonical basis of span(rows) + y."""
        base = self.y.rows
        for r in rows:
            base = extend_rows(base, r, self.q)
        return base

    def hyperplane_meets(self, srows):
        """(w, key) for each hyperplane w of S = span(srows), in
        ``hyperplanes_rows`` order, the key telling w∩y apart: None when w
        holds S∩y (S backslash-covers w), else the coordinates in S/w of
        a basis of S∩y, scaled so that the first nonzero one is 1.

        S/w is a line, and w∩y is the kernel of S∩y -> S/w, so two w meet
        y alike exactly when their coordinates agree up to a scalar.  The
        coordinate of b is read at the one pivot column of S (the first
        bit of its pivot lane) that w lacks: b less each row of w times
        b's entry at that row's pivot lies in S and is zero on every other
        pivot column of S, so it is its entry there times that row of S.
        """
        q, layout = self.q, lanes(self.q)
        mask, inverse = layout.mask, layout.inverse
        meet = intersect_rows(srows, self.y.rows, self.n, q)  # S∩y
        spivots = 0
        for r in srows:
            spivots |= r & -r
        for wrows in self.hyperplanes_rows(srows):
            wpivots = 0
            for r in wrows:
                wpivots |= r & -r
            at = (spivots & ~wpivots).bit_length() - 1
            # (pivot of a row of w, the row's entry at column at)
            terms = [((r & -r).bit_length() - 1, (r >> at) & mask)
                     for r in wrows if (r >> at) & mask]
            coords = []
            for b in meet:
                c = (b >> at) & mask
                for pivot, a in terms:
                    c -= a * ((b >> pivot) & mask)
                coords.append(c % q)
            lead = next((c for c in coords if c), 0)
            yield wrows, (tuple(c * inverse[lead] % q for c in coords)
                          if lead else None)

    def first_at_distance(self, i: int) -> Subspace:
        """A k-space at distance i from y, so in stratum (k-i, i): the
        first k-i basis rows of y and the first i unit vectors that extend
        a basis of y.  ValueError for i outside [0, min(k, n-k)]."""
        q, n, k = self.q, self.n, self.k
        if not 0 <= i <= min(k, n - k):
            raise ValueError(f"no k-space is at distance {i} from y: need "
                             f"0 <= i <= min(k, n-k) = {min(k, n - k)}")
        span, outside = self.y.rows, []
        for j in range(n):
            if len(outside) == i:
                break
            e = Subspace.coordinate_span([j], q, n).rows[0]
            grown = extend_rows(span, e, q)
            if len(grown) > len(span):
                span, outside = grown, outside + [e]
        return Subspace(q, n, self.y.rows[:k - i] + tuple(outside))

    def rows_at_distance(self, i: int) -> list:
        """The canonical rows of every k-space at distance i from y, in
        ``enumerate_subspaces`` order."""
        return [u.rows for u in enumerate_subspaces(self.n, self.k, self.q)
                if self.intersection_dim_with_y(u.rows) == self.k - i]

    def cover_groups(self, mrows):
        """(covers, ends): the covers of a subspace m as canonical bases,
        grouped by the point modulo V = m + y of the row they add, group
        after group, and the end of each group in covers.  The first group
        is the zero point's: the slash covers of m, empty when y lies in
        m; each group is in ``superspaces_rows`` order."""
        mod = self.sum_with_y(mrows)
        groups: dict[int, list] = {0: []}
        for urows, p in self.superspaces_rows(mrows, mod):
            group = groups.get(p)
            if group is None:
                groups[p] = [urows]
            else:
                group.append(urows)
        covers: list = []
        ends = []
        for group in groups.values():
            covers += group
            ends.append(len(covers))
        return covers, ends


def letter_split(z, groups) -> dict[str, list]:
    """The subspaces u of z's dimension with dim(u∩z) = dim(z) - 1, split
    by the letter (F0, F+, F-, R or L) whose column at z holds them.

    ``groups`` gives the ``cover_groups`` of each hyperplane m of z, with
    the covers named by any handle, z among them under the same one (its
    rows, or an id).  Each u is found once, as a cover of m = u∩z other
    than z, and gets the letter of its group (``_OWN_ZERO_OTHER``): the
    group holding z stands for z's point, and that point is zero exactly
    when it is the first group.
    """
    letters: dict[str, list] = {"F0": [], "F+": [], "F-": [], "R": [], "L": []}
    for covers, ends in groups:
        at = covers.index(z)
        own = bisect_right(ends, at)
        mine, zero, rest = _OWN_ZERO_OTHER[own == 0]
        start = 0
        for t, end in enumerate(ends):
            if t == own:  # every cover of z's group but z
                col = letters[mine]
                col += covers[start:at]
                col += covers[at + 1:end]
            else:
                letters[rest if t else zero] += covers[start:end]
            start = end
    return letters


def cover_kind(u: Subspace, v: Subspace, ctx: GeometryContext) -> str | None:
    """The kind of the cover u < v: "/" (slash) or "\\" (backslash), or
    None when v does not cover u."""
    if v.dim != u.dim + 1:
        return None
    if rank_rows(u.rows + v.rows, ctx.q) != v.dim:
        return None  # u not contained in v
    i_u = ctx.intersection_dim_with_y(u.rows)
    i_v = ctx.intersection_dim_with_y(v.rows)
    return "/" if i_v == i_u + 1 else "\\"


def pair_profile(u: Subspace, z: Subspace,
                 ctx: GeometryContext) -> AdjacentProfile:
    """Cover-kind profile of a same-dimension adjacent pair."""
    if u.dim != z.dim:
        raise ValueError("pair_profile requires equal dimensions")
    mrows = intersect_rows(u.rows, z.rows, ctx.n, ctx.q)
    if len(mrows) != u.dim - 1:
        raise ValueError("subspaces are not adjacent")
    srows = sum_rows(u.rows, z.rows, ctx.q)
    i_u = ctx.intersection_dim_with_y(u.rows)
    i_z = ctx.intersection_dim_with_y(z.rows)
    i_s = ctx.intersection_dim_with_y(srows)
    i_m = ctx.intersection_dim_with_y(mrows)
    return AdjacentProfile.from_dims(i_u, i_z, i_s, i_m)


class CoverCountViolation(NamedTuple):
    element: Subspace
    stratum: Stratum
    observed: tuple[int, int, int, int]
    expected: tuple[int, int, int, int]


class CoverCountReport(NamedTuple):
    """Per-element check of the four stratum cover counts.

    For u in stratum (i, j) the expected counts are:
    slash-covers q^j [i] elements, backslash-covers [j] elements,
    slash-covered by [k-i], backslash-covered by q^(k-i) [n-k-j].
    """

    instance: tuple[int, int, int]
    checked: int
    violations: list[CoverCountViolation]

    @property
    def holds(self) -> bool:
        return not self.violations


def cover_tallies(ctx: GeometryContext):
    """The four cover counts of every element of a fully enumerated
    context and the dim(u∩y) they were split by, as five int lists
    indexed by element id: (slash below, backslash below, slash above,
    backslash above, dim(u∩y)).

    Each cover pair m < u is visited once, from u: ``hyperplanes_rows``
    yields m's canonical basis, ``id_by_rows`` gives m's id, and the pair
    counts below u and above m.  It is slash when dim(m∩y) + 1 =
    dim(u∩y).  No cover above is built.  A basis that is not an element
    raises ValueError naming it.
    """
    if not ctx.elements:
        raise ValueError("cover tallies need an enumerated context")
    ids = ctx.id_by_rows
    meet = [ctx.intersection_dim_with_y(u.rows) for u in ctx.elements]
    size = len(meet)
    slash_below, back_below = [0] * size, [0] * size
    slash_above, back_above = [0] * size, [0] * size
    # ids run in dimension order, and the zero space (id 0) has no
    # hyperplanes
    for uid in range(1, size):
        u = ctx.elements[uid]
        i_slash = meet[uid] - 1
        slash = back = 0
        for mrows in ctx.hyperplanes_rows(u.rows):
            try:
                mid = ids[mrows]
            except KeyError:
                rows = ":".join(format_rows(mrows, ctx.n, ctx.q))
                raise ValueError(f"hyperplane rows={rows} of {ctx.ref(u)} "
                                 f"is not an enumerated subspace") from None
            if meet[mid] == i_slash:
                slash += 1
                slash_above[mid] += 1
            else:
                back += 1
                back_above[mid] += 1
        slash_below[uid] = slash
        back_below[uid] = back
    return slash_below, back_below, slash_above, back_above, meet


def verify_cover_counts(ctx: GeometryContext) -> CoverCountReport:
    """Check the four cover counts for every enumerated element.

    The counts, and each element's stratum, come from ``cover_tallies``,
    which visits each cover pair once; violations are reported in element
    id order.
    """
    q, k, n = ctx.q, ctx.k, ctx.n
    expected = {
        Stratum(i, j): (q**j * qint(i, q), qint(j, q), qint(k - i, q),
                        q ** (k - i) * qint(n - k - j, q))
        for i in range(k + 1) for j in range(n - k + 1)
    }
    violations = []
    *tallies, meet = cover_tallies(ctx)
    for u, i, observed in zip(ctx.elements, meet, zip(*tallies)):
        s = Stratum(i, u.dim - i)
        if observed != expected[s]:
            violations.append(CoverCountViolation(u, s, observed,
                                                  expected[s]))
    return CoverCountReport((q, n, k), len(ctx.elements), violations)


def stratum_sizes(ctx: GeometryContext) -> dict[Stratum, int]:
    """Sizes |P_{i,j}| over the enumerated dimensions."""
    sizes: dict[Stratum, int] = {}
    for u in ctx.elements:
        s = ctx.stratum(u)
        sizes[s] = sizes.get(s, 0) + 1
    return sizes


def expected_stratum_size(i: int, j: int, ctx: GeometryContext) -> int:
    """|P_{i,j}| in closed form (independent cross-check for reports)."""
    q, n, k = ctx.q, ctx.n, ctx.k
    return (
        gaussian_binomial(k, i, q)
        * gaussian_binomial(n - k, j, q)
        * q ** ((k - i) * j)
    )
