"""The Grassmann graph J_q(n,k) and its local orbit combinatorics.

Vertices are the k-spaces; two are adjacent when their intersection has
dimension k-1, and the distance is k - dim(u∩v).  Relative to a fixed pair
(x, y) at distance 1 < i < k, the neighbors of x split into five classes
(B, C, A0, A+, A-); this module counts everything about them by direct
enumeration and compares against the closed-form tables: orbit sizes,
structure constants, typed-edge counts, and the (w,x)-entries of the nine
products of F0, F+, F-.  Every class is read, not computed: a neighbour w
of x is in B, C, A0, A+ or A- exactly when it lies in the column at x of
R, L, F0, F+ or F-, so the five classes are ``geometry.letter_split``
at x, and the profile of a pair, the F-class that names the edge types,
the keys of w∩y and the default x come from ``geometry`` too: this module
reads nothing of y itself.

Every brute-force count also checks constancy across the class (the
equitable-partition property), so a single aggregate could not mask a
miscount on individual vertices.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .gf import Subspace, dim_intersect, enumerate_subspaces, qint
from .geometry import (
    LETTER_OF_PAIR, PAIR_PROFILES, AdjacentProfile, GeometryContext,
    pair_profile, letter_split)
from .reports import cell_name, cell_value, record

# the five classes of Γ(x), by the names the reports print
ORBIT_ORDER = ("B", "C", "A0", "A+", "A-")

# the class of a neighbour w of x, by the letter whose column at x holds w
_ORBIT_OF = {"R": "B", "L": "C", "F0": "A0", "F+": "A+", "F-": "A-"}


def graph_distance(u: Subspace, v: Subspace, ctx: GeometryContext) -> int:
    """Distance in J_q(n,k): k - dim(u∩v).  (Exact for n > 2k.)"""
    if u.dim != ctx.k or v.dim != ctx.k:
        raise ValueError("graph vertices must be k-spaces")
    return ctx.k - dim_intersect(u, v)


def vertex_neighbors_rows(zrows, ctx: GeometryContext):
    """Neighbors of a vertex, generated through its hyperplanes: each
    appears once, as a cover of the unique hyperplane it shares."""
    for mrows in ctx.hyperplanes_rows(zrows):
        for urows, _ in ctx.superspaces_rows(mrows):
            if urows != zrows:
                yield urows


def bfs_distances(u: Subspace, ctx: GeometryContext) -> dict:
    """Path-length distances from u to every vertex, as an independent
    oracle for graph_distance (it never uses k - dim(u∩v)).

    Breadth-first search on the incidence of k-spaces and their
    (k-1)-dimensional hyperplanes: two k-spaces are adjacent exactly when
    they cover a common hyperplane m.  A hyperplane of a frontier vertex is
    expanded once, the first time it is met, and gives every cover of it
    still without a distance the next one; a later meeting adds nothing,
    since its covers all have distances by then.  Every vertex covers
    some (k-1)-space, so once all of them are expanded every vertex has
    its distance and the search stops: the hyperplanes of the last layer,
    the vertices at distance k, are never enumerated.  The number of
    (k-1)-spaces is counted by enumeration, not taken from a closed form.
    """
    if u.dim != ctx.k:
        raise ValueError("graph vertices must be k-spaces")
    start = u.rows
    dist = {start: 0}
    expanded = set()
    unexpanded = _count_subspaces(ctx.n, ctx.k - 1, ctx.q)
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for zrows in frontier:
            for mrows in ctx.hyperplanes_rows(zrows):
                if mrows in expanded:
                    continue
                expanded.add(mrows)
                for wrows, _ in ctx.superspaces_rows(mrows):
                    if wrows not in dist:
                        dist[wrows] = d
                        nxt.append(wrows)
                unexpanded -= 1
                if not unexpanded:
                    return dist
        frontier = nxt
    return dist


def _count_subspaces(n: int, d: int, q: int) -> int:
    """The number of d-spaces of F_q^n, by enumerating them."""
    return sum(1 for _ in enumerate_subspaces(n, d, q))


def intersection_numbers(i: int, ctx: GeometryContext) -> tuple[int, int]:
    """(b_i, c_i) of J_q(n,k) in closed form."""
    q, n, k = ctx.q, ctx.n, ctx.k
    if not 0 <= i <= k:
        raise ValueError(f"distance {i} outside [0, {k}]")
    b = q ** (2 * i + 1) * qint(k - i, q) * qint(n - k - i, q)
    return b, qint(i, q) ** 2


# An F-class "F" + t names the A-class "A" + t and the edge type t, whose
# place in a (0, +, -) triple is its place in _TRIPLE
_TRIPLE = "0+-"
# that place for an edge between two covers of a hyperplane h of x that
# are equidistant from y, by the key of PAIR_PROFILES: the covers' points
# modulo h + y are their cover groups (see neighbor_counts)
_TYPE_SLOT = {key: _TRIPLE.index(prof.f_class()[1])
              for key, prof in PAIR_PROFILES.items() if key[0] == key[1]}
# that place for an edge wz between equidistant k-spaces of a cover S of x
# with w∩x ≠ z∩x, by (S∩y ⊆ w, w∩y = z∩y).  Then S = w+z, so dim(S∩y) is
# dim(w∩y) or one more; and m = w∩z meets y in w∩y when w∩y = z∩y, else in
# a hyperplane of it.  S∩y ⊆ w makes w∩y = S∩y = z∩y, so the entry for
# (True, False) is only ever given a count of 0.
_COVER_SLOT = {
    (up, same): _TRIPLE.index(AdjacentProfile.from_dims(
        1, 1, 1 + (not up), 1 - (not same)).f_class()[1])
    for up in (True, False) for same in (True, False)}


class GrassmannInstance:
    """A fixed (ctx, x) with 1 < ∂(x,y) < k and n > 2k >= 6, y being
    ctx's reference space.

    x defaults to ``GeometryContext.first_at_distance(i)``; a given x has
    the distance of its stratum.
    """

    def __init__(self, ctx: GeometryContext, i: int | None = None,
                 x: Subspace | None = None):
        n, k = ctx.n, ctx.k
        if not (n > 2 * k >= 6):
            raise ValueError(f"need n > 2k >= 6, got n={n}, k={k}")
        self.ctx = ctx
        if x is not None:
            if x.dim != k:
                raise ValueError("graph vertices must be k-spaces")
            d = ctx.stratum(x).j
            if i is not None and d != i:
                raise ValueError(f"x is at distance {d}, expected {i}")
            i = d
        elif i is None:
            raise ValueError("either x or the distance i is required")
        # checked before the default x is built, so a bad i gets this message
        if not 1 < i < k:
            raise ValueError(f"need 1 < i < k, got i={i}, k={k}")
        self.x = ctx.first_at_distance(i) if x is None else x
        self.i = i
        self._orbits: dict | None = None
        self._groups: list = []  # cover_groups of x's hyperplanes
        self._counts: tuple | None = None

    @property
    def instance(self) -> tuple[int, int, int, int]:
        return (self.ctx.q, self.ctx.n, self.ctx.k, self.i)

    def orbit_partition(self) -> dict[str, list]:
        """Γ(x) split into the five classes (basis rows per class, keyed
        in ``ORBIT_ORDER``), cached: the neighbours of x by the letter
        whose column at x holds them.
        The cover groups of x's hyperplanes that give the split are kept
        for ``neighbor_counts``."""
        if self._orbits is None:
            ctx, xrows = self.ctx, self.x.rows
            self._groups = [ctx.cover_groups(h)
                            for h in ctx.hyperplanes_rows(xrows)]
            split = letter_split(xrows, self._groups)
            self._orbits = {label: split[letter]
                            for letter, label in _ORBIT_OF.items()}
        return self._orbits

    def orbit_sizes(self) -> dict[str, int]:
        return {l: len(v) for l, v in self.orbit_partition().items()}

    def neighbor_counts(self) -> tuple[dict, dict]:
        """Cell (O, N) -> the set of values over w in class O of the
        number of neighbors of w in class N, and of the triple of typed
        edges (0, +, -) from w to class N; two dicts, cached.

        Every edge wz inside Γ(x) lies in exactly one of two families of
        cliques, and each member's counts are read off class tallies of
        the cliques that hold it; no pair is visited.

        1. w∩x = z∩x = h: the covers of a hyperplane h of x other than x,
           any two of which meet exactly in h.  An equidistant pair gets
           its type from the cover groups of h (the points modulo h + y)
           that ``orbit_partition`` swept: both in the zero group gives
           F-, the same other group F0, two other groups F+ (``_TYPE_SLOT``).
        2. w∩x ≠ z∩x: then z∩x and z∩w are two distinct hyperplanes of z
           (were they one, z∩x would lie in w and be w∩x), so z = z∩x +
           z∩w lies in S = w + x, a cover of x; and any two k-spaces of S
           are adjacent.  Each member w lies in the one
           cover w + x, so the pairs of k-spaces of each cover S other
           than x, less the pairs sharing their hyperplane of x, are all
           the other edges, each once.  An equidistant pair is F+ when
           S∩y ⊆ w, else F0 when w∩y = z∩y and F- otherwise
           (``_COVER_SLOT``).

        So the count of w into class N is (its cover group's tally over
        h, less w itself) + (its tally over S, less its tally over the
        covers of h in S).  Whether w holds S∩y, and w∩y where it does
        not, come as the keys of ``GeometryContext.hyperplane_meets``, so
        no stratum is asked for.  Each member is looked up twice, once in
        its cover group and once in its S, and its state is kept in flat
        lists indexed by member.
        """
        if self._counts is None:
            self._counts = self._count_neighbors()
        return self._counts

    def _count_neighbors(self) -> tuple[dict, dict]:
        ctx, xrows = self.ctx, self.x.rows
        orbits = self.orbit_partition()
        index: dict[tuple, int] = {}  # a member's rows -> its place
        cls: list[int] = []  # a member's class, by place in ORBIT_ORDER
        for o, name in enumerate(ORBIT_ORDER):
            for rows in orbits[name]:
                index[rows] = len(cls)
                cls.append(o)
        grp = [0] * len(cls)  # a member's cover group, by place in groups
        # per cover group: (place of h among x's hyperplanes, counts of
        # a member into each class, its typed counts), from family 1
        groups = []
        minus, same, other = (_TYPE_SLOT[key] for key in (
            (True, True, True), (False, False, True), (False, False, False)))
        for h, (covers, ends) in enumerate(self._groups):
            parts, start = [], 0
            for end in ends:  # the members of a group share their class
                parts.append([index[rows] for rows in covers[start:end]
                              if rows != xrows])
                start = end
            over_h, off_zero = [0] * 5, [0] * 5  # class tallies
            for t, ids in enumerate(parts):
                if ids:
                    over_h[cls[ids[0]]] += len(ids)
                    if t:
                        off_zero[cls[ids[0]]] += len(ids)
            for t, ids in enumerate(parts):
                if not ids:
                    continue
                c = cls[ids[0]]
                adjacent = over_h[:]
                adjacent[c] -= 1
                typed = [0] * 15
                if t:  # a nonzero point: i_w = i_h
                    for nn, count in enumerate(off_zero):
                        typed[3 * nn + other] = count
                    typed[3 * c + other] -= len(ids)
                    typed[3 * c + same] = len(ids) - 1
                else:  # the zero point: i_w = i_h + 1
                    typed[3 * c + minus] = len(ids) - 1
                for w in ids:
                    grp[w] = len(groups)
                groups.append((h, adjacent, typed))

        signatures = [set() for _ in ORBIT_ORDER]  # per class
        for srows, _ in ctx.superspaces_rows(xrows):
            # class tallies over S (scope None) and over the covers of
            # each h in S (scope h): of all members, of those on one
            # level, and of those with one w∩y (key None: S∩y ⊆ w)
            by_class, by_level, by_meet = (
                defaultdict(lambda: [0] * 5) for _ in range(3))
            members = []
            for wrows, key in ctx.hyperplane_meets(srows):
                if wrows == xrows:
                    continue
                w = index[wrows]
                c, h, up = cls[w], groups[grp[w]][0], key is None
                members.append((w, c, h, up, key))
                for scope in (None, h):
                    by_class[scope][c] += 1
                    by_level[scope, up][c] += 1
                    by_meet[scope, key][c] += 1
            for w, c, h, up, key in members:
                _, adjacent, typed = groups[grp[w]]
                adjacent, typed = adjacent[:], typed[:]
                in_s, in_h = by_class[None], by_class[h]
                level_s, level_h = by_level[None, up], by_level[h, up]
                meet_s, meet_h = by_meet[None, key], by_meet[h, key]
                alike, unlike = _COVER_SLOT[up, True], _COVER_SLOT[up, False]
                for nn in range(5):
                    adjacent[nn] += in_s[nn] - in_h[nn]
                    paired = meet_s[nn] - meet_h[nn]
                    typed[3 * nn + alike] += paired
                    typed[3 * nn + unlike] += (level_s[nn] - level_h[nn]
                                               - paired)
                signatures[c].add((tuple(adjacent), tuple(typed)))

        adjacency: dict[tuple, set] = {}
        edge_types: dict[tuple, set] = {}
        for o, sigs in enumerate(signatures):
            for adjacent, typed in sigs:
                for nn, name in enumerate(ORBIT_ORDER):
                    cell = (ORBIT_ORDER[o], name)
                    adjacency.setdefault(cell, set()).add(adjacent[nn])
                    edge_types.setdefault(cell, set()).add(
                        typed[3 * nn:3 * nn + 3])
        return adjacency, edge_types


def classify_orbit(w: Subspace, inst: GrassmannInstance) -> str:
    """Class of a single neighbor of x, by the letter of the pair (w, x):
    the oracle for ``orbit_partition``, read off ``pair_profile``."""
    if graph_distance(w, inst.x, inst.ctx) != 1:
        raise ValueError("w must be adjacent to x")
    return _ORBIT_OF[LETTER_OF_PAIR[pair_profile(w, inst.x, inst.ctx)]]


def expected_orbit_sizes(inst: GrassmannInstance) -> dict[str, int]:
    q, n, k = inst.ctx.q, inst.ctx.n, inst.ctx.k
    i = inst.i
    b_i, c_i = intersection_numbers(i, inst.ctx)
    return {
        "B": b_i,
        "C": c_i,
        "A0": (q - 1) * qint(i, q) ** 2,
        "A+": q ** (i + 1) * qint(i, q) * qint(n - k - i, q),
        "A-": q ** (i + 1) * qint(i, q) * qint(k - i, q),
    }


# ---------------------------------------------------------------------------
# structure constants


def closed_structure_constants(q, n, k, i) -> dict:
    """The 5x5 table: (O, N) -> #{z in N adjacent to a vertex of O}."""

    def qi(m):
        return qint(m, q)

    rows = {
        "B": (q ** (i + 1) * qi(k - i) + q ** (i + 1) * qi(n - k - i) - q - 1,
              0, 0, q * qi(i), q * qi(i)),
        "C": (0, 2 * q * qi(i - 1), 2 * q**i - q - 1,
              q ** (i + 1) * qi(n - k - i), q ** (i + 1) * qi(k - i)),
        "A0": (0, 2 * qi(i) - 1, 2 * q**i - q - 2,
               q ** (i + 1) * qi(n - k - i), q ** (i + 1) * qi(k - i)),
        "A+": (q ** (i + 1) * qi(k - i), qi(i), (q - 1) * qi(i),
               q * qi(n - k) - q - 1, 0),
        "A-": (q ** (i + 1) * qi(n - k - i), qi(i), (q - 1) * qi(i),
               0, q * qi(k) - q - 1),
    }
    return {
        (o, nn): rows[o][t]
        for o in ORBIT_ORDER
        for t, nn in enumerate(ORBIT_ORDER)
    }


class TableReport(NamedTuple):
    """Brute-force table vs closed form, with the equitability check."""

    kind: str
    instance: tuple[int, int, int, int]
    observed: dict
    expected: dict
    mismatches: list  # cells observed != expected, or never observed
    inequitable: list  # cells varying across w

    @classmethod
    def from_cells(cls, kind, instance, expected, cells) -> TableReport:
        """The report from (cell, set of values over the cell's class)
        pairs, in report order.  A cell taking more than one value is
        inequitable and shows its least value; a constant cell is compared
        with the closed form.  An expected cell that is not given is a
        mismatch, listed after the given ones."""
        observed: dict = {}
        mismatches, inequitable = [], []
        for cell, values in cells:
            if len(values) != 1:
                inequitable.append(cell)
                observed[cell] = min(values)
                continue
            (observed[cell],) = values
            if observed[cell] != expected[cell]:
                mismatches.append(cell)
        mismatches += [cell for cell in expected if cell not in observed]
        return cls(kind, instance, observed, expected, mismatches,
                   inequitable)

    @property
    def holds(self) -> bool:
        return not self.mismatches and not self.inequitable

    def to_record(self) -> dict:
        observed, expected = (
            {cell_name(c): cell_value(v, "records") for c, v in cells.items()}
            for cells in (self.observed, self.expected))
        return record(
            f"{self.kind}-table", instance=list(self.instance),
            holds=self.holds, observed=observed, expected=expected,
            mismatches=[cell_name(c) for c in self.mismatches],
            inequitable=[cell_name(c) for c in self.inequitable])


def structure_constants(inst: GrassmannInstance) -> TableReport:
    """Count, for every w in every class O, its neighbors per class N."""
    return TableReport.from_cells(
        "structure-constants", inst.instance,
        closed_structure_constants(*inst.instance),
        sorted(inst.neighbor_counts()[0].items()))


# ---------------------------------------------------------------------------
# edge types


def edge_type(w: Subspace, z: Subspace,
              inst: GrassmannInstance) -> str | None:
    """Type of the edge wz of adjacent w, z: "0", "+" or "-", or None
    when w and z are not equidistant from y.

    Type 0: w+z /-covers each of w,z and each \\-covers w∩z; type +: w+z
    \\-covers both; type -: each of w,z /-covers w∩z.
    """
    ctx = inst.ctx
    if graph_distance(w, z, ctx) != 1:
        raise ValueError("w and z must be adjacent")
    if (ctx.intersection_dim_with_y(w.rows)
            != ctx.intersection_dim_with_y(z.rows)):
        return None
    f = pair_profile(w, z, ctx).f_class()
    if f is None:
        raise ValueError("equidistant edge fits no type")
    return f[1]


def closed_edge_type_table(q, n, k, i) -> dict:
    """(O, N) -> (type-0, type-+, type--) counts per source vertex."""

    def qi(m):
        return qint(m, q)

    table = {
        (o, nn): (0, 0, 0) for o in ORBIT_ORDER for nn in ORBIT_ORDER
    }
    table[("B", "B")] = (2 * q ** (i + 1) - q - 1,
                         q ** (i + 2) * qi(n - k - i - 1),
                         q ** (i + 2) * qi(k - i - 1))
    table[("C", "C")] = (0, q * qi(i - 1), q * qi(i - 1))
    table[("A0", "A0")] = (2 * q**i - q - 2, 0, 0)
    table[("A0", "A+")] = (0, q ** (i + 1) * qi(n - k - i), 0)
    table[("A0", "A-")] = (0, 0, q ** (i + 1) * qi(k - i))
    table[("A+", "A0")] = (0, (q - 1) * qi(i), 0)
    table[("A+", "A+")] = ((q - 1) * qi(i), q * qi(n - k) - q**i - q, 0)
    table[("A-", "A0")] = (0, 0, (q - 1) * qi(i))
    table[("A-", "A-")] = ((q - 1) * qi(i), 0, q * qi(k) - q**i - q)
    return table


def count_edge_types(inst: GrassmannInstance) -> TableReport:
    """Per-source typed-edge counts over all ordered class pairs."""
    return TableReport.from_cells(
        "edge-types", inst.instance, closed_edge_type_table(*inst.instance),
        sorted(inst.neighbor_counts()[1].items()))


# ---------------------------------------------------------------------------
# entries of the nine F-products

ENTRY_PRODUCTS = (
    ("F0", "F0"), ("F0", "F+"), ("F0", "F-"),
    ("F+", "F0"), ("F+", "F+"), ("F+", "F-"),
    ("F-", "F0"), ("F-", "F+"), ("F-", "F-"),
)


def closed_entry_table(q, n, k, i) -> dict:
    """Product word -> (value at A0, at A+, at A-) for the (w,x)-entry."""

    def qi(m):
        return qint(m, q)

    g = (q - 1) * qi(i)
    return {
        ("F0", "F0"): (2 * q**i - q - 2, 0, 0),
        ("F0", "F+"): (0, g, 0),
        ("F0", "F-"): (0, 0, g),
        ("F+", "F0"): (0, g, 0),
        ("F+", "F+"): (q ** (i + 1) * qi(n - k - i),
                       q * qi(n - k) - q**i - q, 0),
        ("F+", "F-"): (0, 0, 0),
        ("F-", "F0"): (0, 0, g),
        ("F-", "F+"): (0, 0, 0),
        ("F-", "F-"): (q ** (i + 1) * qi(k - i), 0,
                       q * qi(k) - q**i - q),
    }


def verify_entry_table(inst: GrassmannInstance) -> TableReport:
    """(w,x)-entries of the nine F-products over the three A-classes.

    (F_a F_b)(w,x) counts the z with F_a(w,z) = F_b(z,x) = 1: the z in
    the A-class of b joined to w by an edge of type a.  So the entry at w
    is w's type-a count into that class, read from neighbor_counts; every
    w is read, so constancy over each class is checked too.
    """
    edge_types = inst.neighbor_counts()[1]
    expected_by_word = closed_entry_table(*inst.instance)
    per_cell: dict[tuple, set] = {}
    expected = {}
    for a, b in ENTRY_PRODUCTS:
        t = _TRIPLE.index(a[1])
        for o, ab in zip(("A0", "A+", "A-"), expected_by_word[(a, b)]):
            cell = (f"{a}{b}", o)
            expected[cell] = ab
            per_cell[cell] = {
                triple[t] for triple in edge_types[(o, "A" + b[1])]}
    return TableReport.from_cells("entry-table", inst.instance, expected,
                                  per_cell.items())
