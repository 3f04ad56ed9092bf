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
at x, and the profile of a pair and the F-class that names the edge types
come from ``geometry`` too.

Every brute-force count also checks constancy across the class (the
equitable-partition property), so a single aggregate could not mask a
miscount on individual vertices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .gf import Subspace, dim_intersect, extend_rows, qint
from .geometry import (
    LETTER_OF_PAIR, PAIR_PROFILES, GeometryContext, pair_profile,
    letter_split)

ORBIT_ORDER = ("B", "C", "A0", "A+", "A-")


class OrbitLabel(enum.Enum):
    B = "B"
    C = "C"
    A0 = "A0"
    APLUS = "A+"
    AMINUS = "A-"


# the class of a neighbour w of x, by the letter whose column at x holds w
_ORBIT_OF = {"R": OrbitLabel.B, "L": OrbitLabel.C, "F0": OrbitLabel.A0,
             "F+": OrbitLabel.APLUS, "F-": OrbitLabel.AMINUS}


class EdgeType(enum.Enum):
    T0 = "0"
    TPLUS = "+"
    TMINUS = "-"
    NOT_EQUIDISTANT = "x"


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
    since its covers all have distances by then.
    """
    start = u.rows
    dist = {start: 0}
    expanded = set()
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
        frontier = nxt
    return dist


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
# that place for an edge between members equidistant from y, by the key of
# PAIR_PROFILES (see neighbor_counts)
_TYPE_SLOT = {key: _TRIPLE.index(prof.f_class()[1])
              for key, prof in PAIR_PROFILES.items() if key[0] == key[1]}


class GrassmannInstance:
    """A fixed (ctx, x, y) with 1 < ∂(x,y) < k and n > 2k >= 6.

    x defaults to the span of the first k-i basis rows of y and the first
    i unit vectors that extend a basis of y.
    """

    def __init__(self, ctx: GeometryContext, i: int | None = None,
                 x: Subspace | None = None):
        q, n, k = ctx.q, ctx.n, ctx.k
        if not (n > 2 * k >= 6):
            raise ValueError(f"need n > 2k >= 6, got n={n}, k={k}")
        self.ctx = ctx
        self.y = ctx.y
        if x is None:
            if i is None:
                raise ValueError("either x or the distance i is required")
            x = self._default_x(i)
        self.x = x
        self.i = graph_distance(x, self.y, ctx)
        if i is not None and self.i != i:
            raise ValueError(f"x is at distance {self.i}, expected {i}")
        if not 1 < self.i < k:
            raise ValueError(f"need 1 < distance < k, got {self.i}")
        self._orbits: dict | None = None
        self._counts: tuple | None = None

    def _default_x(self, i: int) -> Subspace:
        # y need not be a coordinate span: extend its basis by unit vectors
        q, n, k = self.ctx.q, self.ctx.n, self.ctx.k
        span, outside = self.y.rows, []
        for j in range(n):
            if len(outside) == i:
                break
            e = Subspace.coordinate_span([j], q, n).rows[0]
            grown = extend_rows(span, e, q)
            if len(grown) > len(span):
                span = grown
                outside.append(e)
        return Subspace(q, n, self.y.rows[:k - i] + tuple(outside))

    @property
    def instance(self) -> tuple[int, int, int, int]:
        return (self.ctx.q, self.ctx.n, self.ctx.k, self.i)

    def orbit_partition(self) -> dict[OrbitLabel, list]:
        """Γ(x) split into the five classes (basis rows per class), cached:
        the neighbours of x by the letter whose column at x holds them."""
        if self._orbits is None:
            ctx, xrows = self.ctx, self.x.rows
            split = letter_split(xrows, map(ctx.cover_groups,
                                            ctx.hyperplanes_rows(xrows)))
            self._orbits = {label: split[letter]
                            for letter, label in _ORBIT_OF.items()}
        return self._orbits

    def orbit_sizes(self) -> dict[OrbitLabel, int]:
        return {l: len(v) for l, v in self.orbit_partition().items()}

    def neighbor_counts(self) -> tuple[dict, dict]:
        """Cell (O, N) -> the set of values over w in class O of the
        number of neighbors of w in class N, and of the triple of typed
        edges (0, +, -) from w to class N; two dicts, cached.

        Only the edges inside Γ(x) are visited.  Two distinct members of
        Γ(x) are adjacent exactly when they share a hyperplane, and that
        hyperplane m = w∩z is unique; so every member goes into the bucket
        of each of its [k] hyperplanes, and each unordered pair in a bucket
        is one edge, visited once and credited to both ends.  Only an edge
        between members equidistant from y gets a type, and no basis of
        w+z is built for it: with the frame V = m + y taken once per
        bucket, the points of w and z modulo V key its profile in
        ``geometry.PAIR_PROFILES``, and so its type (``_TYPE_SLOT``).  A
        point is zero exactly when i_w > i_m, and is then not computed.
        """
        if self._counts is None:
            ctx = self.ctx
            intersection_dim = ctx.intersection_dim_with_y
            orbits = self.orbit_partition()
            members = [(o, rows)  # o indexes ORBIT_ORDER
                       for o, name in enumerate(ORBIT_ORDER)
                       for rows in orbits[OrbitLabel(name)]]
            i_y = [intersection_dim(rows) for _, rows in members]
            buckets: dict[tuple, list] = {}
            for w, (_, wrows) in enumerate(members):
                for mrows in ctx.hyperplanes_rows(wrows):
                    buckets.setdefault(mrows, []).append(w)
            adjacent = [[0] * 5 for _ in members]
            typed = [[0] * 15 for _ in members]  # (0, +, -) per class
            for mrows, bucket in buckets.items():
                if len(bucket) < 2:
                    continue
                mod, i_m = ctx.hyperplane_frame(mrows)
                point = [ctx.point(mod, members[z][1]) if i_y[z] == i_m
                         else 0 for z in bucket]
                for a, w in enumerate(bucket):
                    o_w, p_w = members[w][0], point[a]
                    i_w, adjacent_w, typed_w = i_y[w], adjacent[w], typed[w]
                    for b in range(a + 1, len(bucket)):
                        z = bucket[b]
                        o_z = members[z][0]
                        adjacent_w[o_z] += 1
                        adjacent[z][o_w] += 1
                        if i_y[z] != i_w:
                            continue
                        p_z = point[b]
                        t = _TYPE_SLOT[not p_w, not p_z, p_w == p_z]
                        typed_w[3 * o_z + t] += 1
                        typed[z][3 * o_w + t] += 1
            adjacency: dict[tuple, set] = {}
            edge_types: dict[tuple, set] = {}
            for w, (o, _) in enumerate(members):
                for nn, name in enumerate(ORBIT_ORDER):
                    cell = (ORBIT_ORDER[o], name)
                    adjacency.setdefault(cell, set()).add(adjacent[w][nn])
                    edge_types.setdefault(cell, set()).add(
                        tuple(typed[w][3 * nn:3 * nn + 3]))
            self._counts = adjacency, edge_types
        return self._counts


def classify_orbit(w: Subspace, inst: GrassmannInstance) -> OrbitLabel:
    """Class of a single neighbor of x, by the letter of the pair (w, x):
    the oracle for ``orbit_partition``, read off ``pair_profile``."""
    if graph_distance(w, inst.x, inst.ctx) != 1:
        raise ValueError("w must be adjacent to x")
    return _ORBIT_OF[LETTER_OF_PAIR[pair_profile(w, inst.x, inst.ctx)]]


def expected_orbit_sizes(inst: GrassmannInstance) -> dict[OrbitLabel, int]:
    q, n, k = inst.ctx.q, inst.ctx.n, inst.ctx.k
    i = inst.i
    b_i, c_i = intersection_numbers(i, inst.ctx)
    return {
        OrbitLabel.B: b_i,
        OrbitLabel.C: c_i,
        OrbitLabel.A0: (q - 1) * qint(i, q) ** 2,
        OrbitLabel.APLUS: q ** (i + 1) * qint(i, q) * qint(n - k - i, q),
        OrbitLabel.AMINUS: q ** (i + 1) * qint(i, q) * qint(k - i, q),
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


@dataclass
class TableReport:
    """Brute-force table vs closed form, with the equitability check."""

    kind: str
    instance: tuple[int, int, int, int]
    observed: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)  # cells observed!=expected
    inequitable: list = field(default_factory=list)  # cells varying across w

    @classmethod
    def from_cells(cls, kind, instance, expected, cells) -> TableReport:
        """The report from (cell, set of values over the cell's class)
        pairs, in report order.  A cell taking more than one value is
        inequitable and shows its least value; a constant cell is compared
        with the closed form."""
        report = cls(kind, instance, expected=expected)
        for cell, values in cells:
            if len(values) != 1:
                report.inequitable.append(cell)
                report.observed[cell] = min(values)
                continue
            (report.observed[cell],) = values
            if report.observed[cell] != expected[cell]:
                report.mismatches.append(cell)
        return report

    @property
    def holds(self) -> bool:
        return not self.mismatches and not self.inequitable

    def to_record(self) -> dict:
        def key(c):
            return "|".join(c) if isinstance(c, tuple) else c

        def cell(v):
            return list(v) if isinstance(v, tuple) else v

        return {
            "record": f"{self.kind}-table",
            "version": 1,
            "instance": list(self.instance),
            "holds": self.holds,
            "observed": {key(c): cell(v) for c, v in self.observed.items()},
            "expected": {key(c): cell(v) for c, v in self.expected.items()},
            "mismatches": [key(c) for c in self.mismatches],
            "inequitable": [key(c) for c in self.inequitable],
        }


def structure_constants(inst: GrassmannInstance) -> TableReport:
    """Count, for every w in every class O, its neighbors per class N."""
    return TableReport.from_cells(
        "structure-constants", inst.instance,
        closed_structure_constants(*inst.instance),
        sorted(inst.neighbor_counts()[0].items()))


# ---------------------------------------------------------------------------
# edge types


def edge_type(w: Subspace, z: Subspace, inst: GrassmannInstance) -> EdgeType:
    """Type of the edge wz (w, z adjacent and equidistant from y).

    Type 0: w+z /-covers each of w,z and each \\-covers w∩z; type +: w+z
    \\-covers both; type -: each of w,z /-covers w∩z.
    """
    ctx = inst.ctx
    if graph_distance(w, z, ctx) != 1:
        raise ValueError("w and z must be adjacent")
    if (ctx.intersection_dim_with_y(w.rows)
            != ctx.intersection_dim_with_y(z.rows)):
        return EdgeType.NOT_EQUIDISTANT
    f = pair_profile(w, z, ctx).f_class()
    if f is None:
        raise ValueError("equidistant edge fits no type")
    return EdgeType(f[1])


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
