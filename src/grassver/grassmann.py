"""The Grassmann graph J_q(n,k) and its local orbit combinatorics.

Vertices are the k-spaces; two are adjacent when their intersection has
dimension k-1, and the distance is k - dim(u∩v).  Relative to a fixed pair
(x, y) at distance 1 < i < k, the neighbors of x split into five classes
(B, C, A0, A+, A-); this module counts everything about them by direct
enumeration and compares against the closed-form tables: orbit sizes,
structure constants, typed-edge counts, and the (w,x)-entries of the nine
products of F0, F+, F-.

Every brute-force count also checks constancy across the class (the
equitable-partition property), so a single aggregate could not mask a
miscount on individual vertices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .gf import Subspace, canonical_rows, dim_intersect, qint
from .geometry import AdjacentProfile, GeometryContext, pair_profile
from .relations import column_evaluator

ORBIT_ORDER = ("B", "C", "A0", "A+", "A-")


class OrbitLabel(enum.Enum):
    B = "B"
    C = "C"
    A0 = "A0"
    APLUS = "A+"
    AMINUS = "A-"


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
    """Neighbors of a vertex, generated through its hyperplanes."""
    for urows, _, _ in ctx.adjacency_sweep(zrows):
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
    start = canonical_rows(u.rows, ctx.q)
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


# F-class of the pair (z, x) relative to y -> A-class of z, and edge type
_A_CLASS = {"F0": OrbitLabel.A0, "F+": OrbitLabel.APLUS,
            "F-": OrbitLabel.AMINUS}
_EDGE_TYPE = {"F0": EdgeType.T0, "F+": EdgeType.TPLUS,
              "F-": EdgeType.TMINUS}


class GrassmannInstance:
    """A fixed (ctx, x, y) with 1 < ∂(x,y) < k and n > 2k >= 6.

    x defaults to the first k-space at distance i from y in enumeration
    order (or, on a lazy context, the canonical pivot pattern meeting y in
    its first k-i coordinates).
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
        else:  # a caller's rows may not be canonical
            x = Subspace(x.q, x.n, canonical_rows(x.rows, x.q))
        self.x = x
        self.i = graph_distance(x, self.y, ctx)
        if i is not None and self.i != i:
            raise ValueError(f"x is at distance {self.i}, expected {i}")
        if not 1 < self.i < k:
            raise ValueError(f"need 1 < distance < k, got {self.i}")
        self._neighbors: list | None = None
        self._orbits: dict | None = None
        self._counts: tuple | None = None

    def _default_x(self, i: int) -> Subspace:
        ctx = self.ctx
        k = ctx.k
        if ctx.has_dim(k):
            for u in ctx.subspaces_of_dim(k):
                if ctx.intersection_dim_with_y(u.rows) == k - i:
                    return u
            raise ValueError(f"no k-space at distance {i}")
        # spans e_0..e_{k-i-1} inside y plus e_k..e_{k+i-1} outside it
        idx = list(range(k - i)) + list(range(k, k + i))
        return Subspace.coordinate_span(idx, ctx.q, ctx.n)

    @property
    def instance(self) -> tuple[int, int, int, int]:
        return (self.ctx.q, self.ctx.n, self.ctx.k, self.i)

    def neighbors(self) -> list:
        """Γ(x) with cover-kind profiles relative to (·, x), cached."""
        if self._neighbors is None:
            self._neighbors = list(self.ctx.typed_adjacency(self.x.rows))
        return self._neighbors

    def label_of(self, wrows, prof: AdjacentProfile) -> OrbitLabel:
        dist = self.ctx.k - self.ctx.intersection_dim_with_y(wrows)
        if dist == self.i + 1:
            return OrbitLabel.B
        if dist == self.i - 1:
            return OrbitLabel.C
        if dist != self.i:
            raise ValueError("neighbor at impossible distance")
        label = _A_CLASS.get(prof.f_class())
        if label is None:
            raise ValueError("equidistant neighbor fits no A-class")
        return label

    def orbit_partition(self) -> dict[OrbitLabel, list]:
        """Γ(x) split into the five classes (basis rows per class)."""
        if self._orbits is None:
            orbits: dict[OrbitLabel, list] = {l: [] for l in OrbitLabel}
            for wrows, prof in self.neighbors():
                orbits[self.label_of(wrows, prof)].append(wrows)
            self._orbits = orbits
        return self._orbits

    def orbit_sizes(self) -> dict[OrbitLabel, int]:
        return {l: len(v) for l, v in self.orbit_partition().items()}

    def neighbor_counts(self) -> tuple[dict, dict]:
        """Cell (O, N) -> the set of values over w in class O of the
        number of neighbors of w in class N, and of the triple of typed
        edges (0, +, -) from w to class N; two dicts, cached.

        One adjacency sweep per w fills both tables: every z it yields that
        lies in Γ(x) counts for the structure constants, and when z is also
        equidistant from y the edge wz gets its type, the only case that
        needs a cover profile.
        """
        if self._counts is None:
            ctx = self.ctx
            slot = {EdgeType.T0: 0, EdgeType.TPLUS: 1, EdgeType.TMINUS: 2}
            label_and_dim = {
                rows: (label.value, ctx.intersection_dim_with_y(rows))
                for label, members in self.orbit_partition().items()
                for rows in members
            }
            adjacency: dict[tuple, set] = {}
            edge_types: dict[tuple, set] = {}
            for wrows, (o, i_w) in label_and_dim.items():
                adjacent = dict.fromkeys(ORBIT_ORDER, 0)
                equidistant = []
                for item in ctx.adjacency_sweep(wrows):
                    hit = label_and_dim.get(item[0])
                    if hit is None:  # z outside Γ(x)
                        continue
                    nn, i_z = hit
                    adjacent[nn] += 1
                    if i_z == i_w:
                        equidistant.append(item)
                typed = {nn: [0, 0, 0] for nn in ORBIT_ORDER}
                for zrows, prof in ctx.adjacent_profiles(wrows, equidistant):
                    nn = label_and_dim[zrows][0]
                    typed[nn][slot[_type_from_profile(prof)]] += 1
                for nn in ORBIT_ORDER:
                    adjacency.setdefault((o, nn), set()).add(adjacent[nn])
                    edge_types.setdefault((o, nn), set()).add(
                        tuple(typed[nn]))
            self._counts = adjacency, edge_types
        return self._counts


def classify_orbit(w: Subspace, inst: GrassmannInstance) -> OrbitLabel:
    """Class of a single neighbor of x (B/C by distance, else A-subclass)."""
    if graph_distance(w, inst.x, inst.ctx) != 1:
        raise ValueError("w must be adjacent to x")
    prof = pair_profile(w, inst.x, inst.ctx)
    return inst.label_of(w.rows, prof)


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


def brute_intersection_numbers(inst: GrassmannInstance) -> tuple[int, int]:
    """(b_i, c_i) by counting neighbor distances to y directly."""
    sizes = inst.orbit_sizes()
    return sizes[OrbitLabel.B], sizes[OrbitLabel.C]


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


def _type_from_profile(prof: AdjacentProfile) -> EdgeType:
    edge = _EDGE_TYPE.get(prof.f_class())
    if edge is None:
        raise ValueError("equidistant edge fits no type")
    return edge


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
    return _type_from_profile(pair_profile(w, z, ctx))


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

    Each product is applied to e_x by lazy column evaluation; entries are
    read off at every w, so constancy over each class is checked too.
    """
    ctx = inst.ctx
    ev = column_evaluator(ctx)
    orbits = inst.orbit_partition()
    a_classes = {
        o: [ev.intern(wrows) for wrows in orbits[label]]
        for o, label in (("A0", OrbitLabel.A0), ("A+", OrbitLabel.APLUS),
                         ("A-", OrbitLabel.AMINUS))
    }
    expected_by_word = closed_entry_table(*inst.instance)
    expected = {
        (f"{a}{b}", o): expected_by_word[(a, b)][t]
        for (a, b) in ENTRY_PRODUCTS
        for t, o in enumerate(("A0", "A+", "A-"))
    }
    x = ev.intern(inst.x.rows)
    per_cell: dict[tuple, set] = {}
    for a, b in ENTRY_PRODUCTS:
        vec = ev.apply_band_int(a, ev.apply_band_int(b, {x: 1}))
        for o, members in a_classes.items():
            per_cell[(f"{a}{b}", o)] = {vec.get(w, 0) for w in members}
    return TableReport.from_cells("entry-table", inst.instance, expected,
                                  per_cell.items())


def edge_type_matches_orbits(inst: GrassmannInstance) -> bool:
    """Typed edges agree with reclassification: for equidistant adjacent
    w,z in Γ(x), the type of wz matches the A-class of w relative to (z,y).
    Also exercises edge-type symmetry (the pair is checked both ways)."""
    ctx = inst.ctx
    orbits = inst.orbit_partition()
    equidistant = [
        rows
        for label in (OrbitLabel.A0, OrbitLabel.APLUS, OrbitLabel.AMINUS,
                      OrbitLabel.B, OrbitLabel.C)
        for rows in orbits[label]
    ]
    by_dist: dict[int, list] = {}
    for rows in equidistant:
        by_dist.setdefault(ctx.intersection_dim_with_y(rows), []).append(rows)
    for members in by_dist.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                w = Subspace(ctx.q, ctx.n, members[a])
                z = Subspace(ctx.q, ctx.n, members[b])
                if graph_distance(w, z, ctx) != 1:
                    continue
                dist = ctx.k - ctx.intersection_dim_with_y(w.rows)
                if not 1 < dist < ctx.k:
                    continue
                t = edge_type(w, z, inst)
                if t != edge_type(z, w, inst):
                    return False
                if _EDGE_TYPE[pair_profile(w, z, ctx).f_class()] != t:
                    return False
    return True
