"""The Grassmann graph J_q(n,k) and its local orbit combinatorics.

Vertices are the k-spaces; two are adjacent when their intersection has
dimension k-1, and the distance is k - dim(u∩v).  Relative to a fixed pair
(x, y) at distance 1 < i < k, the neighbors of x split into five classes
(B, C, A0, A+, A-); this module counts everything about them by direct
enumeration and compares against the closed forms of ``closed``: orbit
sizes, structure constants, typed-edge counts, and the (w,x)-entries of
the nine products of F0, F+, F-.  Every class is read, not computed: a
neighbour w of x is in B, C, A0, A+ or A- exactly when it lies in the
column at x of R, L, F0, F+ or F-, so the five classes are
``geometry.letter_split`` at x, and the profile of a pair, the F-class
that names the edge types, the keys of w∩y and the default x come from
``geometry`` too: this module reads nothing of y itself.

Every brute-force count also checks constancy across the class (the
equitable-partition property), so a single aggregate could not mask a
miscount on individual vertices.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from . import closed
from .closed import ENTRY_PRODUCTS, ORBIT_ORDER
from .gf import Subspace, dim_intersect, enumerate_subspaces
from .geometry import (
    LETTER_OF_PAIR, PAIR_PROFILES, AdjacentProfile, GeometryContext,
    pair_profile, letter_split)
from .reports import cell_name, cell_value, record

# the class of a neighbour w of x, by the letter whose column at x holds w
_ORBIT_OF = {"R": "B", "L": "C", "F0": "A0", "F+": "A+", "F-": "A-"}


def _check_vertex(u: Subspace, ctx: GeometryContext) -> None:
    """Refuse u unless it is a k-space of ctx's F_q^n."""
    if u.n != ctx.n or u.q != ctx.q:
        raise ValueError("subspace from a different ambient space")
    if u.dim != ctx.k:
        raise ValueError("graph vertices must be k-spaces")


def graph_distance(u: Subspace, v: Subspace, ctx: GeometryContext) -> int:
    """Distance in J_q(n,k): k - dim(u∩v), at every n (checked against
    bfs_distances for n > 2k, n = 2k and n < 2k alike)."""
    _check_vertex(u, ctx)
    _check_vertex(v, ctx)
    return ctx.k - dim_intersect(u, v)


def vertex_neighbors_rows(zrows, ctx: GeometryContext):
    """Neighbors of a vertex, generated through its hyperplanes: each
    appears once, as a cover of the unique hyperplane it shares."""
    for mrows in ctx.hyperplanes_rows(zrows):
        for urows in ctx.superspaces_rows(mrows):
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
    since its covers all have distances by then.  Distances are set layer
    by layer, so each is final when first set, and the search stops as
    soon as every k-space has one: at (2,7,3), 1,056 of the 2,667
    (k-1)-spaces are never expanded.  The number of k-spaces is counted
    by enumeration, not taken from a closed form.
    """
    _check_vertex(u, ctx)
    start = u.rows
    dist = {start: 0}
    expanded = set()
    vertices = _count_subspaces(ctx.n, ctx.k, ctx.q)
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
                fresh = [w for w in ctx.superspaces_rows(mrows)
                         if w not in dist]
                dist.update(dict.fromkeys(fresh, d))
                nxt += fresh
                if len(dist) == vertices:
                    return dist
        frontier = nxt
    return dist


def _count_subspaces(n: int, d: int, q: int) -> int:
    """The number of d-spaces of F_q^n, by enumerating them."""
    return sum(1 for _ in enumerate_subspaces(n, d, q))


# An F-class "F" + t names the A-class "A" + t and the edge type t, whose
# place in a (0, +, -) triple is its place in _TRIPLE
_TRIPLE = "0+-"
# The place of the type of an edge between two members of a clique of Γ(x)
# that are equidistant from y, when both are keyed None, keyed alike or
# keyed apart (one keyed None is never equidistant with one keyed else).
# Over a hyperplane h of x the key is the cover group, the point modulo
# h + y, None for zero: read off PAIR_PROFILES, (-, 0, +).
_OVER_H = tuple(_TRIPLE.index(PAIR_PROFILES[key].f_class()[1]) for key in (
    (True, True, True), (False, False, True), (False, False, False)))
# In a cover S of x it is w∩y's key from hyperplane_meets, None when w
# holds S∩y, so dim(· ∩ y) of (w, z, S, w∩z) is (1, 1, 1, 1), (1, 1, 2, 1)
# or (1, 1, 2, 0) up to a constant: (+, 0, -), _OVER_H with F+ and F-
# swapped, as the ⊥-duality of the two families swaps them.
_IN_S = tuple(_TRIPLE.index(AdjacentProfile.from_dims(
    1, 1, i_s, i_m).f_class()[1]) for i_s, i_m in ((1, 1), (2, 1), (2, 0)))

# A member's 20 counts, packed _WIDTH bits to a field so that tallies add
# as ints: field nn holds its neighbours in class nn, and field
# 5 + 5 * t + nn its edges into class nn of the type at place t
_WIDTH = 64
_FIELD_MASK = (1 << _WIDTH) - 1


def _tally(clique, slots) -> dict:
    """The packed counts that a member of a clique of Γ(x) gets from the
    other members, by the member's (key, class).  ``clique`` gives the
    members as (class, key) pairs, and ``slots`` is ``_OVER_H`` or
    ``_IN_S``.  Members with one key and class get the same counts, so
    these are worked out once."""
    per_key: dict = {}  # key -> its members per class, packed
    for c, key in clique:
        per_key[key] = per_key.get(key, 0) + (1 << _WIDTH * c)
    total = sum(per_key.values())
    keyed = total - per_key.get(None, 0)
    none, alike, apart = (_WIDTH * (5 + 5 * t) for t in slots)
    out = {}
    for key, own in per_key.items():
        mine = none if key is None else alike
        counts = total + (own << mine)
        if key is not None:
            counts += (keyed - own) << apart
        for c in range(5):
            if own >> _WIDTH * c & _FIELD_MASK:
                unit = 1 << _WIDTH * c  # less the member itself
                out[key, c] = counts - unit - (unit << mine)
    return out


class GrassmannInstance:
    """A fixed (ctx, x) with 1 < ∂(x,y) < k and n > 2k >= 6, y being
    ctx's reference space.

    x defaults to ``GeometryContext.first_at_distance(i)``; a given x has
    the distance of its stratum.
    """

    def __init__(self, ctx: GeometryContext, i: int | None = None,
                 x: Subspace | None = None):
        n, k = ctx.n, ctx.k
        closed.check_graph_range(n, k)
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
        closed.check_graph_range(n, k, i)
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

        Γ(x) is the q-clique extension of the [k]×[n-k] grid, so every
        edge wz lies in a clique of one of the grid's two directions, and
        each member's counts are read off the ``_tally`` of the cliques
        that hold it; no pair is visited.

        1. The covers of a hyperplane h of x other than x, keyed by the
           cover groups that ``orbit_partition`` swept: the edges with
           w∩x = z∩x = h.
        2. The k-spaces of a cover S of x other than x, any two of which
           are adjacent, keyed by ``GeometryContext.hyperplane_meets``.
           When w∩x ≠ z∩x, z∩x and z∩w are two hyperplanes of z, so z lies
           in S = w + x.  Less the covers of each h in S, which family 1
           holds, these cliques give every other edge once.

        So w's counts are its tally over h, plus its tally over S, less its
        tally over the covers of h in S.  The two families are ⊥-duals,
        and their slots ``_OVER_H`` and ``_IN_S`` swap F+ with F-.
        """
        if self._counts is None:
            self._counts = self._count_neighbors()
        return self._counts

    def _count_neighbors(self) -> tuple[dict, dict]:
        ctx, xrows = self.ctx, self.x.rows
        orbits = self.orbit_partition()
        cls = {rows: o for o, name in enumerate(ORBIT_ORDER)
               for rows in orbits[name]}
        placed = {}  # a member -> (its class, its h, its tally over h)
        for h, (covers, ends) in enumerate(self._groups):
            clique, start = [], 0  # (member, class, key)
            for t, end in enumerate(ends):
                clique += [(rows, cls[rows], t or None)
                           for rows in covers[start:end] if rows != xrows]
                start = end
            over_h = _tally([(c, key) for _, c, key in clique], _OVER_H)
            # one tuple per (key, class), shared by its members
            shared = {(key, c): (c, h, counts)
                      for (key, c), counts in over_h.items()}
            for rows, c, key in clique:
                placed[rows] = shared[key, c]

        signatures = [set() for _ in ORBIT_ORDER]  # per class
        for srows in ctx.superspaces_rows(xrows):
            members = [placed[rows] + (key,)  # (class, h, over h, key)
                       for rows, key in ctx.hyperplane_meets(srows)
                       if rows != xrows]
            in_s = _tally([(c, key) for c, _, _, key in members], _IN_S)
            by_h = defaultdict(list)  # the sub-clique of the covers of h
            for c, h, _, key in members:
                by_h[h].append((c, key))
            in_h = {h: _tally(sub, _IN_S) for h, sub in by_h.items()}
            for c, h, over_h, key in members:
                signatures[c].add(over_h + in_s[key, c] - in_h[h][key, c])

        adjacency: dict[tuple, set] = {}
        edge_types: dict[tuple, set] = {}
        for o, sigs in enumerate(signatures):
            for packed in sigs:
                counts = [packed >> _WIDTH * f & _FIELD_MASK
                          for f in range(20)]
                for nn, name in enumerate(ORBIT_ORDER):
                    cell = (ORBIT_ORDER[o], name)
                    adjacency.setdefault(cell, set()).add(counts[nn])
                    edge_types.setdefault(cell, set()).add(
                        tuple(counts[5 + nn::5]))
        return adjacency, edge_types


def classify_orbit(w: Subspace, inst: GrassmannInstance) -> str:
    """Class of a single neighbor of x, by the letter of the pair (w, x):
    the oracle for ``orbit_partition``, read off ``pair_profile``."""
    if graph_distance(w, inst.x, inst.ctx) != 1:
        raise ValueError("w must be adjacent to x")
    return _ORBIT_OF[LETTER_OF_PAIR[pair_profile(w, inst.x, inst.ctx)]]


def expected_orbit_sizes(inst: GrassmannInstance) -> dict[str, int]:
    return closed.orbit_sizes(*inst.instance)


# ---------------------------------------------------------------------------
# structure constants


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
        closed.structure_constants(*inst.instance),
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


def count_edge_types(inst: GrassmannInstance) -> TableReport:
    """Per-source typed-edge counts over all ordered class pairs."""
    return TableReport.from_cells(
        "edge-types", inst.instance, closed.edge_type_table(*inst.instance),
        sorted(inst.neighbor_counts()[1].items()))


# ---------------------------------------------------------------------------
# entries of the nine F-products


def verify_entry_table(inst: GrassmannInstance) -> TableReport:
    """(w,x)-entries of the nine F-products over the three A-classes.

    (F_a F_b)(w,x) counts the z with F_a(w,z) = F_b(z,x) = 1: the z in
    the A-class of b joined to w by an edge of type a.  So the entry at w
    is w's type-a count into that class, read from neighbor_counts; every
    w is read, so constancy over each class is checked too.
    """
    edge_types = inst.neighbor_counts()[1]
    expected_by_word = closed.entry_table(*inst.instance)
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
