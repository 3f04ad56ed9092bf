import csv
import inspect
import io
import json
import random
import textwrap
from pathlib import Path

import pytest

from grassver import closed, grassmann
from grassver.gf import (
    Subspace, enumerate_subspaces, gaussian_binomial, intersect_rows, qint,
    rank_rows)
from grassver.geometry import (
    PAIR_PROFILES, AdjacentProfile, GeometryContext, letter_split)
from grassver.kernels import reduce_row
from grassver.grassmann import (
    ENTRY_PRODUCTS,
    ORBIT_ORDER,
    GrassmannInstance,
    TableReport,
    bfs_distances,
    classify_orbit,
    count_edge_types,
    edge_type,
    expected_orbit_sizes,
    graph_distance,
    structure_constants,
    verify_entry_table,
    vertex_neighbors_rows,
)
from grassver.relations import column_evaluator
from grassver.reports import table_to_csv, table_to_text

DATA = Path(__file__).parent / "data" / "graph"


@pytest.fixture(scope="module")
def inst273():
    ctx = GeometryContext(2, 7, 3, dims=())
    return GrassmannInstance(ctx, i=2)


def test_graph_distance_examples():
    ctx = GeometryContext(2, 7, 3, dims=())
    x = Subspace.coordinate_span([0, 1, 2], 2, 7)
    y = Subspace.coordinate_span([4, 5, 6], 2, 7)
    assert graph_distance(x, x, ctx) == 0
    assert graph_distance(x, y, ctx) == 3
    z = Subspace.coordinate_span([0, 1, 3], 2, 7)
    assert graph_distance(x, z, ctx) == 1
    with pytest.raises(ValueError):
        graph_distance(Subspace.coordinate_span([0], 2, 7), x, ctx)


def test_distance_matches_bfs_all_pairs_262():
    ctx = GeometryContext(2, 6, 2, dims=())
    verts = list(enumerate_subspaces(6, 2, 2))
    assert len(verts) == 651
    for src in verts[:3]:
        dist = bfs_distances(src, ctx)
        assert len(dist) == len(verts)
        for v in verts:
            assert dist[v.rows] == graph_distance(src, v, ctx)


@pytest.mark.parametrize("q,n,k", [(2, 6, 3), (3, 4, 2), (2, 5, 3)])
def test_distance_formula_holds_at_n_at_most_2k(q, n, k):
    # k - dim(u∩v) is the path length whether n = 2k or n < 2k
    ctx = GeometryContext(q, n, k, dims=())
    verts = list(enumerate_subspaces(n, k, q))
    for src in random.Random(3).sample(verts, 3):
        dist = bfs_distances(src, ctx)
        assert len(dist) == len(verts)
        for v in verts:
            assert dist[v.rows] == graph_distance(src, v, ctx)


def _vertex_bfs(src_rows, adjacency):
    """Plain BFS over a vertex -> neighbors map."""
    dist = {src_rows: 0}
    frontier, d = [src_rows], 0
    while frontier:
        d += 1
        nxt = []
        for z in frontier:
            for w in adjacency[z]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


@pytest.mark.parametrize("q,n,k,sources", [(2, 5, 2, None), (3, 5, 2, 3)])
def test_incidence_bfs_matches_vertex_bfs(q, n, k, sources):
    # bfs_distances expands each hyperplane once; a BFS over the edges
    # vertex_neighbors_rows yields, hyperplanes seen again included, is
    # the reference
    ctx = GeometryContext(q, n, k, dims=())
    verts = list(enumerate_subspaces(n, k, q))
    adjacency = {v.rows: list(vertex_neighbors_rows(v.rows, ctx))
                 for v in verts}
    srcs = verts if sources is None else random.Random(5).sample(verts,
                                                                 sources)
    for src in srcs:
        dist = bfs_distances(src, ctx)
        assert len(dist) == len(verts)
        assert dist == _vertex_bfs(src.rows, adjacency), src


def test_distance_matches_bfs_sampled_273():
    ctx = GeometryContext(2, 7, 3, dims=())
    verts = list(enumerate_subspaces(7, 3, 2))
    rng = random.Random(7)
    for src in rng.sample(verts, 2):
        dist = bfs_distances(src, ctx)
        for v in rng.sample(verts, 500):
            assert dist[v.rows] == graph_distance(src, v, ctx)


def test_intersection_numbers_closed_form():
    assert closed.intersection_numbers(2, 7, 3, 0) == (210, 0)
    assert closed.intersection_numbers(2, 7, 3, 2) == (96, 9)
    assert closed.intersection_numbers(2, 7, 3, 1)[1] == 1
    with pytest.raises(ValueError):
        closed.intersection_numbers(2, 7, 3, 4)


def test_orbit_sizes(inst273):
    sizes = inst273.orbit_sizes()
    assert sizes == {"B": 96, "C": 9, "A0": 9, "A+": 72, "A-": 24}
    assert sum(sizes.values()) == 210  # = b_0
    assert inst273.orbit_sizes() == expected_orbit_sizes(inst273)


def test_orbits_partition_neighborhood(inst273):
    orbits = inst273.orbit_partition()
    all_rows = [rows for members in orbits.values() for rows in members]
    assert len(all_rows) == len(set(all_rows)) == 210


def test_classify_orbit_single_vertices(inst273):
    ctx = inst273.ctx
    orbits = inst273.orbit_partition()
    for label, members in orbits.items():
        w = Subspace(2, 7, members[0])
        assert classify_orbit(w, inst273) == label
    far = Subspace.coordinate_span([2, 4, 6], 2, 7)
    if graph_distance(far, inst273.x, ctx) != 1:
        with pytest.raises(ValueError):
            classify_orbit(far, inst273)


def _pairwise_structure_constants(inst):
    """The structure-constant table by a rank test on every ordered pair
    of Γ(x): the reference for the clique tallies of neighbor_counts."""
    q, k = inst.ctx.q, inst.ctx.k
    label = {rows: l for l, members in inst.orbit_partition().items()
             for rows in members}
    per_cell = {}
    for w, o in label.items():
        counts = dict.fromkeys(ORBIT_ORDER, 0)
        for z, nn in label.items():
            if z != w and rank_rows(w + z, q) == k + 1:
                counts[nn] += 1
        for nn, c in counts.items():
            per_cell.setdefault((o, nn), set()).add(c)
    return TableReport.from_cells(
        "structure-constants", inst.instance,
        closed.structure_constants(*inst.instance), sorted(per_cell.items()))


def test_structure_constants_equal_pairwise_count(inst273):
    ctx = inst273.ctx
    alternate = next(
        u for u in enumerate_subspaces(7, 3, 2)
        if ctx.intersection_dim_with_y(u.rows) == 1 and u != inst273.x)
    for inst in (inst273, GrassmannInstance(ctx, x=alternate)):
        want = _pairwise_structure_constants(inst)
        assert want.holds
        assert structure_constants(inst).to_record() == want.to_record()


def test_structure_constants_table(inst273):
    report = structure_constants(inst273)
    assert report.holds
    assert report.observed == report.expected
    # spot values from the closed-form table at q=2, i=2
    table = closed.structure_constants(2, 7, 3, 2)
    assert table[("B", "C")] == 0
    assert table[("C", "A0")] == 5  # 2q^i - q - 1
    assert table[("A+", "B")] == 8  # q^(i+1)[k-i]
    assert table[("A-", "A-")] == 11  # q[k] - q - 1


def test_a_cell_that_is_never_observed_fails_the_table(inst273,
                                                       monkeypatch):
    adjacency, edge_types = inst273.neighbor_counts()
    adjacency = dict(adjacency)
    del adjacency[("A+", "A-")]
    monkeypatch.setattr(inst273, "neighbor_counts",
                        lambda: (adjacency, edge_types))
    report = structure_constants(inst273)
    assert not report.holds
    assert report.mismatches == [("A+", "A-")]
    assert table_to_text(report, "structure constants").endswith("=> FAIL")
    rows = csv.DictReader(io.StringIO(table_to_csv(report)))
    assert [r["match"] for r in rows if r["cell"] == "A+|A-"] == ["0"]


def test_edge_type_requires_adjacency(inst273):
    x = inst273.x
    y = inst273.ctx.y
    with pytest.raises(ValueError):
        edge_type(x, y, inst273)  # distance 2


def test_edge_type_cross_distance(inst273):
    orbits = inst273.orbit_partition()
    b = Subspace(2, 7, orbits["B"][0])
    for rows in orbits["C"]:
        c = Subspace(2, 7, rows)
        if graph_distance(b, c, inst273.ctx) == 1:
            assert edge_type(b, c, inst273) is None
            break


def test_edge_type_table(inst273):
    report = count_edge_types(inst273)
    assert report.holds
    # acceptance spot-checks at (2,7,3,2)
    assert report.observed[("B", "B")] == (13, 16, 0)
    assert report.observed[("C", "C")] == (0, 2, 2)
    assert report.observed[("A0", "A0")] == (4, 0, 0)
    assert report.observed[("A0", "A+")] == (0, 24, 0)
    # q[n-k]-q^i-q = 24; note 3+24+0 = 27 = the (A+,A+) structure constant
    assert report.observed[("A+", "A+")] == (3, 24, 0)
    assert report.observed[("A-", "A-")] == (3, 0, 8)


def test_edge_type_triples_sum_to_structure_constants(inst273):
    # equidistant orbit pairs only: elsewhere no edge gets a type.  The
    # structure constants come from the pairwise count: one tally fills
    # both tables, so its own would not be an independent check
    et = count_edge_types(inst273).observed
    sc = _pairwise_structure_constants(inst273).observed
    same_dist = {("B", "B"), ("C", "C")} | {
        (a, b) for a in ("A0", "A+", "A-") for b in ("A0", "A+", "A-")}
    for pair in same_dist:
        if pair in et:
            assert sum(et[pair]) == sc[pair], pair


def test_entry_table(inst273):
    report = verify_entry_table(inst273)
    assert report.holds
    # F+F- and F-F+ entries vanish on every A-class
    for orbit in ("A0", "A+", "A-"):
        assert report.observed[("F+F-", orbit)] == 0
        assert report.observed[("F-F+", orbit)] == 0
    assert report.observed[("F0F0", "A0")] == 4  # 2q^i - q - 2
    assert report.observed[("F+F+", "A0")] == 24  # q^(i+1)[n-k-i]
    assert report.observed[("F0F+", "A+")] == 3  # (q-1)[i]


def test_entry_table_proportionality(inst273):
    # edge double-counts between A0 and A+/A- tie the table cells together
    q, n, k, i = inst273.instance
    rep = verify_entry_table(inst273)
    g = (q - 1) * qint(i, q)
    assert (g * rep.observed[("F0F+", "A0")]
            == q ** (i + 1) * qint(n - k - i, q)
            * rep.observed[("F0F0", "A+")])
    assert (g * rep.observed[("F+F+", "A0")]
            == q ** (i + 1) * qint(n - k - i, q)
            * rep.observed[("F0F+", "A+")])
    assert (g * rep.observed[("F0F-", "A0")]
            == q ** (i + 1) * qint(k - i, q)
            * rep.observed[("F0F0", "A-")])
    assert (g * rep.observed[("F-F-", "A0")]
            == q ** (i + 1) * qint(k - i, q)
            * rep.observed[("F0F-", "A-")])


def _evaluator_entry_table(inst):
    """The entry table by applying F_b, then F_a, to e_x with the column
    evaluator and reading the A-classes: the reference for the table
    that verify_entry_table reads off the clique tallies."""
    ev = column_evaluator(inst.ctx)
    orbits = inst.orbit_partition()
    a_classes = {
        o: [ev.intern(rows) for rows in orbits[o]]
        for o in ("A0", "A+", "A-")
    }
    expected_by_word = closed.entry_table(*inst.instance)
    expected = {
        (f"{a}{b}", o): expected_by_word[(a, b)][t]
        for a, b in ENTRY_PRODUCTS
        for t, o in enumerate(("A0", "A+", "A-"))
    }
    x = ev.intern(inst.x.rows)
    per_cell = {}
    for a, b in ENTRY_PRODUCTS:
        vec = ev.apply_band_int(a, ev.apply_band_int(b, {x: 1}))
        for o, members in a_classes.items():
            per_cell[(f"{a}{b}", o)] = {vec.get(w, 0) for w in members}
    return TableReport.from_cells("entry-table", inst.instance, expected,
                                  per_cell.items())


def test_entry_table_equals_evaluator_products(inst273):
    ctx = inst273.ctx
    alternate = next(
        u for u in enumerate_subspaces(7, 3, 2)
        if ctx.intersection_dim_with_y(u.rows) == 1 and u != inst273.x)
    inst283 = GrassmannInstance(GeometryContext(2, 8, 3, dims=()), i=2)
    for inst in (inst273, GrassmannInstance(ctx, x=alternate), inst283):
        want = _evaluator_entry_table(inst)
        assert want.holds
        assert verify_entry_table(inst).to_record() == want.to_record()


# the place of an edge type in a (0, +, -) triple, by the key of
# PAIR_PROFILES of an equidistant pair
_BUCKET_SLOT = {key: "0+-".index(prof.f_class()[1])
                for key, prof in PAIR_PROFILES.items() if key[0] == key[1]}


def _bucket_walk_counts(inst):
    """neighbor_counts by walking every pair of Γ(x) that shares a
    hyperplane: the reference for the clique tallies.

    Every member goes into the bucket of each of its [k] hyperplanes, and
    each unordered pair in a bucket is one edge, credited to both ends.  An
    edge between members equidistant from y is typed by the points of its
    ends modulo m + y, m the bucket's hyperplane, through PAIR_PROFILES.
    """
    ctx = inst.ctx
    orbits = inst.orbit_partition()
    members = [(o, rows) for o, name in enumerate(ORBIT_ORDER)
               for rows in orbits[name]]
    i_y = [ctx.intersection_dim_with_y(rows) for _, rows in members]
    buckets = {}
    for w, (_, wrows) in enumerate(members):
        for mrows in ctx.hyperplanes_rows(wrows):
            buckets.setdefault(mrows, []).append(w)
    adjacent = [[0] * 5 for _ in members]
    typed = [[0] * 15 for _ in members]  # (0, +, -) per class
    for mrows, bucket in buckets.items():
        # a member's point modulo m + y is that of its rows, the rows of m
        # reducing to zero; it is zero when the member meets y in more
        mod = ctx.sum_with_y(mrows)
        i_m = len(mrows) + ctx.k - len(mod)
        point = [max(reduce_row(mod, r, ctx.q) for r in members[z][1])
                 if i_y[z] == i_m else 0 for z in bucket]
        for a, w in enumerate(bucket):
            for b in range(a + 1, len(bucket)):
                z = bucket[b]
                adjacent[w][members[z][0]] += 1
                adjacent[z][members[w][0]] += 1
                if i_y[z] != i_y[w]:
                    continue
                p_w, p_z = point[a], point[b]
                t = _BUCKET_SLOT[not p_w, not p_z, p_w == p_z]
                typed[w][3 * members[z][0] + t] += 1
                typed[z][3 * members[w][0] + t] += 1
    adjacency, edge_types = {}, {}
    for w, (o, _) in enumerate(members):
        for nn, name in enumerate(ORBIT_ORDER):
            cell = (ORBIT_ORDER[o], name)
            adjacency.setdefault(cell, set()).add(adjacent[w][nn])
            edge_types.setdefault(cell, set()).add(
                tuple(typed[w][3 * nn:3 * nn + 3]))
    return adjacency, edge_types


def _assert_tables_match_recorded(inst):
    # to_record() of the three tables, recorded before the clique tallies:
    # by the pairwise count (2,8,3,2 and 2,9,4,3), by one adjacency sweep
    # per w (3,7,3,2) or by the walk of shared hyperplanes (3,9,4,3), the
    # entry table by the column evaluator in the first three
    with open(DATA / "tables-{}-{}-{}-{}.ndjson".format(*inst.instance),
              encoding="utf-8") as f:
        want = [json.loads(line) for line in f]
    reports = [table(inst) for table in
               (structure_constants, count_edge_types, verify_entry_table)]
    assert all(r.holds for r in reports)
    assert [r.to_record() for r in reports] == want


def test_banded_instance_283():
    ctx = GeometryContext(2, 8, 3, dims=())
    inst = GrassmannInstance(ctx, i=2)
    sizes = inst.orbit_sizes()
    assert sizes == {"B": 224, "C": 9, "A0": 9, "A+": 168, "A-": 24}
    _assert_tables_match_recorded(inst)


def test_distance_3_instance_294():
    # k = 4 is the smallest k with a distance i = 3 inside 1 < i < k
    ctx = GeometryContext(2, 9, 4, dims=())
    inst = GrassmannInstance(ctx, i=3)
    sizes = inst.orbit_sizes()
    assert sizes == {"B": 384, "C": 49, "A0": 49, "A+": 336, "A-": 112}
    assert inst.orbit_sizes() == expected_orbit_sizes(inst)
    _assert_tables_match_recorded(inst)


def test_q3_instance_373():
    ctx = GeometryContext(3, 7, 3, dims=())
    inst = GrassmannInstance(ctx, i=2)
    sizes = inst.orbit_sizes()
    assert sizes == {"B": 972, "C": 16, "A0": 32, "A+": 432, "A-": 108}
    assert inst.orbit_sizes() == expected_orbit_sizes(inst)
    _assert_tables_match_recorded(inst)


def test_q3_instance_3943():
    ctx = GeometryContext(3, 9, 4, dims=())
    inst = GrassmannInstance(ctx, i=3)
    assert inst.orbit_sizes() == expected_orbit_sizes(inst)
    _assert_tables_match_recorded(inst)


@pytest.mark.parametrize("q,n,k,i", [
    (2, 7, 3, 2), (2, 8, 3, 2), (3, 7, 3, 2), (2, 9, 4, 2), (2, 9, 4, 3)])
def test_clique_tallies_equal_the_bucket_walk(q, n, k, i):
    inst = GrassmannInstance(GeometryContext(q, n, k, dims=()), i=i)
    assert inst.neighbor_counts() == _bucket_walk_counts(inst)


def test_clique_tallies_equal_the_bucket_walk_at_seeded_x():
    ctx = GeometryContext(2, 8, 3, dims=())
    default = GrassmannInstance(ctx, i=2)
    pool = [u for u in enumerate_subspaces(8, 3, 2)
            if ctx.intersection_dim_with_y(u.rows) == 1 and u != default.x]
    for x in random.Random(83).sample(pool, 3):
        inst = GrassmannInstance(ctx, x=x)
        assert inst.neighbor_counts() == _bucket_walk_counts(inst)


_NON_COORDINATE_Y = [
    (2, [[1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 1, 0],
         [0, 0, 1, 1, 1, 0, 0]]),
    (3, [[1, 2, 0, 0, 1, 0, 0], [0, 1, 1, 0, 0, 0, 2],
         [0, 0, 0, 1, 2, 1, 0]]),
]


@pytest.mark.parametrize("q,y", _NON_COORDINATE_Y, ids=["2-7-3", "3-7-3"])
def test_clique_tallies_equal_the_bucket_walk_at_a_non_coordinate_y(q, y):
    ctx = GeometryContext(q, 7, 3, y=Subspace.from_matrix(y, q), dims=())
    inst = GrassmannInstance(ctx, i=2)
    assert inst.neighbor_counts() == _bucket_walk_counts(inst)


def test_a_kept_same_h_pair_fails_the_bucket_walk(monkeypatch):
    # mutation: family 2 keeps the pairs of a cover S of x that share their
    # hyperplane of x, which family 1 counts already
    src = textwrap.dedent(inspect.getsource(
        GrassmannInstance._count_neighbors))
    kept = "over_h + in_s[key, c] - in_h[h][key, c]"
    assert src.count(kept) == 1
    namespace = dict(vars(grassmann))
    exec(src.replace(kept, "over_h + in_s[key, c]"), namespace)
    monkeypatch.setattr(GrassmannInstance, "_count_neighbors",
                        namespace["_count_neighbors"])
    inst = GrassmannInstance(GeometryContext(2, 8, 3, dims=()), i=2)
    assert inst.neighbor_counts() != _bucket_walk_counts(inst)
    assert not structure_constants(inst).holds


def _swapped(slots, a, b):
    """A slot triple with the places of edge types a and b swapped."""
    place = {t: "0+-".index(t) for t in "0+-"}
    place[a], place[b] = place[b], place[a]
    return tuple(place["0+-"[s]] for s in slots)


def _assert_swapped_slots_fail_the_bucket_walk(monkeypatch, family, a, b):
    # mutation: one family of cliques types its edges of types a and b the
    # other way round
    slots = getattr(grassmann, family)
    monkeypatch.setattr(grassmann, family, _swapped(slots, a, b))
    inst = GrassmannInstance(GeometryContext(2, 8, 3, dims=()), i=2)
    assert inst.neighbor_counts() != _bucket_walk_counts(inst)
    assert not count_edge_types(inst).holds


def test_swapped_f0_and_f_minus_in_a_cover_fail_the_bucket_walk(
        monkeypatch):
    # inside a cover S of x: a pair off S∩y with one w∩y typed F-, and one
    # with two typed F0
    _assert_swapped_slots_fail_the_bucket_walk(monkeypatch, "_IN_S", "0", "-")


def test_swapped_f_plus_and_f_minus_over_h_fail_the_bucket_walk(
        monkeypatch):
    # over a hyperplane h of x: a pair in the zero group typed F+, and a
    # pair in two other groups typed F-
    _assert_swapped_slots_fail_the_bucket_walk(
        monkeypatch, "_OVER_H", "+", "-")


def test_slot_triples_are_read_off_the_pair_profiles_and_are_duals():
    # (both keyed None, keyed alike, keyed apart): over h the keys are
    # points modulo h + y, so the pair's PAIR_PROFILES key; in a cover S of
    # x, dim(· ∩ y) of (w, z, S, w∩z) is (1, 1, 1, 1), (1, 1, 2, 1) or
    # (1, 1, 2, 0) less a constant
    place = "0+-".index
    assert grassmann._OVER_H == tuple(
        place(PAIR_PROFILES[key].f_class()[1]) for key in (
            (True, True, True), (False, False, True), (False, False, False)))
    assert grassmann._IN_S == tuple(
        place(AdjacentProfile.from_dims(1, 1, i_s, i_m).f_class()[1])
        for i_s, i_m in ((1, 1), (2, 1), (2, 0)))
    assert ["0+-"[s] for s in grassmann._OVER_H] == ["-", "0", "+"]
    # ⊥-duality swaps the two families and F+ with F-
    assert _swapped(grassmann._OVER_H, "+", "-") == grassmann._IN_S


@pytest.mark.parametrize("q,y", [(2, None), (3, None)] + _NON_COORDINATE_Y,
                         ids=["2-7-3", "3-7-3", "2-7-3-y", "3-7-3-y"])
def test_meet_key_splits_a_cover_as_intersect_rows_does(q, y):
    # inside each cover S of x, hyperplane_meets keys a k-space w None
    # exactly when w holds S∩y, and gives the others the same key exactly
    # when they have the same w∩y
    ctx = GeometryContext(q, 7, 3, dims=(), y=None if y is None
                          else Subspace.from_matrix(y, q))
    xrows, yrows = GrassmannInstance(ctx, i=2).x.rows, ctx.y.rows
    checked = 0
    for srows in ctx.superspaces_rows(xrows):
        meet = intersect_rows(srows, yrows, 7, q)
        swept = list(ctx.hyperplane_meets(srows))
        assert [w for w, _ in swept] == list(ctx.hyperplanes_rows(srows))
        by_key, by_meet = {}, {}
        for wrows, key in swept:
            holds = len(intersect_rows(wrows, yrows, 7, q)) == len(meet)
            assert (key is None) == holds
            if holds:
                continue
            by_key.setdefault(key, set()).add(wrows)
            by_meet.setdefault(intersect_rows(wrows, yrows, 7, q),
                               set()).add(wrows)
            checked += 1
        assert (sorted(map(sorted, by_key.values()))
                == sorted(map(sorted, by_meet.values())))
    assert checked


def test_default_x_for_a_non_coordinate_y(inst273):
    # the coordinate x <e_0, e_3, e_4> that suits y = <e_0, e_1, e_2> lies
    # at distance 3 from this y; an answer must not depend on y
    ctx = GeometryContext(2, 7, 3, y=Subspace(2, 7, (0x43, 0x26, 0x1c)),
                          dims=())
    inst = GrassmannInstance(ctx, i=2)
    assert graph_distance(inst.x, ctx.y, ctx) == inst.i == 2
    assert inst.orbit_sizes() == inst273.orbit_sizes()
    for table in (structure_constants, count_edge_types, verify_entry_table):
        assert table(inst).to_record() == table(inst273).to_record()


@pytest.mark.parametrize("q,y", [
    (2, [[1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 1, 0],
         [0, 0, 1, 1, 1, 0, 0]]),
    (3, [[1, 2, 0, 0, 1, 0, 0], [0, 1, 1, 0, 0, 0, 2],
         [0, 0, 0, 1, 2, 1, 0]]),
], ids=["2-7-3", "3-7-3"])
def test_every_orbit_member_has_the_class_classify_orbit_gives(q, y):
    # the oracle, one pair_profile per neighbour, at a y that is not a
    # coordinate span; the orbits must cover Γ(x)
    ctx = GeometryContext(q, 7, 3, y=Subspace.from_matrix(y, q), dims=())
    assert not ctx._canonical_y
    inst = GrassmannInstance(ctx, i=2)
    orbits = inst.orbit_partition()
    b_0 = closed.intersection_numbers(q, 7, 3, 0)[0]
    assert sum(map(len, orbits.values())) == b_0
    for label, members in orbits.items():
        assert members
        for rows in members:
            assert classify_orbit(Subspace(q, 7, rows), inst) == label


@pytest.mark.parametrize("n", [7, 8])
def test_seeded_x_give_the_tables_of_the_default_x(n):
    # Stab(y) is transitive on the k-spaces at distance i from y, so every
    # such x gives the same orbit sizes and tables; a few seeded ones stand
    # for all of them
    ctx = GeometryContext(2, n, 3, dims=())
    default = GrassmannInstance(ctx, i=2)
    pool = [u for u in enumerate_subspaces(n, 3, 2)
            if ctx.intersection_dim_with_y(u.rows) == 1 and u != default.x]
    tables = (structure_constants, count_edge_types, verify_entry_table)
    for x in random.Random(n).sample(pool, 3):
        inst = GrassmannInstance(ctx, x=x)
        assert inst.i == 2
        assert inst.orbit_sizes() == default.orbit_sizes()
        for table in tables:
            assert table(inst).to_record() == table(default).to_record()
        assert all(table(inst).holds for table in tables)


def test_default_x_does_not_depend_on_enumeration(inst273):
    # a context that enumerates every subspace picks the x a lazy one does
    inst = GrassmannInstance(GeometryContext(2, 7, 3), i=2)
    assert inst.x == inst273.x


def test_alternate_x_gives_same_tables(inst273):
    # orbit data must not depend on the representative x
    ctx = inst273.ctx
    alternates = []
    for u in enumerate_subspaces(7, 3, 2):
        if ctx.intersection_dim_with_y(u.rows) == 1 and u != inst273.x:
            alternates.append(u)
        if len(alternates) == 2:
            break
    for x in alternates:
        inst = GrassmannInstance(ctx, x=x)
        assert inst.i == 2
        assert inst.orbit_sizes() == expected_orbit_sizes(inst)
        assert structure_constants(inst).holds


def test_non_canonical_x_and_bfs_source_are_made_canonical():
    # rows (9, 8, 16) span the same 3-space as the canonical (1, 8, 16);
    # kept as given, x was not recognised as itself among its neighbours
    ctx = GeometryContext(2, 7, 3, dims=())
    inst = GrassmannInstance(ctx, x=Subspace(2, 7, (9, 8, 16)))
    assert inst.x == Subspace(2, 7, (1, 8, 16))
    sizes = inst.orbit_sizes()
    assert sizes == {"B": 96, "C": 9, "A0": 9, "A+": 72, "A-": 24}
    ctx262 = GeometryContext(2, 6, 2, dims=())
    dist = bfs_distances(Subspace(2, 6, (3, 2)), ctx262)
    assert dist == bfs_distances(Subspace(2, 6, (1, 2)), ctx262)


def test_x_and_bfs_source_residues_are_reduced_mod_q():
    # mod 3 these rows are (1,0,...), (0,0,0,1,0,0,0), (0,0,0,1,1,0,0)
    ctx = GeometryContext(3, 7, 3, dims=())
    x = Subspace.from_matrix(((4, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0),
                              (0, 0, 0, -2, 1, 0, 0)), 3, 7)
    inst = GrassmannInstance(ctx, x=x)
    assert inst.x == Subspace.coordinate_span([0, 3, 4], 3, 7)
    assert inst.i == 2
    ctx341 = GeometryContext(3, 4, 1, dims=())
    dist = bfs_distances(Subspace.from_matrix(((5, 3, 0, 1),), 3, 4), ctx341)
    assert dist == bfs_distances(
        Subspace.from_matrix(((1, 0, 0, 2),), 3, 4), ctx341)


def test_bfs_refuses_a_source_that_is_not_a_k_space():
    ctx = GeometryContext(2, 7, 3, dims=())
    with pytest.raises(ValueError, match="graph vertices must be k-spaces"):
        bfs_distances(Subspace.coordinate_span([0, 1], 2, 7), ctx)


@pytest.mark.parametrize("other", [
    Subspace.coordinate_span([0, 1], 3, 5), Subspace(2, 6, (2, 32))])
def test_distances_refuse_a_vertex_of_another_ambient_space(other,
                                                            monkeypatch):
    # before the check, the BFS from either gave 376 "vertices" of J_2(5,2),
    # which has 155, and graph_distance answered 2 for two F_3^5 planes
    ctx = GeometryContext(2, 5, 2, dims=())
    here = Subspace.coordinate_span([0, 1], 2, 5)
    counted = []
    monkeypatch.setattr(grassmann, "_count_subspaces",
                        lambda *args: counted.append(args))
    calls = recorded_sweeps(monkeypatch)
    match = "subspace from a different ambient space"
    with pytest.raises(ValueError, match=match):
        bfs_distances(other, ctx)
    for u, v in ((other, here), (here, other), (other, other)):
        with pytest.raises(ValueError, match=match):
            graph_distance(u, v, ctx)
    assert counted == []
    assert calls["hyperplanes_rows"] == calls["superspaces_rows"] == []


def test_instance_validation():
    with pytest.raises(ValueError):
        GrassmannInstance(GeometryContext(2, 5, 2, dims=()), i=2)  # n<=2k
    ctx = GeometryContext(2, 7, 3, dims=())
    with pytest.raises(ValueError):
        GrassmannInstance(ctx, i=1)  # distance too small
    with pytest.raises(ValueError):
        GrassmannInstance(ctx, i=3)  # distance = k
    with pytest.raises(ValueError):
        GrassmannInstance(ctx)  # neither x nor i


@pytest.mark.parametrize("i", [0, 1, 3, 4, 5])
def test_a_distance_outside_the_range_is_refused_by_its_range(i):
    # the range is checked before the default x is built, which refuses
    # i > k with a message of its own
    ctx = GeometryContext(2, 7, 3, dims=())
    with pytest.raises(ValueError) as err:
        GrassmannInstance(ctx, i=i)
    assert str(err.value) == f"need 1 < i < k, got i={i}, k=3"


@pytest.mark.parametrize("q,n,k", [(2, 7, 3), (2, 9, 4), (3, 11, 5)])
def test_the_default_x_lies_at_the_distance_asked(q, n, k):
    ctx = GeometryContext(q, n, k, dims=())
    for i in range(2, k):
        inst = GrassmannInstance(ctx, i=i)
        assert graph_distance(inst.x, ctx.y, ctx) == inst.i == i


def test_table_record_serialization(inst273):
    rec = structure_constants(inst273).to_record()
    assert rec["record"] == "structure-constants-table"
    assert rec["holds"] is True
    assert rec["instance"] == [2, 7, 3, 2]
    assert rec["observed"]["B|B"] == rec["expected"]["B|B"]


def recorded_strata(ctx):
    """The rows of every stratum asked of ctx from now on."""
    asked = []
    lookup = ctx.intersection_dim_with_y

    def recorded(rows):
        asked.append(rows)
        return lookup(rows)

    ctx.intersection_dim_with_y = recorded
    return asked


def test_typed_sweeps_build_no_sum_of_adjacent_pairs():
    # the letter split and the clique tally read each pair off points
    # modulo m + y and keys of w∩y, so neither asks for any stratum
    for q, n, k in [(2, 7, 3), (3, 5, 2)]:
        ctx = GeometryContext(q, n, k, dims=())
        asked = recorded_strata(ctx)
        z = Subspace.coordinate_span([0] + list(range(k, 2 * k - 1)), q, n)
        assert any(letter_split(z.rows, map(
            ctx.cover_groups, ctx.hyperplanes_rows(z.rows))).values())
        assert asked == []
        ctx.stratum_rows(z.rows)  # the recording is live
        assert asked == [z.rows]
    inst = GrassmannInstance(GeometryContext(2, 8, 3, dims=()), i=2)
    asked = recorded_strata(inst.ctx)
    inst.neighbor_counts()
    assert asked == []


def recorded_sweeps(monkeypatch):
    """The rows each cover sweep is called on from now on, by sweep."""
    calls = {"hyperplanes_rows": [], "superspaces_rows": []}
    real_above = GeometryContext.superspaces_rows
    real_below = GeometryContext.hyperplanes_rows

    def above(self, rows):
        calls["superspaces_rows"].append(rows)
        return real_above(self, rows)

    def below(self, rows):
        calls["hyperplanes_rows"].append(rows)
        return real_below(self, rows)

    monkeypatch.setattr(GeometryContext, "superspaces_rows", above)
    monkeypatch.setattr(GeometryContext, "hyperplanes_rows", below)
    return calls


@pytest.mark.parametrize("q,n,k,i", [(2, 8, 3, 2), (3, 7, 3, 2)])
def test_neighbor_counts_sweep_each_cover_of_x_once(q, n, k, i,
                                                    monkeypatch):
    # work-count guard: past the orbit split, one sweep above x and one
    # sweep below each cover of x, and no sweep per member of Γ(x); whether
    # a member holds S∩y comes from its key, so no stratum is looked up
    inst = GrassmannInstance(GeometryContext(q, n, k, dims=()), i=i)
    inst.orbit_partition()
    covers = inst.ctx.superspaces_rows(inst.x.rows)
    calls = recorded_sweeps(monkeypatch)
    asked = recorded_strata(inst.ctx)
    inst.neighbor_counts()
    assert calls["superspaces_rows"] == [inst.x.rows]
    assert calls["hyperplanes_rows"] == covers
    assert asked == []


def test_bfs_stops_once_every_vertex_has_its_distance(monkeypatch):
    # distances are final when first set, so the search returns as soon as
    # all 11,811 vertices of (2,7,3) have one: 1,611 of the 2,667
    # hyperplanes are expanded, each once
    ctx = GeometryContext(2, 7, 3, dims=())
    src = Subspace.coordinate_span([0, 1, 2], 2, 7)
    vertices = gaussian_binomial(7, 3, 2)
    calls = recorded_sweeps(monkeypatch)
    dist = bfs_distances(src, ctx)
    assert len(dist) == vertices == 11811
    expanded = calls["superspaces_rows"]
    assert len(set(expanded)) == len(expanded)
    assert len(expanded) < gaussian_binomial(7, 2, 2) == 2667
    # mutation: told there are 31 vertices, as many as have a distance
    # after the first expansion, the search stops there and the reach
    # check fails
    monkeypatch.setattr(grassmann, "_count_subspaces", lambda n, d, q: 31)
    expanded.clear()
    assert len(bfs_distances(src, ctx)) == 31 < vertices
    assert len(expanded) == 1
