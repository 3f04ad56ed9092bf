import json
import random
from pathlib import Path

import pytest

from grassver.gf import Subspace, enumerate_subspaces, qint, rank_rows
from grassver.geometry import GeometryContext, letter_split
from grassver.grassmann import (
    ENTRY_PRODUCTS,
    ORBIT_ORDER,
    EdgeType,
    GrassmannInstance,
    OrbitLabel,
    TableReport,
    bfs_distances,
    classify_orbit,
    closed_entry_table,
    closed_structure_constants,
    count_edge_types,
    edge_type,
    expected_orbit_sizes,
    graph_distance,
    intersection_numbers,
    structure_constants,
    verify_entry_table,
    vertex_neighbors_rows,
)
from grassver.relations import column_evaluator

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
    ctx = GeometryContext(2, 7, 3, dims=())
    assert intersection_numbers(0, ctx) == (210, 0)
    assert intersection_numbers(2, ctx) == (96, 9)
    assert intersection_numbers(1, ctx)[1] == 1
    with pytest.raises(ValueError):
        intersection_numbers(4, ctx)


def test_orbit_sizes(inst273):
    sizes = {l.value: s for l, s in inst273.orbit_sizes().items()}
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
        assert classify_orbit(w, inst273) is label
    far = Subspace.coordinate_span([2, 4, 6], 2, 7)
    if graph_distance(far, inst273.x, ctx) != 1:
        with pytest.raises(ValueError):
            classify_orbit(far, inst273)


def _pairwise_structure_constants(inst):
    """The structure-constant table by a rank test on every ordered pair
    of Γ(x): the reference for the one-sweep walk of neighbor_counts."""
    q, k = inst.ctx.q, inst.ctx.k
    label = {rows: l.value for l, members in inst.orbit_partition().items()
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
        closed_structure_constants(*inst.instance), sorted(per_cell.items()))


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
    table = closed_structure_constants(2, 7, 3, 2)
    assert table[("B", "C")] == 0
    assert table[("C", "A0")] == 5  # 2q^i - q - 1
    assert table[("A+", "B")] == 8  # q^(i+1)[k-i]
    assert table[("A-", "A-")] == 11  # q[k] - q - 1


def test_edge_type_requires_adjacency(inst273):
    x = inst273.x
    y = inst273.y
    with pytest.raises(ValueError):
        edge_type(x, y, inst273)  # distance 2


def test_edge_type_cross_distance(inst273):
    orbits = inst273.orbit_partition()
    b = Subspace(2, 7, orbits[OrbitLabel.B][0])
    for rows in orbits[OrbitLabel.C]:
        c = Subspace(2, 7, rows)
        if graph_distance(b, c, inst273.ctx) == 1:
            assert edge_type(b, c, inst273) is EdgeType.NOT_EQUIDISTANT
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
    # structure constants come from the pairwise count: one walk fills
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
    that verify_entry_table reads off the hyperplane buckets."""
    ev = column_evaluator(inst.ctx)
    orbits = inst.orbit_partition()
    a_classes = {
        o: [ev.intern(rows) for rows in orbits[OrbitLabel(o)]]
        for o in ("A0", "A+", "A-")
    }
    expected_by_word = closed_entry_table(*inst.instance)
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


def _assert_tables_match_recorded(inst):
    # to_record() of the three tables, recorded before the walk found the
    # edges inside Γ(x) through shared hyperplanes: by the pairwise count
    # (2,8,3,2 and 2,9,4,3) or by one adjacency sweep per w (3,7,3,2), the
    # entry table by the column evaluator in both
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
    sizes = {l.value: s for l, s in inst.orbit_sizes().items()}
    assert sizes == {"B": 224, "C": 9, "A0": 9, "A+": 168, "A-": 24}
    _assert_tables_match_recorded(inst)


def test_distance_3_instance_294():
    # k = 4 is the smallest k with a distance i = 3 inside 1 < i < k
    ctx = GeometryContext(2, 9, 4, dims=())
    inst = GrassmannInstance(ctx, i=3)
    sizes = {l.value: s for l, s in inst.orbit_sizes().items()}
    assert sizes == {"B": 384, "C": 49, "A0": 49, "A+": 336, "A-": 112}
    assert inst.orbit_sizes() == expected_orbit_sizes(inst)
    _assert_tables_match_recorded(inst)


def test_q3_instance_373():
    ctx = GeometryContext(3, 7, 3, dims=())
    inst = GrassmannInstance(ctx, i=2)
    sizes = {l.value: s for l, s in inst.orbit_sizes().items()}
    assert sizes == {"B": 972, "C": 16, "A0": 32, "A+": 432, "A-": 108}
    assert inst.orbit_sizes() == expected_orbit_sizes(inst)
    _assert_tables_match_recorded(inst)


def test_default_x_for_a_non_coordinate_y(inst273):
    # the coordinate x <e_0, e_3, e_4> that suits y = <e_0, e_1, e_2> lies
    # at distance 3 from this y; an answer must not depend on y
    ctx = GeometryContext(2, 7, 3, y=Subspace(2, 7, (0x43, 0x26, 0x1c)),
                          dims=())
    inst = GrassmannInstance(ctx, i=2)
    assert inst.i == 2
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
    assert sum(map(len, orbits.values())) == intersection_numbers(0, ctx)[0]
    for label, members in orbits.items():
        assert members
        for rows in members:
            assert classify_orbit(Subspace(q, 7, rows), inst) is label


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
    sizes = {label.value: c for label, c in inst.orbit_sizes().items()}
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
    # the letter split and the bucket walk read each pair off points modulo
    # m + y, so no stratum of a (dim z + 1)-space u+z is ever asked for;
    # the split asks for no stratum at all
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
    assert asked and 4 not in {len(rows) for rows in asked}
