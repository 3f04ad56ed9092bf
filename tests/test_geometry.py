import ast
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from grassver import cli, closed, geometry, gf, kernels
from grassver.gf import (
    Subspace,
    enumerate_subspaces,
    format_rows,
    qint,
    rank_rows,
    rref_rows,
)
from grassver.geometry import (
    LETTER_OF_PAIR,
    GeometryContext,
    Stratum,
    cover_kind,
    cover_tallies,
    pair_profile,
    letter_split,
    stratum_sizes,
    verify_cover_counts,
)
from grassver.grassmann import GrassmannInstance
from grassver.relations import (
    _DIAGONALS, FULL_MODE_BATCH, _expand_terms, column_evaluator,
    relation_components, relation_ids, verify_relation)


@pytest.fixture(scope="module")
def ctx242():
    return GeometryContext(2, 4, 2)


def test_reference_subspace_defaults(ctx242):
    assert ctx242.y == Subspace.coordinate_span([0, 1], 2, 4)
    assert ctx242.stratum(ctx242.y) == Stratum(2, 0)
    assert ctx242.stratum(Subspace.zero(2, 4)) == Stratum(0, 0)


def test_stratum_examples(ctx242):
    u = Subspace.coordinate_span([0, 2], 2, 4)  # meets y in e0 only
    assert ctx242.stratum(u) == Stratum(1, 1)
    v = Subspace.coordinate_span([2, 3], 2, 4)
    assert ctx242.stratum(v) == Stratum(0, 2)


def test_cover_kind_dichotomy(ctx242):
    u = Subspace.coordinate_span([2], 2, 4)
    v_slash = Subspace.coordinate_span([0, 2], 2, 4)
    v_back = Subspace.coordinate_span([2, 3], 2, 4)
    assert cover_kind(u, v_slash, ctx242) == "/"
    assert cover_kind(u, v_back, ctx242) == "\\"
    # not a cover: same dim, or not containing u
    assert cover_kind(u, Subspace.coordinate_span([3], 2, 4), ctx242) is None
    assert cover_kind(v_slash, u, ctx242) is None
    w = Subspace.coordinate_span([0, 1], 2, 4)
    assert cover_kind(u, w, ctx242) is None


def test_every_cover_has_exactly_one_kind(ctx242):
    ctx = ctx242
    for u in ctx.elements:
        if u.dim == ctx.n:
            continue
        i_u = ctx.intersection_dim_with_y(u.rows)
        for vrows in ctx.superspaces_rows(u.rows):
            i_v = ctx.intersection_dim_with_y(vrows)
            assert i_v in (i_u, i_u + 1)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2)])
def test_cover_count_formulas_hold_everywhere(q, n, k):
    report = verify_cover_counts(GeometryContext(q, n, k))
    assert report.holds
    assert report.checked == len(GeometryContext(q, n, k).elements)


def test_cover_count_closed_forms_spot(ctx242):
    # u in stratum (1,1): slash-covers q^j[i]=2, backslash-covers [j]=1,
    # slash-covered by [k-i]=1, backslash-covered by q^(k-i)[n-k-j]=2
    u = Subspace.coordinate_span([0, 2], 2, 4)
    slash_below = sum(
        1 for m in ctx242.hyperplanes_rows(u.rows)
        if ctx242.intersection_dim_with_y(m) == 0)
    assert slash_below == 2
    above = ctx242.superspaces_rows(u.rows)
    slash_above = sum(
        1 for v in above if ctx242.intersection_dim_with_y(v) == 2)
    assert slash_above == 1
    assert len(above) - slash_above == 2


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_stratum_sizes_closed_form(q, n, k):
    ctx = GeometryContext(q, n, k)
    sizes = stratum_sizes(ctx)
    for s, count in sizes.items():
        assert closed.stratum_size(q, n, k, *s) == count
    assert sum(sizes.values()) == len(ctx.elements)
    # strata partition P: i <= k, j <= n-k
    assert all(0 <= s.i <= k and 0 <= s.j <= n - k for s in sizes)


def test_superspace_and_hyperplane_counts(ctx242):
    for u in ctx242.elements:
        d = u.dim
        if d < ctx242.n:
            assert (len(ctx242.superspaces_rows(u.rows))
                    == qint(ctx242.n - d, 2))
        if d > 0:
            assert (len(list(ctx242.hyperplanes_rows(u.rows)))
                    == qint(d, 2))


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (5, 3)])
def test_superspaces_rows_yields_each_cover_once(q, n):
    # oracle: containment of vector sets over a filtered enumeration; each
    # basis is built canonical, so it is its own full reduction
    ctx = GeometryContext(q, n, 1, dims=())
    spaces = {d: [(u, frozenset(u.vectors()))
                  for u in enumerate_subspaces(n, d, q)]
              for d in range(n + 1)}
    for d in range(n):
        for u, uvecs in spaces[d]:
            built = ctx.superspaces_rows(u.rows)
            expected = {v.rows for v, vvecs in spaces[d + 1]
                        if uvecs <= vvecs}
            assert len(built) == len(set(built)) == qint(n - d, q)
            assert set(built) == expected
            assert all(rref_rows(v, q) == v for v in built)


def coset_vectors(rows, q, n):
    """Every vector on the non-pivot columns of canonical rows whose first
    nonzero entry is 1: one per cover above rows."""
    pivots = [gf._unpack_row(r, n, q).index(1) for r in rows]
    free = [j for j in range(n) if j not in pivots]
    for entries in product(range(q), repeat=len(free)):
        if any(entries) and next(e for e in entries if e) == 1:
            vec = [0] * n
            for j, e in zip(free, entries):
                vec[j] = e
            yield gf._pack_row(vec, q)


def covers_point_by_point(ctx, rows, modulo):
    """(cover, point modulo ``modulo``) per coset vector w: the cover
    built by reduce_row then insert_row on w, as the sweep above once
    built each one."""
    q = ctx.q
    return [(kernels.insert_row(rows, kernels.reduce_row(rows, w, q), q),
             kernels.reduce_row(modulo, w, q))
            for w in coset_vectors(rows, q, ctx.n)]


def test_lead_column_builder_matches_point_by_point_covers():
    # oracle: the old construction, one insert_row per coset vector; the
    # builder gives the same covers, each once, and the same cover groups
    # at the coordinate y and at OTHER_Y
    for q, n in [(2, 6), (3, 4), (5, 3)]:
        ctx = GeometryContext(q, n, 1, dims=())
        for d in range(n + 1):
            for u in enumerate_subspaces(n, d, q):
                built = ctx.superspaces_rows(u.rows)
                old = [v for v, _ in covers_point_by_point(ctx, u.rows, ())]
                assert len(built) == len(set(built)) == len(old)
                assert set(built) == set(old)
    for ctx in contexts_with_two_ys():
        for u in ctx.elements:
            covers, ends = ctx.cover_groups(u.rows)
            groups = {}
            for v, p in covers_point_by_point(
                    ctx, u.rows, ctx.sum_with_y(u.rows)):
                groups.setdefault(p, set()).add(v)
            zero = groups.pop(0, set())
            assert set(covers[:ends[0]]) == zero and ends[0] == len(zero)
            assert sorted(map(sorted, groups.values())) == sorted(
                sorted(covers[start:end])
                for start, end in zip(ends, ends[1:]))


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (5, 3)])
def test_hyperplanes_rows_yields_each_hyperplane_once(q, n):
    # oracle: containment of vector sets over a filtered enumeration; each
    # basis is built canonical, so it is its own full reduction
    ctx = GeometryContext(q, n, 1, dims=())
    spaces = {d: [(u, frozenset(u.vectors()))
                  for u in enumerate_subspaces(n, d, q)]
              for d in range(n + 1)}
    for d in range(1, n + 1):
        for u, uvecs in spaces[d]:
            yielded = list(ctx.hyperplanes_rows(u.rows))
            expected = {m.rows for m, mvecs in spaces[d - 1]
                        if mvecs <= uvecs}
            assert len(yielded) == len(set(yielded)) == qint(d, q)
            assert set(yielded) == expected
            assert all(rref_rows(m, q) == m for m in yielded)


def test_cover_sweeps_run_no_row_reduction(monkeypatch):
    # every cover and hyperplane is written down canonical: neither sweep
    # calls a full reduction or the reducing half of extend_rows
    calls = []
    for name in ("rref2", "rrefp", "reduce_row"):
        real = getattr(kernels, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        for module in (kernels, gf, geometry):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for q, n in [(2, 6), (3, 4)]:
        ctx = GeometryContext(q, n, 1, dims=())
        for d in range(n + 1):
            for u in enumerate_subspaces(n, d, q):
                list(ctx.hyperplanes_rows(u.rows))
                list(ctx.superspaces_rows(u.rows))
        assert calls == []
        # the counters see a reduction wherever one runs
        ctx.sum_with_y(u.rows[:1])
        assert calls
        calls.clear()


# a reference space that is not a coordinate span, per instance
OTHER_Y = {(2, 5, 2): [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]],
           (3, 4, 2): [[1, 2, 0, 1], [0, 1, 1, 2]],
           (5, 3, 1): [[1, 2, 3]]}


def contexts_with_two_ys():
    """(2,5,2), (3,4,2) and (5,3,1), each with the coordinate y and with
    OTHER_Y."""
    for (q, n, k), rows in OTHER_Y.items():
        yield GeometryContext(q, n, k)
        ctx = GeometryContext(q, n, k, y=Subspace.from_matrix(rows, q))
        assert not ctx._canonical_y
        yield ctx


def split_at(ctx, zrows):
    """The same-dimension neighbours of z by letter, from the cover groups
    of each hyperplane of z."""
    return letter_split(zrows, map(ctx.cover_groups,
                                   ctx.hyperplanes_rows(zrows)))


def test_letter_split_matches_pair_profile():
    # oracle: the pairs of equal dimension whose sum has rank d+1, each
    # under the letter of the profile pair_profile reads off u∩z and u+z;
    # every z of every dimension.  The five profiles have five letters, so
    # the letter names the profile.
    assert len(set(LETTER_OF_PAIR.values())) == len(LETTER_OF_PAIR) == 5
    for ctx in [GeometryContext(2, 4, 2), *contexts_with_two_ys()]:
        by_dim = {}
        for u in ctx.elements:
            by_dim.setdefault(u.dim, []).append(u)
        for d, same in by_dim.items():
            for z in same:
                swept = [(u, letter)
                         for letter, us in split_at(ctx, z.rows).items()
                         for u in us]
                expected = {u.rows: LETTER_OF_PAIR[pair_profile(u, z, ctx)]
                            for u in same
                            if rank_rows(u.rows + z.rows, ctx.q) == d + 1}
                assert len(swept) == len(expected)
                assert dict(swept) == expected


def test_letter_split_keeps_sweep_order_over_many_groups():
    # oracle: pair_profile, on hyperplanes m of z with at least 8 cover
    # groups, where a split by slices could drop, repeat or reorder a
    # group: at (2,7,3) every m that meets y (7 points modulo m + y and
    # the zero group), at (3,5,2) a point of y (13 points and the zero
    # group).  Each column holds m's covers of its letter in sweep order,
    # and the split over all of z's hyperplanes joins theirs in turn.
    ctx273 = GeometryContext(2, 7, 3, dims=())
    ctx352 = GeometryContext(3, 5, 2, dims=())
    cases = [(ctx273, ctx273.first_at_distance(i).rows) for i in range(3)]
    cases.append((ctx352, Subspace.from_matrix(
        [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]], 3).rows))
    checked = {2: 0, 3: 0}
    for ctx, zrows in cases:
        z = Subspace(ctx.q, ctx.n, zrows)
        joined = {letter: [] for letter in LETTER_OF_PAIR.values()}
        for mrows in ctx.hyperplanes_rows(zrows):
            groups = covers, ends = ctx.cover_groups(mrows)
            split = letter_split(zrows, [groups])
            for letter, col in split.items():
                joined[letter] += col
            if ctx.intersection_dim_with_y(mrows) == 0:
                continue
            assert len(ends) >= 8
            letter_of = {u: LETTER_OF_PAIR[pair_profile(
                Subspace(ctx.q, ctx.n, u), z, ctx)]
                for u in covers if u != zrows}
            assert split == {letter: [u for u in covers
                                      if letter_of.get(u) == letter]
                             for letter in joined}
            checked[ctx.q] += 1
        assert split_at(ctx, zrows) == joined
    assert checked == {2: 7 + 7 + 3, 3: 1}


def cover_kinds(ctx, u):
    """(above, below): the covers above u and the hyperplanes of u, each
    as a list of (rows, cover_kind) in sweep order."""
    q, n = ctx.q, ctx.n
    above = [(v, cover_kind(u, Subspace(q, n, v), ctx))
             for v in ctx.superspaces_rows(u.rows)]
    below = [(w, cover_kind(Subspace(q, n, w), u, ctx))
             for w in ctx.hyperplanes_rows(u.rows)]
    assert all(kind is not None for _, kind in above + below)
    return above, below


def test_cover_split_matches_cover_kind():
    # oracle: cover_kind on every cover the sweeps yield.  The evaluator's
    # R1 and R2 columns at u, read as rows, are the slash and backslash
    # covers above u; covers_below gives the slash and backslash
    # hyperplanes, each list in sweep order.  Every element of each full
    # context, and every subspace of F_3^4 on a lazy one.
    lazy = GeometryContext(3, 4, 2, y=Subspace.from_matrix(
        OTHER_Y[3, 4, 2], 3), dims=())
    for ctx in [*contexts_with_two_ys(), lazy]:
        ev = column_evaluator(ctx)
        subspaces = ctx.elements or [
            u for d in range(5) for u in enumerate_subspaces(4, d, 3)]
        for u in subspaces:
            above, below = cover_kinds(ctx, u)
            z = ev.intern(u.rows)
            for sym, want in (("R1", "/"), ("R2", "\\")):
                col = ev.apply_band_int(sym, {z: 1})
                assert set(col.values()) <= {1}
                assert sorted(ev.rows[r] for r in col) == sorted(
                    c for c, kind in above if kind == want)
            assert ctx.covers_below(u.rows) == tuple(
                [c for c, kind in below if kind == want]
                for want in ("/", "\\"))


def test_cover_tallies_match_the_two_sided_split():
    # oracle: the slash/backslash split of each element's covers by
    # cover_kind, swept from below (superspaces_rows) and from above
    # (hyperplanes_rows); the fifth list is dim(u∩y)
    for ctx in contexts_with_two_ys():
        tallies = cover_tallies(ctx)
        assert all(len(t) == len(ctx.elements) for t in tallies)
        for uid, u in enumerate(ctx.elements):
            above, below = cover_kinds(ctx, u)
            assert tuple(t[uid] for t in tallies) == (
                *(sum(kind == want for _, kind in below)
                  for want in ("/", "\\")),
                *(sum(kind == want for _, kind in above)
                  for want in ("/", "\\")),
                ctx.intersection_dim_with_y(u.rows))


def counted_sweeps(monkeypatch):
    """Counts of the calls to both cover sweeps (the one above is
    _covers_above, which superspaces_rows and cover_groups call) and of
    the covers it builds, kept live while the test runs."""
    calls = dict.fromkeys(("hyperplanes_rows", "_covers_above", "covers"), 0)
    real_below = GeometryContext.hyperplanes_rows
    real_above = GeometryContext._covers_above

    def below(self, rows):
        calls["hyperplanes_rows"] += 1
        return real_below(self, rows)

    def above(self, rows, modulo=None):
        calls["_covers_above"] += 1
        covers, points = real_above(self, rows, modulo)
        calls["covers"] += len(covers)
        return covers, points

    monkeypatch.setattr(GeometryContext, "hyperplanes_rows", below)
    monkeypatch.setattr(GeometryContext, "_covers_above", above)
    return calls


def counted_lookups(monkeypatch):
    """Counts of the dim(u∩y) lookups and of the covers above that
    _covers_above builds, kept live while the test runs."""
    counts = dict.fromkeys(("intersection_dim_with_y", "covers_above"), 0)
    real_meet = GeometryContext.intersection_dim_with_y
    real_sweep = GeometryContext._covers_above

    def meet(self, rows):
        counts["intersection_dim_with_y"] += 1
        return real_meet(self, rows)

    def sweep(self, rows, modulo=None):
        covers, points = real_sweep(self, rows, modulo)
        counts["covers_above"] += len(covers)
        return covers, points

    monkeypatch.setattr(GeometryContext, "intersection_dim_with_y", meet)
    monkeypatch.setattr(GeometryContext, "_covers_above", sweep)
    return counts


def test_one_verify_run_sweeps_each_cover_above_once(monkeypatch, capsys):
    # work-count guard: the evaluator reads R1 and R2 from the cover groups
    # it keeps, and cover-counts reads the strata its tally looked up, so
    # a default verify stays under these counts
    counts = counted_lookups(monkeypatch)
    assert cli.main(["verify", "--format", "records"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 82
    assert 0 < counts["intersection_dim_with_y"] <= 3600
    assert 0 < counts["covers_above"] <= 1600


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2)])
def test_cover_counts_and_enumerate_sweep_each_pair_once(
        q, n, k, monkeypatch, capsys):
    # work-count guard: one hyperplane sweep per element of positive
    # dimension, and no cover above built
    calls = counted_sweeps(monkeypatch)
    ctx = GeometryContext(q, n, k)
    once = {"hyperplanes_rows": sum(1 for u in ctx.elements if u.dim),
            "_covers_above": 0, "covers": 0}
    assert verify_cover_counts(ctx).holds
    assert calls == once
    calls.update(dict.fromkeys(calls, 0))
    assert cli.main(["enumerate", "--q", str(q), "--n", str(n),
                     "--k", str(k)]) == 0
    assert "cover pairs:" in capsys.readouterr().out
    assert calls == once
    # the counters see a sweep above wherever one runs
    ctx.cover_groups(ctx.elements[0].rows)
    assert calls["_covers_above"] == 1 and calls["covers"] == qint(n, q)


@pytest.mark.parametrize("slash", [True, False])
def test_a_dropped_hyperplane_shows_at_both_ends(slash, monkeypatch):
    # mutation: one cover pair left out of the sweep is missed below its
    # top and above its bottom, and nowhere else
    ctx = GeometryContext(3, 4, 2)
    u, m = next((u, m) for u in ctx.elements if u.dim > 1
                for m in ctx.hyperplanes_rows(u.rows)
                if (ctx.intersection_dim_with_y(m) + 1
                    == ctx.intersection_dim_with_y(u.rows)) == slash)
    real = GeometryContext.hyperplanes_rows

    def sweep(self, rows):
        return (h for h in real(self, rows) if (rows, h) != (u.rows, m))

    monkeypatch.setattr(GeometryContext, "hyperplanes_rows", sweep)
    rep = verify_cover_counts(ctx)
    assert rep.checked == len(ctx.elements)
    at = (1, 0) if slash else (0, 1)
    assert [(v.element.rows,
             tuple(e - o for e, o in zip(v.expected, v.observed)))
            for v in rep.violations] == [(m, (0, 0) + at),
                                         (u.rows, at + (0, 0))]


def test_a_basis_that_is_no_element_raises_naming_it(monkeypatch):
    # mutation: a hyperplane basis that is not canonical is no element; the
    # sweep names it in a ValueError rather than failing on the lookup
    real = GeometryContext.hyperplanes_rows

    def sweep(self, rows):
        return (h[::-1] for h in real(self, rows))

    monkeypatch.setattr(GeometryContext, "hyperplanes_rows", sweep)
    ctx = GeometryContext(2, 4, 2)
    # reversing changes no basis of fewer than two rows
    u = ctx.elements[ctx.ids_by_dim[3][0]]
    bad = next(real(ctx, u.rows))[::-1]
    assert bad not in ctx.id_by_rows
    rows = ":".join(format_rows(bad, 4, 2))
    with pytest.raises(ValueError, match=re.escape(
            f"hyperplane rows={rows} of {ctx.ref(u)} is not an enumerated "
            f"subspace")):
        verify_cover_counts(ctx)


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2)])
def test_f_class_is_the_only_class_that_holds(q, n, k):
    # f_class returns one class, so the three conditions must exclude each
    # other on every adjacent pair of every dimension; and the class is
    # symmetric, so an edge has one type whichever end it is read from
    ctx = GeometryContext(q, n, k)
    seen = set()
    for z in ctx.elements:
        for u in (u for us in split_at(ctx, z.rows).values() for u in us):
            u = Subspace(q, n, u)
            p = pair_profile(u, z, ctx)
            held = [
                p.top_u and p.top_z and not p.bot_u and not p.bot_z,
                not p.top_u and not p.top_z,
                p.bot_u and p.bot_z,
            ]
            assert sum(held) <= 1
            f = p.f_class()
            assert f == (("F0", "F+", "F-")[held.index(True)]
                         if any(held) else None)
            assert pair_profile(z, u, ctx).f_class() == f
            seen.add(f)
    assert seen == {"F0", "F+", "F-", None}


def mixed_basis(u):
    """Another basis of u: the first row added to each later one, every
    row scaled by q - 1, in reverse order.  Not in RREF when dim u > 1,
    nor at q > 2 when dim u = 1."""
    q, m = u.q, u.basis_matrix()
    mixed = m[:1] + [[a + b for a, b in zip(r, m[0])] for r in m[1:]]
    return tuple(gf._pack_row([(q - 1) * v for v in r], q)
                 for r in reversed(mixed))


def test_intersection_dim_with_y_matches_the_rank_formula():
    # oracle: dim(u∩y) = d + k - rank(u + y), on the canonical rows (a
    # table hit on a full context) and on another basis (never a hit)
    for (q, n, k), rows in OTHER_Y.items():
        for y in (None, Subspace.from_matrix(rows, q)):
            for dims in (None, ()):
                ctx = GeometryContext(q, n, k, y=y, dims=dims)
                for d in range(n + 1):
                    for u in enumerate_subspaces(n, d, q):
                        want = d + k - rank_rows(u.rows + ctx.y.rows, q)
                        assert ctx.intersection_dim_with_y(u.rows) == want
                        basis = mixed_basis(u)
                        assert Subspace(q, n, basis) == u
                        if d > 1 or (d == 1 and q > 2):
                            assert basis != u.rows
                            assert basis not in ctx._strat_cache
                        assert ctx.intersection_dim_with_y(basis) == want


def seeded_basis(rows, rnd):
    """Another basis of span(rows) at q = 2: each row plus a random subset
    of the rows after it (a unit triangular change of basis), shuffled."""
    out = []
    for t, r in enumerate(rows):
        for later in rows[t + 1:]:
            if rnd.random() < 0.5:
                r ^= later
        out.append(r)
    rnd.shuffle(out)
    return tuple(out)


def test_lazy_lookup_at_2_7_3_matches_the_rank_formula():
    # oracle at the graph workload's shape: every 3-space of F_2^7 on a
    # lazy context, on its canonical rows and on a seeded other basis,
    # for the coordinate y, another coordinate span, and a y that holds
    # no unit vector (so no coordinate span)
    rnd = random.Random(7)
    ys = [None, Subspace.coordinate_span([4, 5, 6], 2, 7),
          Subspace.from_matrix([[1, 1, 0, 0, 0, 0, 1], [0, 0, 1, 0, 1, 0, 0],
                                [0, 0, 0, 1, 0, 1, 1]], 2)]
    assert not any(ys[2].contains(Subspace.coordinate_span([j], 2, 7))
                   for j in range(7))
    spaces = list(enumerate_subspaces(7, 3, 2))
    assert len(spaces) == 11811
    for y in ys:
        ctx = GeometryContext(2, 7, 3, y=y, dims=())
        assert ctx._canonical_y == (y is None)
        other = 0
        for u in spaces:
            want = 6 - rank_rows(u.rows + ctx.y.rows, 2)
            assert ctx.intersection_dim_with_y(u.rows) == want
            basis = seeded_basis(u.rows, rnd)
            assert Subspace(2, 7, basis) == u
            other += basis != u.rows
            assert ctx.intersection_dim_with_y(basis) == want
        assert other > len(spaces) // 2


def test_q2_lookups_call_no_rank_kernel(monkeypatch):
    # the lazy q = 2 lookup takes its rank in its own frame: with every
    # rank function it could reach raising, it still answers, at the
    # coordinate y and at OTHER_Y, on canonical and on mixed bases
    cases = []
    for y in (None, Subspace.from_matrix(OTHER_Y[2, 5, 2], 2)):
        ctx = GeometryContext(2, 5, 2, y=y, dims=())
        for d in range(6):
            for u in enumerate_subspaces(5, d, 2):
                want = d + 2 - rank_rows(u.rows + ctx.y.rows, 2)
                cases += [(ctx, u.rows, want), (ctx, mixed_basis(u), want)]

    def refuse(*args):
        raise AssertionError("rank kernel called")

    for module, name in ((geometry, "rank_rows"), (gf, "rank_rows"),
                         (kernels, "rank2")):
        monkeypatch.setattr(module, name, refuse)
    assert all(ctx.intersection_dim_with_y(rows) == want
               for ctx, rows, want in cases)
    # the patch bites where a kernel is called: a q = 3 lookup
    with pytest.raises(AssertionError, match="rank kernel called"):
        GeometryContext(3, 4, 2, dims=()).intersection_dim_with_y((1,))


def test_the_k_spaces_at_distance_i_from_y():
    # oracle: dim(u∩y) = 2k - rank(u + y), at the coordinate y and at
    # OTHER_Y; the default x is one of them, and a distance outside
    # [0, min(k, n-k)] is refused by both, since no k-space lies there
    for (q, n, k), rows in OTHER_Y.items():
        for y in (None, Subspace.from_matrix(rows, q)):
            ctx = GeometryContext(q, n, k, y=y, dims=())
            yrows = ctx.y.rows
            kspaces = [u.rows for u in enumerate_subspaces(n, k, q)]
            top = min(k, n - k)
            for i in range(top + 1):
                want = [u for u in kspaces
                        if 2 * k - rank_rows(u + yrows, q) == k - i]
                assert ctx.rows_at_distance(i) == want
                assert len(want) == closed.stratum_size(q, n, k, k - i, i)
                x = ctx.first_at_distance(i)
                assert x.rows in want
                assert ctx.stratum(x) == Stratum(k - i, i)
            for i in (-1, top + 1):
                for at_distance in (ctx.first_at_distance,
                                    ctx.rows_at_distance):
                    with pytest.raises(ValueError,
                                       match=f"distance .*, got i={i}$"):
                        at_distance(i)


def perp(u):
    """u^⊥ under the dot product, from u's canonical basis: one vector per
    free column f, e_f - sum_t r_t[f] e_{p_t}, p_t the pivot of row t;
    each is orthogonal to every row, and they are n - d independent."""
    q, n, m = u.q, u.n, u.basis_matrix()
    pivots = [next(c for c, a in enumerate(r) if a) for r in m]
    vectors = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for r, p in zip(m, pivots):
            v[p] = -r[f] % q
        vectors.append(v)
    return Subspace.from_matrix(vectors, q, n)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2),
                                   (2, 5, 1), (3, 5, 2)])
def test_perp_maps_stratum_i_j_to_n_minus_k_minus_j_k_minus_i(q, n, k):
    # oracle from plain linear algebra: u^⊥ ∩ y^⊥ = (u+y)^⊥, so with y^⊥
    # as the reference (n-k)-space, u^⊥ lies in stratum (n-k-j, k-i)
    ys = [Subspace.coordinate_span(range(k), q, n)]
    if (q, n, k) in OTHER_Y:
        ys.append(Subspace.from_matrix(OTHER_Y[q, n, k], q))
    perps = {u: perp(u) for d in range(n + 1)
             for u in enumerate_subspaces(n, d, q)}
    for u, w in perps.items():
        assert w.dim == n - u.dim
        assert perp(w) == u
    for y in ys:
        for dims in (None, ()):
            ctx = GeometryContext(q, n, k, y=y, dims=dims)
            dual = GeometryContext(q, n, n - k, y=perp(y), dims=dims)
            for u, w in perps.items():
                i, j = ctx.stratum(u)
                assert dual.stratum(w) == (n - k - j, k - i)


# the letter whose column at u^⊥ (about y^⊥) is the ⊥-image of a letter's
# column at u (about y): ⊥ turns the covers above u into hyperplanes of u^⊥
DUAL_LETTER = {"R1": "L2", "R2": "L1", "L1": "R2", "L2": "R1",
               "R": "R", "L": "L", "F0": "F0", "F+": "F-", "F-": "F+",
               "F": "F"}


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2),
                                   (2, 5, 1), (3, 5, 2)])
def test_perp_maps_each_letter_column_to_its_dual_letters(q, n, k):
    # oracle from plain linear algebra: ⊥ reverses containment and maps
    # stratum (i, j) about y to (n-k-j, k-i) about y^⊥ (the test above),
    # so it carries each letter's column at u, read off the evaluator's
    # sweeps, onto the dual letter's column at u^⊥ in the context of
    # (q, n, n-k, y^⊥); every element of each full context
    ys = [Subspace.coordinate_span(range(k), q, n)]
    if (q, n, k) in OTHER_Y:
        ys.append(Subspace.from_matrix(OTHER_Y[q, n, k], q))
    for y in ys:
        ctx = GeometryContext(q, n, k, y=y)
        dual_ctx = GeometryContext(q, n, n - k, y=perp(y))
        ev, dual = column_evaluator(ctx), column_evaluator(dual_ctx)
        perps = {u.rows: perp(u).rows for u in ctx.elements}
        for u in ctx.elements:
            z, w = ev.intern(u.rows), dual.intern(perps[u.rows])
            for sym, dual_sym in DUAL_LETTER.items():
                image = sorted(perps[ev.rows[r]] for r in ev._column(sym, z))
                assert image == sorted(
                    dual.rows[r] for r in dual._column(dual_sym, w)), (
                        sym, u)


# ⊥ on the diagonal letters and the central elements: K1 scales the
# column of a u in stratum (i, j) by sqrt(q)^(k-2i), as K2 scales the
# column of u^⊥, in stratum (n-k-j, k-i) of (q, n, n-k); and O1 (resp. O2)
# expanded at (q, n, k) maps letter by letter onto O2 (resp. O1) expanded
# at (q, n, n-k)
DUAL_SYMBOL = {**DUAL_LETTER, "K1": "K2", "K2": "K1", "K1i": "K2i",
               "K2i": "K1i", "O0": "O0", "O1": "O2", "O2": "O1"}

# the registry's ⊥-dual map: the component at (q, n, n-k) that is the image
# of each component at (q, n, k), up to sign (ROADMAP item 13); a
# commutator [a,b] maps to the registered one of [a',b'] and [b',a']
DUAL_PAIRS = [("REL-2", "REL-3"), ("REL-5", "REL-6"), ("REL-F+", "REL-F-"),
              ("REL-F0A", "REL-F0B"), ("REL-FC+", "REL-FC-"),
              ("REL-A2(iii)", "REL-A2(iv)"), ("REL-A3(i)", "REL-A3(iv)"),
              ("REL-A3(ii)", "REL-A3(iii)")] + [
    (f"REL-A1({a})", f"REL-A1({b})") for a, b in (
        ("i", "viii"), ("ii", "vii"), ("iii", "vi"), ("iv", "v"))]
SELF_DUAL = ["REL-1", "REL-4", "REL-FC0", "REL-A2(i)", "REL-A2(ii)",
             "REL-A4"]
NO_DUAL = ["REL-7", "REL-8", "REL-8P"]


def dual_terms(terms, q, n, k):
    """The ⊥-image of a component at (q, n, k), as Terms at (q, n, n-k):
    its central elements expanded at (q, n, k), then each letter mapped."""
    return [t._replace(word=tuple(DUAL_SYMBOL[s] for s in t.word))
            for t in _expand_terms(terms, q, n, k)]


def operator_form(terms, q, n, k):
    """A component's operator at (q, n, k) as word -> (a, b), its
    coefficient a + b*sqrt(q): central elements expanded, each run of
    diagonal letters sorted (they commute), like words summed and zero
    sums left out."""
    form = {}
    for t in _expand_terms(terms, q, n, k):
        word, run = [], []
        for sym in t.word + (None,):
            if sym in _DIAGONALS:
                run.append(sym)
                continue
            word += sorted(run) + ([sym] if sym else [])
            run = []
        ab = form.setdefault(tuple(word), [0, 0])
        ab[t.half % 2] += (t.num * Fraction(q) ** (t.half // 2)
                           / (q - 1) ** t.dq)
    return {w: tuple(ab) for w, ab in form.items() if any(ab)}


def expected_registry_duals():
    expected = {a: b for a, b in DUAL_PAIRS} | {b: a for a, b in DUAL_PAIRS}
    expected |= {rid: rid for rid in SELF_DUAL}
    expected |= {rid: None for rid in NO_DUAL}
    for rid in ("REL-CENT", "REL-COMM"):
        names = [name for name, _ in relation_components(rid, 2, 4, 2)]
        for name in names:
            a, b = (DUAL_SYMBOL[s] for s in name[1:-1].split(","))
            expected[name] = next(c for c in (f"[{a},{b}]", f"[{b},{a}]")
                                  if c in names)
    return expected


@pytest.mark.parametrize("q,n,k", [(2, 7, 3), (3, 7, 3), (2, 9, 4),
                                   (5, 5, 2)])
def test_perp_maps_the_registry_onto_its_dual_instance(q, n, k):
    # each component at (q, n, k), mapped by ⊥, is up to sign the
    # component of the registry at (q, n, n-k) that DUAL_PAIRS, SELF_DUAL
    # and the commutator rule name, and no other; REL-7, REL-8 and REL-8P
    # map to none
    registry = {name: operator_form(terms, q, n, n - k)
                for rid in relation_ids()
                for name, terms in relation_components(rid, q, n, n - k)}
    found = {}
    for rid in relation_ids():
        for name, terms in relation_components(rid, q, n, k):
            form = operator_form(dual_terms(terms, q, n, k), q, n, n - k)
            minus = {w: (-a, -b) for w, (a, b) in form.items()}
            found[name] = [other for other, f in registry.items()
                           if f in (form, minus)]
    assert found == {name: [] if dual is None else [dual]
                     for name, dual in expected_registry_duals().items()}
    assert (len(found), sum(map(bool, found.values()))) == (57, 54)


def full_residuals(ctx, components):
    """(row rows, column rows) -> the exact value (a, b) of a + b*sqrt(q),
    for every nonzero residual entry of the components in full mode."""
    ev = column_evaluator(ctx)
    q = ctx.q
    out = {}
    for _, r, x, a, b, (low, top) in ev.residuals(
            components, range(len(ctx.elements)), FULL_MODE_BATCH):
        unit = Fraction(q) ** low / (q - 1) ** top
        out[ev.rows[r], ev.rows[x]] = (a * unit, b * unit)
    return out


@pytest.mark.parametrize("q,n,k,entries", [(2, 5, 2, 1230),
                                           (3, 4, 2, 984)])
def test_perp_maps_rel_8p_residuals_onto_its_duals(q, n, k, entries):
    # REL-8P fails; its residual entry at (u, x) equals, exactly, the
    # residual entry of its ⊥-image at (u^⊥, x^⊥) in (q, n, n-k, y^⊥)
    y = Subspace.coordinate_span(range(k), q, n)
    ctx = GeometryContext(q, n, k, y=y)
    dual_ctx = GeometryContext(q, n, n - k, y=perp(y))
    ((name, terms),) = relation_components("REL-8P", q, n, k)
    perps = {u.rows: perp(u).rows for u in ctx.elements}
    residual = full_residuals(ctx, [(name, terms)])
    assert len(residual) == entries
    dual = full_residuals(dual_ctx, [(name, dual_terms(terms, q, n, k))])
    assert dual == {(perps[r], perps[x]): value
                    for (r, x), value in residual.items()}


def test_stratum_table_holds_the_enumerated_subspaces_only():
    # a lazy context tables no stratum, whatever sweeps it runs
    ctx = GeometryContext(2, 7, 3, dims=())
    by_stratum = {}
    for u in enumerate_subspaces(7, 3, 2):
        i = ctx.intersection_dim_with_y(u.rows)
        by_stratum[i] = by_stratum.get(i, 0) + 1
    assert by_stratum == {i: closed.stratum_size(2, 7, 3, i, 3 - i)
                          for i in range(4)}
    assert ctx._strat_cache == {}
    z = Subspace.coordinate_span([0, 3, 4], 2, 7)
    assert any(split_at(ctx, z.rows).values())
    assert ctx._strat_cache == {}
    inst = GrassmannInstance(GeometryContext(2, 7, 3, dims=()), i=2)
    inst.neighbor_counts()
    assert inst.ctx._strat_cache == {}
    ctx = GeometryContext(2, 5, 2, dims=())
    columns = [u.rows for u in enumerate_subspaces(5, 2, 2)][:4]
    assert verify_relation("REL-1", ctx, "columns", columns=columns).holds
    assert ctx._strat_cache == {}
    # a full context tables each element once, and nothing more
    for ctx in contexts_with_two_ys():
        table = dict(ctx._strat_cache)
        assert len(table) == len(ctx.elements)
        assert set(table) == {u.rows for u in ctx.elements}
        assert verify_cover_counts(ctx).holds
        assert verify_relation("REL-1", ctx, "full").holds
        assert ctx._strat_cache == table


# counts the 3-spaces of F_2^7 meeting y in a line on a lazy context, and
# prints the count and how many bytes of Python memory the sweep left behind
_SWEEP_MEMORY = """
import tracemalloc
from grassver.geometry import GeometryContext
from grassver.gf import enumerate_subspaces

ctx = GeometryContext(2, 7, 3, dims=())
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
count = sum(1 for u in enumerate_subspaces(7, 3, 2)
            if ctx.intersection_dim_with_y(u.rows) == 1)
print(count, tracemalloc.get_traced_memory()[0] - before)
"""


def test_lazy_sweep_by_stratum_keeps_no_memory():
    # in a process of its own, so no other test's objects are traced
    src = str(Path(geometry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _SWEEP_MEMORY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, grown = map(int, proc.stdout.split())
    assert count == closed.stratum_size(2, 7, 3, 1, 2)
    assert grown < 64 * 1024


def test_banded_context_skips_enumeration():
    ctx = GeometryContext(2, 7, 3, dims=())
    assert ctx.elements == []
    u = Subspace.coordinate_span([0, 4, 5], 2, 7)
    assert ctx.stratum(u) == Stratum(1, 2)
    assert ctx.ids_by_dim == {}
    assert ctx.id_by_rows == {}
    with pytest.raises(ValueError, match="enumerated context"):
        cover_tallies(ctx)


def test_non_canonical_reference_subspace():
    y = Subspace.from_matrix([[1, 1, 0, 0], [0, 0, 1, 1]], 2)
    ctx = GeometryContext(2, 4, 2, y=y)
    assert ctx.stratum(y) == Stratum(2, 0)
    rep = verify_cover_counts(ctx)
    assert rep.holds


def test_reference_subspace_rows_are_made_canonical():
    # rows (3, 2) span the same 2-space as the canonical (1, 2)
    ctx = GeometryContext(2, 4, 2, y=Subspace(2, 4, (3, 2)))
    assert ctx.y == Subspace.coordinate_span([0, 1], 2, 4)
    assert verify_cover_counts(ctx).holds


def test_ref_finds_the_id_of_non_canonical_rows():
    # rows (3, 1) are element #16 of the (2,4,2) context, as (1, 2) are
    ctx = GeometryContext(2, 4, 2)
    assert ctx.ref(Subspace(2, 4, (3, 1))) == "(dim=2, #16, rows=1:2)"


def test_reference_subspace_residues_are_reduced_mod_q():
    # (3,1,0,0) is (0,1,0,0) mod 3, and (4,1,0,0) is (1,1,0,0)
    ctx = GeometryContext(3, 4, 2, y=Subspace.from_matrix(
        ((3, 1, 0, 0), (0, 0, 1, 0)), 3, 4))
    assert ctx.y == Subspace.coordinate_span([1, 2], 3, 4)
    ctx = GeometryContext(3, 4, 2, y=Subspace.from_matrix(
        ((4, 1, 0, 0), (0, 0, 1, 0)), 3, 4))
    assert ctx.y == Subspace.from_matrix(((1, 1, 0, 0), (0, 0, 1, 0)), 3, 4)
    assert verify_cover_counts(ctx).holds


def test_invalid_parameters():
    with pytest.raises(ValueError):
        GeometryContext(4, 4, 2)  # q not prime
    with pytest.raises(ValueError):
        GeometryContext(2, 2, 2)  # n == k
    with pytest.raises(ValueError):
        GeometryContext(3, kernels.MAX_COLUMNS + 1, 2, dims=())  # too wide
    with pytest.raises(ValueError):
        GeometryContext(2, 4, 2, y=Subspace.coordinate_span([0], 2, 4))


def test_a_full_context_past_the_enumeration_bound_is_refused():
    # counted in closed form: F_2^8 has 417,199 subspaces, F_3^7 2,052,656
    assert geometry.check_enumerable(2, 8) == 417_199
    for q, n, count in [(3, 7, "2,052,656"), (2, 9, "8,283,458")]:
        with pytest.raises(ValueError, match=re.escape(
                f"F_{q}^{n} has {count} subspaces, more than the 500,000")):
            GeometryContext(q, n, 3)
        assert GeometryContext(q, n, 3, dims=()).elements == []


def test_no_module_but_geometry_reads_y():
    # every computation that reads the reference space y is made in
    # geometry: no other module reads an attribute y, calls sum_with_y or
    # passes a modulo to the cover builder (_covers_above)
    def reads_of_y(src):
        found = []
        for node in ast.walk(ast.parse(src.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "y", "sum_with_y"):
                found.append(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "_covers_above"
                  and (len(node.args) > 1 or node.keywords)):
                found.append("modulo")
        return found

    for src in Path(geometry.__file__).parent.glob("*.py"):
        if src.name == "geometry.py":
            # the check finds what it looks for
            assert {"y", "sum_with_y", "modulo"} <= set(reads_of_y(src))
        else:
            assert reads_of_y(src) == [], src.name
