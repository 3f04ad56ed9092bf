import ast
import gc
import itertools
from collections import Counter
import json
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import grassver
from grassver.geometry import GeometryContext, pair_profile
from grassver.gf import Subspace, enumerate_subspaces, qint, rank_rows
from grassver.grassmann import GrassmannInstance
from grassver.operators import operator_set
from grassver.relations import (
    _DIAGONALS,
    _EVALUATORS,
    _STEPS,
    FULL_MODE_BATCH,
    MAX_VIOLATIONS,
    ColumnEvaluator,
    LaneOverflowError,
    T,
    _exact,
    _expand_terms,
    _lanes,
    _plans,
    _registry,
    _residual,
    _stratum_coefficients,
    column_evaluator,
    relation_components,
    relation_ids,
    verify_relation,
)
from grassver.scalars import QSqrtScalar

FULL_INSTANCES = [(2, 4, 2), (3, 4, 2)]


@pytest.fixture(scope="module")
def contexts():
    return {inst: GeometryContext(*inst) for inst in FULL_INSTANCES}


def test_registry_is_complete():
    ids = relation_ids()
    assert len(ids) == len(set(ids)) == 35
    for rid in ids:
        comps = relation_components(rid, 2, 4, 2)
        assert comps and all(terms for _, terms in comps)
    with pytest.raises(ValueError):
        relation_components("REL-99", 2, 4, 2)
    # the ids, in report order, are the registry's keys at every instance
    for instance in ((2, 4, 2), (3, 5, 2), (2, 7, 3)):
        assert relation_ids() == list(_registry(*instance))


CHECKED_PATH = ("kernels", "gf", "geometry", "relations", "grassmann",
                "reports", "cli")


@pytest.mark.parametrize("module", CHECKED_PATH)
def test_the_checked_path_never_imports_the_reference(module):
    # the SparseOperator matrices, and the QSqrtScalar arithmetic they
    # compute with, are the reference the evaluator is compared with, so
    # the modules the CLI runs share no code with them
    src = Path(grassver.__file__).with_name(f"{module}.py")
    imported = []
    for node in ast.walk(ast.parse(src.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [base] + [f"{base}.{a.name}" for a in node.names]
    assert imported
    reference = {"operators", "scalars"}
    assert not [name for name in imported
                if reference & set(name.replace(".", " ").split())]


def test_rel_cent_bundles_all_commutators():
    comps = relation_components("REL-CENT", 2, 4, 2)
    assert len(comps) == 18  # 3 central elements x 6 generators


@pytest.mark.parametrize("instance", FULL_INSTANCES)
@pytest.mark.parametrize(
    "rid", [r for r in relation_ids() if r != "REL-8P"])
def test_relations_hold_in_full_mode(contexts, instance, rid):
    report = verify_relation(rid, contexts[instance], "full")
    assert report.holds, report.violations[:3]
    assert report.mode == "full"
    assert report.instance == instance


@pytest.mark.parametrize("instance", FULL_INSTANCES)
def test_printed_rel8_variant_fails(contexts, instance):
    # the literally-printed variant (missing a K2 on the F- coefficient)
    # must not hold; the corrected REL-8 is the true identity
    report = verify_relation("REL-8P", contexts[instance], "full")
    assert not report.holds
    assert report.violations


def test_f0_definition_matches_expression(contexts):
    # the geometric F0 and its algebraic expression come from different
    # code paths; REL-F0A/REL-F0B holding means they agree entrywise
    for inst in FULL_INSTANCES:
        for rid in ("REL-F0A", "REL-F0B", "REL-F+", "REL-F-"):
            assert verify_relation(rid, contexts[inst], "full").holds


def test_columns_mode_matches_full_mode(contexts):
    ctx = contexts[(2, 4, 2)]
    cols = list(ctx.ids_by_dim[2])
    for rid in ("REL-1", "REL-4", "REL-7", "REL-8"):
        rep = verify_relation(rid, ctx, "columns", columns=cols)
        assert rep.holds
        assert rep.checked_columns == len(cols)


def test_columns_mode_slow_path(contexts):
    # words with diagonal, cover or central letters: K factors inside a
    # word, lazy cover sweeps and the expansion of the central elements
    ctx = contexts[(2, 4, 2)]
    cols = list(ctx.ids_by_dim[2])[:6]
    for rid in ("REL-F0A", "REL-FC0", "REL-A3(i)", "REL-A4"):
        assert verify_relation(rid, ctx, "columns", columns=cols).holds


def test_columns_mode_detects_violations(contexts):
    ctx = contexts[(2, 4, 2)]
    cols = list(ctx.ids_by_dim[1])  # REL-8P fails on dim-1 columns
    rep = verify_relation("REL-8P", ctx, "columns", columns=cols)
    assert not rep.holds
    assert all(v.component == "REL-8P" for v in rep.violations)


def test_columns_accept_subspace_and_rows(contexts):
    ctx = contexts[(2, 4, 2)]
    u = ctx.elements[ctx.ids_by_dim[2][0]]
    for col in (u, u.rows, ctx.id_by_rows[u.rows]):
        assert verify_relation("REL-1", ctx, "columns",
                               columns=[col]).holds


def test_a_repeated_column_is_checked_once():
    # (1, 18) is a 2-space in stratum (1, 1), on which REL-8P fails; the
    # same column given again, as rows, a Subspace or an element id, adds
    # no column and no violation
    full = GeometryContext(2, 5, 2)
    u = Subspace(2, 5, (1, 18))
    v = full.elements[full.ids_by_dim[2][0]]
    once = verify_relation("REL-8P", full, "columns", columns=[u])
    assert once.checked_columns == 1
    assert len(once.violations) == 4
    uid = full.id_by_rows[u.rows]
    for cols in ([u, u], [u.rows, uid, u], [(19, 18), u]):
        again = verify_relation("REL-8P", full, "columns", columns=cols)
        assert again.to_record() == once.to_record()
    # repeats are dropped where they recur; the first order is kept
    pair = verify_relation("REL-8P", full, "columns", columns=[v, u])
    assert pair.checked_columns == 2
    got = verify_relation("REL-8P", full, "columns", columns=[v, u, v, u])
    assert got.to_record() == pair.to_record()


def test_a_column_id_outside_the_elements_is_refused():
    full = GeometryContext(2, 4, 2)
    size = len(full.elements)
    for bad in (-1, size, size + 7):
        with pytest.raises(ValueError, match=f"column {bad} is not"):
            verify_relation("REL-1", full, "columns", columns=[0, bad])
    # a lazy context has no element ids at all
    lazy = GeometryContext(2, 4, 2, dims=())
    with pytest.raises(ValueError, match="column 0 is not"):
        verify_relation("REL-1", lazy, "columns", columns=[0])
    assert verify_relation("REL-1", full, "columns",
                           columns=[0, size - 1]).checked_columns == 2


def test_non_canonical_column_gives_the_canonical_report():
    # rows (19, 18) span the stratum-(1,1) 2-space with canonical rows
    # (1, 18), on which REL-8P fails and REL-8 holds
    ctx = GeometryContext(2, 5, 2, dims=())
    for rid in ("REL-8P", "REL-8"):
        got = verify_relation(rid, ctx, "columns", columns=[(19, 18)])
        want = verify_relation(rid, ctx, "columns", columns=[(1, 18)])
        assert got.to_record() == want.to_record()
        assert got.holds == (rid == "REL-8")


def test_column_residues_are_reduced_mod_q():
    # mod 3 the rows (4,0,0,0), (0,0,-2,0) are (1,0,0,0), (0,0,1,0)
    ctx = GeometryContext(3, 4, 2, dims=())
    for rid in ("REL-8P", "REL-1"):
        got = verify_relation(rid, ctx, "columns", columns=[
            Subspace.from_matrix(((4, 0, 0, 0), (0, 0, -2, 0)), 3, 4)])
        want = verify_relation(rid, ctx, "columns", columns=[
            Subspace.from_matrix(((1, 0, 0, 0), (0, 0, 1, 0)), 3, 4)])
        assert got.to_record() == want.to_record()


def test_banded_columns_mode_needs_no_enumeration():
    ctx = GeometryContext(2, 5, 2, dims=())
    cols = [u.rows for u in enumerate_subspaces(5, 2, 2)][:20]
    for rid in ("REL-1", "REL-8"):
        assert verify_relation(rid, ctx, "columns", columns=cols).holds


def test_evaluators_are_freed_with_their_contexts():
    # the shared evaluator and operator set must not keep their context
    # alive, nor outlive it
    gc.collect()
    before = len(_EVALUATORS)
    refs = []
    for _ in range(5):
        ctx = GeometryContext(2, 4, 2)
        assert verify_relation("REL-1", ctx, "full").holds
        refs += map(weakref.ref, (ctx, column_evaluator(ctx),
                                  operator_set(ctx)))
    del ctx
    gc.collect()
    assert [r() for r in refs] == [None] * 15
    assert len(_EVALUATORS) - before == 0


def test_an_evaluator_keeps_its_context_alive():
    # regression: the evaluator held its context weakly, so one built on
    # a context that nothing else kept raised ReferenceError at its first
    # sweep; the same evaluator is shared while the context lives
    ev = column_evaluator(GeometryContext(2, 5, 2))
    gc.collect()
    columns = ev.typed_columns(ev.intern(ev.ctx.elements[20].rows))
    assert sorted(columns) == ["F+", "F-", "F0", "L", "R"]
    assert column_evaluator(ev.ctx) is ev
    ops = operator_set(GeometryContext(2, 4, 2))
    gc.collect()
    assert ops.get("R1").nnz() > 0


def test_column_evaluator_band_application_matches_matrix(contexts):
    ctx = contexts[(2, 4, 2)]
    ev = column_evaluator(ctx)
    ops = operator_set(ctx)
    for sym in ("R", "L", "F0", "F+", "F-", "L1", "L2", "R1", "R2"):
        mat = ops.get(sym)
        for zid in list(ctx.ids_by_dim[2])[:8]:
            vec = ev.apply_band_int(sym, {zid: 1})
            expected = {r: 1 for r, row in mat.rows.items() if zid in row}
            assert vec == expected


# the letter whose column holds an adjacent pair, by its pair_profile
_LETTER_RULES = {
    "F0": lambda p: p.f_class() == "F0",
    "F+": lambda p: p.f_class() == "F+",
    "F-": lambda p: p.f_class() == "F-",
    "R": lambda p: p.top_u and not p.top_z,
    "L": lambda p: p.bot_u and not p.bot_z,
}


def _assert_columns_match_pair_profile(ctx, ev, zid, candidates):
    """The typed columns at z hold exactly the candidates adjacent to z
    (found by rank), each in the list its pair_profile names."""
    z = Subspace(ctx.q, ctx.n, ev.rows[zid])
    cols = ev.typed_columns(zid)
    assert sorted(cols) == sorted(_LETTER_RULES)
    adjacent = [(u.rows, pair_profile(u, z, ctx)) for u in candidates
                if u.dim == z.dim
                and rank_rows(u.rows + z.rows, ctx.q) == z.dim + 1]
    listed = [ev.rows[u] for col in cols.values() for u in col]
    assert sorted(listed) == sorted(rows for rows, _ in adjacent)
    for name, holds in _LETTER_RULES.items():
        assert (sorted(ev.rows[u] for u in cols[name])
                == sorted(rows for rows, p in adjacent if holds(p)))


@pytest.mark.parametrize("q,n,k,y", [
    (2, 5, 2, None), (3, 4, 2, None),
    (2, 5, 2, [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]]),
    (3, 4, 2, [[1, 2, 0, 1], [0, 1, 1, 2]]),
], ids=["2-5-2", "3-4-2", "2-5-2-other-y", "3-4-2-other-y"])
def test_typed_columns_partition_the_adjacency(q, n, k, y):
    # every u of z's dimension with dim(u∩z) = dim(z) - 1 (found by rank)
    # is in exactly one of the five lists, the one its pair_profile names
    if y is not None:
        y = Subspace.from_matrix(y, q)
    ctx = GeometryContext(q, n, k, y=y)
    ev = ColumnEvaluator(ctx)
    for zid in range(len(ctx.elements)):
        _assert_columns_match_pair_profile(ctx, ev, zid, ctx.elements)


@pytest.mark.parametrize("q,n,k,y", [
    (2, 7, 3, None), (3, 5, 2, None),
    (2, 7, 3, [[1, 0, 1, 1, 0, 0, 1], [0, 1, 1, 0, 1, 0, 0],
               [0, 0, 0, 1, 1, 1, 0]]),
    (3, 5, 2, [[1, 2, 0, 1, 0], [0, 1, 1, 2, 1]]),
], ids=["2-7-3", "3-5-2", "2-7-3-other-y", "3-5-2-other-y"])
def test_typed_columns_do_not_depend_on_visit_order(q, n, k, y):
    # the hyperplane groups are filled by whichever z meets them first;
    # filling the same z forward on one evaluator and backward on another
    # must give the same columns
    if y is not None:
        y = Subspace.from_matrix(y, q)
    ctx = GeometryContext(q, n, k, y=y, dims=())
    rng = random.Random(0)
    spaces = {d: list(enumerate_subspaces(n, d, q)) for d in (2, 3)}
    sample = [u.rows for d in (2, 3) for u in rng.sample(spaces[d], 12)]
    forward, backward = ColumnEvaluator(ctx), ColumnEvaluator(ctx)
    for ev, order in ((forward, sample), (backward, sample[::-1])):
        for rows in order:
            ev.typed_columns(ev.intern(rows))

    def columns(ev, rows):
        cols = ev.typed_columns(ev.intern(rows))
        return {name: sorted(ev.rows[u] for u in col)
                for name, col in cols.items()}

    for rows in sample:
        assert columns(forward, rows) == columns(backward, rows)
    for rows in sample[::6]:
        z = Subspace(q, n, rows)
        _assert_columns_match_pair_profile(ctx, forward, forward.intern(rows),
                                           spaces[z.dim])


def counted_sweeps(ctx):
    """Counts, from now on, the calls of ctx's cover builder (which every
    sweep above runs) and of its cover grouping (which runs one)."""
    calls = {"_covers_above": 0, "cover_groups": 0}

    def counted(name):
        method = getattr(ctx, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in calls:
        setattr(ctx, name, counted(name))
    return calls


@pytest.mark.parametrize("instance", [(2, 5, 2), (3, 4, 2)])
def test_typed_columns_sweep_each_hyperplane_once(instance):
    # one grouped cover sweep per distinct hyperplane met, not one per
    # visit of a (z, hyperplane) pair, and no other sweep
    ctx = GeometryContext(*instance)
    calls = counted_sweeps(ctx)
    ev = ColumnEvaluator(ctx)
    visits = []
    for zid in ctx.ids_by_dim[2]:
        ev.typed_columns(zid)
        visits += ctx.hyperplanes_rows(ctx.elements[zid].rows)
    assert len(set(visits)) < len(visits)
    assert calls == {"_covers_above": len(set(visits)),
                     "cover_groups": len(set(visits))}
    # the other caller of the split: Γ(x) is one grouped sweep per
    # hyperplane of x, taken once per instance; the graph tables reuse
    # those groups and add one plain sweep, of the covers of x
    inst = GrassmannInstance(GeometryContext(instance[0], 7, 3, dims=()), i=2)
    calls = counted_sweeps(inst.ctx)
    inst.orbit_partition()
    inst.neighbor_counts()
    hyperplanes = qint(3, instance[0])
    assert calls == {"_covers_above": hyperplanes + 1,
                     "cover_groups": hyperplanes}


@pytest.mark.parametrize("instance", [(2, 4, 2), (2, 7, 3), (3, 5, 2)])
def test_ids_stay_contiguous_in_order_of_first_sight(instance):
    # oracle: one id per new subspace, handed out in the order the
    # subspaces are first met, whether by intern or by a cover sweep; an
    # enumerated context's elements keep their ids.  The sweeps and the
    # interned rows overlap, so some covers are already known
    q, n, k = instance
    ctx = GeometryContext(q, n, k, dims=None if n < 5 else ())
    ev = ColumnEvaluator(ctx)
    seen = [u.rows for u in ctx.elements]
    rng = random.Random(1)
    spaces = [u.rows for u in enumerate_subspaces(n, 2, q)]
    sample = rng.sample(spaces, 6)
    for rows in sample:
        for mrows in ctx.hyperplanes_rows(rows):
            ids, ends = ev._cover_groups(mrows)
            covers, _ = ctx.cover_groups(mrows)
            seen += [u for u in covers if u not in seen]
            assert [ev.rows[z] for z in ids] == covers
        for u in (rows, rng.choice(spaces)):
            z = ev.intern(u)
            if u not in seen:
                seen.append(u)
            assert ev.rows[z] == u
        ev.typed_columns(ev.intern(rows))  # swept above: no new id
        ev._column("R1", ev.intern(rows))  # sweeps the covers of rows
        seen += [u for u in ctx.cover_groups(rows)[0] if u not in seen]
    assert ev.rows == seen
    assert len(ev._id) == len(ev.rows)
    assert sorted(ev._id.values()) == list(range(len(ev.rows)))
    assert all(ev.rows[ev.intern(r)] == r for r in ev.rows)


def test_residual_adds_each_part_and_drops_what_cancels():
    # a hand-made memo, so no letter is applied: an a-only word, a
    # b-only word, a word with both parts, and two words that cancel
    memo = {("A",): {1: 2, 2: 1}, ("B",): {2: 3, 6: 1, 7: 1},
            ("C",): {3: 1, 4: 2}, ("D",): {3: 1, 4: 2}, ("E",): {6: 5}}
    coeffs = {("A",): [2, 0], ("B",): [0, 5], ("C",): [1, 0],
              ("D",): [-1, 0], ("E",): [1, -1]}

    def apply(sym, vec):
        raise AssertionError("every word is in the memo")

    got = _residual(coeffs, memo, apply)
    # rows 3 and 4 cancel whole, row 6 in its b part only
    assert sorted(got) == [(1, 4, 0), (2, 2, 15), (6, 5, 0), (7, 0, 5)]
    assert _residual({("C",): [1, 0], ("D",): [-1, 0]}, memo, apply) == []


def test_report_serialization(contexts):
    rep = verify_relation("REL-1", contexts[(2, 4, 2)], "full")
    rec = rep.to_record()
    assert rec["record"] == "relation-report"
    assert rec["holds"] is True
    assert rec["instance"] == [2, 4, 2]


@pytest.mark.parametrize("q, n", [(3, 5), (2, 7)])
def test_a_column_from_another_ambient_space_is_refused(q, n):
    # a 2-space of F_q^n would be read as rows of F_2^5; it is refused,
    # and the message names both (q, n)
    ctx = GeometryContext(2, 5, 2, dims=())
    col = next(enumerate_subspaces(n, 2, q))
    with pytest.raises(ValueError, match=rf"\({q}, {n}\).*\(2, 5\)"):
        verify_relation("REL-1", ctx, "columns", columns=[col])


@pytest.mark.parametrize("columns", [
    [], None, iter([]), (c for c in ()),
], ids=["list", "none", "iterator", "generator"])
def test_no_columns_are_refused(columns):
    # an empty iterator is refused as the empty list is, not passed
    # vacuously with no column checked
    ctx = GeometryContext(2, 5, 2, dims=())
    with pytest.raises(ValueError,
                       match="columns mode requires a nonempty column list"):
        verify_relation("REL-1", ctx, "columns", columns=columns)


def test_bad_mode_and_empty_columns(contexts):
    ctx = contexts[(2, 4, 2)]
    with pytest.raises(ValueError):
        verify_relation("REL-1", ctx, "sideways")
    with pytest.raises(ValueError):
        verify_relation("REL-1", ctx, "columns", columns=[])
    # a context enumerates every dimension or none: a letter cut at the
    # edge of a partial band would report violations that do not exist
    with pytest.raises(ValueError, match="dims"):
        GeometryContext(2, 4, 2, dims=(2,))
    # and full mode needs the enumeration
    with pytest.raises(ValueError, match="enumerated context"):
        verify_relation("REL-F0A", GeometryContext(2, 4, 2, dims=()))


# a reference space that is not a coordinate span, per full-mode instance
OTHER_Y = {(2, 4, 2): [[1, 0, 1, 1], [0, 1, 1, 0]],
           (2, 5, 2): [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]],
           (3, 4, 2): [[1, 2, 0, 1], [0, 1, 1, 2]]}

# words with coefficients near 10**40, so lanes are over 130 bits wide:
# F minus its three parts cancels, and -(10**40 + 1) R L does not
WIDE = [
    ("cancels", [T(10**40, ("F",)), T(-10**40, ("F0",)),
                 T(-10**40, ("F+",)), T(-10**40, ("F-",))]),
    ("negative", [T(-10**40 - 1, ("R", "L"))]),
]


@pytest.mark.parametrize("instance", [(2, 4, 2), (3, 4, 2), (2, 5, 2)])
@pytest.mark.parametrize("other_y", [False, True], ids=["y", "other-y"])
def test_batched_residuals_equal_one_column_batches(instance, other_y):
    # full mode packs the columns of a stratum into the lanes of one value;
    # every entry must equal the one found with one column per batch, for
    # batches that split a stratum, the full-mode batch, and whole strata
    q, n, k = instance
    y = Subspace.from_matrix(OTHER_Y[instance], q) if other_y else None
    ctx = GeometryContext(q, n, k, y=y)
    ev = ColumnEvaluator(ctx)
    ids = range(len(ctx.elements))
    strata = [ctx.stratum(u) for u in ctx.elements]
    sizes = Counter(strata)
    for rid in [*relation_ids(), "wide"]:
        components = (WIDE if rid == "wide"
                      else relation_components(rid, q, n, k))
        one = sorted(ev.residuals(components, ids, 1))
        for batch in (7, FULL_MODE_BATCH, len(ids)):
            assert sorted(ev.residuals(components, ids, batch)) == one, (
                rid, batch)
        assert bool(one) == (rid in ("REL-8P", "wide")), rid
        if rid == "REL-8P":
            # negative lanes beside zero lanes of the same stratum, which
            # the whole-strata batches hold in one value: borrows decoded
            hits = Counter((r, strata[x]) for _, r, x, *_ in one)
            assert any((a < 0 or b < 0)
                       and hits[r, strata[x]] < sizes[strata[x]]
                       for _, r, x, a, b, _ in one)
        if rid == "wide":
            assert {t for t, *_ in one} == {1}
            assert all(a <= -(10**40 + 1) and b == 0
                       for _, _, _, a, b, _ in one)


def test_lanes_round_trip_and_refuse_a_value_too_wide():
    # a remainder past the last lane is an internal error, not a ValueError
    # (which would read as bad input)
    rng = random.Random(3)
    for bits in (2, 8, 140):
        half = 1 << bits - 1
        lanes = [-half, half - 1, 0] + [rng.randrange(-half, half)
                                        for _ in range(6)]
        value = sum(v << bits * t for t, v in enumerate(lanes))
        assert _lanes(value, bits, len(lanes)) == lanes
        for wide in (value + (1 << bits * len(lanes)),
                     value - (1 << bits * len(lanes))):
            with pytest.raises(LaneOverflowError) as err:
                _lanes(wide, bits, len(lanes))
            assert not isinstance(err.value, ValueError)


def test_full_mode_applies_few_words(monkeypatch):
    # work-count guard: batching a stratum's columns applies each word
    # once per batch.  All 35 ids at (3,4,2) made 24,506 apply_band_int
    # calls one column at a time, and make 943 in batches of 128.
    calls = []
    real = ColumnEvaluator.apply_band_int

    def counted(self, sym, vec):
        calls.append(sym)
        return real(self, sym, vec)

    monkeypatch.setattr(ColumnEvaluator, "apply_band_int", counted)
    ctx = GeometryContext(3, 4, 2)
    for rid in relation_ids():
        verify_relation(rid, ctx, "full")
    assert 0 < len(calls) <= 1200


def _walked_coefficients(terms, stratum, q, n, k):
    """The coefficients of expanded Terms on columns of one stratum, by
    walking each word right to left from the stratum: (coeffs, unit),
    each word's coefficient being (a + b*sqrt(q)) * unit."""
    nk = n - k
    found = []
    for term in terms:
        i, j = stratum
        e2 = term.half  # the power of sqrt(q), read right to left
        for sym in reversed(term.word):
            if sym in _DIAGONALS:
                a, b = _DIAGONALS[sym]
                e2 += a * (k - 2 * i) + b * (2 * j - nk)
            else:
                i, j = i + _STEPS[sym][0], j + _STEPS[sym][1]
                if not (0 <= i <= k and 0 <= j <= nk):
                    break
        else:
            found.append((term, e2))
    top = max((term.dq for term, _ in found), default=0)
    low = min((e2 // 2 for _, e2 in found), default=0)
    coeffs = {}
    for term, e2 in found:
        word = tuple(sym for sym in term.word if sym in _STEPS)
        ab = coeffs.setdefault(word, [0, 0])
        ab[e2 % 2] += term.num * (q - 1) ** (top - term.dq) * q ** (
            e2 // 2 - low)
    unit = Fraction(q) ** low / (q - 1) ** top
    return {w: ab for w, ab in coeffs.items() if ab[0] or ab[1]}, unit


def test_term_plans_give_the_walked_coefficients():
    # a plan's affine power of sqrt(q) and its box of strata stand for the
    # walk of its word from each stratum: same coefficients, same exact
    # unit, for every component of every id at every stratum, with k = 1,
    # n - k odd, n = 2k, and q = 2, 3, 5
    cases = 0
    for q, n, k in ((2, 4, 1), (3, 3, 1), (2, 4, 2), (3, 4, 2), (2, 5, 2),
                    (2, 7, 3), (5, 5, 2), (2, 9, 4)):
        for rid in relation_ids():
            for name, terms in relation_components(rid, q, n, k):
                expanded = _expand_terms(terms, q, n, k)
                plans = _plans(expanded, k, n - k)
                for s in itertools.product(range(k + 1), range(n - k + 1)):
                    coeffs, (low, top) = _stratum_coefficients(plans, s, q)
                    want = _walked_coefficients(expanded, s, q, n, k)
                    assert (coeffs, Fraction(q) ** low / (q - 1) ** top) \
                        == want, (q, n, k, name, s)
                    cases += 1
    assert cases == 6042


@pytest.mark.parametrize("q", [2, 3, 5])
def test_a_reported_value_is_built_from_its_exponents(q):
    # (a + b*sqrt(q)) * q^low / (q-1)^top, low negative or not, top >= 0
    for low, top, a, b in itertools.product(
            range(-3, 4), range(4), (0, 1, -7, q ** 3 + 1), (0, -1, 5)):
        num, den = q ** max(low, 0), q ** max(-low, 0) * (q - 1) ** top
        want = QSqrtScalar(Fraction(a * num, den), Fraction(b * num, den), q)
        assert str(_exact(a, b, low, top, q)) == str(want), (low, top, a, b)


def test_a_holding_relation_builds_no_fraction(monkeypatch):
    # units stay exponent pairs: only a reported violation becomes an exact
    # value, so a relation that holds makes no Fraction at all
    ctx = GeometryContext(3, 4, 2)
    made = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for rid in relation_ids():
        if rid != "REL-8P":
            assert verify_relation(rid, ctx, "full").holds
    assert made == []
    assert not verify_relation("REL-8P", ctx, "full").holds
    assert made  # the counter sees the values of the violations


def _oracle_record(ctx, rid):
    """The full-mode record, built from the materialized SparseOperator
    residual of each component (the brute-force reference)."""
    q, n, k = ctx.q, ctx.n, ctx.k
    ops = operator_set(ctx)
    found = []
    for name, terms in relation_components(rid, q, n, k):
        for r, c, v in sorted(ops.evaluate_terms(terms).nonzero_entries()):
            found.append({"component": name,
                          "row": ctx.ref(ctx.elements[r]),
                          "col": ctx.ref(ctx.elements[c]), "value": str(v)})
    return {
        "record": "relation-report", "version": 1, "relation_id": rid,
        "instance": [q, n, k], "mode": "full", "holds": not found,
        "checked_columns": None, "violations": found[:MAX_VIOLATIONS],
        "violations_truncated": len(found) > MAX_VIOLATIONS,
    }


@pytest.fixture(scope="module")
def ctx252():
    return GeometryContext(2, 5, 2)


@pytest.fixture(scope="module")
def odd_contexts():
    return {inst: GeometryContext(*inst) for inst in ((2, 4, 3), (3, 3, 1))}


@pytest.mark.parametrize("instance, rid", [
    *[((2, 4, 2), rid) for rid in relation_ids()],
    # n-k odd: coefficients with odd powers of sqrt(q)
    ((2, 5, 2), "REL-8"), ((2, 5, 2), "REL-8P"),
    # k and n-k odd, and k = 1, where F- is 0 and REL-8P holds
    *[((2, 4, 3), rid) for rid in relation_ids()],
    *[((3, 3, 1), rid) for rid in relation_ids()],
])
def test_full_mode_matches_sparse_operator_oracle(contexts, ctx252,
                                                  odd_contexts, instance,
                                                  rid):
    ctx = {**contexts, **odd_contexts, (2, 5, 2): ctx252}[instance]
    got = verify_relation(rid, ctx, "full").to_record()
    assert got == _oracle_record(ctx, rid)
    assert got["holds"] == (rid != "REL-8P" or instance[2] == 1)


def _ref(rows) -> str:
    return ":".join(format(r, "x") for r in rows)


def test_columns_mode_rel8p_at_odd_codimension(ctx252):
    # REL-8P fails on the stratum-(1,1) k-spaces of (2,5,2); columns mode
    # reports the full residual on those columns, values included
    lazy = GeometryContext(2, 5, 2, dims=())
    cols = [u.rows for u in enumerate_subspaces(5, 2, 2)
            if lazy.intersection_dim_with_y(u.rows) == 1]
    ((_, terms),) = relation_components("REL-8P", 2, 5, 2)
    residual = operator_set(ctx252).evaluate_terms(terms)
    full = sorted(
        (_ref(ctx252.elements[c].rows), "REL-8P",
         _ref(ctx252.elements[r].rows), str(v))
        for r, c, v in residual.nonzero_entries()
        if ctx252.elements[c].rows in cols)
    got = []
    for col in cols:  # one column at a time, so no report is truncated
        rep = verify_relation("REL-8P", lazy, "columns", columns=[col])
        assert not rep.truncated
        got += [(v.col, v.component, v.row, v.value)
                for v in rep.violations]
    assert full and sorted(got) == full
    assert any(not value.endswith(" 0*sqrt(2)") for *_, value in full)


def _random_matrix(rng, q, n, k=0):
    """A random invertible n x n matrix over GF(q), as rows of residues;
    with k > 0 its first k rows lie in span(e_0, ..., e_{k-1}), so the
    matrix fixes that subspace."""
    while True:
        g = [[rng.randrange(q) if c < k or t >= k else 0 for c in range(n)]
             for t in range(n)]
        if Subspace.from_matrix(g, q, n).dim == n:
            return g


def _times(rows, g, q, n) -> tuple:
    """Canonical basis rows of the span of ``rows`` times the matrix g."""
    vecs = Subspace(q, n, rows).basis_matrix()
    return Subspace.from_matrix(
        [[sum(v[t] * g[t][c] for t in range(n)) % q for c in range(n)]
         for v in vecs], q, n).rows


@pytest.mark.parametrize("instance", [(2, 5, 2), (3, 4, 2)])
def test_residuals_commute_with_the_stabilizer_of_y(instance):
    # For g fixing y, every letter commutes with g, so the residual of
    # each identity at column gx is g applied to its residual at x.  The
    # columns are every coordinate span, in every stratum, and 12 others.
    q, n, k = instance
    rng = random.Random(1)
    ctx = GeometryContext(q, n, k, dims=())
    ev = column_evaluator(ctx)
    every = [u.rows for d in range(n + 1)
             for u in enumerate_subspaces(n, d, q)]
    coordinate = [Subspace.coordinate_span(idx, q, n).rows
                  for d in range(n + 1)
                  for idx in itertools.combinations(range(n), d)]
    cols = coordinate + rng.sample(every, 12)
    nonzero = 0
    for _ in range(2):
        g = _random_matrix(rng, q, n, k)
        for rid in relation_ids():
            components = relation_components(rid, q, n, k)
            for rows in cols:
                got, moved = set(), set()
                x, gx = ev.intern(rows), ev.intern(_times(rows, g, q, n))
                for t, r, _, a, b, unit in ev.residuals(components, [gx]):
                    got.add((t, ev.rows[r], a, b, unit))
                for t, r, _, a, b, unit in ev.residuals(components, [x]):
                    moved.add((t, _times(ev.rows[r], g, q, n), a, b, unit))
                assert got == moved, (rid, rows)
                nonzero += len(got)
    assert nonzero  # REL-8P fails on some of the columns


@pytest.mark.parametrize("instance", [(2, 6, 2), (3, 5, 2)])
def test_columns_verdicts_do_not_depend_on_y(instance):
    # y = y0 g with the columns moved by the same g: every report keeps
    # its verdict, truncation and violation values; only the names of the
    # rows and columns change.  REL-8P fails on the two columns, with
    # fewer violations than a report keeps.
    q, n, k = instance
    g = _random_matrix(random.Random(2), q, n)
    ctx0 = GeometryContext(q, n, k, dims=())
    y = Subspace(q, n, _times(ctx0.y.rows, g, q, n))
    ctx = GeometryContext(q, n, k, y=y, dims=())
    assert ctx.y != ctx0.y
    cols = [u.rows for u in enumerate_subspaces(n, k, q)
            if ctx0.intersection_dim_with_y(u.rows) == 1][:2]
    for rid in ("REL-8", "REL-8P"):
        want = verify_relation(rid, ctx0, "columns", columns=cols)
        got = verify_relation(rid, ctx, "columns",
                              columns=[_times(c, g, q, n) for c in cols])
        assert got.holds == want.holds == (rid == "REL-8")
        assert got.truncated == want.truncated
        assert (sorted(v.value for v in got.violations)
                == sorted(v.value for v in want.violations))


DATA = Path(__file__).parent / "data" / "relations"


def _records(name):
    with open(DATA / name, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def test_q3_full_mode_reports_match_the_recorded_ones():
    # every record at (3,4,2), REL-8P's 25 violation references included
    ctx = GeometryContext(3, 4, 2)
    got = [verify_relation(rid, ctx, "full").to_record()
           for rid in relation_ids()]
    assert got == _records("full-3-4-2.ndjson")


def test_q3_columns_mode_reports_match_the_recorded_ones():
    # REL-8 and REL-8P on the 156 k-spaces of (3,5,2) at distance 1 from y
    ctx = GeometryContext(3, 5, 2, dims=())
    cols = [u.rows for u in enumerate_subspaces(5, 2, 3)
            if ctx.intersection_dim_with_y(u.rows) == 1]
    got = [verify_relation(rid, ctx, "columns", columns=cols).to_record()
           for rid in ("REL-8", "REL-8P")]
    assert got == _records("columns-3-5-2-1.ndjson")


def test_q2_columns_mode_reports_match_the_recorded_ones():
    # REL-1 .. REL-8 and REL-8P on the 210 k-spaces of (2,7,3) at distance
    # 1 from y, as `--mode columns --i 1` runs them
    ctx = GeometryContext(2, 7, 3, dims=())
    cols = [u.rows for u in enumerate_subspaces(7, 3, 2)
            if ctx.intersection_dim_with_y(u.rows) == 2]
    rids = [f"REL-{t}" for t in range(1, 9)] + ["REL-8P"]
    got = [verify_relation(rid, ctx, "columns", columns=cols).to_record()
           for rid in rids]
    assert got == _records("columns-2-7-3-1.ndjson")
