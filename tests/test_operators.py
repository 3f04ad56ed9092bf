from fractions import Fraction

import pytest

from grassver.gf import qint
from grassver.geometry import GeometryContext
from grassver.operators import (
    SparseOperator,
    build_derived,
    build_generator,
    entry_of_product,
    operator_set,
)
from grassver.scalars import QSqrtScalar, q_pow_half


@pytest.fixture(scope="module")
def ctx():
    return GeometryContext(2, 4, 2)


@pytest.fixture(scope="module")
def ctx253():
    return GeometryContext(2, 5, 3)


def test_k1_diagonal_example():
    # (K1)_{y,y} = q^(k/2 - i) at i=k: 2^(-3/2) = (1/4)sqrt(2)
    c = GeometryContext(2, 6, 3)
    k1 = build_generator("K1", c)
    yid = c.id_by_rows[c.y.rows]
    v = k1.entry(yid, yid)
    assert v == QSqrtScalar(0, Fraction(1, 4), 2)


def test_k_diagonals_and_inverses(ctx):
    for name in ("K1", "K2"):
        k = build_generator(name, ctx)
        kinv = build_generator(name + "inv", ctx)
        prod = k @ kinv
        assert prod == SparseOperator.identity(ctx)


def test_transpose_duality(ctx):
    l1 = build_generator("L1", ctx)
    r1 = build_generator("R1", ctx)
    assert l1.transpose() == r1
    assert build_generator("L2", ctx).transpose() == build_generator(
        "R2", ctx)
    # R = L^t as derived elements
    assert build_derived("R", ctx) == build_derived("L", ctx).transpose()


def test_l1_row_sums(ctx):
    # u in stratum (i, j) is /-covered by [k-i] elements
    l1 = build_generator("L1", ctx)
    one = QSqrtScalar.from_int(1, 2)
    for uid, u in enumerate(ctx.elements):
        i, _ = ctx.stratum(u)
        row = l1.rows.get(uid, {})
        assert all(v == one for v in row.values())
        assert len(row) == qint(ctx.k - i, 2)


def test_cover_pair_sparsity(ctx):
    l1 = build_generator("L1", ctx)
    l2 = build_generator("L2", ctx)
    cover_pairs = sum(
        1 for u in ctx.elements if u.dim < ctx.n
        for _ in ctx.superspaces_rows(u.rows))
    assert l1.nnz() + l2.nnz() == cover_pairs


def test_algebra_plumbing(ctx):
    a = build_derived("F0", ctx)
    zero = a + a.scale(QSqrtScalar.from_int(-1, 2))
    assert zero.is_zero()
    ident = SparseOperator.identity(ctx)
    assert (ident @ a) == a
    assert (a @ ident) == a


def test_l1r2_commutes(ctx):
    l1 = build_generator("L1", ctx)
    r2 = build_generator("R2", ctx)
    assert (l1 @ r2) == (r2 @ l1)


def test_f_matrices_are_01_and_disjoint(ctx253):
    f0 = build_derived("F0", ctx253)
    fp = build_derived("Fplus", ctx253)
    fm = build_derived("Fminus", ctx253)
    one = QSqrtScalar.from_int(1, 2)
    support = {}
    for name, op in (("F0", f0), ("F+", fp), ("F-", fm)):
        for r, c, v in op.nonzero_entries():
            assert v == one
            assert r != c  # diagonal vanishes
            assert (r, c) not in support, (name, support[(r, c)])
            support[(r, c)] = name
    # F = sum of the three, still a 0/1 matrix
    f = build_derived("F", ctx253)
    assert f.nnz() == len(support)


def test_f_symmetry(ctx):
    for name in ("F0", "Fplus", "Fminus"):
        op = build_derived(name, ctx)
        assert op.transpose() == op


def test_f_support_is_equidistant_adjacency(ctx253):
    # for adjacent same-dim u,z: F entry 1 iff equal distance strata
    f = build_derived("F", ctx253)
    for r, c, _ in f.nonzero_entries():
        u, z = ctx253.elements[r], ctx253.elements[c]
        assert u.dim == z.dim
        assert ctx253.stratum(u) == ctx253.stratum(z)


def test_omegas_are_central(ctx):
    ops = operator_set(ctx)
    for oname in ("Omega0", "Omega1", "Omega2"):
        om = build_derived(oname, ctx)
        for gname in ("K1", "K2", "L1", "L2", "R1", "R2"):
            g = ops.get(gname)
            assert (om @ g) == (g @ om), (oname, gname)


def test_entry_of_product(ctx):
    f0 = build_derived("F0", ctx)
    sq = f0 @ f0
    for uid in list(ctx.ids_by_dim[2])[:6]:
        for vid in list(ctx.ids_by_dim[2])[:6]:
            assert entry_of_product([f0, f0], uid, vid) == sq.entry(
                uid, vid)
    ident = SparseOperator.identity(ctx)
    assert entry_of_product([ident], 3, 3) == 1


def test_mismatched_contexts_rejected(ctx):
    other = GeometryContext(2, 4, 2)
    with pytest.raises(ValueError):
        build_generator("L1", ctx) + build_generator("L1", other)


def test_unknown_names_rejected(ctx):
    with pytest.raises(ValueError):
        build_generator("K3", ctx)
    with pytest.raises(ValueError):
        build_derived("Q", ctx)


def test_k_scaling_against_strata(ctx):
    k2 = build_generator("K2", ctx)
    for uid, u in enumerate(ctx.elements):
        _, j = ctx.stratum(u)
        assert k2.entry(uid, uid) == q_pow_half(
            2 * j - (ctx.n - ctx.k), 2)
