from fractions import Fraction

import pytest

from grassver.gf import qint
from grassver.geometry import GeometryContext
from grassver.operators import SparseOperator, operator_set
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
    k1 = operator_set(c).get("K1")
    yid = c.id_by_rows[c.y.rows]
    v = k1.entry(yid, yid)
    assert v == QSqrtScalar(0, Fraction(1, 4), 2)


def test_k_diagonals_and_inverses(ctx):
    ops = operator_set(ctx)
    for name in ("K1", "K2"):
        prod = ops.get(name) @ ops.get(name + "i")
        assert prod == SparseOperator.identity(ctx)


def test_transpose_duality(ctx):
    ops = operator_set(ctx)
    assert ops.get("L1").transpose() == ops.get("R1")
    assert ops.get("L2").transpose() == ops.get("R2")
    # R = L^t as derived elements
    assert ops.get("R") == ops.get("L").transpose()


def test_l1_row_sums(ctx):
    # u in stratum (i, j) is /-covered by [k-i] elements
    l1 = operator_set(ctx).get("L1")
    one = QSqrtScalar.from_int(1, 2)
    for uid, u in enumerate(ctx.elements):
        i, _ = ctx.stratum(u)
        row = l1.rows.get(uid, {})
        assert all(v == one for v in row.values())
        assert len(row) == qint(ctx.k - i, 2)


def test_cover_pair_sparsity(ctx):
    ops = operator_set(ctx)
    l1, l2 = ops.get("L1"), ops.get("L2")
    cover_pairs = sum(
        1 for u in ctx.elements if u.dim < ctx.n
        for _ in ctx.superspaces_rows(u.rows))
    assert l1.nnz() + l2.nnz() == cover_pairs


def test_algebra_plumbing(ctx):
    a = operator_set(ctx).get("F0")
    zero = a + a.scale(QSqrtScalar.from_int(-1, 2))
    assert zero.is_zero()
    ident = SparseOperator.identity(ctx)
    assert (ident @ a) == a
    assert (a @ ident) == a


def test_l1r2_commutes(ctx):
    ops = operator_set(ctx)
    l1, r2 = ops.get("L1"), ops.get("R2")
    assert (l1 @ r2) == (r2 @ l1)


def test_f_matrices_are_01_and_disjoint(ctx253):
    ops = operator_set(ctx253)
    one = QSqrtScalar.from_int(1, 2)
    support = {}
    for name in ("F0", "F+", "F-"):
        op = ops.get(name)
        for r, c, v in op.nonzero_entries():
            assert v == one
            assert r != c  # diagonal vanishes
            assert (r, c) not in support, (name, support[(r, c)])
            support[(r, c)] = name
    # F = sum of the three, still a 0/1 matrix
    assert ops.get("F").nnz() == len(support)


def test_f_symmetry(ctx):
    for name in ("F0", "F+", "F-"):
        op = operator_set(ctx).get(name)
        assert op.transpose() == op


def test_f_support_is_equidistant_adjacency(ctx253):
    # for adjacent same-dim u,z: F entry 1 iff equal distance strata
    f = operator_set(ctx253).get("F")
    for r, c, _ in f.nonzero_entries():
        u, z = ctx253.elements[r], ctx253.elements[c]
        assert u.dim == z.dim
        assert ctx253.stratum(u) == ctx253.stratum(z)


def test_omegas_are_central(ctx):
    ops = operator_set(ctx)
    for oname in ("O0", "O1", "O2"):
        om = ops.get(oname)
        for gname in ("K1", "K2", "L1", "L2", "R1", "R2"):
            g = ops.get(gname)
            assert (om @ g) == (g @ om), (oname, gname)


def test_mismatched_contexts_rejected(ctx):
    other = GeometryContext(2, 4, 2)
    with pytest.raises(ValueError):
        operator_set(ctx).get("L1") + operator_set(other).get("L1")


def test_unknown_names_rejected(ctx):
    # only the short symbols of Term words name an operator
    ops = operator_set(ctx)
    for name in ("K3", "Q", "K1inv", "Fplus", "Omega0"):
        with pytest.raises(ValueError, match="unknown operator"):
            ops.get(name)


def test_k_scaling_against_strata(ctx):
    k2 = operator_set(ctx).get("K2")
    for uid, u in enumerate(ctx.elements):
        _, j = ctx.stratum(u)
        assert k2.entry(uid, uid) == q_pow_half(
            2 * j - (ctx.n - ctx.k), 2)
