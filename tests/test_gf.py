from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from grassver.gf import (
    Subspace,
    _pack_row,
    _unpack_row,
    dim_intersect,
    dim_sum,
    enumerate_subspaces,
    extend_rows,
    gaussian_binomial,
    qint,
    rref_rows,
    subspace_intersect,
    subspace_sum,
    validate_field_order,
)


def test_qint_values():
    assert qint(0, 2) == 0
    assert qint(1, 5) == 1
    assert qint(3, 2) == 7
    assert qint(2, 3) == 4
    with pytest.raises(ValueError):
        qint(-1, 2)


def test_validate_field_order():
    for q in (2, 3, 5, 13):
        assert validate_field_order(q) == q
    for q in (1, 4, 6, 9, 0):
        with pytest.raises(ValueError):
            validate_field_order(q)


def test_gaussian_binomial_oracle_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(7, 3, 2) == 11811
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0


@pytest.mark.parametrize("q,n,expected", [(2, 4, 67), (3, 4, 212),
                                          (2, 5, 374)])
def test_total_subspace_counts(q, n, expected):
    total = sum(gaussian_binomial(n, l, q) for l in range(n + 1))
    assert total == expected
    enumerated = sum(
        1 for l in range(n + 1) for _ in enumerate_subspaces(n, l, q))
    assert enumerated == expected


@pytest.mark.parametrize("q,n,l", [(2, 5, 2), (2, 4, 3), (3, 3, 1),
                                   (3, 4, 2), (5, 3, 2)])
def test_enumeration_is_exact_and_canonical(q, n, l):
    seen = set()
    for u in enumerate_subspaces(n, l, q):
        assert u.dim == l
        # stored basis is already canonical
        assert Subspace.from_matrix(u.basis_matrix(), q, n) == u
        seen.add(u)
    assert len(seen) == gaussian_binomial(n, l, q)


def test_enumeration_order_is_deterministic():
    a = [u.rows for u in enumerate_subspaces(4, 2, 2)]
    b = [u.rows for u in enumerate_subspaces(4, 2, 2)]
    assert a == b


def subspaces(q, n, max_dim):
    pools = {
        l: list(enumerate_subspaces(n, l, q)) for l in range(max_dim + 1)
    }
    return st.integers(0, max_dim).flatmap(
        lambda l: st.sampled_from(pools[l]))


@given(u=subspaces(2, 4, 3), v=subspaces(2, 4, 3))
@settings(max_examples=150)
def test_dimension_formula(u, v):
    assert dim_sum(u, v) + dim_intersect(u, v) == u.dim + v.dim


@given(u=subspaces(3, 3, 3), v=subspaces(3, 3, 3))
@settings(max_examples=80)
def test_sum_and_intersection_containment(u, v):
    s = subspace_sum(u, v)
    m = subspace_intersect(u, v)
    assert s.contains(u) and s.contains(v)
    assert u.contains(m) and v.contains(m)
    assert s.dim == dim_sum(u, v)
    assert m.dim == dim_intersect(u, v)


@given(u=subspaces(2, 5, 4))
def test_membership_of_spanned_vectors(u):
    for vec in u.vectors():
        assert u.contains_vector(vec)


def test_membership_negative():
    u = Subspace.coordinate_span([0, 1], 2, 4)
    assert not u.contains_vector(0b0100)
    assert u.contains_vector(0b0011)


def test_structural_equality_and_hash():
    a = Subspace.from_matrix([[1, 1, 0], [0, 1, 1]], 2)
    b = Subspace.from_matrix([[1, 0, 1], [0, 1, 1]], 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace.coordinate_span([0, 1], 2, 3)
    # an enumerated subspace, its hash computed on first use, against the
    # same space from the constructor (rows mixed and reordered) and from
    # from_matrix (residues off by q), each found in a dict or set of the
    # other
    for q, n in [(2, 4), (3, 3)]:
        for d in range(n + 1):
            ids = {u: t for t, u in enumerate(enumerate_subspaces(n, d, q))}
            for t, u in enumerate(enumerate_subspaces(n, d, q)):
                m = u.basis_matrix()
                mixed = [[s + t for s, t in zip(r, m[0])] for r in m[1:]]
                for v in (Subspace(q, n, [_pack_row(r, q)
                                          for r in mixed[::-1] + m[:1]]),
                          Subspace.from_matrix([[e + q for e in r] for r in m],
                                               q, n)):
                    assert v == u and u == v
                    assert hash(v) == hash(u)
                    assert ids[v] == t
                    assert u in {v}


def test_constructor_makes_rows_canonical():
    # (3, 1) spans e0, e1 as (1, 2) does; kept as given, the two compared
    # unequal
    a = Subspace(2, 4, (3, 1))
    assert a == Subspace(2, 4, (1, 2))
    assert hash(a) == hash(Subspace(2, 4, (1, 2)))
    # (4, 1, 0) is (1, 1, 0) mod 3; it used to print as 410
    u = Subspace.from_matrix(((4, 1, 0),), 3, 3)
    assert u.basis_matrix() == [[1, 1, 0]]
    assert repr(u) == "Subspace(q=3, n=3, rows=['110'])"
    # the constructor takes packed rows; residue rows go through from_matrix
    for q, n, rows in [(3, 3, ((4, 1, 0),)),  # not packed
                       (3, 3, (3,)),  # a lane holding q
                       (3, 3, (-1,)),
                       (2, 2, (4,))]:  # a column past n
        with pytest.raises(ValueError):
            Subspace(q, n, rows)


def test_rows_wider_than_the_lane_masks_are_refused():
    from grassver.kernels import MAX_COLUMNS

    assert _unpack_row(_pack_row([2] * MAX_COLUMNS, 3), MAX_COLUMNS, 3) == [
        2] * MAX_COLUMNS
    with pytest.raises(ValueError):
        _pack_row([0] * (MAX_COLUMNS + 1), 3)


def test_from_matrix_refuses_rows_that_are_not_n_long():
    with pytest.raises(ValueError):
        Subspace.from_matrix([[1, 0, 0], [0, 1, 0, 1]], 2)  # ragged
    with pytest.raises(ValueError):
        Subspace.from_matrix([[1, 0, 0, 1]], 2, 3)  # longer than n


def test_zero_and_full():
    z = Subspace.zero(3, 4)
    f = Subspace.full(3, 4)
    assert z.dim == 0 and f.dim == 4
    assert f.contains(z)


def _oracle_rref(matrix, q):
    """Canonical RREF of a residue matrix, on plain lists: Gauss-Jordan
    column by column, one entry at a time."""
    rows = [[a % q for a in r] for r in matrix]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], q - 2, q)
        pivot = [a * inv % q for a in pivot]
        rows = [[(a - r[col] * b) % q for a, b in zip(r, pivot)]
                if r[col] else r for r in rows]
        out = [[(a - r[col] * b) % q for a, b in zip(r, pivot)]
               if r[col] else r for r in out]
        out.append(pivot)
    return out


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_extend_rows_matches_full_reduction(q, n):
    # every subspace times every vector, v = 0 and v in the span included;
    # the oracle reduces the residue lists, sharing no code with the lanes
    vectors = [list(v) for v in product(range(q), repeat=n)]
    for d in range(n + 1):
        for u in enumerate_subspaces(n, d, q):
            basis = u.basis_matrix()
            for v in vectors:
                got = extend_rows(u.rows, _pack_row(v, q), q)
                assert [_unpack_row(r, n, q) for r in got] == _oracle_rref(
                    basis + [v], q), (u, v)


def test_rref_rows_reduces_residues_mod_q():
    # residues are reduced where rows are packed, at from_matrix
    def rref(matrix, q):
        return Subspace.from_matrix(matrix, q).basis_matrix()

    assert rref([(-1, 1, 0), (0, 2, 1)], 3) == [[1, 0, 2], [0, 1, 2]]
    assert rref([(3, 1, 0), (4, 1, 7)], 3) == [[1, 0, 1], [0, 1, 0]]
    assert rref_rows([3, 2], 2) == (1, 2)
