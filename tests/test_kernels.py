import pytest
from hypothesis import given, settings, strategies as st

import grassver.gf
import grassver.kernels
from grassver.gf import Subspace, _pack_row, _unpack_row

# one kernel module; the test ids carry its BACKEND name, as run records do
pytestmark = pytest.mark.parametrize(
    "kernels", [grassver.kernels], ids=[grassver.kernels.BACKEND]
)

gf2_row = st.integers(min_value=0, max_value=(1 << 20) - 1)
gf2_rows = st.lists(gf2_row, max_size=12)


def test_benchmark_reads_these_names(kernels):
    # perfbench/worker.py records BACKEND on every run, and
    # perfbench/layertrace.py traces the four kernels by name
    assert kernels.BACKEND == "python"
    for name in ("rref2", "rank2", "rrefp", "rankp"):
        assert callable(getattr(kernels, name))
    assert grassver.gf.extend_rows is kernels.extend_rows


def assert_canonical2(out):
    """Nonzero rows, pivots increasing, each pivot column zero elsewhere."""
    pivots = []
    for r in out:
        assert r != 0
        pivots.append((r & -r).bit_length() - 1)
    assert pivots == sorted(pivots)
    for t, r in enumerate(out):
        for s, other in enumerate(out):
            if s != t:
                assert not (other >> pivots[t]) & 1


def assert_canonicalp(out, n, q):
    """As assert_canonical2, and every pivot entry is 1 (packed rows are
    read as residues)."""
    out = [_unpack_row(r, n, q) for r in out]
    pivots = []
    for r in out:
        nz = [c for c, v in enumerate(r) if v]
        assert nz, "zero row stored"
        assert r[nz[0]] == 1
        pivots.append(nz[0])
    assert pivots == sorted(pivots)
    for t, p in enumerate(pivots):
        for s, other in enumerate(out):
            if s != t:
                assert other[p] == 0


@given(rows=gf2_rows)
@settings(max_examples=200)
def test_rref2_is_idempotent(kernels, rows):
    once = kernels.rref2(rows)
    assert kernels.rref2(once) == once


@given(rows=gf2_rows)
def test_rref2_canonicity(kernels, rows):
    assert_canonical2(kernels.rref2(rows))


@given(rows=gf2_rows)
def test_rank2_matches_rref2(kernels, rows):
    assert kernels.rank2(rows) == len(kernels.rref2(rows))


@given(rows=gf2_rows, data=st.data())
def test_rref2_invariant_under_row_ops(kernels, rows, data):
    out = kernels.rref2(rows)
    if len(rows) >= 2:
        t = data.draw(st.integers(0, len(rows) - 1))
        s = data.draw(st.integers(0, len(rows) - 1))
        mixed = list(rows)
        if s != t:
            mixed[t] ^= mixed[s]
        assert kernels.rref2(mixed) == out


@st.composite
def gfp_matrix(draw):
    """(q, n, packed rows) for a random residue matrix."""
    q = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), max_size=8))
    return q, n, [_pack_row(r, q) for r in rows]


@given(m=gfp_matrix())
@settings(max_examples=200)
def test_rrefp_canonicity(kernels, m):
    q, n, rows = m
    assert_canonicalp(kernels.rrefp(rows, q), n, q)


@given(m=gfp_matrix())
def test_rrefp_idempotent_and_rank(kernels, m):
    q, _, rows = m
    out = kernels.rrefp(rows, q)
    assert kernels.rrefp(out, q) == out
    assert kernels.rankp(rows, q) == len(out)


def test_rrefp_fixed_case(kernels):
    # regression: GF(3) elimination used to leave negative residues
    rows = [(2, 0, 2, 1, 0, 0), (0, 2, 2, 1, 1, 2), (0, 2, 2, 1, 0, 0),
            (1, 0, 0, 1, 1, 1), (2, 1, 1, 2, 2, 2), (0, 0, 2, 1, 0, 2)]
    out = kernels.rrefp([_pack_row(r, 3) for r in rows], 3)
    assert [tuple(_unpack_row(r, 6, 3)) for r in out] == [
        (1, 0, 0, 0, 0, 2), (0, 1, 0, 0, 0, 2), (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 2)]


def test_rrefp_and_rankp_reduce_residues_mod_q(kernels):
    # regression: residues outside [0, q) used to reach the elimination;
    # they are reduced where rows are packed, so the kernels never see them
    def residues(rows):
        return [tuple(_unpack_row(r, 3, 3)) for r in rows]

    assert kernels.rankp([_pack_row((3, 0, 0), 3)], 3) == 0  # raised
    assert Subspace.from_matrix([(3, 0, 0)], 3, 3).dim == 0
    assert residues(kernels.rrefp([_pack_row((3, 1, 0), 3)], 3)) == [
        (0, 1, 0)]  # raised
    assert Subspace.from_matrix([(3, 1, 0)], 3).basis_matrix() == [
        [0, 1, 0]]
    assert residues(kernels.rrefp([_pack_row((4, 1, 0), 3)], 3)) == [
        (1, 1, 0)]  # came back as is
    assert Subspace.from_matrix([(4, 1, 0)], 3).basis_matrix() == [
        [1, 1, 0]]

# A canonical basis of the row space is unique, so canonicity (above) and
# span equality pin the output down.  The span is checked with rank2/rankp,
# forward elimination that shares no code with extend_rows: out spans the
# rows exactly when rank(rows + out) == len(out) == rank(rows).


@given(rows=gf2_rows)
def test_rref2_spans_its_input(kernels, rows):
    out = kernels.rref2(rows)
    assert kernels.rank2(rows + list(out)) == len(out) == kernels.rank2(rows)


@given(m=gfp_matrix())
@settings(max_examples=200)
def test_rrefp_spans_its_input(kernels, m):
    q, _, rows = m
    out = kernels.rrefp(rows, q)
    assert (kernels.rankp(rows + list(out), q) == len(out)
            == kernels.rankp(rows, q))


@given(rows=gf2_rows, v=gf2_row)
def test_extend_rows_gf2_is_canonical_and_spans(kernels, rows, v):
    basis = kernels.rref2(rows)
    out = kernels.extend_rows(basis, v, 2)
    assert_canonical2(out)
    grown = list(basis) + [v]
    assert kernels.rank2(grown + list(out)) == len(out) == kernels.rank2(grown)


@given(m=gfp_matrix())
@settings(max_examples=200)
def test_extend_rows_gfp_is_canonical_and_spans(kernels, m):
    q, n, rows = m
    if not rows:
        return
    basis = kernels.rrefp(rows[:-1], q)
    out = kernels.extend_rows(basis, rows[-1], q)
    assert_canonicalp(out, n, q)
    grown = list(basis) + [rows[-1]]
    assert (kernels.rankp(grown + list(out), q) == len(out)
            == kernels.rankp(grown, q))


# The vectors of span(basis, v) that vanish on the pivot columns of the
# basis form a line when v is outside the span, and {0} when it is inside;
# scaled to first nonzero entry 1, that pins the point of v down.


@given(rows=gf2_rows, v=gf2_row)
def test_reduce_row_gf2_is_the_point_modulo_the_span(kernels, rows, v):
    basis = kernels.rref2(rows)
    r = kernels.reduce_row(basis, v, 2)
    for b in basis:
        assert not r & b & -b
    grown = kernels.rank2(list(basis) + [v])
    assert (r == 0) == (grown == len(basis))
    assert kernels.rank2(list(basis) + [v, r]) == grown
    assert kernels.rank2(list(basis) + [r]) == grown


@given(m=gfp_matrix(), c=st.integers(1, 6))
@settings(max_examples=200)
def test_reduce_row_gfp_is_the_point_modulo_the_span(kernels, m, c):
    q, n, rows = m
    if not rows:
        return
    basis = kernels.rrefp(rows[:-1], q)
    v = rows[-1]
    r = kernels.reduce_row(basis, v, q)
    entries = _unpack_row(r, n, q)
    for b in basis:
        assert entries[_unpack_row(b, n, q).index(1)] == 0
    grown = kernels.rankp(list(basis) + [v], q)
    assert (not any(entries)) == (grown == len(basis))
    assert next((a for a in entries if a), 1) == 1
    assert kernels.rankp(list(basis) + [v, r], q) == grown
    assert kernels.rankp(list(basis) + [r], q) == grown
    # a nonzero multiple of v has the same point
    c = c % q or 1
    multiple = _pack_row([c * a for a in _unpack_row(v, n, q)], q)
    assert kernels.reduce_row(basis, multiple, q) == r


# Lanes.  A row operation leaves every lane in [0, q*q - q]: r + (q - c) w
# with residues below q, or a scaling c v with c < q.  One lane-wise
# reduction must take each lane to its residue without touching the others.

PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("q", PRIMES[1:])
def test_reduce_lanes_reduces_every_lane_value_at_every_position(kernels, q):
    n = 9
    bits = kernels.lanes(q).bits
    top = q * q - q
    for t in range(top + 1):
        for j in range(n):
            assert kernels.reduce_lanes(t << (j * bits), q) == (
                (t % q) << (j * bits)), (t, j)
        # every lane full at once, each with its own value
        values = [(t + 7 * j) % (top + 1) for j in range(n)]
        row = sum(v << (j * bits) for j, v in enumerate(values))
        assert _unpack_row(kernels.reduce_lanes(row, q), n, q) == [
            v % q for v in values]


@given(q=st.sampled_from(PRIMES), data=st.data())
def test_pack_row_round_trips(kernels, q, data):
    row = data.draw(st.lists(st.integers(-3 * q, 3 * q), max_size=12))
    packed = _pack_row(row, q)
    assert _unpack_row(packed, len(row), q) == [v % q for v in row]
    assert _pack_row(_unpack_row(packed, len(row), q), q) == packed
    if q == 2:  # a GF(2) row is its bitmask
        assert packed == sum(1 << j for j, v in enumerate(row) if v % 2)
