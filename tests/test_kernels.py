import pytest
from hypothesis import given, settings, strategies as st

import grassver.gf
import grassver.kernels

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


def assert_canonicalp(out):
    """As assert_canonical2, and every pivot entry is 1."""
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
    q = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), max_size=8))
    return q, rows


@given(m=gfp_matrix())
@settings(max_examples=200)
def test_rrefp_canonicity(kernels, m):
    q, rows = m
    assert_canonicalp(kernels.rrefp(rows, q))


@given(m=gfp_matrix())
def test_rrefp_idempotent_and_rank(kernels, m):
    q, rows = m
    out = kernels.rrefp(rows, q)
    assert kernels.rrefp(out, q) == out
    assert kernels.rankp(rows, q) == len(out)


def test_rrefp_fixed_case(kernels):
    # regression: GF(3) elimination used to leave negative residues
    rows = [(2, 0, 2, 1, 0, 0), (0, 2, 2, 1, 1, 2), (0, 2, 2, 1, 0, 0),
            (1, 0, 0, 1, 1, 1), (2, 1, 1, 2, 2, 2), (0, 0, 2, 1, 0, 2)]
    assert kernels.rrefp(rows, 3) == (
        (1, 0, 0, 0, 0, 2), (0, 1, 0, 0, 0, 2), (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 2))



def test_rrefp_and_rankp_reduce_residues_mod_q(kernels):
    # regression: residues outside [0, q) used to reach the elimination
    assert kernels.rankp([(3, 0, 0)], 3) == 0  # raised: not invertible
    assert kernels.rrefp([(3, 1, 0)], 3) == ((0, 1, 0),)  # raised
    assert kernels.rrefp([(4, 1, 0)], 3) == ((1, 1, 0),)  # came back as is

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
    q, rows = m
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
    q, rows = m
    if not rows:
        return
    basis = kernels.rrefp(rows[:-1], q)
    out = kernels.extend_rows(basis, rows[-1], q)
    assert_canonicalp(out)
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
    q, rows = m
    if not rows:
        return
    basis = kernels.rrefp(rows[:-1], q)
    v = rows[-1]
    r = kernels.reduce_row(basis, v, q)
    for b in basis:
        assert r[b.index(1)] == 0
    grown = kernels.rankp(list(basis) + [v], q)
    assert (not any(r)) == (grown == len(basis))
    assert next((a for a in r if a), 1) == 1
    assert kernels.rankp(list(basis) + [v, r], q) == grown
    assert kernels.rankp(list(basis) + [r], q) == grown
    # a nonzero multiple of v has the same point
    c = c % q or 1
    assert kernels.reduce_row(basis, tuple(c * a % q for a in v), q) == r
