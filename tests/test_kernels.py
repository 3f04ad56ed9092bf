from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import grassver.kernels
from grassver.gf import extend_rows

# one kernel module; the test ids carry its BACKEND name, as run records do
pytestmark = pytest.mark.parametrize(
    "kernels", [grassver.kernels], ids=[grassver.kernels.BACKEND]
)

gf2_rows = st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                    max_size=12)


@given(rows=gf2_rows)
@settings(max_examples=200)
def test_rref2_is_idempotent(kernels, rows):
    once = kernels.rref2(rows)
    assert kernels.rref2(once) == once


@given(rows=gf2_rows)
def test_rref2_canonicity(kernels, rows):
    out = kernels.rref2(rows)
    pivots = []
    for r in out:
        assert r != 0
        pivots.append((r & -r).bit_length() - 1)
    assert pivots == sorted(pivots)
    # pivot columns are zero in every other row
    for t, r in enumerate(out):
        for s, other in enumerate(out):
            if s != t:
                assert not (other >> pivots[t]) & 1


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
    out = kernels.rrefp(rows, q)
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


def fold_extend(rows, q, zero):
    """Oracle: the RREF built one row at a time by gf.extend_rows, which
    shares no code with the kernels."""
    return reduce(lambda acc, r: extend_rows(acc, r, q),
                  (r for r in rows if r != zero), ())


@given(rows=gf2_rows)
def test_rref2_and_rank2_match_extend_rows_oracle(kernels, rows):
    want = fold_extend(rows, 2, 0)
    assert kernels.rref2(rows) == want
    assert kernels.rank2(rows) == len(want)


@given(m=gfp_matrix())
@settings(max_examples=200)
def test_rrefp_and_rankp_match_extend_rows_oracle(kernels, m):
    q, rows = m
    n = len(rows[0]) if rows else 0
    want = fold_extend(rows, q, (0,) * n)
    assert kernels.rrefp(rows, q) == want
    assert kernels.rankp(rows, q) == len(want)
