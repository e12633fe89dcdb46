"""Exact linear algebra: echelon forms, solving, quotients, spans.

The F2 kernel test enumerates every vector of the domain, so the expected
count is independent of the echelon machinery it checks.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roofext.errors import SchemaError
from roofext.linalg import (
    GF,
    QQ,
    IncrementalSpan,
    Mat,
    block_diag,
    field_from_name,
    hstack,
    kernel_basis,
    left_inverse,
    quotient_coords,
    rank,
    rref,
    solve,
    subquotient,
    vstack,
)

F2 = GF(2)
F3 = GF(3)
FIELDS = [QQ, F2, F3]


def _mat(field, rows):
    return Mat(field, rows)


# -- fields -------------------------------------------------------------------


def test_field_from_name():
    assert field_from_name("q") == QQ
    assert field_from_name("f2") == F2
    assert field_from_name("F3") == F3
    assert field_from_name("fp:7") == GF(7)
    with pytest.raises(SchemaError, match="not prime"):
        field_from_name("f4")
    with pytest.raises(SchemaError, match="unknown field"):
        field_from_name("ring")


def test_gf_requires_prime():
    with pytest.raises(SchemaError, match="not prime"):
        GF(6)


def test_qq_parse_fmt_roundtrip():
    for s in ["0", "5", "-7", "2/3", "-9/4"]:
        assert QQ.fmt(QQ.parse(s)) == str(Fraction(s))


def test_prime_field_parse_fmt():
    assert F3.parse(5) == 2
    assert F3.parse("-1") == 2
    assert F3.fmt(2) == 2
    assert F3.inv(2) == 2  # 2*2 = 4 = 1 mod 3


@given(st.fractions(max_denominator=50))
def test_qq_fmt_parse_identity(x):
    assert QQ.parse(QQ.fmt(x)) == x


# -- matrix arithmetic --------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_matmul_identity(field):
    a = _mat(field, [[1, 2], [0, 1], [1, 1]])
    assert Mat.identity(field, 3) @ a == a
    assert a @ Mat.identity(field, 2) == a


@pytest.mark.parametrize("field", FIELDS)
def test_stack_shapes(field):
    a = _mat(field, [[1, 2]])
    b = _mat(field, [[3, 4]])
    assert vstack([a, b]).shape == (2, 2)
    assert hstack([a.T, b.T]).shape == (2, 2)
    d = block_diag([a, b])
    assert d.shape == (2, 4)
    assert d.entry(0, 1) == a.entry(0, 1)
    assert d.entry(1, 0) == field.parse("0")


small_entries = st.integers(min_value=-4, max_value=4)


def _hyp_mat(field, r, c, entries):
    return Mat(field, [[entries[i * c + j] for j in range(c)] for i in range(r)])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.lists(small_entries, min_size=27, max_size=27),
)
def test_matmul_associative(field, r, s, t, entries):
    a = _hyp_mat(field, r, s, entries)
    b = _hyp_mat(field, s, t, entries[9:])
    c = _hyp_mat(field, t, r, entries[18:])
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(1, 3), st.integers(1, 3),
    st.lists(small_entries, min_size=18, max_size=18),
)
def test_add_distributes(field, r, s, entries):
    a = _hyp_mat(field, r, s, entries)
    b = _hyp_mat(field, r, s, entries[9:])
    c = _hyp_mat(field, s, r, entries[3:])
    assert (a + b) @ c == a @ c + b @ c
    assert -(a - b) == b - a


def test_matmul_large_prime_long_inner_dimension():
    # 9000 * (p-1)^2 exceeds int64; the product must still be exact
    field = GF(33554393)
    row = Mat(field, [[field.p - 1] * 9000])
    assert (row @ row.T).entry(0, 0) == 9000


# -- echelon form and rank ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(1, 4), st.integers(1, 4),
    st.lists(small_entries, min_size=16, max_size=16),
)
def test_rref_idempotent_and_rank_transpose(field, r, c, entries):
    a = _hyp_mat(field, r, c, entries)
    red, pivots = rref(a)
    red2, pivots2 = rref(red)
    assert red2 == red and pivots2 == pivots
    assert rank(a) == len(pivots)
    assert rank(a) == rank(a.T)


def test_rref_known_form():
    a = _mat(QQ, [[2, 4], [1, 2]])
    red, pivots = rref(a)
    assert pivots == (0,)
    assert red.to_lists() == [["1", "2"], ["0", "0"]]


# -- kernels, solving ---------------------------------------------------------


def test_kernel_f2_by_enumeration():
    # every kernel vector of a 3x4 matrix over F2, counted by brute force
    a = _mat(F2, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])
    members = [
        v for v in product((0, 1), repeat=4)
        if (a @ Mat(F2, [[x] for x in v])).is_zero()
    ]
    k = kernel_basis(a)
    assert a @ k == Mat.zeros(F2, 3, k.ncols)
    assert len(members) == 2 ** k.ncols
    assert rank(k) == k.ncols


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(1, 4), st.integers(1, 4),
    st.lists(small_entries, min_size=20, max_size=20),
)
def test_solve_recovers_image_and_kernel_kills(field, r, c, entries):
    a = _hyp_mat(field, r, c, entries)
    x = _hyp_mat(field, c, 1, entries[16:])
    b = a @ x
    sol = solve(a, b)
    assert sol is not None and a @ sol == b
    k = kernel_basis(a)
    assert (a @ k).is_zero()
    assert rank(a) + k.ncols == c


def test_solve_none_when_inconsistent():
    a = _mat(QQ, [[1, 0], [1, 0]])
    b = _mat(QQ, [[1], [2]])
    assert solve(a, b) is None


def test_left_inverse():
    a = _mat(F3, [[1, 0], [2, 1], [1, 1]])
    linv = left_inverse(a)
    assert linv @ a == Mat.identity(F3, 2)


# -- quotient coordinates -----------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_quotient_coords_laws(field):
    sub = _mat(field, [[1, 0], [0, 1], [1, 1], [0, 0]])
    q = quotient_coords(sub)
    assert q.dim == 2  # 4 ambient - rank 2
    assert (q.proj @ sub).is_zero()
    assert q.proj @ q.section == Mat.identity(field, q.dim)


def _check_subquotient(d_out, d_in, dim):
    Z, qc, include, project = subquotient(d_out, d_in)
    field = d_out.field
    assert qc.dim == dim and include.shape == (d_out.ncols, dim)
    assert project.shape == (dim, d_out.ncols)
    assert (d_out @ Z).is_zero() and (d_out @ include).is_zero()
    assert project @ include == Mat.identity(field, dim)
    assert (project @ d_in).is_zero()


@pytest.mark.parametrize("field", FIELDS)
def test_subquotient_laws(field):
    # d_out kills e1, e2; d_in hits e1 + e2, leaving a one-dimensional class
    d_out = _mat(field, [[0, 0, 1]])
    d_in = _mat(field, [[1], [1], [0]])
    _check_subquotient(d_out, d_in, 1)


@pytest.mark.parametrize("field", FIELDS)
def test_subquotient_zero_kernel(field):
    d_out = Mat.identity(field, 2)
    _check_subquotient(d_out, Mat.zeros(field, 2, 3), 0)
    _check_subquotient(d_out, Mat.zeros(field, 2, 0), 0)


@pytest.mark.parametrize("field", FIELDS)
def test_subquotient_without_incoming_columns(field):
    d_out = _mat(field, [[1, 1, 0]])
    Z, _, _, _ = subquotient(d_out, Mat.zeros(field, 3, 0))
    assert Z.ncols == 2
    _check_subquotient(d_out, Mat.zeros(field, 3, 0), 2)


def test_quotient_of_full_space_is_zero():
    q = quotient_coords(Mat.identity(QQ, 3))
    assert q.dim == 0
    assert q.proj.shape == (0, 3)


# -- incremental spans --------------------------------------------------------


def test_incremental_span_growth():
    import numpy as np

    sp = IncrementalSpan(F2, 3)
    assert sp.add(np.array([1, 0, 1], dtype=np.int64))
    assert not sp.add(np.array([1, 0, 1], dtype=np.int64))
    assert sp.add(np.array([0, 1, 0], dtype=np.int64))
    assert sp.rank == 2
    assert sp.contains(np.array([1, 1, 1], dtype=np.int64))
    assert not sp.contains(np.array([0, 0, 1], dtype=np.int64))
