"""Exact linear algebra: echelon forms, solving, quotients, spans.

The F2 kernel test enumerates every vector of the domain, so the expected
count is independent of the echelon machinery it checks.
"""

import hashlib
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_rref_reference, dot_qq_reference, null_basis_reference, rref_qq_reference,
    solve_reference)

from roofext import linalg
from roofext.algebra import free_module, random_bound_quiver_algebra
from roofext.errors import SchemaError
from roofext.instances import random_module
from roofext.linalg import (
    GF,
    QQ,
    IncrementalSpan,
    Mat,
    _dot,
    _kernel,
    block_diag,
    block_matrix,
    field_from_name,
    hstack,
    kernel_basis,
    pivots,
    random_mat,
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
    for s in ["0", "5", "-7", "2/3", "-9/4", "+3", "6/3", "-4/6", "-0", "007", "4/2", "6/4",
              12, -8]:
        x = QQ.parse(s)
        assert QQ.fmt(x) == str(Fraction(s))
        assert type(x) is int or x.denominator != 1  # the canonical form
    assert QQ.parse("6/4") == Fraction(3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        QQ.parse("1/0")
    with pytest.raises(TypeError):
        QQ.parse("1e9")
    assert QQ.fmt(7) == "7" and QQ.fmt(Fraction(-3, 2)) == "-3/2"


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


def _canonical_qq(a: np.ndarray) -> bool:
    """Every entry is an int, or a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in a.reshape(-1).tolist())


def _fraction_product(a, b, inner):
    """Textbook triple loop over Fractions."""
    return [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(inner)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def test_qq_dot_matches_fraction_reference():
    rng = Random(61)
    top = 2**63 - 1

    def draw(m, n, size):
        return [[Fraction(rng.randint(-size, size), rng.choice([1, 1, 2, 3, 4, 7, 9, 2**20]))
                 for _ in range(n)] for _ in range(m)]

    cases = [  # (rows of A, rows of B, inner dimension)
        ([[top]], [[1]], 1),                     # the int64 bound itself
        ([[2**62]], [[2]], 1),                   # one past it
        ([[2**62, 2**62]], [[1], [1]], 2),       # past it only through the inner sum
        ([[-(2**31), 2**31 - 1]], [[2**31], [-(2**31)]], 2),
        ([[Fraction(top, 3)]], [[Fraction(1, 5)]], 1),
        ([[Fraction(2**62, 3)]], [[Fraction(2, 5)]], 1),
        ([[0, 0], [0, 0]], [[2**80, 1], [-(2**80), 3]], 2),  # zero beside 2**80
        ([[2**80, Fraction(1, 3)]], [[0], [0]], 2),
        ([[Fraction(1, 2), Fraction(1, 3)]], [[6], [3]], 2),  # integral output
        ([], [[1, 2], [3, 4]], 2),               # 0 x k
        ([[1, 2], [3, 4]], [[], []], 2),         # k x 0
        ([[], []], [], 0),                       # inner dimension 0
    ]
    for _ in range(80):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        size = rng.choice([3, 2**20, 2**30, 2**31, 2**40, 2**62, 2**90])
        cases.append((draw(m, k, size), draw(k, n, size), k))
    for a_rows, b_rows, k in cases:
        m, n = len(a_rows), len(b_rows[0]) if b_rows else 0
        a = Mat(QQ, np.array(a_rows, dtype=object).reshape(m, k))
        b = Mat(QQ, np.array(b_rows, dtype=object).reshape(k, n))
        got = _dot(QQ, a.a, b.a)
        want = _fraction_product(a_rows, b_rows, k)
        assert got.shape == (m, n)
        assert got.tolist() == want
        assert _canonical_qq(got)
        assert (a @ b).a.tolist() == want


def test_qq_dot_on_both_sides_of_the_int64_bound():
    """Integral products run in int64 exactly when every partial sum fits:
    entries 2**31 cross 2**63 - 1 at inner dimension 2, entries 2**62 at 1."""
    for e, inner in ((2**31, range(1, 5)), (2**62, (1, 2))):
        for k in inner:
            for signs in ([1] * k, [(-1) ** j for j in range(k)], [-1] * k):
                a_rows = [[s * e for s in signs], [e - 1] * k]
                b_rows = [[e, -e] for _ in range(k)]
                a, b = Mat(QQ, a_rows), Mat(QQ, b_rows)
                want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b_rows)]
                        for row in a_rows]
                got = _dot(QQ, a.a, b.a)
                assert got.tolist() == want == dot_qq_reference(a.a, b.a).tolist()
                assert _canonical_qq(got)


def test_prime_field_mat_refuses_non_integers_and_reduces_big_ints():
    for bad in (Fraction(1, 2), 0.5, 4.0, float("nan"), "1", 1j):
        with pytest.raises(SchemaError, match="not an integer"):
            Mat(F3, [[1, bad]])
    with pytest.raises(SchemaError, match="not an integer"):
        Mat(F3, [[1, 2]]).scale(Fraction(1, 2))
    big = [[2**70, -(2**70)], [3**50 + 1, 2**64 + 5]]
    assert Mat(F3, big).a.tolist() == [[x % 3 for x in row] for row in big]
    assert Mat(F3, [[1, 2]]).scale(2**70).a.tolist() == [[2**70 % 3, 2**71 % 3]]
    # integers of other types are taken exactly
    mixed = Mat(F3, [[Fraction(6, 2), True, np.uint64(2**64 - 1)]])
    assert mixed.a.tolist() == [[0, 1, (2**64 - 1) % 3]] and mixed.a.dtype == np.int64
    x = np.array([[5, -1]], dtype=np.int64)
    assert Mat(F3, x).a.tolist() == [[2, 2]] and Mat(F3, x).a.dtype == np.int64
    assert Mat(F3, []).shape == (0, 1) and Mat(F3, np.zeros((2, 0))).shape == (2, 0)



def test_rational_mat_refuses_floats_and_strings():
    # a float would be taken at its binary value, a string past parse's grammar
    for bad in (0.1, 4.0, float("inf"), float("nan"), "1e3", "1/2", 1j, None):
        with pytest.raises(SchemaError, match="not a rational number"):
            Mat(QQ, [[1, bad]])
    with pytest.raises(SchemaError, match="not a rational number"):
        Mat(QQ, [[1, 2]]).scale(0.5)
    # rationals of other types are taken exactly, in canonical form
    mixed = Mat(QQ, [[True, np.int64(3), Fraction(4, 2), Fraction(1, 2)]])
    assert mixed.a.tolist() == [[1, 3, 2, Fraction(1, 2)]]
    assert [type(x) for x in mixed.a[0]] == [int, int, int, Fraction]
    assert Mat(QQ, [[1, 2]]).scale(Fraction(1, 2)).a.tolist() == [[Fraction(1, 2), 1]]

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


def _gauss_jordan(rows, ncols, p):
    """Textbook Gauss-Jordan over F_p on lists: the reduced form and its pivots."""
    rows = [list(row) for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


# the largest prime under linalg._MAX_PRIME: row updates then multiply 25-bit residues
BIG_PRIME = 33554393


@pytest.mark.parametrize("p", [2, 3, 5, BIG_PRIME])
def test_rref_matches_gauss_jordan_over_fp(p):
    """The 1-7 x 1-7 shapes (at most 49 cells) run the row elimination; the
    shapes above _ROW_CELLS (up to 48 x 140, the sizes lemma-fp reaches) run
    the packed kernels over GF(2) and GF(3), where rank counts the packed
    pivots without reading the form out, and the row elimination over every
    larger prime."""
    rng = Random(p)
    shapes = [(0, 4), (3, 0), (0, 0)] + [(rng.randint(1, 7), rng.randint(1, 7))
                                          for _ in range(60)]
    large = [(rng.randint(9, 48), rng.randint(15, 140)) for _ in range(12)]
    assert all(m * n > linalg._ROW_CELLS for m, n in large)
    shapes += large
    cases = []
    for m, n in shapes:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        if m and rng.random() < 0.5:  # a zero row
            rows[rng.randrange(m)] = [0] * n
        if n and rng.random() < 0.5:  # a zero column
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        cases.append((m, n, rows))
    # tall shapes on both sides of the 62-row packing boundary: dense, and
    # zero except for the last rows, so that pivots sit in the highest bits
    for m in (62, 63, 70, 130):
        for n in (1, 5, 12):
            cases.append((m, n, [[rng.randrange(p) for _ in range(n)] for _ in range(m)]))
            cases.append((m, n, [[rng.randrange(p) if i >= m - 3 else 0 for _ in range(n)]
                                 for i in range(m)]))
    cases.append((3, 140, [[rng.randrange(p) for _ in range(140)] for _ in range(3)]))
    cases.append((4, 6, [[0] * 6 for _ in range(4)]))
    cases.append((5, 5, [[int(i == j) for j in range(5)] for i in range(5)]))
    # every pivot is 2 before it is scaled (over GF(2) these rows reduce to zero)
    cases.append((4, 6, [[2 if j == i else rng.randrange(p) if j > i else 0
                          for j in range(6)] for i in range(4)]))
    cases.append((9, 7, [[2 * rng.randrange(2) for _ in range(7)] for _ in range(9)]))
    for m, n, rows in cases:
        rows = [[x % p for x in row] for row in rows]
        mat = Mat(GF(p), np.array(rows, dtype=np.int64).reshape(m, n))
        before = mat.a.copy()
        red, pivots = rref(mat)
        want, want_pivots = _gauss_jordan(rows, n, p)
        assert red.shape == (m, n) and red.a.dtype == np.int64
        assert red.a.tolist() == want and pivots == want_pivots
        assert rank(mat) == len(want_pivots)
        assert np.array_equal(mat.a, before)


def _gauss_jordan_qq(rows, ncols):
    """Textbook Gauss-Jordan over Q on lists of Fractions: reduced form and pivots."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def test_rref_matches_gauss_jordan_over_qq():
    rng = Random(62)
    shapes = [(0, 4), (3, 0), (0, 0)] + [(rng.randint(1, 6), rng.randint(1, 6))
                                          for _ in range(60)]
    for m, n in shapes:
        size = rng.choice([2, 9, 2**40, 2**70])
        rows = [[Fraction(rng.randint(-size, size), rng.choice([1, 1, 2, 3, 5, 12]))
                 for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:  # a dependent row
            i, j = rng.sample(range(m), 2)
            rows[i] = [Fraction(3, 7) * x for x in rows[j]]
        if m and rng.random() < 0.5:  # a zero row
            rows[rng.randrange(m)] = [0] * n
        if n and rng.random() < 0.5:  # a zero column
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        red, pivots = rref(Mat(QQ, np.array(rows, dtype=object).reshape(m, n)))
        want, want_pivots = _gauss_jordan_qq(rows, n)
        assert red.shape == (m, n)
        assert red.a.tolist() == want and pivots == want_pivots
        assert _canonical_qq(red.a)


def _draw_qq(rng, m, n):
    """An m x n list of rationals: Fractions with mixed denominators or
    integers (sometimes all integral), ints of size 2**70, zero rows and
    columns, and dependent rows now and then."""
    size = rng.choice([2, 9, 2**31, 2**70])
    dens = rng.choice([(1,), (1, 1, 1, 2), (1, 2, 3, 5, 12, 2**20)])
    rows = [[Fraction(rng.randint(-size, size), rng.choice(dens)) for _ in range(n)]
            for _ in range(m)]
    if m > 1 and rng.random() < 0.3:  # a dependent row
        i, j = rng.sample(range(m), 2)
        rows[i] = [-2 * x for x in rows[j]]
    if m and n and rng.random() < 0.2:
        rows[rng.randrange(m)][rng.randrange(n)] = rng.choice([2**70, -(2**70)])
    if m and rng.random() < 0.3:  # a zero row
        rows[rng.randrange(m)] = [Fraction(0)] * n
    if n and rng.random() < 0.3:  # a zero column
        j = rng.randrange(n)
        for row in rows:
            row[j] = Fraction(0)
    return [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row]
            for row in rows]


def _qq(rows, m, n):
    return Mat(QQ, np.array(rows, dtype=object).reshape(m, n))


def test_qq_eliminations_and_products_match_references():
    """On 2,000 random rational matrices the eliminations read off the
    fraction-free rows (rref, _kernel, solve with and without an rng,
    pivots, rank) and _dot agree with the earlier dense RREF and product;
    Mat holds an int exactly where an entry is integral."""
    rng = Random(0x0DD)
    dims = [0, 1, 1, 2, 2, 3, 3, 4, 5, 6]
    for t in range(2000):
        m, n, k = rng.choice(dims), rng.choice(dims), rng.choice(dims)
        rows = _draw_qq(rng, m, n)
        a = _qq(rows, m, n)
        flat = [Fraction(x) for row in rows for x in row]
        assert a.a.reshape(-1).tolist() == flat
        assert [type(x) is int for x in a.a.reshape(-1).tolist()] == \
            [x.denominator == 1 for x in flat]
        want, want_piv = rref_qq_reference(a.a)
        red, piv = rref(a)
        assert red.a.tolist() == want.tolist() and piv == tuple(want_piv)
        assert pivots(a) == piv and rank(a) == len(piv)
        K, free = _kernel(a)
        want_K, want_free = null_basis_reference(Mat._of(QQ, want), piv, n)
        assert free == want_free and K.a.tolist() == want_K.a.tolist()
        c = _qq(_draw_qq(rng, n, k), n, k)
        prod = _dot(QQ, a.a, c.a)
        assert prod.tolist() == dot_qq_reference(a.a, c.a).tolist()
        b = a @ c if rng.random() < 0.5 else _qq(_draw_qq(rng, m, k), m, k)
        for seed in (None, t):
            got = solve(a, b, None if seed is None else Random(seed))
            ref = solve_reference(a, b, None if seed is None else Random(seed))
            assert (got is None) == (ref is None)
            assert got is None or (got.a.tolist() == ref.a.tolist() and _canonical_qq(got.a))
        assert all(map(_canonical_qq, (red.a, K.a, prod)))


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


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=str)
def test_solve_with_rng_adds_a_random_null_vector(field):
    """Given an rng, solve returns the zero-free solution plus the canonical
    kernel basis times random_mat's draw, and takes exactly those draws."""
    rng = Random(0x501E)
    for _ in range(25):
        a = random_mat(rng, field, rng.randint(0, 4), rng.randint(0, 5))
        b = a @ random_mat(rng, field, a.ncols, rng.randint(0, 2))
        seed = rng.getrandbits(32)
        mine, ref = Random(seed), Random(seed)
        got = solve(a, b, mine)
        K, want = kernel_basis(a), solve(a, b)
        if K.ncols and b.ncols:
            want = want + K @ random_mat(ref, field, K.ncols, b.ncols)
        assert got == want and a @ got == b
        assert mine.getstate() == ref.getstate()


def test_solve_none_when_inconsistent():
    a = _mat(QQ, [[1, 0], [1, 0]])
    b = _mat(QQ, [[1], [2]])
    assert solve(a, b) is None


@pytest.mark.parametrize("p", [2, 3])
def test_packed_kernel_and_solve_match_dense_reference(p):
    """_kernel and solve read only some columns of the packed elimination;
    they match the whole dense RREF's kernel and solution on 1,000 matrices
    per field of 1-89 rows (past the 62-row packing boundary) and mixed
    densities, with consistent and inconsistent right-hand sides of width
    0-3, and rng lifts that take the same draws."""
    field, rng = GF(p), Random(0x9AC + p)
    draw = np.random.default_rng(0x9AC + p)
    tall = inconsistent = lifted = 0
    for t in range(1000):
        r, c = rng.randint(1, 89), rng.randint(1, 30)
        density = rng.choice((0.1, 0.4, 1.0))
        a = draw.integers(1, p, (r, c)) * (draw.random((r, c)) < density)
        m = Mat(field, a)
        K, free = _kernel(m)
        assert (K, free) == null_basis_reference(*dense_rref_reference(m), c)
        assert not K.a.flags.writeable and (m @ K).is_zero()
        k = rng.randint(0, 3)
        b = m @ random_mat(rng, field, c, k) if t % 3 else random_mat(rng, field, r, k)
        seed = rng.getrandbits(32) if t % 2 else None
        mine, ref = (Random(seed), Random(seed)) if seed is not None else (None, None)
        x, want = solve(m, b, mine), solve_reference(m, b, ref)
        assert (x is None) == (want is None) and (x is None or x == want)
        if mine is not None:
            assert mine.getstate() == ref.getstate()
        if x is not None:
            assert m @ x == b and not x.a.flags.writeable
        tall += r > 62
        inconsistent += x is None
        lifted += mine is not None and x is not None and bool(k and free)
    assert tall > 200 and inconsistent > 100 and lifted > 50


def _bound_cases(rng, p):
    """(m, n, array) inputs around _ROW_CELLS: every factorization of the bound
    and its neighbours, with and without zero rows and columns, full-rank
    ones, empty shapes, 62-, 63- and 130-row tall ones, a 3 x 140 wide one
    and a 48 x 140 one, the largest size lemma-fp reaches."""
    bound = linalg._ROW_CELLS
    shapes = [(m, cells // m) for cells in (bound - 1, bound, bound + 1)
              for m in range(1, cells + 1) if cells % m == 0]
    shapes += [(0, 0), (0, 5), (4, 0), (62, 3), (63, 3), (130, 2), (62, 1), (3, 140),
               (48, 140)]
    out = []
    for m, n in shapes:
        for variant in range(3):
            a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                         dtype=np.int64).reshape(m, n)
            if variant == 1 and m and n:  # zero rows and columns
                a[rng.randrange(m)] = 0
                a[:, rng.randrange(n)] = 0
            if variant == 2:  # full rank: a unit-diagonal triangle under noise
                for i in range(min(m, n)):
                    a[i, :i] = 0
                    a[i, i] = 1
            out.append((m, n, a))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, BIG_PRIME])
def test_row_and_packed_eliminations_agree_on_both_sides_of_the_bound(p, monkeypatch):
    """On inputs at, just under and just over _ROW_CELLS and up to 48 x 140,
    the row elimination (bound raised past every input) and, over F2 and F3,
    the packed one (bound 0) give pivots, rank, rref, _kernel and solve (with
    and without an rng, which ends in the same state) equal to the dense
    numpy references, and over F2 and F3 pivots equal to the packed kernel's
    own, called directly.  Over every larger prime both bound settings run
    the row elimination."""
    field, rng = GF(p), Random(0xB0 + p)
    regimes = (10**9, 0)
    real, row_runs = linalg._eliminate_rows, []

    def counted(rows, ncols, q):
        row_runs.append(ncols)
        return real(rows, ncols, q)

    monkeypatch.setattr(linalg, "_eliminate_rows", counted)
    for m, n, a in _bound_cases(rng, p):
        mat = Mat(field, a)
        want, want_piv = dense_rref_reference(mat)
        want_K = null_basis_reference(want, want_piv, n)
        k = rng.randint(0, 3)
        b = mat @ random_mat(rng, field, n, k) if rng.random() < 0.7 else random_mat(rng, field, m, k)
        seed = rng.getrandbits(32)
        ref_rng = Random(seed)
        want_x, want_rng_x = solve_reference(mat, b), solve_reference(mat, b, ref_rng)
        if p in linalg._PACKED:
            assert tuple(linalg._PACKED[p](a)[2]) == want_piv
        for bound in regimes:
            monkeypatch.setattr(linalg, "_ROW_CELLS", bound)
            row_runs.clear()
            assert pivots(mat) == want_piv and rank(mat) == len(want_piv)
            assert rref(mat) == (want, want_piv)
            K, free = _kernel(mat)
            assert (K, free) == want_K
            _assert_canonical(K)
            mine = Random(seed)
            x, x_rng = solve(mat, b), solve(mat, b, mine)
            assert x == want_x and x_rng == want_rng_x
            assert mine.getstate() == ref_rng.getstate()
            for r in (x, x_rng):
                if r is not None:
                    _assert_canonical(r)
            if p not in linalg._PACKED:  # pivots, rank, rref, _kernel and both solves
                assert len(row_runs) == 6


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=str)
def test_kernel_is_the_identity_on_its_free_rows(field):
    rng = Random(0xF4EE)
    for _ in range(25):
        a = random_mat(rng, field, rng.randint(0, 5), rng.randint(0, 6))
        K, free = _kernel(a)
        assert K == kernel_basis(a) and (a @ K).is_zero()
        assert K.take_rows(free) == Mat.identity(field, K.ncols)
        assert sorted(set(free) | set(rref(a)[1])) == list(range(a.ncols))
        v = K @ random_mat(rng, field, K.ncols, 2)  # null vectors: coordinates v[free]
        assert K @ v.take_rows(free) == v


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=str)
def test_block_matrix_matches_stacked_parts(field):
    """Missing parts are zero blocks, zero-size blocks take no room, and the
    result equals the vstack of the hstacked block rows."""
    rng = Random(0xB10C)
    for _ in range(25):
        rows = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        cols = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        parts = {(r, c): random_mat(rng, field, h, w).scale(Fraction(1, 2) if field == QQ else 1)
                 for r, h in enumerate(rows) for c, w in enumerate(cols) if rng.random() < 0.6}
        got = block_matrix(field, rows, cols, parts)
        want = vstack([hstack([parts.get((r, c), Mat.zeros(field, h, w)) for c, w in enumerate(cols)])
                       for r, h in enumerate(rows)])
        assert got == want
        _assert_canonical(got)
    with pytest.raises(ValueError, match="shape"):
        block_matrix(field, [1], [2], {(0, 0): Mat.zeros(field, 2, 1)})


# -- quotient coordinates -----------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_quotient_coords_laws(field):
    """Quotient coordinates by span(sub) are read off K, free = _kernel(sub.T):
    K.T kills exactly the span, and the identity's free columns are a section."""
    sub = _mat(field, [[1, 0], [0, 1], [1, 1], [0, 0]])
    K, free = _kernel(sub.T)
    proj, section = K.T, Mat.identity(field, 4).take_cols(free)
    assert proj.nrows == 2  # 4 ambient - rank 2
    assert (proj @ sub).is_zero()
    assert proj @ section == Mat.identity(field, 2)


def _check_subquotient(d_out, d_in, dim):
    Z, include, project = subquotient(d_out, d_in)
    field = d_out.field
    assert include.shape == (d_out.ncols, dim)
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


# sha256 over 40 seeded inputs (Random(0x5B0)) of the keys of Z, include,
# project @ Z, project @ include and project on random cocycles, recorded
# while project was still computed from a solved left inverse of Z.  project
# is fixed only on cocycles, so these values must not move.
SUBQUOTIENT_DIGESTS = {
    "f2": "0cb76778d418b58a6c811dd4e1441fad6a45ffea327cd600b568199b5e518eae",
    "f3": "a13a05111fd804e10ddb841d297b97aca595e9affca1e2345374cac0538bf45e",
    "f5": "6972abf68c5201317835c3113e5381ce50b8aab94e68b73ec54defd94c486db4",
    "q": "abcd73d253f4f49dec22499d937a6a2fb2db7acdfbfea5b0a6bf575083327e85",
}


@pytest.mark.parametrize("name", sorted(SUBQUOTIENT_DIGESTS))
def test_subquotient_on_cocycles_is_pinned(name):
    field = field_from_name(name)
    rng = Random(0x5B0)
    h = hashlib.sha256()
    for _ in range(40):
        m, k = rng.randint(0, 5), rng.randint(0, 6)
        d_out = random_mat(rng, field, m, k)
        kb = kernel_basis(d_out)
        d_in = kb @ random_mat(rng, field, kb.ncols, rng.randint(0, 4))
        Z, include, project = subquotient(d_out, d_in)
        free = _kernel(d_out)[1]  # cocycle coordinates, then their quotient
        assert project @ Z == _kernel(d_in.take_rows(free).T)[0].T
        cocycles = Z @ random_mat(rng, field, Z.ncols, 3)
        for r in (Z, include, project @ Z, project @ include, project @ cocycles):
            h.update(repr(r.key()).encode())
    assert h.hexdigest() == SUBQUOTIENT_DIGESTS[name]


@pytest.mark.parametrize("field", FIELDS)
def test_subquotient_without_incoming_columns(field):
    d_out = _mat(field, [[1, 1, 0]])
    Z, _, _ = subquotient(d_out, Mat.zeros(field, 3, 0))
    assert Z.ncols == 2
    _check_subquotient(d_out, Mat.zeros(field, 3, 0), 2)


def test_quotient_of_full_space_is_zero():
    K, free = _kernel(Mat.identity(QQ, 3).T)
    assert free == ()
    assert K.T.shape == (0, 3)


# -- canonical form -----------------------------------------------------------


def _assert_canonical(r: Mat):
    """r holds exactly what Mat(field, r.a) holds (dtype, scalars and their
    types), read-only: a result that skipped reduction needed none."""
    c = Mat(r.field, r.a)
    assert r.a.dtype == c.a.dtype and r.shape == c.shape
    got, want = r.a.reshape(-1).tolist(), c.a.reshape(-1).tolist()
    assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
    assert not r.a.flags.writeable


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=str)
def test_results_are_canonical_and_read_only(field):
    rng = Random(29)
    for _ in range(15):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = random_mat(rng, field, m, k)
        b = random_mat(rng, field, k, n)
        if field == QQ:  # mixed integral and fractional entries
            a = a.scale(Fraction(1, 2))
            b = b.scale(Fraction(2, 3))
        kb = kernel_basis(a)
        d_in = kb @ random_mat(rng, field, kb.ncols, rng.randint(0, 3))
        Z, include, project = subquotient(a, d_in)
        results = [a @ b, a.T, a.col(k - 1), a.take_rows([m - 1, 0]),
                   a.take_cols(range(k)), hstack([a, a @ b]), vstack([a, b.T]),
                   block_diag([a, b]), rref(a)[0], rref(b.T)[0], kb, _kernel(a.T)[0].T,
                   solve(a, a @ b), solve(a, a @ b, rng),
                   Z, include, project, Mat.zeros(field, m, n), Mat.identity(field, k)]
        for r in results:
            _assert_canonical(r)
            assert r.is_zero() == (not r.a.any())
        # products with an empty dimension: (m x 0)(0 x n), (0 x k)(k x n), (m x k)(k x 0)
        for x, y in [(Mat.zeros(field, m, 0), Mat.zeros(field, 0, n)),
                     (Mat.zeros(field, 0, k), b), (a, Mat.zeros(field, k, 0))]:
            r = x @ y
            _assert_canonical(r)
            assert r.shape == (x.nrows, y.ncols) and r.is_zero() and not r.a.any()
    algebra = random_bound_quiver_algebra(rng, field)
    for module in (free_module(algebra, 2), random_module(rng, algebra)):
        vecs = random_mat(rng, field, module.dim, 3)
        _assert_canonical(module.act_all(vecs))
        _assert_canonical(module.act(algebra.dim - 1, vecs))


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=str)
def test_mats_refuse_every_write(field):
    """Whatever made a Mat, neither attribute can be rebound and its array
    cannot be written in place."""
    rng = Random(31)
    a, b = random_mat(rng, field, 3, 4), random_mat(rng, field, 4, 2)
    made = [Mat(field, [[1, 2], [0, 3]]), Mat._of(field, field.zeros((2, 3))), a @ b, a.T,
            a.take_cols([2, 0])]
    for r in made:
        held = r.a
        with pytest.raises(AttributeError):
            r.a = field.zeros(r.shape)
        with pytest.raises(AttributeError):
            r.field = GF(7)
        with pytest.raises(ValueError):
            r.a[0, 0] = 1
        with pytest.raises(ValueError):
            r.a[...] = 0
        assert r.a is held and r.field is field


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=str)
def test_mats_refuse_deletion(field):
    """Neither attribute can be deleted, and a refused deletion leaves the
    Mat as it was."""
    m = Mat(field, [[1, 2], [0, 3]])
    held = m.a
    for name in ("a", "field"):
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m.a is held and m.field is field and not m.is_zero()
    assert m @ Mat.identity(field, 2) == m


@pytest.mark.parametrize("field", [F2, F3, GF(5), GF(33554393), QQ], ids=str)
def test_random_mat_draws_as_randrange_does(field):
    """Same entries, and the same generator state after, as one randrange(p)
    (randint(-2, 2) over Q) per entry, row by row."""
    for seed in range(6):
        rng, ref = Random(seed), Random(seed)
        for r, c in [(4, 7), (0, 3), (3, 0), (1, 1), (9, 2)]:
            got = random_mat(rng, field, r, c)
            if field == QQ:
                want = [[ref.randint(-2, 2) for _ in range(c)] for _ in range(r)]
            else:
                want = [[ref.randrange(field.p) for _ in range(c)] for _ in range(r)]
            assert got.shape == (r, c) and got.a.tolist() == want
            _assert_canonical(got)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("field", [F2, GF(5), QQ], ids=str)
def test_keys_are_equal_exactly_for_equal_matrices(field):
    rng = Random(17)
    mats = [random_mat(rng, field, rng.randint(0, 3), rng.randint(0, 3)) for _ in range(40)]
    mats += [Mat.zeros(field, 2, 3), Mat.zeros(field, 3, 2), Mat.zeros(F3, 2, 3)]
    for a in mats:
        for b in mats:
            assert (a.key() == b.key()) == (a == b)


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
