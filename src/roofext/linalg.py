"""Exact linear algebra over the rationals and prime fields.

Everything downstream (module theory, complexes, Ext groups, roofs) reduces
to the handful of primitives in this file: reduced row echelon form, kernel
bases and linear solves.  Canonical coordinates on a quotient space need
no primitive of their own: the projection onto ambient/span(S) is K.T for
K, free = _kernel(S.T), and the identity's free columns are its section.

Coordinates in a canonical basis are read, not solved for: a kernel basis
from _kernel is the identity on its free rows, so a kernel vector v has
coordinates v[free], checked by one product where membership is unknown.
Block matrices (differentials, linear systems) are placed block by block
with block_matrix, not summed from injection and projection products.  All
arithmetic is exact: rationals are held in object arrays in one canonical
form, `int` when integral and `fractions.Fraction` otherwise; prime fields
are int64 arrays reduced mod p.

Rational products and eliminations start with one type test over all the
entries of their operands: integral data (all the bundled fixtures hold) is
used as it is, and only data with a Fraction has its denominators cleared.
A product then multiplies integer matrices (in int64 when a bound on the
sums allows it, as Python ints otherwise) and divides each output entry
once by the product of the operands' common denominators.  Rational
elimination is fraction-free Gauss-Jordan (Bareiss): rows are scaled to
integers and every update divides exactly by the previous pivot, so
entries stay minors of the input instead of blowing up as naive Fraction
quotients would.  The reduced form is those rows divided by the last
pivot, and that division is made only at the columns a caller reads (see
_reduced); pivots and rank make none.

Elimination has two regimes, for two fixed costs.  A matrix over F2 or F3
of more than _ROW_CELLS cells is eliminated on column-packed ints (F2: one
int per column, bit i for row i; F3: two, the rows holding 1 and those
holding 2), without row swaps, which updates a whole column per int
operation; `pivots` (so `rank`) there reads the pivot columns off the
elimination, with no unpacking, and kernel bases and solutions unpack only
the columns they read (see _reduced).  Every other matrix (nine in ten of
those a lemma check reduces, and every one over Q or a larger prime) is
eliminated on the Python lists of its rows, and its pivots, RREF rows,
kernel basis and solutions are read off those lists into one array each:
for a small matrix a numpy call, or packing and unpacking, costs more than
the arithmetic, and only F2 and F3 have a packed form.
Every Mat holds a read-only array in canonical form: `Mat(field, data)`
reduces it (over F_p exactly for ints of any size, refusing an entry that
is not an integer, and over Q one that is not a rational number, such as
a float or a string, with SchemaError), and results that are canonical by
construction skip that through `Mat._of`; a kernel basis is one of them,
as _reduced negates in the field.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction
from itertools import accumulate, chain
from random import Random
from typing import Callable

import numpy as np

from .errors import InvariantError, SchemaError

__all__ = [
    "Field",
    "RationalField",
    "PrimeField",
    "QQ",
    "GF",
    "field_from_name",
    "Mat",
    "rref",
    "rank",
    "pivots",
    "kernel_basis",
    "solve",
    "subquotient",
    "IncrementalSpan",
    "random_mat",
]

# Largest prime modulus we accept.  A product of two reduced entries is then
# below 2**50, so int64 holds a sum of 8192 of them; _dot splits longer inner
# dimensions into chunks.
_MAX_PRIME = 1 << 25

# The rational scalars JSON may spell as strings: "[+-]a" or "[+-]a/b" in
# decimal digits, and over F_p only "[+-]a".  Fraction() alone would also take
# exponents ("1e99999999"), which cost time and memory exponential in their
# length, and int() spaces, underscores and non-ASCII digits.
_QQ_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class Field:
    """Common interface for the two supported scalar fields."""

    name: str
    char: int

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zeros(self, shape: tuple[int, int]) -> np.ndarray:
        raise NotImplementedError

    def parse(self, s):
        raise NotImplementedError

    def fmt(self, x) -> str | int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    name = "q"
    char = 0

    def reduce(self, arr):
        out = np.array(arr, dtype=object)
        flat = out.reshape(-1).tolist()
        if not _all_int(flat):
            for x in flat:
                if not isinstance(x, numbers.Rational):
                    raise SchemaError(f"{x!r:.40} is not a rational number (parse strings first)")
            out.reshape(-1)[:] = [x if type(x) is int else _canonical(x) for x in flat]
        return out

    def zeros(self, shape):
        out = np.empty(shape, dtype=object)
        out[...] = 0
        return out

    def parse(self, s):
        if type(s) is int:
            return s
        match = _QQ_SCALAR.fullmatch(s) if isinstance(s, str) else None
        if match is None:
            raise TypeError(f"{s!r:.40} is not an integer or an 'a/b' string")
        if match[2] is None:
            return int(match[1])
        num, den = int(match[1]), int(match[2])
        if den == 0:
            raise ValueError(f"{s!r:.40} has a zero denominator")
        return _canonical(Fraction(num, den))

    def fmt(self, x):
        if type(x) is int:
            return str(x)
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")


def _canonical(x) -> int | Fraction:
    """The canonical rational scalar equal to x: int if integral, else Fraction."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    return int(f.numerator) if f.denominator == 1 else f


def _all_int(entries) -> bool:
    """Whether every entry is an int, by one type test over all of them."""
    return set(map(type, entries)) <= {int}


class PrimeField(Field):
    char: int

    def __init__(self, p: int):
        # the bound first: trial division of a huge modulus would not finish
        if p > _MAX_PRIME:
            raise SchemaError(f"modulus {p} exceeds supported bound {_MAX_PRIME}")
        if not _is_prime(p):
            raise SchemaError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.name = f"f{p}"
        # longest inner dimension whose products of reduced entries sum within int64
        self.dot_chunk = (2**63 - 1) // (p - 1) ** 2

    def reduce(self, arr):
        return np.asarray(arr, dtype=np.int64) % self.p

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def parse(self, s):
        if type(s) is int:
            return s % self.p
        match = _QQ_SCALAR.fullmatch(s) if isinstance(s, str) else None
        if match is None or match[2] is not None:
            raise TypeError(f"{s!r:.40} is not an integer or an integer string")
        return int(match[1]) % self.p

    def fmt(self, x):
        return int(x)

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d = 17
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _residues(arr: np.ndarray, p: int) -> np.ndarray:
    """The int64 array of arr's entries mod p, exact for integers of any size;
    any other entry (a float or a non-integral Fraction) raises SchemaError
    instead of being truncated."""
    out = []
    for x in arr.reshape(-1).tolist():
        if type(x) is not int:
            if not (isinstance(x, numbers.Rational) and x.denominator == 1):
                raise SchemaError(f"{x!r:.40} is not an integer, so it has no residue mod {p}")
            x = int(x)
        out.append(x % p)
    return np.array(out, dtype=np.int64).reshape(arr.shape)


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The field with p elements (p prime)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_name(name: str) -> Field:
    """Resolve 'q', 'f2', 'f3', or 'fp:<p>' to a field object."""
    s = name.strip().lower()
    if s == "q":
        return QQ
    digits = s[3:] if s.startswith("fp:") else s[1:] if s.startswith("f") else ""
    if digits.isdecimal():
        try:
            p = int(digits)
        except ValueError:  # more digits than int() converts
            raise SchemaError(f"modulus in field name {name[:16]!r}... is too large") from None
        return GF(p)
    raise SchemaError(f"unknown field name {name!r} (expected q, f2, f3, or fp:<p>)")


class Mat:
    """Immutable exact matrix over a fixed field."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, data):
        if isinstance(field, RationalField):
            arr = np.asarray(data, dtype=object)
        else:
            arr = np.asarray(data)
            if arr.dtype.kind not in "bi":  # bool and signed ints cast to int64 exactly
                arr = _residues(arr, field.p)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        a = field.reduce(arr)
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)

    @classmethod
    def _of(cls, field: Field, a: np.ndarray) -> "Mat":
        """Wrap a 2-d array that is already in the field's canonical form and
        that nothing else holds; it is made read-only, not copied or reduced."""
        a.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "a", a)
        return out

    def __setattr__(self, *_):
        raise AttributeError("Mat is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def zeros(field: Field, m: int, n: int) -> "Mat":
        return Mat._of(field, field.zeros((m, n)))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z = field.zeros((n, n))
        for i in range(n):
            z[i, i] = 1
        return Mat._of(field, z)

    # -- shape ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "Mat":
        return Mat._of(self.field, self.a.T.copy())

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: "Mat"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        return Mat._of(self.field, _dot(self.field, self.a, other.a))

    def __add__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        return Mat(self.field, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        return Mat(self.field, self.a - other.a)

    def __neg__(self) -> "Mat":
        return Mat(self.field, -self.a)

    def scale(self, c) -> "Mat":
        if isinstance(self.field, PrimeField) and isinstance(c, numbers.Integral):
            c = int(c) % self.field.p  # any integer scales exactly; int64 holds the product
        return Mat(self.field, self.a * c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.a.size == 0:
            return True
        return bool((self.a == other.a).all())

    def __hash__(self):
        return hash(self.key())

    # -- access -----------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.a[i, j]

    def col(self, j: int) -> "Mat":
        return Mat._of(self.field, self.a[:, j : j + 1].copy())

    def take_cols(self, idx) -> "Mat":
        return Mat._of(self.field, self.a[:, list(idx)])

    def take_rows(self, idx) -> "Mat":
        return Mat._of(self.field, self.a[list(idx), :])

    def to_lists(self) -> list[list]:
        return [[self.field.fmt(x) for x in row] for row in self.a]

    def key(self) -> tuple:
        if isinstance(self.field, PrimeField):
            return (self.field.name, self.shape, self.a.astype(np.int64, copy=False).tobytes())
        return (self.field.name, self.shape, tuple(map(str, self.a.reshape(-1))))

    def __repr__(self):
        return f"Mat({self.field.name}, {self.nrows}x{self.ncols})"


def _dot(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[1] == 0 or A.shape[0] == 0 or B.shape[1] == 0:
        return field.zeros((A.shape[0], B.shape[1]))
    if isinstance(field, PrimeField):
        p, step = field.p, field.dot_chunk
        if A.shape[1] <= step:
            return A.dot(B) % p
        return sum(A[:, k : k + step].dot(B[k : k + step]) % p
                   for k in range(0, A.shape[1], step)) % p
    na, nb, d = A, B, 1
    fa, fb = A.reshape(-1).tolist(), B.reshape(-1).tolist()
    if not _all_int(fa + fb):
        (da, na), (db, nb) = _clear_denominators(A), _clear_denominators(B)
        d, fa, fb = da * db, na.reshape(-1).tolist(), nb.reshape(-1).tolist()
    ma, mb = max(map(abs, fa)), max(map(abs, fb))
    if ma == 0 or mb == 0:
        return field.zeros((A.shape[0], B.shape[1]))
    if ma * mb * A.shape[1] <= 2**63 - 1:  # every partial sum fits in int64
        prod = na.astype(np.int64).dot(nb.astype(np.int64)).astype(object)
    else:
        prod = na.dot(nb)
    if d == 1:
        return prod
    out = np.empty(prod.shape, dtype=object)
    out.reshape(-1)[:] = [n // d if n % d == 0 else Fraction(n, d)
                          for n in prod.reshape(-1).tolist()]
    return out


def _clear_denominators(a: np.ndarray) -> tuple[int, np.ndarray]:
    """(d, n): d the lcm of the denominators of the rational array a, and
    n = d * a as an object array of ints."""
    flat = a.reshape(-1).tolist()
    d = math.lcm(*(x.denominator for x in flat if type(x) is not int))
    if d == 1:
        return 1, a
    out = np.empty(a.shape, dtype=object)
    out.reshape(-1)[:] = [x.numerator * (d // x.denominator) for x in flat]
    return d, out


def hstack(mats: list[Mat]) -> Mat:
    return Mat._of(mats[0].field, np.concatenate([m.a for m in mats], axis=1))


def vstack(mats: list[Mat]) -> Mat:
    return Mat._of(mats[0].field, np.concatenate([m.a for m in mats]))


def block_matrix(field: Field, rows: list[int], cols: list[int],
                 parts: dict[tuple[int, int], Mat]) -> Mat:
    """Block rows of heights rows, block columns of widths cols, parts[r, c]
    in block (r, c) and zeros in every block parts leaves out."""
    ro, co = list(accumulate(rows, initial=0)), list(accumulate(cols, initial=0))
    out = field.zeros((ro[-1], co[-1]))
    for (r, c), m in parts.items():
        if m.shape != (rows[r], cols[c]):
            raise ValueError(f"block ({r}, {c}) has shape {m.shape}, not {(rows[r], cols[c])}")
        out[ro[r] : ro[r + 1], co[c] : co[c + 1]] = m.a
    return Mat._of(field, out)


def block_diag(mats: list[Mat]) -> Mat:
    return block_matrix(mats[0].field, [m.nrows for m in mats], [m.ncols for m in mats],
                        {(t, t): m for t, m in enumerate(mats)})


# -- elimination ----------------------------------------------------------


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    piv, take = _reduced(m)
    r = m.field.zeros(m.shape)
    r[: len(piv)] = take(range(m.ncols))
    return Mat._of(m.field, r), piv


def _reduced(m: Mat) -> tuple[tuple[int, ...], Callable]:
    """(piv, take): the pivot columns of m's RREF, and take(cols, neg=False,
    rows=None), the array of its first len(piv) rows at cols, negated if neg.
    With rows=n the array has n rows instead: reduced row t is row piv[t],
    and every other row j is the unit vector e_j read at cols, so the kernel
    basis of the first n columns is take(free, neg=True, rows=n) and a
    solution read off [m | b] is take(b's columns, rows=n).  Every
    elimination that reads reduced rows (rref, _kernel, solve) runs here.

    Two regimes, for two fixed costs.  Above _ROW_CELLS cells, F2 and F3 run
    the packed elimination, whose column updates are one int operation per
    pivot however many rows there are, and take unpacks only the columns it
    reads; over F3 negation swaps each column's P and N ints (-1 = 2), so a
    negated read is as cheap as a plain one.  Every other matrix is
    eliminated on Python lists, by _eliminate_rows over F_p and
    _eliminate_qq over Q, and one take reads those lists into one array: it
    reads an F_p entry x as it is, or as -x % p, and a Q entry as x divided
    by the last pivot (by its negative for a negated read), at the columns
    it reads only.
    """
    field, p, n = m.field, m.field.char, m.ncols
    if p in _PACKED and m.a.size > _ROW_CELLS:
        packed, order, piv = _PACKED[p](m.a)

        def take(cols, neg=False, rows=None):
            cols = list(cols)
            if p == 2:
                out = _unpack([packed[j] for j in cols], order, m.nrows).astype(np.int64)
            else:
                ones, twos = [packed[j] for j in cols], [packed[n + j] for j in cols]
                bits = _unpack(twos + ones if neg else ones + twos, order, m.nrows)
                out = (bits[:, : len(cols)] | bits[:, len(cols) :] << 1).astype(np.int64)
            if rows is None:
                return out
            placed = field.zeros((rows, len(cols)))
            placed[piv] = out
            pivset = set(piv)
            units = [t for t, j in enumerate(cols) if j < rows and j not in pivset]
            if units:
                placed[[cols[t] for t in units], units] = 1
            return placed

        return tuple(piv), take
    if p:
        red, dtype = m.a.tolist(), np.int64
        piv = _eliminate_rows(red, n, p)

        def entries(row, cols, neg):
            return [-row[c] % p for c in cols] if neg else [row[c] for c in cols]
    else:
        red, piv, prev = _eliminate_qq(m.a)
        dtype = object

        def entries(row, cols, neg):
            d = -prev if neg else prev
            return [x // d if x % d == 0 else Fraction(x, d) for x in map(row.__getitem__, cols)]
    at = dict(zip(piv, red))

    def take(cols, neg=False, rows=None):
        cols = list(cols)
        read = red[: len(piv)] if rows is None else [at.get(j) for j in range(rows)]
        flat = []  # numpy reads one flat list faster than nested ones
        for j, row in enumerate(read):
            flat += [int(c == j) for c in cols] if row is None else entries(row, cols, neg)
        return np.array(flat, dtype=dtype).reshape(len(read), len(cols))

    return tuple(piv), take


# F2 and F3 matrices of more than this many cells are eliminated on packed
# ints, and every other matrix on Python lists (see _reduced).
_ROW_CELLS = 128


def _eliminate_rows(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan over F_p on a list of rows, in place; returns the pivot
    columns, and the first len(piv) rows are then the RREF's nonzero rows and
    the rest are zero.  A pivot row is zero left of its pivot, so an update
    reads only its nonzero entries to the right."""
    mrows, piv = len(rows), []
    for c in range(ncols):
        r = len(piv)
        if r == mrows:
            break
        for sel in range(r, mrows):
            if rows[sel][c]:
                break
        else:
            continue
        top = rows[sel]
        if top[c] != 1:
            inv = pow(top[c], p - 2, p)
            top = [x * inv % p for x in top]
        rows[sel], rows[r] = rows[r], top
        nz = [(j, top[j]) for j in range(c + 1, ncols) if top[j]]
        for row in rows:
            f = row[c]
            if f and row is not top:
                row[c] = 0
                for j, x in nz:
                    row[j] = (row[j] - f * x) % p
        piv.append(c)
    return piv


# Row weights for packing up to 62 rows with one int64 product.
_WEIGHTS = 1 << np.arange(62, dtype=np.int64)


def _pack(bits: np.ndarray) -> list[int]:
    """Column j of the 0/1 m x k array as one int, bit i set for row i."""
    m = bits.shape[0]
    if m <= 62:
        return _WEIGHTS[:m].dot(bits).tolist()
    nb = (m + 7) // 8
    raw = np.packbits(bits, axis=0, bitorder="little").T.tobytes()
    return [int.from_bytes(raw[i : i + nb], "little") for i in range(0, len(raw), nb)]


def _unpack(cols: list[int], order: list[int], m: int) -> np.ndarray:
    """len(order) x len(cols) 0/1 array whose row t is bit order[t] of every
    column, for columns of m bits.  Large ones are uint8, to save memory."""
    if m <= 62:
        idx = np.array(order, dtype=np.int64)
        return (np.array(cols, dtype=np.int64) >> idx[:, None]) & 1
    nb = (m + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(nb, "little") for x in cols), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(cols), nb), axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, order].T)


def _eliminate_f2(a: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Gauss-Jordan over F2 on packed columns: rows are never swapped, and
    _unpack reads the pivot rows out in the returned order (the rest are zero)."""
    mrows, ncols = a.shape
    cols = _pack(a)
    used, piv, order = 0, [], []
    for c in range(ncols):
        col = cols[c]
        cand = col & ~used
        if not cand:
            continue
        rbit = cand & -cand
        others = col ^ rbit
        if others:  # earlier columns are zero in the pivot row
            for j in range(c + 1, ncols):
                if cols[j] & rbit:
                    cols[j] ^= others
        cols[c] = rbit
        used |= rbit
        piv.append(c)
        order.append(rbit.bit_length() - 1)
        if len(piv) == mrows:
            break
    return cols, order, piv


def _eliminate_f3(a: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Gauss-Jordan over F3 on packed columns, as _eliminate_f2: each column
    is two ints, P (rows holding 1) and N (rows holding 2), and the columns
    come back as all the P ints, then all the N ints."""
    mrows, ncols = a.shape
    packed = _pack(np.hstack((a == 1, a == 2)))
    P, N = packed[:ncols], packed[ncols:]
    used, piv, order = 0, [], []
    for c in range(ncols):
        p, q = P[c], N[c]
        cand = (p | q) & ~used
        if not cand:
            continue
        rbit = cand & -cand
        two = q & rbit  # the pivot row is scaled by 2: its bit swaps between P and N
        mp, mn = (p, q ^ rbit) if two else (p ^ rbit, q)  # other rows holding 1, 2
        if two or mp | mn:
            for j in range(c + 1, ncols):
                x, y = P[j], N[j]
                if not (x | y) & rbit:
                    continue
                if two:
                    x ^= rbit
                    y ^= rbit
                # subtract (top entry) x the pivot row: add (AP, AN) mod 3
                ap, an = (mn, mp) if x & rbit else (mp, mn)
                s, z = ap | an, ~(x | y)
                P[j] = (x & ~s) | (ap & z) | (y & an)
                N[j] = (y & ~s) | (an & z) | (x & ap)
        P[c], N[c] = rbit, 0
        used |= rbit
        piv.append(c)
        order.append(rbit.bit_length() - 1)
        if len(piv) == mrows:
            break
    return P + N, order, piv


_PACKED = {2: _eliminate_f2, 3: _eliminate_f3}


def _eliminate_qq(a: np.ndarray) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) on the rows of a, each scaled to
    integers: rows other than the pivot row become (pv * x - f * y) / prev,
    exactly.  Returns (rows, piv, prev): the first len(piv) rows, divided by
    the last pivot prev, are the RREF's nonzero rows; the rest are zero."""
    mrows, ncols = a.shape
    rows = a.tolist()
    if not _all_int(chain.from_iterable(rows)):
        rows = [_clear_denominators(row)[1].tolist() for row in a]

    piv: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == mrows:
            break
        sel = next((i for i in range(r, mrows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        top = rows[r]
        pv, top_sum = top[c], sum(top)
        for i in (*range(r), *range(r + 1, mrows)):
            row = rows[i]
            f = row[c]
            if f == 0 and pv == prev:  # the update would leave the row as it is
                continue
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
            # floor remainders all share prev's sign, so they vanish iff their sum does
            if pv * sum(row) - f * top_sum != prev * sum(rows[i]):
                raise InvariantError("fraction-free elimination lost exact divisibility")
        prev = pv
        piv.append(c)
        r += 1
    return rows, piv, prev


def pivots(m: Mat) -> tuple[int, ...]:
    """Pivot columns of m's RREF, with nothing read out: off the packed
    elimination for an F2 or F3 matrix of more than _ROW_CELLS cells, so with
    nothing unpacked, and otherwise off the elimination on rows over F_p and
    the fraction-free one over Q, with nothing divided."""
    p = m.field.char
    if p in _PACKED and m.a.size > _ROW_CELLS:
        return tuple(_PACKED[p](m.a)[2])
    if p:
        return tuple(_eliminate_rows(m.a.tolist(), m.ncols, p))
    return tuple(_eliminate_qq(m.a)[1])


def rank(m: Mat) -> int:
    return len(pivots(m))


def _kernel(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """(K, free): the columns of K are the canonical (RREF-derived) basis of
    the null space, and K is the identity on its free rows, the non-pivot
    columns of m.  So a vector v of the null space has coordinates v[free]."""
    return _null_basis(m.field, *_reduced(m), m.ncols)


def _null_basis(field: Field, piv: tuple[int, ...], take: Callable,
                n: int) -> tuple[Mat, tuple[int, ...]]:
    """_kernel's (K, free) for the first n columns of a reduction (piv, take)
    from _reduced: K's pivot rows are the negated RREF rows at the free columns."""
    pivots = set(piv)
    free = tuple(j for j in range(n) if j not in pivots)
    return Mat._of(field, take(free, neg=True, rows=n)), free


def kernel_basis(m: Mat) -> Mat:
    """Columns form the canonical (RREF-derived) basis of the null space."""
    return _kernel(m)[0]


def solve(m: Mat, b: Mat, rng: Random | None = None) -> Mat | None:
    """One exact solution of m @ x = b (free coordinates zero), or None.

    b may have several columns; None means at least one column is outside
    the column space.  An rng adds K @ random_mat(rng, ...) for m's kernel
    basis K, read off the first columns of the same reduction of [m | b],
    which is read only at b's columns and, with an rng, m's free ones.
    """
    if m.field != b.field or m.nrows != b.nrows:
        raise ValueError("incompatible system")
    piv, take = _reduced(hstack([m, b]))
    n = m.ncols
    if piv and piv[-1] >= n:
        return None
    sol = Mat._of(m.field, take(range(n, n + b.ncols), rows=n))
    if rng is not None and len(piv) < n and b.ncols:
        K, free = _null_basis(m.field, piv, take, n)
        sol = sol + K @ random_mat(rng, m.field, len(free), b.ncols)
    return sol


def subquotient(d_out: Mat, d_in: Mat) -> tuple[Mat, Mat, Mat]:
    """Canonical coordinates on ker(d_out) / im(d_in), for d_out @ d_in = 0.

    Returns (Z, include, project): Z is the canonical kernel basis of d_out,
    include maps class coordinates to representative cocycles, and project
    maps the ambient space to class coordinates, killing coboundaries, with
    project @ include = identity.  Cocycle coordinates are Z's free rows,
    read into class coordinates as quotient coordinates are (see the module
    docstring), so project is fixed only on cocycles.
    """
    Z, free = _kernel(d_out)
    inz = d_in.take_rows(free)
    if Z @ inz != d_in:
        raise InvariantError("coboundaries escaped the cocycles")
    K, classes = _kernel(inz.T)
    project = d_out.field.zeros((K.ncols, Z.nrows))
    project[:, list(free)] = K.a.T
    return Z, Z.take_cols(classes), Mat._of(d_out.field, project)


class IncrementalSpan:
    """Growing subspace with O(dim) membership tests.

    Holds an echelonized set of row vectors keyed by leading index.  No code
    in the package calls it; it stays public API, with add spanned by the
    bench tracer, until the greedy generator picker is deleted (ROADMAP
    item 2).
    """

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        p = self.field.char
        for lead in sorted(self.rows):
            c = v[lead]
            if c != 0:
                v = (v - c * self.rows[lead]) % p if p else v - c * self.rows[lead]
        return v

    def contains(self, v: np.ndarray) -> bool:
        w = self._reduce(np.array(v, copy=True))
        return not (w != 0).any()

    def add(self, v: np.ndarray) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        w = self._reduce(np.array(v, copy=True))
        nz = np.nonzero(w)[0]
        if nz.size == 0:
            return False
        lead = int(nz[0])
        c = w[lead]
        if isinstance(self.field, PrimeField):
            w = (w * self.field.inv(int(c))) % self.field.p
        else:
            w = self.field.reduce(np.array([x / Fraction(c) for x in w], dtype=object))
        self.rows[lead] = w
        return True


def _draw_offset(field: Field) -> int:
    """The draw that stands for 0: an entry is its draw minus this offset."""
    return 0 if isinstance(field, PrimeField) else 2


def _random_draws(rng: Random, field: Field, count: int) -> list[int]:
    """random_mat's raw draws, count of them: each in [0, bound) for bound p over
    F_p and 5 over Q, taking the draws rng.randrange(bound) would take."""
    bound = field.p if isinstance(field, PrimeField) else 5
    k, draw, out = bound.bit_length(), rng.getrandbits, []
    for _ in range(count):
        x = draw(k)
        while x >= bound:
            x = draw(k)
        out.append(x)
    return out


def _draws_array(field: Field, draws: list[int], r: int, c: int) -> np.ndarray:
    """The r x c matrix of raw draws, row by row, as a canonical array."""
    if isinstance(field, PrimeField):
        return np.array(draws, dtype=np.int64).reshape(r, c)
    return (np.array(draws, dtype=object) - _draw_offset(field)).reshape(r, c)


def random_mat(rng: Random, field: Field, r: int, c: int) -> Mat:
    """Random r x c matrix drawn row by row: uniform over F_p, in [-2, 2] over Q.
    Each entry takes the draws rng.randrange(p) (randint(-2, 2)) would take.
    It is _draws_array of _random_draws, so a sampler can take the raw draws,
    test them, and make an array only of those it keeps."""
    return Mat._of(field, _draws_array(field, _random_draws(rng, field, r * c), r, c))
