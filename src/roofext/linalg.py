"""Exact linear algebra over the rationals and prime fields.

Everything downstream (module theory, complexes, Ext groups, roofs) reduces
to the handful of primitives in this file: reduced row echelon form, kernel
bases, linear solves, and canonical coordinates on quotient spaces.  All
arithmetic is exact: rationals are `fractions.Fraction` held in object
arrays, prime fields are int64 arrays reduced mod p.

Rational elimination is fraction-free (Bareiss): rows are scaled to
integers and the forward pass divides by the previous pivot, so entries
stay minors of the input instead of blowing up as naive Fraction
quotients would.  Prime-field elimination is vectorized with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

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
    "kernel_basis",
    "solve",
    "left_inverse",
    "quotient_coords",
    "QuotientCoords",
    "subquotient",
    "IncrementalSpan",
    "random_mat",
]

# Largest prime modulus we accept.  A product of two reduced entries is then
# below 2**50, so int64 holds a sum of 8192 of them; _dot splits longer inner
# dimensions into chunks.
_MAX_PRIME = 1 << 25


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
        out = np.empty(arr.shape, dtype=object)
        flat = out.reshape(-1)
        src = np.asarray(arr, dtype=object).reshape(-1)
        for i, x in enumerate(src):
            flat[i] = x if isinstance(x, (int, Fraction)) else Fraction(x)
        return out

    def zeros(self, shape):
        out = np.empty(shape, dtype=object)
        out[...] = 0
        return out

    def parse(self, s):
        if isinstance(s, (bool, float)):
            raise TypeError(f"{s!r} is not an integer or an 'a/b' string")
        if isinstance(s, int):
            return Fraction(s)
        try:
            return Fraction(str(s))
        except ZeroDivisionError:
            raise ValueError(f"{s!r} has a zero denominator") from None

    def fmt(self, x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")


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
        if isinstance(s, (bool, float)):
            raise TypeError(f"{s!r} is not an integer")
        return int(s) % self.p

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
        arr = np.asarray(data, dtype=object if isinstance(field, RationalField) else np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        a = field.reduce(arr)
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)

    def __setattr__(self, *_):
        raise AttributeError("Mat is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def zeros(field: Field, m: int, n: int) -> "Mat":
        return Mat(field, field.zeros((m, n)))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z = field.zeros((n, n))
        for i in range(n):
            z[i, i] = 1
        return Mat(field, z)

    @staticmethod
    def column(field: Field, entries) -> "Mat":
        return Mat(field, np.asarray(list(entries), dtype=object).reshape(-1, 1))

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
        return Mat(self.field, self.a.T.copy())

    def is_zero(self) -> bool:
        if self.a.size == 0:
            return True
        return not (self.a != 0).any()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: "Mat"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        return Mat(self.field, _dot(self.field, self.a, other.a))

    def __add__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        return Mat(self.field, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._coerce(other)
        return Mat(self.field, self.a - other.a)

    def __neg__(self) -> "Mat":
        return Mat(self.field, -self.a)

    def scale(self, c) -> "Mat":
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
        return Mat(self.field, self.a[:, j : j + 1].copy())

    def take_cols(self, idx) -> "Mat":
        return Mat(self.field, self.a[:, list(idx)].copy())

    def take_rows(self, idx) -> "Mat":
        return Mat(self.field, self.a[list(idx), :].copy())

    def to_lists(self) -> list[list]:
        return [[self.field.fmt(x) for x in row] for row in self.a]

    def key(self) -> tuple:
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
    return field.reduce(A.dot(B))


def hstack(mats: list[Mat]) -> Mat:
    field = mats[0].field
    return Mat(field, np.hstack([m.a for m in mats]))


def vstack(mats: list[Mat]) -> Mat:
    field = mats[0].field
    return Mat(field, np.vstack([m.a for m in mats]))


def block_diag(mats: list[Mat]) -> Mat:
    field = mats[0].field
    m = sum(x.nrows for x in mats)
    n = sum(x.ncols for x in mats)
    out = field.zeros((m, n))
    i = j = 0
    for x in mats:
        out[i : i + x.nrows, j : j + x.ncols] = x.a
        i += x.nrows
        j += x.ncols
    return Mat(field, out)


# -- elimination ----------------------------------------------------------


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    if isinstance(m.field, PrimeField):
        r, piv = _rref_fp(m.a.copy(), m.field.p)
    else:
        r, piv = _rref_qq(m.a)
    return Mat(m.field, r), tuple(piv)


def _rref_fp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    mrows, ncols = a.shape
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        if r == mrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        piv.append(c)
        r += 1
    return a, piv


def _rref_qq(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    mrows, ncols = a.shape
    rows: list[list[int]] = []
    for i in range(mrows):
        fr = [Fraction(x) for x in a[i]]
        scale = math.lcm(*(x.denominator for x in fr)) if fr else 1
        rows.append([int(x * scale) for x in fr])

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
        pv = rows[r][c]
        for i in range(r + 1, mrows):
            f = rows[i][c]
            new = []
            for j in range(ncols):
                val = pv * rows[i][j] - f * rows[r][j]
                q, rem = divmod(val, prev)
                if rem:
                    raise InvariantError("fraction-free elimination lost exact divisibility")
                new.append(q)
            rows[i] = new
        prev = pv
        piv.append(c)
        r += 1

    # Back-substitute with Fractions to reach reduced form; final entries are
    # ratios of minors, so this stage cannot blow up.
    red: list[list[Fraction]] = [[Fraction(x) for x in row] for row in rows[:r]]
    for k in reversed(range(r)):
        c = piv[k]
        pv = red[k][c]
        red[k] = [x / pv for x in red[k]]
        for i in range(k):
            f = red[i][c]
            if f:
                red[i] = [x - f * y for x, y in zip(red[i], red[k])]

    out = np.empty((mrows, ncols), dtype=object)
    out[...] = 0
    for i in range(r):
        out[i, :] = red[i]
    return out, piv


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form the canonical (RREF-derived) basis of the null space."""
    r, piv = rref(m)
    n = m.ncols
    free = [j for j in range(n) if j not in set(piv)]
    out = m.field.zeros((n, len(free)))
    for k, f in enumerate(free):
        out[f, k] = 1
        for i, c in enumerate(piv):
            out[c, k] = -r.a[i, f]
    return Mat(m.field, out)


def solve(m: Mat, b: Mat) -> Mat | None:
    """One exact solution of m @ x = b (free coordinates zero), or None.

    b may have several columns; None means at least one column is outside
    the column space.
    """
    if m.field != b.field or m.nrows != b.nrows:
        raise ValueError("incompatible system")
    aug = hstack([m, b])
    r, piv = rref(aug)
    n = m.ncols
    if any(c >= n for c in piv):
        return None
    out = m.field.zeros((n, b.ncols))
    for i, c in enumerate(piv):
        out[c, :] = r.a[i, n:]
    return Mat(m.field, out)


def left_inverse(m: Mat) -> Mat:
    """L with L @ m = identity; requires full column rank."""
    sol = solve(m.T, Mat.identity(m.field, m.ncols))
    if sol is None:
        raise ValueError("matrix does not have full column rank")
    return sol.T


@dataclass(frozen=True)
class QuotientCoords:
    """Canonical coordinates on ambient/span for a subspace.

    proj kills exactly the subspace; section maps quotient coordinates to
    ambient representatives (standard basis vectors at the free positions),
    with proj @ section = identity.  reduced is the canonical reduced basis
    of the subspace itself (rows).
    """

    proj: Mat
    section: Mat
    reduced: Mat
    pivots: tuple[int, ...]
    free: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.proj.nrows


def quotient_coords(sub: Mat) -> QuotientCoords:
    """Coordinates on ambient-space / span(columns of sub).

    Canonical in the subspace (not the presented basis): everything is read
    off the reduced row echelon form of the span.
    """
    n = sub.nrows
    field = sub.field
    red, piv = rref(sub.T)
    r = len(piv)
    free = tuple(j for j in range(n) if j not in set(piv))
    proj = field.zeros((len(free), n))
    for k, f in enumerate(free):
        proj[k, f] = 1
        for i, c in enumerate(piv):
            proj[k, c] = -red.a[i, f]
    section = field.zeros((n, len(free)))
    for k, f in enumerate(free):
        section[f, k] = 1
    return QuotientCoords(
        proj=Mat(field, proj),
        section=Mat(field, section),
        reduced=red.take_rows(range(r)),
        pivots=piv,
        free=free,
    )


def subquotient(d_out: Mat, d_in: Mat) -> tuple[Mat, QuotientCoords, Mat, Mat]:
    """Canonical coordinates on ker(d_out) / im(d_in), for d_out @ d_in = 0.

    Returns (Z, qc, include, project): Z is the canonical kernel basis of
    d_out, qc the quotient coordinates of the coboundaries inside Z,
    include maps class coordinates to representative cocycles, and project
    maps the ambient space to class coordinates (meaningful on cocycles,
    killing coboundaries), with project @ include = identity.
    """
    field = d_out.field
    Z = kernel_basis(d_out)
    if d_in.ncols:
        inz = solve(Z, d_in)
        if inz is None:
            raise InvariantError("coboundaries escaped the cocycles")
    else:
        inz = Mat.zeros(field, Z.ncols, 0)
    qc = quotient_coords(inz)
    include = Z @ qc.section
    if Z.ncols:
        project = qc.proj @ left_inverse(Z)
    else:
        project = Mat.zeros(field, 0, Z.nrows)
    return Z, qc, include, project


class IncrementalSpan:
    """Growing subspace with O(dim) membership tests.

    Holds an echelonized set of row vectors keyed by leading index; used by
    the greedy generator picker, which tests candidates one at a time.
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


def random_mat(rng: Random, field: Field, r: int, c: int) -> Mat:
    """Random r x c matrix drawn row by row: uniform over F_p, in [-2, 2] over Q."""
    if isinstance(field, PrimeField):
        data = [[rng.randrange(field.p) for _ in range(c)] for _ in range(r)]
    else:
        data = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
    return Mat(field, np.array(data, dtype=object).reshape(r, c))
