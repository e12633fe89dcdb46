"""Bounded cochain complexes of modules and their chain maps.

Complexes are cohomologically graded with differentials of degree +1 and
are validated (d*d = 0) at construction.  The shift convention is
(X[k])^n = X^(n+k) with d_(X[k]) = (-1)^k d_X, fixed here once and relied
on by the roof calculus.

A complex stores only its nonzero differentials, and chain maps and
homotopies only their nonzero components: an absent entry is zero.
Validation, composition, differences, homotopy boundaries and equality
iterate the stored entries, so no zero map is built for a missing degree;
diff() and comp() still hand one out to callers that ask.

Cohomology comes with canonical coordinates: a matrix of representative
cocycles and a projection that kills coboundaries, both derived from
reduced echelon forms so that independently computed classes of the same
complex can be compared coordinatewise.  Coordinates in a canonical basis
(cocycles, hom spaces) are read off its free rows, where it is the
identity, and every block differential (cones, Hom complexes, homotopy
systems) is one linalg.block_matrix.

Quasi-isomorphisms are decided on ranks alone and build no cohomology:
dim H^n(X) = dim X^n - rk d_X^n - rk d_X^(n-1), and
rank H^n(f) = rk [[d_X^n, 0], [f^n, d_Y^(n-1)]] - rk d_X^n - rk d_Y^(n-1),
since a block matrix [[A, 0], [B, C]] has rank rk A + dim(B ker A + im C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    Module,
    ModuleHom,
    _hom_matrix,
    direct_sum,
    trivial_algebra,
    vector_space_module,
)
from .errors import InvariantError, SchemaError
from .linalg import Mat, _dot, block_matrix, rank, solve, subquotient

__all__ = [
    "Complex",
    "ChainMap",
    "Homotopy",
    "zero_module",
    "cohomology",
    "CohomologyData",
    "shift",
    "is_quasi_iso",
    "QuasiIsoReport",
    "find_homotopy",
    "cone",
    "inner_hom",
]


def zero_module(algebra: Algebra) -> Module:
    """The zero module of the algebra: one object, cached on it."""
    zero = getattr(algebra, "_zero_module", None)
    if zero is None:
        zero = algebra._zero_module = Module(algebra, free_rank=0)
    return zero


class Complex:
    """Bounded complex: finitely many modules with d^2 = 0."""

    def __init__(self, algebra: Algebra, objects: dict[int, Module],
                 diffs: dict[int, ModuleHom], check: bool = True):
        self.algebra = algebra
        # trim zero padding so equal complexes compare equal
        live = sorted(n for n, m in objects.items() if m.dim > 0)
        zero = zero_module(algebra)
        if live:
            self.lo, self.hi = live[0], live[-1]
            self.objects = {n: objects[n] if objects.get(n, zero).dim else zero
                            for n in range(self.lo, self.hi + 1)}
            self.diffs = {n: d for n, d in diffs.items()
                          if self.lo <= n < self.hi and not d.is_zero()}
        else:
            self.lo = self.hi = 0
            self.objects = {0: zero}
            self.diffs = {}
        self._cache: dict = {}
        if check:
            self._validate(objects, diffs)

    def _validate(self, objects, diffs):
        for n, m in objects.items():
            if m.algebra != self.algebra:
                raise SchemaError(f"object in degree {n} lives over a different algebra")
        for n, d in diffs.items():
            if d.source != objects.get(n) or d.target.dim != self.obj(n + 1).dim \
                    or n in self.diffs and d.target != self.obj(n + 1):
                raise SchemaError(f"differential at degree {n} has wrong endpoints")
        for n, d in sorted(self.diffs.items()):
            nxt = self.diffs.get(n + 1)
            if nxt is not None and not (nxt @ d).is_zero():
                raise SchemaError(f"d*d != 0 between degrees {n} and {n + 2}")

    def obj(self, n: int) -> Module:
        m = self.objects.get(n)
        return zero_module(self.algebra) if m is None else m

    def diff(self, n: int) -> ModuleHom:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return ModuleHom.zero(self.obj(n), self.obj(n + 1))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return all(self.obj(n).dim == 0 for n in self.degrees())

    def single_degree(self) -> int | None:
        """Degree of the unique nonzero object, or None."""
        live = [n for n in self.degrees() if self.obj(n).dim > 0]
        return live[0] if len(live) == 1 else None

    @staticmethod
    def single(module: Module, degree: int = 0) -> "Complex":
        return Complex(module.algebra, {degree: module}, {}, check=False)

    def key(self) -> tuple:
        return (self.lo, self.hi,
                tuple(self.obj(n).key() for n in self.degrees()),
                tuple(self.diff(n).matrix.key() for n in range(self.lo, self.hi)))

    def __eq__(self, other):
        """Equal keys, decided on the stored parts without building a key."""
        return other is self or isinstance(other, Complex) \
            and self.algebra == other.algebra and (self.lo, self.hi) == (other.lo, other.hi) \
            and all(m == other.objects[n] for n, m in self.objects.items()) \
            and self.diffs.keys() == other.diffs.keys() \
            and all(d.matrix == other.diffs[n].matrix for n, d in self.diffs.items())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        dims = ", ".join(f"{n}:{self.obj(n).dim}" for n in self.degrees())
        return f"Complex[{dims}]"


def shift(x: Complex, k: int) -> Complex:
    """Shift by k: objects move down by k, differential picks up (-1)^k."""
    objects = {n - k: x.obj(n) for n in x.degrees()}
    diffs = {n - k: -d if k % 2 else d for n, d in x.diffs.items()}
    return Complex(x.algebra, objects, diffs, check=False)


def _mul(f: ModuleHom | None, g: ModuleHom | None) -> Mat | None:
    """The matrix of f @ g, or None (zero) when a factor is absent."""
    return None if f is None or g is None else f.matrix @ g.matrix


def _agree(a: Mat | None, b: Mat | None) -> bool:
    """a == b, where None stands for zero."""
    if a is None:
        return b is None or b.is_zero()
    return a.is_zero() if b is None else a == b


class ChainMap:
    """Degreewise map of complexes commuting with the differentials."""

    def __init__(self, source: Complex, target: Complex,
                 comps: dict[int, ModuleHom], check: bool = True):
        self.source = source
        self.target = target
        self.comps = {n: f for n, f in comps.items() if not f.is_zero()}
        if check:
            self.validate()

    def comp(self, n: int) -> ModuleHom:
        f = self.comps.get(n)
        if f is not None:
            return f
        return ModuleHom.zero(self.source.obj(n), self.target.obj(n))

    def validate(self) -> None:
        """The square at n involves f^n and f^(n+1): where both are absent it
        reads 0 = 0, so only the squares at n and n - 1 of each component count."""
        for n, f in self.comps.items():
            if f.source != self.source.obj(n) or f.target != self.target.obj(n):
                raise SchemaError(f"component at degree {n} has wrong endpoints")
        dx, dy, c = self.source.diffs, self.target.diffs, self.comps
        for n in sorted({*c, *(n - 1 for n in c)}):
            if not _agree(_mul(dy.get(n), c.get(n)), _mul(c.get(n + 1), dx.get(n))):
                raise SchemaError(f"square at degree {n} does not commute")

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        if other.target != self.source:
            raise ValueError("chain map composition endpoint mismatch")
        comps = {n: self.comps[n] @ g for n, g in other.comps.items() if n in self.comps}
        return ChainMap(other.source, self.target, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        comps = dict(self.comps)
        for n, g in other.comps.items():
            comps[n] = comps[n] - g if n in comps else -g
        return ChainMap(self.source, self.target, comps, check=False)

    def shift(self, k: int, source: Complex, target: Complex) -> "ChainMap":
        """The map between the k-fold shifts, re-indexed onto source and
        target, the k-fold shifts of this map's own ends."""
        return ChainMap(source, target, {n - k: f for n, f in self.comps.items()}, check=False)

    @staticmethod
    def zero(source: Complex, target: Complex) -> "ChainMap":
        return ChainMap(source, target, {}, check=False)

    @staticmethod
    def identity(x: Complex) -> "ChainMap":
        return ChainMap(x, x, {n: ModuleHom.identity(x.obj(n)) for n in x.degrees()},
                        check=False)

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return self.comps.keys() == other.comps.keys() and all(
            f.matrix == other.comps[n].matrix for n, f in self.comps.items())

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


@dataclass
class Homotopy:
    """Degreewise maps h^n : X^n -> Y^(n-1) witnessing f - g = dh + hd."""

    source: Complex
    target: Complex
    comps: dict[int, ModuleHom]

    def comp(self, n: int) -> ModuleHom:
        h = self.comps.get(n)
        if h is not None:
            return h
        return ModuleHom.zero(self.source.obj(n), self.target.obj(n - 1))

    def boundary(self) -> ChainMap:
        """The chain map dh + hd that this homotopy bounds: h^n adds d h^n in
        degree n and h^n d in degree n - 1, where those differentials exist."""
        comps: dict[int, ModuleHom] = {}
        for n, h in self.comps.items():
            dy, dx = self.target.diffs.get(n - 1), self.source.diffs.get(n - 1)
            for m, t in ((n, dy and dy @ h), (n - 1, dx and h @ dx)):
                if t is not None:
                    comps[m] = comps[m] + t if m in comps else t
        return ChainMap(self.source, self.target, comps, check=False)


@dataclass(frozen=True)
class CohomologyData:
    """H^n of a complex with canonical coordinates.

    include maps class coordinates to representative cocycles in X^n;
    project maps cocycles to class coordinates and kills coboundaries, with
    project @ include = identity; it is fixed only on cocycles.
    """

    module: Module
    cocycles: Mat
    include: Mat
    project: Mat


def cohomology(x: Complex, n: int) -> CohomologyData:
    """Cohomology in degree n with canonical section and projection.

    Results are cached on the complex.  The cache takes no lock: roofext is
    not thread-safe, so do not share modules or complexes across threads.
    """
    key = ("H", n)
    if key not in x._cache:
        Z, include, project = subquotient(x.diff(n).matrix, x.diff(n - 1).matrix)
        module = Module(x.algebra, action=project @ x.obj(n).act_all(include))
        x._cache[key] = CohomologyData(module=module, cocycles=Z, include=include,
                                       project=project)
    return x._cache[key]


@dataclass
class QuasiIsoReport:
    """Per-degree induced ranks for a chain map; truthy iff all isos."""

    ok: bool
    degrees: dict[int, tuple[int, int, int]]  # n -> (dim H^n(X), dim H^n(Y), rank)

    def __bool__(self) -> bool:
        return self.ok


def is_quasi_iso(f: ChainMap) -> QuasiIsoReport:
    """The per-degree report, from the rank identities in the module docstring."""
    x, y = f.source, f.target
    rx, ry = ({n: rank(d.matrix) for n, d in c.diffs.items()} for c in (x, y))
    degrees = {}
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        xn, x1, yn, y0 = x.obj(n).dim, x.obj(n + 1).dim, y.obj(n).dim, y.obj(n - 1).dim
        hx = xn - rx.get(n, 0) - rx.get(n - 1, 0)
        hy = yn - ry.get(n, 0) - ry.get(n - 1, 0)
        r = 0
        if hx and hy:
            parts = {(0, 0): x.diffs.get(n), (1, 0): f.comps.get(n), (1, 1): y.diffs.get(n - 1)}
            block = block_matrix(x.algebra.field, [x1, yn], [xn, y0],
                                 {rc: h.matrix for rc, h in parts.items() if h is not None})
            r = rank(block) - rx.get(n, 0) - ry.get(n - 1, 0)
        degrees[n] = (hx, hy, r)
    return QuasiIsoReport(all(hx == hy == r for hx, hy, r in degrees.values()), degrees)


def _after(d: Mat, homs: Mat, m: int) -> Mat:
    """(d (x) I_m) homs: d @ F for each hom F with m columns among the
    columns of homs, all flattened row-major, in one product."""
    k = homs.ncols
    out = _dot(d.field, d.a, homs.a.reshape(d.ncols, m * k))
    return Mat._of(d.field, out.reshape(d.nrows * m, k))


def _before(homs: Mat, d: Mat, n: int) -> Mat:
    """(I_n (x) d^T) homs: F @ d for each hom F with n rows among the
    columns of homs, all flattened row-major, in one product."""
    k, m = homs.ncols, d.nrows
    rows = homs.a.reshape(n, m, k).transpose(0, 2, 1).reshape(n * k, m)
    out = _dot(d.field, rows, d.a).reshape(n, k, d.ncols).transpose(0, 2, 1)
    return Mat._of(d.field, out.reshape(n * d.ncols, k))


def _coords(K: Mat, free: tuple[int, ...], homs: Mat) -> Mat:
    """Coordinates in the hom basis K of the flattened homs in the columns
    of homs, read on K's free rows; raises unless they are members."""
    coords = homs.take_rows(free)
    if K @ coords != homs:
        raise InvariantError("a composite of homs left the hom space")
    return coords


def find_homotopy(f: ChainMap, g: ChainMap | None = None) -> Homotopy | None:
    """Solve f - g = dh + hd for h; None when the maps are not homotopic.

    One global linear system over all degrees.  The unknowns are
    coefficients over the basis K_n of Hom(X^n, Y^(n-1)) in each degree, so
    a witness h^n = K_n @ coefficients is a genuine degree -1 map of
    modules, never a merely k-linear one.  Row block n holds the entries of
    (dh + hd)^n: d_Y h^n from K_n and h^(n+1) d_X from K_(n+1).
    """
    if g is None:
        g = ChainMap.zero(f.source, f.target)
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy endpoints mismatch")
    x, y = f.source, f.target
    field = x.algebra.field
    diff_map = f - g
    degs = range(min(x.lo, y.lo), max(x.hi, y.hi) + 1)
    bases = [_hom_matrix(x.obj(n), y.obj(n - 1))[0] for n in degs]
    parts = {}
    for t, n in enumerate(degs):
        parts[t, t] = _after(y.diff(n - 1).matrix, bases[t], x.obj(n).dim)
        if t + 1 < len(degs):
            parts[t, t + 1] = _before(bases[t + 1], x.diff(n).matrix, y.obj(n).dim)
    system = block_matrix(field, [y.obj(n).dim * x.obj(n).dim for n in degs],
                          [K.ncols for K in bases], parts)
    rhs = Mat._of(field, np.vstack([diff_map.comp(n).matrix.a.reshape(-1, 1) for n in degs]))
    sol = solve(system, rhs)
    if sol is None:
        return None
    comps, off = {}, 0
    for K, n in zip(bases, degs):
        flat = (K @ sol.take_rows(range(off, off + K.ncols))).a
        off += K.ncols
        if np.count_nonzero(flat):
            comps[n] = ModuleHom(x.obj(n), y.obj(n - 1), Mat._of(
                field, flat.reshape(y.obj(n - 1).dim, x.obj(n).dim)), check=False)
    h = Homotopy(x, y, comps)
    if h.boundary() != diff_map:
        raise InvariantError("homotopy solve returned an invalid witness")
    return h


def cone(f: ChainMap) -> Complex:
    """Mapping cone: cone(f)^n = X^(n+1) + Y^n, with the block differential
    [[-d_X, 0], [f, d_Y]], i.e. d(x, y) = (-d_X x, f x + d_Y y)."""
    x, y = f.source, f.target
    lo, hi = min(x.lo - 1, y.lo), max(x.hi - 1, y.hi)
    objects = {n: direct_sum([x.obj(n + 1), y.obj(n)])[0] for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo, hi):
        mat = block_matrix(x.algebra.field, [x.obj(n + 2).dim, y.obj(n + 1).dim],
                           [x.obj(n + 1).dim, y.obj(n).dim], {
            (0, 0): -x.diff(n + 1).matrix, (1, 0): f.comp(n + 1).matrix,
            (1, 1): y.diff(n).matrix})
        diffs[n] = ModuleHom(objects[n], objects[n + 1], mat, check=False)
    return Complex(x.algebra, objects, diffs, check=True)


def inner_hom(x: Complex, y: Complex) -> Complex:
    """Hom complex: degree n is the product of Hom(X^i, Y^(i+n)).

    Objects are plain vector spaces (modules over the one-dimensional
    algebra); the differential is d(f) = d_Y f - (-1)^n f d_X.  Each slot i
    has the canonical basis K of _hom_matrix, and the slots follow in
    increasing i, so coordinates are reproducible.  The differential is one
    block matrix: slot i of d(f) is (d_Y (x) I) K and slot i - 1 is
    -(-1)^n (I (x) d_X^T) K, each read on the free rows of its target slot.
    """
    field = x.algebra.field
    triv = trivial_algebra(field)
    if x.is_zero() or y.is_zero():
        return Complex(triv, {0: zero_module(triv)}, {}, check=False)
    lo, hi = y.lo - x.hi, y.hi - x.lo
    degs = x.degrees()
    # slots[n][t]: (K, free) for Hom(X^i, Y^(i+n)), i = degs[t]
    slots = {n: [_hom_matrix(x.obj(i), y.obj(i + n)) for i in degs] for n in range(lo, hi + 1)}
    widths = {n: [K.ncols for K, _ in slots[n]] for n in slots}
    objects = {n: vector_space_module(field, sum(widths[n])) for n in slots}
    diffs = {}
    for n in range(lo, hi):
        parts = {}
        for t, i in enumerate(degs):
            K = slots[n][t][0]
            parts[t, t] = _coords(*slots[n + 1][t], _after(y.diff(i + n).matrix, K, x.obj(i).dim))
            if t:
                down = _before(K, x.diff(i - 1).matrix, y.obj(i + n).dim)
                parts[t - 1, t] = _coords(*slots[n + 1][t - 1], down if n % 2 else -down)
        mat = block_matrix(field, widths[n + 1], widths[n], parts)
        diffs[n] = ModuleHom(objects[n], objects[n + 1], mat, check=False)
    return Complex(triv, objects, diffs, check=True)
