"""Bounded cochain complexes of modules and their chain maps.

Complexes are cohomologically graded with differentials of degree +1 and
are validated (d*d = 0) at construction.  The shift convention is
(X[k])^n = X^(n+k) with d_(X[k]) = (-1)^k d_X, fixed here once and relied
on by the roof calculus.

Cohomology comes with canonical coordinates: a matrix of representative
cocycles and a projection that kills coboundaries, both derived from
reduced echelon forms so that independently computed classes of the same
complex can be compared coordinatewise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Module, ModuleHom, hom_space, trivial_algebra, vector_space_module
from .errors import InvariantError, SchemaError
from .linalg import Mat, rank, solve, subquotient

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
    return Module(algebra, action=[Mat.zeros(algebra.field, 0, 0)] * algebra.dim)


class Complex:
    """Bounded complex: finitely many modules with d^2 = 0."""

    def __init__(self, algebra: Algebra, objects: dict[int, Module],
                 diffs: dict[int, ModuleHom], check: bool = True):
        self.algebra = algebra
        # trim zero padding so equal complexes compare equal
        live = sorted(n for n, m in objects.items() if m.dim > 0)
        if live:
            self.lo, self.hi = live[0], live[-1]
            self.objects = {n: objects.get(n, zero_module(algebra))
                            for n in range(self.lo, self.hi + 1)}
            self.diffs = {n: d for n, d in diffs.items()
                          if self.lo <= n < self.hi and not d.is_zero()}
        else:
            self.lo = self.hi = 0
            self.objects = {0: zero_module(algebra)}
            self.diffs = {}
        self._cache: dict = {}
        if check:
            self._validate(objects, diffs)

    def _validate(self, objects, diffs):
        for n, m in objects.items():
            if m.algebra != self.algebra:
                raise SchemaError(f"object in degree {n} lives over a different algebra")
        for n, d in diffs.items():
            if d.source != objects.get(n) or d.target.dim != self.obj(n + 1).dim:
                raise SchemaError(f"differential at degree {n} has wrong endpoints")
        for n in range(self.lo, self.hi):
            comp = self.diff(n + 1) @ self.diff(n)
            if not comp.is_zero():
                raise SchemaError(f"d*d != 0 between degrees {n} and {n + 2}")

    def obj(self, n: int) -> Module:
        return self.objects.get(n, zero_module(self.algebra))

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
        return isinstance(other, Complex) and self.algebra == other.algebra \
            and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        dims = ", ".join(f"{n}:{self.obj(n).dim}" for n in self.degrees())
        return f"Complex[{dims}]"


def shift(x: Complex, k: int) -> Complex:
    """Shift by k: objects move down by k, differential picks up (-1)^k."""
    objects = {n - k: x.obj(n) for n in x.degrees()}
    sign = 1 if k % 2 == 0 else -1
    diffs = {}
    for n in range(x.lo, x.hi):
        d = x.diff(n)
        if not d.is_zero():
            diffs[n - k] = ModuleHom(d.source, d.target, d.matrix.scale(sign), check=False)
    return Complex(x.algebra, objects, diffs, check=False)


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
        for n, f in self.comps.items():
            if f.source.dim != self.source.obj(n).dim or f.target.dim != self.target.obj(n).dim:
                raise SchemaError(f"component at degree {n} has wrong endpoints")
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for n in range(lo, hi):
            lhs = self.target.diff(n) @ self.comp(n)
            rhs = self.comp(n + 1) @ self.source.diff(n)
            if lhs.matrix != rhs.matrix:
                raise SchemaError(f"square at degree {n} does not commute")

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        if other.target != self.source:
            raise ValueError("chain map composition endpoint mismatch")
        comps = {}
        for n in other.source.degrees():
            m = self.comp(n) @ other.comp(n)
            if not m.is_zero():
                comps[n] = m
        return ChainMap(other.source, self.target, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        comps = {}
        for n in range(min(self.source.lo, other.source.lo),
                       max(self.source.hi, other.source.hi) + 1):
            comps[n] = self.comp(n) - other.comp(n)
        return ChainMap(self.source, self.target, comps, check=False)

    def shift(self, k: int) -> "ChainMap":
        src = shift(self.source, k)
        tgt = shift(self.target, k)
        comps = {n - k: f for n, f in self.comps.items()}
        return ChainMap(src, tgt, comps, check=False)

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
        degs = set(self.comps) | set(other.comps)
        return all(self.comp(n).matrix == other.comp(n).matrix for n in degs)

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
        """The chain map dh + hd that this homotopy bounds."""
        comps = {}
        for n in self.source.degrees():
            m = (self.target.diff(n - 1) @ self.comp(n)) + (self.comp(n + 1) @ self.source.diff(n))
            if not m.is_zero():
                comps[n] = m
        return ChainMap(self.source, self.target, comps, check=False)


@dataclass(frozen=True)
class CohomologyData:
    """H^n of a complex with canonical coordinates.

    include maps class coordinates to representative cocycles in X^n;
    project maps X^n to class coordinates (meaningful on cocycles, kills
    coboundaries everywhere).  project @ include = identity.
    """

    module: Module
    cocycles: Mat
    include: Mat
    project: Mat


_cohomology_lock = threading.RLock()


def cohomology(x: Complex, n: int) -> CohomologyData:
    """Cohomology in degree n with canonical section and projection.

    Results are cached on the complex; the cache is safe to hit from
    several threads at once.
    """
    key = ("H", n)
    with _cohomology_lock:
        if key in x._cache:
            return x._cache[key]
        data = _compute_cohomology(x, n)
        x._cache[key] = data
        return data


def _compute_cohomology(x: Complex, n: int) -> CohomologyData:
    xn = x.obj(n)
    Z, _, include, project = subquotient(x.diff(n).matrix, x.diff(n - 1).matrix)
    module = Module.from_act_all(x.algebra, project @ xn.act_all(include))
    return CohomologyData(module=module, cocycles=Z, include=include, project=project)


@dataclass
class QuasiIsoReport:
    """Per-degree induced ranks for a chain map; truthy iff all isos."""

    ok: bool
    degrees: dict[int, tuple[int, int, int]]  # n -> (dim H^n(X), dim H^n(Y), rank)

    def __bool__(self) -> bool:
        return self.ok


def is_quasi_iso(f: ChainMap) -> QuasiIsoReport:
    lo = min(f.source.lo, f.target.lo)
    hi = max(f.source.hi, f.target.hi)
    degrees = {}
    ok = True
    for n in range(lo, hi + 1):
        hx = cohomology(f.source, n)
        hy = cohomology(f.target, n)
        induced = hy.project @ (f.comp(n).matrix @ hx.include)
        r = rank(induced)
        degrees[n] = (hx.module.dim, hy.module.dim, r)
        if not (hx.module.dim == hy.module.dim == r):
            ok = False
    return QuasiIsoReport(ok=ok, degrees=degrees)


def find_homotopy(f: ChainMap, g: ChainMap | None = None) -> Homotopy | None:
    """Solve f - g = dh + hd for h; None when the maps are not homotopic.

    One global linear system over all degrees.  The unknowns are
    coefficients over the module-hom basis of Hom(X^n, Y^(n-1)) in each
    degree, so a witness is a genuine degree -1 map of modules, never a
    merely k-linear one.
    """
    if g is None:
        g = ChainMap.zero(f.source, f.target)
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy endpoints mismatch")
    x, y = f.source, f.target
    field = x.algebra.field
    diff_map = f - g

    bases = {}
    for n in range(x.lo, x.hi + 1):
        if x.obj(n).dim > 0 and y.obj(n - 1).dim > 0:
            basis = hom_space(x.obj(n), y.obj(n - 1))
            if basis:
                bases[n] = basis
    offsets = {}
    total = 0
    for n in sorted(bases):
        offsets[n] = total
        total += len(bases[n])

    rows = []
    rhs_rows = []
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        nx, ny = x.obj(n).dim, y.obj(n).dim
        if ny * nx == 0:
            continue
        block = field.zeros((ny * nx, total))
        if n in offsets:
            d_y = y.diff(n - 1).matrix
            for t, b in enumerate(bases[n]):
                block[:, offsets[n] + t] = np.asarray((d_y @ b.matrix).a).reshape(-1)
        if (n + 1) in offsets:
            d_x = x.diff(n).matrix
            for t, b in enumerate(bases[n + 1]):
                block[:, offsets[n + 1] + t] = np.asarray((b.matrix @ d_x).a).reshape(-1)
        rows.append(block)
        rhs_rows.append(np.asarray(diff_map.comp(n).matrix.a, dtype=object).reshape(-1, 1))
    if not rows:
        return Homotopy(x, y, {})
    sys = Mat(field, np.vstack(rows))
    rhs = Mat(field, np.vstack(rhs_rows))
    sol = solve(sys, rhs)
    if sol is None:
        return None
    comps = {}
    for n, basis in bases.items():
        seg = sol.a[offsets[n]: offsets[n] + len(basis), 0]
        m = Mat.zeros(field, y.obj(n - 1).dim, x.obj(n).dim)
        for t, b in enumerate(basis):
            if seg[t]:
                m = m + b.matrix.scale(seg[t])
        if not m.is_zero():
            comps[n] = ModuleHom(x.obj(n), y.obj(n - 1), m, check=False)
    h = Homotopy(x, y, comps)
    if h.boundary() != diff_map:
        raise InvariantError("homotopy solve returned an invalid witness")
    return h


def cone(f: ChainMap) -> Complex:
    """Mapping cone: cone(f)^n = X^(n+1) + Y^n, upper-triangular differential.

    d(x, y) = (-d_X x, f x + d_Y y).
    """
    x, y = f.source, f.target
    algebra = x.algebra
    field = algebra.field
    from .algebra import direct_sum

    lo = min(x.lo - 1, y.lo)
    hi = max(x.hi - 1, y.hi)
    objects = {}
    parts = {}
    for n in range(lo, hi + 1):
        summand, injs, projs = direct_sum([x.obj(n + 1), y.obj(n)])
        objects[n] = summand
        parts[n] = (injs, projs)
    diffs = {}
    for n in range(lo, hi):
        injs1, projs1 = parts[n + 1]
        injs0, projs0 = parts[n]
        dx = x.diff(n + 1)
        dy = y.diff(n)
        fn = f.comp(n + 1)
        m = (injs1[0] @ ModuleHom(dx.source, dx.target, -dx.matrix, check=False) @ projs0[0]) \
            + (injs1[1] @ fn @ projs0[0]) + (injs1[1] @ dy @ projs0[1])
        diffs[n] = m
    return Complex(algebra, objects, diffs, check=True)


def inner_hom(x: Complex, y: Complex) -> Complex:
    """Hom complex: degree n is the product of Hom(X^i, Y^(i+n)).

    Objects are plain vector spaces (modules over the one-dimensional
    algebra); the differential is d(f) = d_Y f - (-1)^n f d_X.  Component
    bases are the deterministic hom_space bases, slot by slot in increasing
    i, so coordinates are reproducible.
    """
    field = x.algebra.field
    triv = trivial_algebra(field)
    lo = y.lo - x.hi
    hi = y.hi - x.lo
    if x.is_zero() or y.is_zero():
        return Complex(triv, {0: zero_module(triv)}, {}, check=False)

    bases: dict[int, list[tuple[int, list[ModuleHom]]]] = {}
    dims: dict[int, int] = {}
    for n in range(lo, hi + 1):
        slots = []
        for i in x.degrees():
            if x.obj(i).dim and y.obj(i + n).dim:
                slots.append((i, hom_space(x.obj(i), y.obj(i + n))))
        bases[n] = slots
        dims[n] = sum(len(b) for _, b in slots)

    def _coords_in(n: int, per_slot: dict[int, Mat]) -> np.ndarray:
        """Coordinates of a family {i: matrix} in the degree-n basis."""
        out = field.zeros((dims[n], 1))
        off = 0
        for i, basis in bases[n]:
            if basis:
                m = per_slot.get(i)
                if m is not None and not m.is_zero():
                    from .algebra import coordinates_in_hom_basis
                    c = coordinates_in_hom_basis(basis, m)
                    out[off: off + len(basis), :] = c.a
                off += len(basis)
        return out

    objects = {n: vector_space_module(field, dims[n]) for n in range(lo, hi + 1)}
    diffs = {}
    sign_of = {n: (1 if n % 2 == 0 else -1) for n in range(lo, hi + 1)}
    for n in range(lo, hi):
        cols = []
        for i, basis in bases[n]:
            for b in basis:
                per_slot: dict[int, Mat] = {}
                up = y.diff(i + n).matrix @ b.matrix          # slot i of d(f)
                if not up.is_zero():
                    per_slot[i] = up
                if i - 1 >= x.lo:
                    down = (b.matrix @ x.diff(i - 1).matrix).scale(-sign_of[n])
                    if not down.is_zero():
                        per_slot[i - 1] = per_slot.get(i - 1, Mat.zeros(
                            field, down.nrows, down.ncols)) + down
                cols.append(_coords_in(n + 1, per_slot))
        if dims[n] == 0:
            continue
        mat = Mat(field, np.hstack(cols)) if cols else Mat.zeros(field, dims[n + 1], 0)
        diffs[n] = ModuleHom(objects[n], objects[n + 1], mat, check=False)
    return Complex(triv, objects, diffs, check=True)
