"""Finite-dimensional algebras and their left modules, with exact scalars.

An algebra is a structure-constant table over Q or F_p; a module is a tuple
of action matrices, one per algebra basis vector.  Free modules are kept
symbolic (rank + block structure) so resolutions never materialize the
block-diagonal action of a large free module just to multiply by it.

Every action is one block product: a module is r blocks of size a, and e_i
acts on each block by the same a x a matrix M_i -- r = 1 and M_i = action[i]
for an explicit module, a = dim A and M_i = left_mult(i) for a free one.

The randomized suites draw algebras from bound quiver algebras: path
algebras of small quivers truncated by paths of length two or three, for
which the Jacobson radical is known structurally (spanned by the nontrivial
paths).  That radical powers Nakayama-style minimal generator picking in
the resolution builder.

Submodule closures take one round, not a fixed-point loop: for a unital
associative action the submodule generated by G is A*G = span{e_i g}, which
is action-stable because e_j (e_i g) = (e_j e_i) g and contains G because
1 lies in A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from random import Random

import numpy as np

from .errors import DegenerateFiltrationError, InvariantError, NotSubmoduleError, SchemaError
from .linalg import (
    Field,
    IncrementalSpan,
    Mat,
    QQ,
    _dot,
    block_diag,
    hstack,
    kernel_basis,
    quotient_coords,
    rank,
    rref,
    solve,
)

__all__ = [
    "Algebra",
    "Module",
    "ModuleHom",
    "Filtration",
    "free_module",
    "submodule",
    "submodule_quotient",
    "hom_space",
    "direct_sum",
    "trivial_algebra",
    "truncated_polynomial_algebra",
    "bound_quiver_algebra",
    "random_bound_quiver_algebra",
    "quiver_simple",
]


class Algebra:
    """Associative unital algebra given by structure constants.

    mult[i, j, :] holds the coordinates of e_i * e_j; unit is the coordinate
    vector of 1.  `radical`, when present, is a matrix whose columns span
    the Jacobson radical; constructors that know it (quiver and truncated
    polynomial algebras) fill it in, JSON input leaves it None.
    """

    def __init__(self, field: Field, mult, unit, radical: Mat | None = None,
                 label: str = "", check: bool = True):
        self.field = field
        arr = np.asarray(mult, dtype=object)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[0] != arr.shape[2]:
            raise SchemaError(f"structure constants must be n*n*n, got {arr.shape}")
        self.dim = arr.shape[0]
        self.mult = field.reduce(arr)
        u = field.reduce(np.asarray(unit, dtype=object).reshape(-1))
        if u.shape[0] != self.dim:
            raise SchemaError("unit vector length does not match algebra dimension")
        self.unit = u
        self.radical = radical
        self.label = label
        self._left: list[Mat | None] = [None] * self.dim
        self._key: tuple | None = None
        self.quiver = None  # filled by bound_quiver_algebra
        if check:
            self.validate()

    def left_mult(self, i: int) -> Mat:
        """Matrix of x -> e_i * x."""
        if self._left[i] is None:
            self._left[i] = Mat(self.field, self.mult[i].T.copy())
        return self._left[i]

    def left_mult_of(self, vec) -> Mat:
        """Matrix of left multiplication by the element with coordinates vec."""
        acc = self.field.zeros((self.dim, self.dim))
        v = np.asarray(vec, dtype=object).reshape(-1)
        for i in range(self.dim):
            if v[i] != 0:
                acc = acc + v[i] * self.left_mult(i).a
        return Mat(self.field, acc)

    def validate(self) -> None:
        n = self.dim
        lu = self.left_mult_of(self.unit)
        if lu != Mat.identity(self.field, n):
            raise SchemaError("unit fails: 1 * e_j != e_j for some j")
        ru = self.field.zeros((n, n))
        for j in range(n):
            ru[:, j] = sum(self.unit[i] * self.mult[j, i, :] for i in range(n))
        if Mat(self.field, ru) != Mat.identity(self.field, n):
            raise SchemaError("unit fails: e_j * 1 != e_j for some j")
        for i, j in itertools.product(range(n), repeat=2):
            lhs = self.left_mult(i) @ self.left_mult(j)
            if lhs != self.left_mult_of(self.mult[i, j]):
                raise SchemaError(f"associativity fails on basis triple (e_{i}, e_{j}, *)")

    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.field.name,
                self.dim,
                tuple(map(str, self.mult.reshape(-1))),
                tuple(map(str, self.unit)),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Algebra({self.label or self.field.name}, dim={self.dim})"


class Module:
    """Finite-dimensional left module, explicit or free.

    Explicit modules store one action matrix per algebra basis vector.
    Free modules store only their rank; actions are applied blockwise
    through the regular representation (see _blocks).
    """

    def __init__(self, algebra: Algebra, action: list[Mat] | None = None,
                 free_rank: int | None = None, label: str = "", check: bool = False):
        self.algebra = algebra
        self.label = label
        self._cache: dict = {}
        self._key: tuple | None = None
        if free_rank is not None:
            self.free_rank = free_rank
            self.dim = free_rank * algebra.dim
            self._action = None
        else:
            if action is None or len(action) != algebra.dim:
                raise SchemaError("need one action matrix per algebra basis vector")
            self.free_rank = None
            self._action = list(action)
            self.dim = action[0].nrows if action else 0
            for m in self._action:
                if m.shape != (self.dim, self.dim):
                    raise SchemaError("action matrices must be square of module dimension")
        if check:
            self.validate()

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def is_free(self) -> bool:
        return self.free_rank is not None

    def act_mat(self, i: int) -> Mat:
        if self._action is not None:
            return self._action[i]
        if self.free_rank == 0:
            return Mat.zeros(self.field, 0, 0)
        return block_diag([self.algebra.left_mult(i)] * self.free_rank)

    def _blocks(self) -> tuple[int, int, np.ndarray]:
        """(a, r, stacked): r blocks of size a, and e_i acts on every block by
        stacked[i*a:(i+1)*a], cached."""
        if "blocks" not in self._cache:
            if self._action is None:
                n = self.algebra.dim
                mats, a, r = [self.algebra.left_mult(i) for i in range(n)], n, self.free_rank
            else:
                mats, a, r = self._action, self.dim, 1
            self._cache["blocks"] = (a, r, np.vstack([m.a for m in mats]))
        return self._cache["blocks"]

    def _apply(self, stacked: np.ndarray, k: int, vecs: Mat) -> Mat:
        """[M_0 vecs | ... | M_(k-1) vecs] for k stacked a x a matrices M_j,
        each acting on every block: one product with all blocks side by side."""
        a, r, _ = self._blocks()
        c = vecs.ncols
        blocks = vecs.a.reshape(r, a, c).transpose(1, 0, 2).reshape(a, r * c)
        out = _dot(self.field, stacked, blocks).reshape(k, a, r, c)
        return Mat(self.field, out.transpose(2, 1, 0, 3).reshape(self.dim, k * c))

    def act(self, i: int, vecs: Mat) -> Mat:
        """Action of e_i on column vectors."""
        a, _, stacked = self._blocks()
        return self._apply(stacked[i * a : (i + 1) * a], 1, vecs)

    def act_all(self, vecs: Mat) -> Mat:
        """[e_0 vecs | e_1 vecs | ...]: every basis vector's action, side by side."""
        return self._apply(self._blocks()[2], self.algebra.dim, vecs)

    def act_right(self, i: int, mat: Mat) -> Mat:
        """mat composed with the action of e_i on this module (mat @ A_i)."""
        a, r, stacked = self._blocks()
        rows = mat.a.reshape(mat.nrows * r, a)
        out = _dot(self.field, rows, stacked[i * a : (i + 1) * a])
        return Mat(self.field, out.reshape(mat.nrows, self.dim))

    def rho(self, avec, vecs: Mat) -> Mat:
        """Action of the algebra element with coordinates avec."""
        a, _, stacked = self._blocks()
        v = self.field.reduce(np.asarray(avec, dtype=object).reshape(1, -1))
        m = _dot(self.field, v, stacked.reshape(self.algebra.dim, a * a))
        return self._apply(m.reshape(a, a), 1, vecs)

    @staticmethod
    def from_act_all(algebra: Algebra, hit: Mat, label: str = "") -> "Module":
        """Explicit module whose action matrices sit side by side in hit, as
        act_all returns them: hit = [A_0 | A_1 | ...]."""
        w = hit.ncols // algebra.dim
        action = [hit.take_cols(range(i * w, (i + 1) * w)) for i in range(algebra.dim)]
        return Module(algebra, action=action, label=label)

    def validate(self) -> None:
        n = self.algebra.dim
        ident = Mat.identity(self.field, self.dim)
        unit_act = Mat.zeros(self.field, self.dim, self.dim)
        for i in range(n):
            if self.algebra.unit[i] != 0:
                unit_act = unit_act + self.act_mat(i).scale(self.algebra.unit[i])
        if unit_act != ident:
            raise SchemaError("module fails unit law: action(1) != identity")
        for i, j in itertools.product(range(n), repeat=2):
            lhs = self.act_mat(i) @ self.act_mat(j)
            rhs = Mat.zeros(self.field, self.dim, self.dim)
            cij = self.algebra.mult[i, j]
            for k in range(n):
                if cij[k] != 0:
                    rhs = rhs + self.act_mat(k).scale(cij[k])
            if lhs != rhs:
                raise SchemaError(f"module action incompatible on basis pair (e_{i}, e_{j})")

    def key(self) -> tuple:
        # keyed on the action itself, so a free module and an explicit copy
        # of its regular action compare equal
        if self._key is None:
            self._key = (self.algebra.key(), self.dim,
                         tuple(self.act_mat(i).key() for i in range(self.algebra.dim)))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Module) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        tag = f"free^{self.free_rank}" if self.is_free else f"dim={self.dim}"
        name = f" {self.label}" if self.label else ""
        return f"Module({tag}{name})"


class ModuleHom:
    """A-linear map between modules over the same algebra."""

    def __init__(self, source: Module, target: Module, matrix: Mat, check: bool = True):
        if source.algebra != target.algebra:
            raise SchemaError("module homomorphism across different algebras")
        if matrix.shape != (target.dim, source.dim):
            raise SchemaError(
                f"hom matrix shape {matrix.shape} does not match ({target.dim}, {source.dim})")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            self.validate()

    def validate(self) -> None:
        for i in range(self.source.algebra.dim):
            if self.target.act(i, self.matrix) != self.source.act_right(i, self.matrix):
                raise SchemaError(f"map fails to intertwine the action of e_{i}")

    def __matmul__(self, other: "ModuleHom") -> "ModuleHom":
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition endpoint mismatch")
        return ModuleHom(other.source, self.target, self.matrix @ other.matrix, check=False)

    def __add__(self, other: "ModuleHom") -> "ModuleHom":
        return ModuleHom(self.source, self.target, self.matrix + other.matrix, check=False)

    def __sub__(self, other: "ModuleHom") -> "ModuleHom":
        return ModuleHom(self.source, self.target, self.matrix - other.matrix, check=False)

    def __neg__(self) -> "ModuleHom":
        return ModuleHom(self.source, self.target, -self.matrix, check=False)

    def __eq__(self, other):
        return (isinstance(other, ModuleHom) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source.key(), self.target.key(), self.matrix.key()))

    def kernel(self) -> Mat:
        return kernel_basis(self.matrix)

    def image(self) -> Mat:
        red, piv = rref(self.matrix.T)
        return red.take_rows(range(len(piv))).T

    def is_injective(self) -> bool:
        return rank(self.matrix) == self.source.dim

    def is_surjective(self) -> bool:
        return rank(self.matrix) == self.target.dim

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    @staticmethod
    def zero(source: Module, target: Module) -> "ModuleHom":
        return ModuleHom(source, target, Mat.zeros(source.field, target.dim, source.dim),
                         check=False)

    @staticmethod
    def identity(m: Module) -> "ModuleHom":
        return ModuleHom(m, m, Mat.identity(m.field, m.dim), check=False)

    def __repr__(self):
        return f"ModuleHom({self.source.dim} -> {self.target.dim})"


@dataclass
class Filtration:
    """Two nested submodules of an ambient module, given by inclusions."""

    ambient: Module
    f1: ModuleHom
    f2: ModuleHom
    _incl12: ModuleHom | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.f1.target != self.ambient or self.f2.target != self.ambient:
            raise SchemaError("filtration maps must land in the ambient module")
        if not self.f1.is_injective() or not self.f2.is_injective():
            raise SchemaError("filtration maps must be injective")
        x = solve(self.f2.matrix, self.f1.matrix)
        if x is None:
            raise SchemaError("F1 is not contained in F2")
        self._incl12 = ModuleHom(self.f1.source, self.f2.source, x, check=False)

    @property
    def inclusion_12(self) -> ModuleHom:
        return self._incl12

    def check_nondegenerate(self) -> None:
        if self.f1.source.dim == self.f2.source.dim:
            raise DegenerateFiltrationError("F1 = F2: middle subquotient vanishes")
        if self.f2.source.dim == self.ambient.dim:
            raise DegenerateFiltrationError("F2 = G: top subquotient vanishes")


# -- constructions ---------------------------------------------------------


def free_module(algebra: Algebra, rank_: int, label: str = "") -> Module:
    return Module(algebra, free_rank=rank_, label=label or f"A^{rank_}")


def trivial_algebra(field: Field) -> Algebra:
    """The base field as a one-dimensional algebra (vector spaces as modules)."""
    return Algebra(field, [[[1]]], [1], radical=Mat.zeros(field, 1, 0),
                   label="k", check=False)


def vector_space_module(field: Field, dim: int, label: str = "") -> Module:
    A = trivial_algebra(field)
    return Module(A, action=[Mat.identity(field, dim)], label=label)


def close_span(module: Module, span: IncrementalSpan, fresh: list[np.ndarray]) -> None:
    """Add the submodule generated by the fresh vectors to an action-stable span.

    One round suffices: the submodule generated by G is A*G = span{e_i g},
    action-stable since e_j (e_i g) = (e_j e_i) g, and it contains G since
    1 lies in A.  A sum of submodules is again a submodule.
    """
    if fresh:
        hit = module.act_all(Mat(module.field, np.array(fresh, dtype=object).T))
        for j in range(hit.ncols):
            span.add(hit.a[:, j])


def _closure(module: Module, gens: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Canonical basis of the submodule generated by the given columns.

    That submodule is A*G = span{e_i g} (see close_span), so one RREF of all
    action images gives it.  The basis is the transposed RREF; the returned
    pivots index the rows where it is the identity.
    """
    red, piv = rref(module.act_all(gens).T)
    return red.take_rows(range(len(piv))).T, piv


def submodule(module: Module, gens: Mat, label: str = "") -> ModuleHom:
    """Inclusion of the submodule generated by the given column vectors.

    The submodule carries the induced action; its basis is the canonical
    reduced one, so equal subspaces give equal modules.  The basis is the
    identity on its pivot rows, so the action coordinates are those rows of
    the moved basis; one exact product checks them.
    """
    basis, piv = _closure(module, gens)
    moved = module.act_all(basis)
    coords = moved.take_rows(piv)
    if basis @ coords != moved:
        raise InvariantError("closure failed to be action-stable")
    sub = Module.from_act_all(module.algebra, coords, label=label)
    return ModuleHom(sub, module, basis, check=False)


def submodule_quotient(module: Module, incl: ModuleHom | Mat):
    """Quotient of a module by the image of an inclusion.

    Returns (quotient module, projection hom, section matrix); the section
    picks representatives for the canonical quotient coordinates and
    satisfies proj @ section = identity.  Raises NotSubmoduleError when the
    image is not action-stable.
    """
    basis = incl.matrix if isinstance(incl, ModuleHom) else incl
    qc = quotient_coords(basis)
    escaped = (qc.proj @ module.act_all(basis)).a != 0
    if escaped.any():
        i = int(np.flatnonzero(escaped.any(axis=0))[0]) // basis.ncols
        raise NotSubmoduleError(f"image not stable under the action of e_{i}")
    quot = Module.from_act_all(module.algebra, qc.proj @ module.act_all(qc.section))
    proj = ModuleHom(module, quot, qc.proj, check=False)
    return quot, proj, qc.section


def hom_space(source: Module, target: Module) -> list[ModuleHom]:
    """Basis of the space of A-linear maps source -> target.

    Solved as one kernel computation: row-major vectorization turns the
    intertwining constraints into (A_i (x) I - I (x) A_i^T) vec(F) = 0.
    """
    n, m = target.dim, source.dim
    field = source.field
    if n == 0 or m == 0:
        return []
    eye_m = Mat.identity(field, m).a
    eye_n = Mat.identity(field, n).a
    blocks = []
    for i in range(source.algebra.dim):
        an = target.act_mat(i).a
        am = source.act_mat(i).a
        blocks.append(np.kron(an, eye_m) - np.kron(eye_n, am.T))
    sys = Mat(field, np.vstack(blocks))
    ker = kernel_basis(sys)
    homs = []
    for j in range(ker.ncols):
        f = Mat(field, ker.a[:, j].reshape(n, m).copy())
        homs.append(ModuleHom(source, target, f, check=False))
    return homs


def coordinates_in_hom_basis(basis: list[ModuleHom], hom_matrix: Mat) -> Mat:
    """Coefficients of a hom in a given hom_space basis (column vector)."""
    if not basis:
        if hom_matrix.is_zero():
            return Mat.zeros(hom_matrix.field, 0, 1)
        raise ValueError("hom not in span of empty basis")
    cols = hstack([Mat(b.matrix.field, b.matrix.a.reshape(-1, 1).copy()) for b in basis])
    vec = Mat(hom_matrix.field, hom_matrix.a.reshape(-1, 1).copy())
    out = solve(cols, vec)
    if out is None:
        raise ValueError("hom does not lie in the span of the basis")
    return out


def direct_sum(mods: list[Module]):
    """Direct sum with injection and projection homs."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use a zero module")
    algebra = mods[0].algebra
    field = mods[0].field
    dims = [m.dim for m in mods]
    total = sum(dims)
    action = [block_diag([m.act_mat(i) for m in mods]) for i in range(algebra.dim)]
    amb = Module(algebra, action=action)
    injs, projs, off = [], [], 0
    for m in mods:
        ji = Mat.zeros(field, total, m.dim).a.copy()
        pi = Mat.zeros(field, m.dim, total).a.copy()
        for t in range(m.dim):
            ji[off + t, t] = 1
            pi[t, off + t] = 1
        injs.append(ModuleHom(m, amb, Mat(field, ji), check=False))
        projs.append(ModuleHom(amb, m, Mat(field, pi), check=False))
        off += m.dim
    return amb, injs, projs


# -- quiver algebras --------------------------------------------------------


def bound_quiver_algebra(field: Field, num_vertices: int, arrows: list[tuple[int, int]],
                         nil_index: int = 2, label: str = "") -> Algebra:
    """Path algebra of a quiver modulo all paths of length >= nil_index.

    Vertices are 0-based.  Products follow function composition: p * q is
    "q then p", nonzero only when q ends where p starts.  Basis order:
    trivial paths, arrows, then (for nil_index 3) composable arrow pairs.
    """
    if nil_index not in (2, 3):
        raise ValueError("only radical-square-zero and radical-cube-zero supported")
    paths: list[tuple[int, int, tuple[int, ...]]] = []  # (source, target, arrow indices)
    for v in range(num_vertices):
        paths.append((v, v, ()))
    for k, (s, t) in enumerate(arrows):
        paths.append((s, t, (k,)))
    if nil_index == 3:
        for k2, (s2, t2) in enumerate(arrows):
            for k1, (s1, t1) in enumerate(arrows):
                if t1 == s2:  # k1 then k2
                    paths.append((s1, t2, (k1, k2)))
    n = len(paths)
    index = {p: i for i, p in enumerate(paths)}
    mult = np.zeros((n, n, n), dtype=object)
    for i, (ps, pt, pw) in enumerate(paths):
        for j, (qs, qt, qw) in enumerate(paths):
            # p * q = "q then p": needs target(q) = source(p)
            if qt != ps:
                continue
            word = qw + pw
            if len(word) >= nil_index:
                continue
            key = (qs, pt, word)
            mult[i, j, index[key]] = 1
    unit = np.zeros(n, dtype=object)
    for v in range(num_vertices):
        unit[index[(v, v, ())]] = 1
    rad_cols = [i for i, p in enumerate(paths) if p[2]]
    radical = Mat.zeros(field, n, len(rad_cols)).a.copy()
    for c, i in enumerate(rad_cols):
        radical[i, c] = 1
    alg = Algebra(field, mult, unit, radical=Mat(field, radical),
                  label=label or f"kQ({num_vertices}v,{len(arrows)}a)/rad^{nil_index}",
                  check=False)
    alg.quiver = {"vertices": num_vertices, "arrows": list(arrows),
                  "nil_index": nil_index, "paths": paths}
    return alg


def quiver_simple(algebra: Algebra, vertex: int) -> Module:
    """Simple module at a vertex of a bound quiver algebra."""
    if algebra.quiver is None:
        raise ValueError("algebra does not carry quiver data")
    paths = algebra.quiver["paths"]
    field = algebra.field
    action = []
    for _, (s, t, w) in enumerate(paths):
        one = (not w) and s == vertex
        action.append(Mat(field, [[1 if one else 0]]))
    return Module(algebra, action=action, label=f"S{vertex}")


def random_bound_quiver_algebra(rng: Random, field: Field, max_vertices: int = 3,
                                max_arrows: int = 3) -> Algebra:
    """Random small bound quiver algebra for the randomized suites."""
    nv = rng.randint(2, max_vertices)
    na = rng.randint(1, max_arrows)
    arrows = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(na)]
    nil = rng.choice((2, 2, 3))
    return bound_quiver_algebra(field, nv, arrows, nil_index=nil)


def truncated_polynomial_algebra(field: Field, n: int = 3) -> Algebra:
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    mult = np.zeros((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mult[i, j, i + j] = 1
    unit = np.zeros(n, dtype=object)
    unit[0] = 1
    rad = np.zeros((n, n - 1), dtype=object)
    for c in range(n - 1):
        rad[c + 1, c] = 1
    return Algebra(field, mult, unit, radical=Mat(field, rad),
                   label=f"k[x]/(x^{n})", check=False)
