"""Finite-dimensional algebras and their left modules, with exact scalars.

An algebra is a structure-constant table over Q or F_p; a module is one
array, its action matrices side by side, [A_0 | A_1 | ...] with A_i the
action of the i-th algebra basis vector.  Free modules are kept symbolic
(rank + block structure) so resolutions never materialize the
block-diagonal action of a large free module just to multiply by it.

Every action is one block product: a module is r blocks of size a, and e_i
acts on each block by the same a x a matrix M_i -- r = 1 and M_i = A_i for
an explicit module, a = dim A and M_i = left_mult(i) = mult[i].T for a free
one, whose stack is the transposed structure-constant table, reshaped.
The law checks are block products too: one product tests the unit and one
tests all n^2 relations M_i M_j = sum_k c_ijk M_k (see _law_failure); the
algebra checks its own left regular representation the same way.

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

from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from random import Random

import numpy as np

from .errors import DegenerateFiltrationError, InvariantError, NotSubmoduleError, SchemaError
from .linalg import (
    Field,
    Mat,
    _dot,
    _kernel,
    _null_basis,
    _reduced,
    hstack,
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
        # an ndarray is reduced as it is; nested lists go through exact objects
        arr = np.asarray(mult, dtype=getattr(mult, "dtype", object))
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[0] != arr.shape[2]:
            raise SchemaError(f"structure constants must be n*n*n, got {arr.shape}")
        self.dim = arr.shape[0]
        self.mult = field.reduce(arr)
        u = field.reduce(np.asarray(unit, dtype=getattr(unit, "dtype", object)).reshape(-1))
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

    def validate(self) -> None:
        """The left unit and associativity hold exactly when the left regular
        representation is a module; one more product checks the right unit."""
        n = self.dim
        bad = _law_failure(self, self.mult.transpose(0, 2, 1).reshape(n * n, n), n)
        if bad == "unit":
            raise SchemaError("unit fails: 1 * e_j != e_j for some j")
        # entry j*n + k is the e_k coordinate of e_j * 1
        right = _dot(self.field, self.unit.reshape(1, n),
                     self.mult.transpose(1, 0, 2).reshape(n, n * n))
        if Mat(self.field, right.reshape(n, n)) != Mat.identity(self.field, n):
            raise SchemaError("unit fails: e_j * 1 != e_j for some j")
        if bad:
            i, j = bad
            raise SchemaError(f"associativity fails on basis triple (e_{i}, e_{j}, *)")

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.field.name, self.dim,
                         tuple(map(str, self.mult.reshape(-1).tolist())),
                         tuple(map(str, self.unit.tolist())))
        return self._key

    def __eq__(self, other):
        return other is self or isinstance(other, Algebra) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Algebra({self.label or self.field.name}, dim={self.dim})"


class Module:
    """Finite-dimensional left module, explicit or free.

    An explicit module stores one array, its action matrices side by side:
    actions() = [A_0 | A_1 | ...], A_i the action of e_i; act_mat(i) is a
    slice of it and _blocks() its stacked form.  `action` is that array, or
    the list of the A_i, stacked once.  Free modules store only their rank;
    actions are applied blockwise through the regular representation (see
    _blocks), and actions() is built from that once, when asked for.
    """

    def __init__(self, algebra: Algebra, action: list[Mat] | Mat | None = None,
                 free_rank: int | None = None, label: str = ""):
        self.algebra = algebra
        self.label = label
        self._cache: dict = {}
        self._key: tuple | None = None
        self.free_rank = free_rank
        if free_rank is not None:
            self.dim = free_rank * algebra.dim
            self._hit = None
        else:
            if isinstance(action, Mat):
                hit = action
            elif action is None or len(action) != algebra.dim:
                raise SchemaError("need one action matrix per algebra basis vector")
            else:
                dim = action[0].nrows if action else 0
                if any(m.shape != (dim, dim) for m in action):
                    raise SchemaError("action matrices must be square of module dimension")
                hit = hstack(action) if action else Mat.zeros(algebra.field, 0, 0)
            if hit.ncols != algebra.dim * hit.nrows:
                raise SchemaError(f"{hit.ncols} action columns are not dim A = {algebra.dim}"
                                  f" square blocks of module dimension {hit.nrows}")
            self._hit = hit
            self.dim = hit.nrows

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def is_free(self) -> bool:
        return self.free_rank is not None

    def act_mat(self, i: int) -> Mat:
        return Mat._of(self.field, self.actions().a[:, i * self.dim : (i + 1) * self.dim])

    def _blocks(self) -> tuple[int, int, np.ndarray]:
        """(a, r, stacked): r blocks of size a, and e_i acts on every block by
        stacked[i*a:(i+1)*a], cached."""
        if "blocks" not in self._cache:
            n = self.algebra.dim
            if self.is_free:
                stacked = self.algebra.mult.transpose(0, 2, 1).reshape(n * n, n)
                self._cache["blocks"] = (n, self.free_rank, stacked)
            else:
                d = self.dim
                stacked = self._hit.a.reshape(d, n, d).transpose(1, 0, 2).reshape(n * d, d)
                self._cache["blocks"] = (d, 1, stacked)
        return self._cache["blocks"]

    def _apply(self, stacked: np.ndarray, k: int, vecs: Mat) -> Mat:
        """[M_0 vecs | ... | M_(k-1) vecs] for k stacked a x a matrices M_j,
        each acting on every block: one product with all blocks side by side."""
        a, r, _ = self._blocks()
        c = vecs.ncols
        blocks = vecs.a.reshape(r, a, c).transpose(1, 0, 2).reshape(a, r * c)
        out = _dot(self.field, stacked, blocks).reshape(k, a, r, c)
        return Mat._of(self.field, out.transpose(2, 1, 0, 3).reshape(self.dim, k * c))

    def act(self, i: int, vecs: Mat) -> Mat:
        """Action of e_i on column vectors."""
        a, _, stacked = self._blocks()
        return self._apply(stacked[i * a : (i + 1) * a], 1, vecs)

    def act_all(self, vecs: Mat) -> Mat:
        """[e_0 vecs | e_1 vecs | ...]: every basis vector's action, side by side."""
        return self._apply(self._blocks()[2], self.algebra.dim, vecs)

    def actions(self) -> Mat:
        """[A_0 | A_1 | ...]: the stored array, or act_all(identity) once for
        a free module."""
        if self._hit is None:  # a free module
            self._hit = self.act_all(Mat.identity(self.field, self.dim))
        return self._hit

    def validate(self) -> None:
        a, _, stacked = self._blocks()
        bad = _law_failure(self.algebra, stacked, a)
        if bad == "unit":
            raise SchemaError("module fails unit law: action(1) != identity")
        if bad:
            i, j = bad
            raise SchemaError(f"module action incompatible on basis pair (e_{i}, e_{j})")

    def key(self) -> tuple:
        # keyed on the action itself, so a free module and an explicit copy
        # of its regular action compare equal
        if self._key is None:
            self._key = (self.algebra.key(), self.dim,
                         tuple(self.act_mat(i).key() for i in range(self.algebra.dim)))
        return self._key

    def __eq__(self, other):
        return other is self or isinstance(other, Module) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        tag = f"free^{self.free_rank}" if self.is_free else f"dim={self.dim}"
        name = f" {self.label}" if self.label else ""
        return f"Module({tag}{name})"


class ModuleHom:
    """A-linear map between modules over the same algebra."""

    def __init__(self, source: Module, target: Module, matrix: Mat, check: bool = True):
        if source.algebra is not target.algebra and source.algebra != target.algebra:
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
        """One comparison: [A_0 F | A_1 F | ...] = F [B_0 | B_1 | ...]."""
        m = self.source.dim
        moved = self.matrix @ self.source.actions()
        bad = self.target.act_all(self.matrix).a != moved.a
        if np.count_nonzero(bad):
            i = int(np.flatnonzero(bad.any(axis=0))[0]) // m
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


def _law_failure(algebra: Algebra, stacked: np.ndarray, a: int):
    """First failing law when e_i acts on blocks of size a by M_i =
    stacked[i*a:(i+1)*a]: "unit" if sum_i u_i M_i != I, else the first pair
    (i, j) in row-major order with M_i M_j != sum_k c_ijk M_k, else None.
    All pairs take two products: stacked @ [M_0 | ... | M_(n-1)] holds every
    M_i M_j, and row i*n + j of mult.reshape(n*n, n) @ stacked.reshape(n, a*a)
    holds the right side of pair (i, j), flattened.
    """
    field, n = algebra.field, algebra.dim
    flat = stacked.reshape(n, a * a)
    unit = _dot(field, algebra.unit.reshape(1, n), flat).reshape(a, a)
    if Mat(field, unit) != Mat.identity(field, a):
        return "unit"
    side = stacked.reshape(n, a, a).transpose(1, 0, 2).reshape(a, n * a)
    lhs = _dot(field, stacked, side).reshape(n, a, n, a).transpose(0, 2, 1, 3)
    rhs = _dot(field, algebra.mult.reshape(n * n, n), flat)
    bad = lhs.reshape(n * n, a * a) != rhs
    if np.count_nonzero(bad):
        return divmod(int(np.flatnonzero(bad.any(axis=1))[0]), n)
    return None


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


def _closure(module: Module, gens: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Canonical basis of the submodule generated by the given columns.

    That submodule is A*G = span{e_i g}, so one RREF of all action images
    gives it.  The basis is the transposed RREF; the returned pivots index
    the rows where it is the identity.
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
    sub = Module(module.algebra, action=coords, label=label)
    return ModuleHom(sub, module, basis, check=False)


def submodule_quotient(module: Module, incl: ModuleHom | Mat):
    """Quotient of a module by the image of an inclusion, or by the span of
    the columns of a matrix.

    Returns (quotient module, projection hom, section matrix); the section
    picks representatives for the canonical quotient coordinates and
    satisfies proj @ section = identity.  Raises NotSubmoduleError when the
    image is not action-stable; a redundant spanning set is checked on its
    span's reduced basis, so it costs no more than a basis.
    """
    gens = incl.matrix if isinstance(incl, ModuleHom) else incl
    piv, take = _reduced(gens.T)
    K, free = _null_basis(module.field, piv, take, module.dim)
    proj = K.T  # canonical quotient coordinates: see the linalg docstring
    basis = gens if gens.ncols == len(piv) else Mat._of(module.field, take(range(module.dim)).T)
    escaped = (proj @ module.act_all(basis)).a != 0
    if np.count_nonzero(escaped):
        i = int(np.flatnonzero(escaped.any(axis=0))[0]) // basis.ncols
        raise NotSubmoduleError(f"image not stable under the action of e_{i}")
    section = Mat.identity(module.field, module.dim).take_cols(free)
    quot = Module(module.algebra, action=proj @ module.act_all(section))
    return quot, ModuleHom(module, quot, proj, check=False), section


def _hom_matrix(source: Module, target: Module) -> tuple[Mat, tuple[int, ...]]:
    """(K, free): Hom_A(source, target) as the columns of K, each hom F
    flattened row-major, with K the identity on its free rows (see _kernel).

    Solved as one kernel computation: row-major vectorization turns the
    intertwining constraints A_i F = F B_i into (A_i (x) I - I (x) B_i^T)
    vec(F) = 0, placed entrywise: row (i, p, q) holds A_i[p, r] at column
    (r, q) and -B_i[s, q] at column (p, s).
    """
    n, m, k = target.dim, source.dim, source.algebra.dim
    field = source.field
    A = target.actions().a.reshape(n, k, n).transpose(1, 0, 2)
    BT = source.actions().a.reshape(m, k, m).transpose(1, 2, 0)  # B_i^T
    cons = field.zeros((k, n, m, n, m))
    cons[:, :, range(m), :, range(m)] = A
    cons[:, range(n), :, range(n), :] -= BT
    return _kernel(Mat(field, cons.reshape(k * n * m, n * m)))


def hom_space(source: Module, target: Module) -> list[ModuleHom]:
    """Basis of the space of A-linear maps source -> target: the columns of
    _hom_matrix, reshaped."""
    K, _ = _hom_matrix(source, target)
    shape = (target.dim, source.dim)
    return [ModuleHom(source, target, Mat._of(source.field, K.a[:, j].reshape(shape)),
                      check=False) for j in range(K.ncols)]


def direct_sum(mods: list[Module]):
    """Direct sum with injection and projection homs: each summand's
    actions() fill its diagonal block of every action matrix in one array,
    and the injections and projections are slices of one identity."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use a zero module")
    algebra = mods[0].algebra
    field = mods[0].field
    n = algebra.dim
    offs = list(accumulate([m.dim for m in mods], initial=0))
    hit = field.zeros((offs[-1], n, offs[-1]))  # [A_0 | A_1 | ...], reshaped
    for m, o in zip(mods, offs):
        if m.dim:
            hit[o:o + m.dim, :, o:o + m.dim] = m.actions().a.reshape(m.dim, n, m.dim)
    amb = Module(algebra, action=Mat._of(field, hit.reshape(offs[-1], n * offs[-1])))
    eye = Mat.identity(field, offs[-1]).a
    injs = [ModuleHom(m, amb, Mat._of(field, eye[:, o:o + m.dim]), check=False)
            for m, o in zip(mods, offs)]
    projs = [ModuleHom(amb, m, Mat._of(field, eye[o:o + m.dim]), check=False)
             for m, o in zip(mods, offs)]
    return amb, injs, projs


# -- quiver algebras --------------------------------------------------------


def _quiver_paths(num_vertices: int, arrows: list[tuple[int, int]],
                  nil_index: int) -> tuple[list, np.ndarray]:
    """(paths, mult) of bound_quiver_algebra: its basis paths as (source,
    target, arrow indices) and its structure constants, 0s and 1s in int64."""
    if nil_index not in (2, 3):
        raise ValueError("only radical-square-zero and radical-cube-zero supported")
    if not all(0 <= v < num_vertices for arrow in arrows for v in arrow):
        raise ValueError("arrows must join vertices of the quiver")
    # the pair (k1, k2) is k1 then k2
    paths = [(v, v, ()) for v in range(num_vertices)]
    paths += [(s, t, (k,)) for k, (s, t) in enumerate(arrows)]
    pairs = [(k1, k2) for k2, (s2, _) in enumerate(arrows)
             for k1, (_, t1) in enumerate(arrows) if t1 == s2] if nil_index == 3 else []
    paths += [(arrows[k1][0], arrows[k2][1], (k1, k2)) for k1, k2 in pairs]
    n, nv = len(paths), num_vertices
    # e_i e_j = e_k is entry (i*n + j)*n + k; the nonzero products, each 1, are
    # e_t q = q for q ending at t, p e_s = p for p starting at s, and
    # (arrow k2) * (arrow k1) = the path "k1 then k2"
    ones = [(t * n + j) * n + j for j, (_, t, _) in enumerate(paths)]
    ones += [(j * n + s) * n + j for j, (s, _, _) in enumerate(paths)]
    ones += [((nv + k2) * n + nv + k1) * n + c
             for c, (k1, k2) in enumerate(pairs, nv + len(arrows))]
    mult = np.zeros(n**3, dtype=np.int64)
    mult[ones] = 1
    return paths, mult.reshape(n, n, n)


# Each quiver shape's left-regular table, kept as the flat positions of its
# 1s: the table is 0/1 over every field, so one read-only pattern per shape
# (nv, tuple(arrows), nil_index) serves them all, and as a pattern depends on
# its key alone, sharing the store cannot change a result.  Only
# random_filtration reads it, over the 1,806 shapes of _random_quiver_shape:
# about 0.4 MB of arrays.
_TABLE_ONES: dict[tuple, tuple[int, np.ndarray]] = {}


def _quiver_table(field: Field, nv: int, arrows: list[tuple[int, int]],
                  nil_index: int) -> np.ndarray:
    """free_module(bound_quiver_algebra(field, nv, arrows, nil_index), 1)._blocks()[2],
    unbuilt: one zeros and one put of the shape's stored pattern of 1s."""
    key = (nv, tuple(arrows), nil_index)
    record = _TABLE_ONES.get(key)
    if record is None:
        mult = _quiver_paths(nv, arrows, nil_index)[1]
        ones = np.flatnonzero(mult.transpose(0, 2, 1)).copy()  # not a view of nonzero's output
        ones.setflags(write=False)
        record = _TABLE_ONES[key] = (len(mult), ones)
    n, ones = record
    table = field.zeros((n * n, n))
    table.put(ones, 1)
    return table


def bound_quiver_algebra(field: Field, num_vertices: int, arrows: list[tuple[int, int]],
                         nil_index: int = 2, label: str = "") -> Algebra:
    """Path algebra of a quiver modulo all paths of length >= nil_index.

    Vertices are 0-based.  Products follow function composition: p * q is
    "q then p", nonzero only when q ends where p starts.  Basis order:
    trivial paths, arrows, then (for nil_index 3) composable arrow pairs.
    """
    paths, mult = _quiver_paths(num_vertices, arrows, nil_index)
    n, nv = len(paths), num_vertices
    unit = np.repeat(np.array([1, 0], dtype=np.int64), [nv, n - nv])
    alg = Algebra(field, mult, unit,
                  radical=Mat(field, np.eye(n, n - nv, -nv, dtype=np.int64)),
                  label=label or f"kQ({num_vertices}v,{len(arrows)}a)/rad^{nil_index}",
                  check=False)
    alg.quiver = {"vertices": num_vertices, "arrows": list(arrows),
                  "nil_index": nil_index, "paths": paths}
    return alg


def quiver_simple(algebra: Algebra, vertex: int) -> Module:
    """Simple module at a vertex of a bound quiver algebra: the trivial path
    at the vertex acts by 1, every other basis path by 0."""
    if algebra.quiver is None or not 0 <= vertex < algebra.quiver["vertices"]:
        raise ValueError(f"algebra has no quiver with a vertex {vertex}")
    hit = Mat(algebra.field, np.eye(1, algebra.dim, vertex, dtype=np.int64))
    return Module(algebra, action=hit, label=f"S{vertex}")


def _random_quiver_shape(rng: Random) -> tuple:
    """(vertices, arrows, nil_index) of a random small bound quiver algebra:
    2-3 vertices, 1-3 arrows, and radical square or cube zero."""
    nv, na = rng.randint(2, 3), rng.randint(1, 3)
    return nv, [(rng.randrange(nv), rng.randrange(nv)) for _ in range(na)], rng.choice((2, 2, 3))


def random_bound_quiver_algebra(rng: Random, field: Field) -> Algebra:
    """Random small bound quiver algebra for the randomized suites (2-3
    vertices, 1-3 arrows; see _random_quiver_shape)."""
    return bound_quiver_algebra(field, *_random_quiver_shape(rng))


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
