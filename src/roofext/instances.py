"""Worked instances and seeded random generators.

The fixed instances are the two showcases everything else is checked
against: the truncated polynomial ring k[x]/(x^3) with its submodule
filtration (x^2) in (x) in A, and the A3 quiver with radical square zero,
whose simples carry the canonical nonzero degree-2 product.  The random
generators draw small bound-quiver algebras, modules, filtrations,
composable extension pairs, and bounded complexes from an explicit Random,
so runs are reproducible from a seed.  The rejection samplers decide each
draw by Nakayama's top test or by ranks in regular-module coordinates (see
_draw_module), and build only the draw they return: random_filtration
decides on a quiver shape's table, so it builds one algebra per filtration.
Per try, the table comes from the shape's stored pattern of 1s (see
algebra._quiver_table), the top test reads the raw draws before any array
exists, and a decision computes nothing until its rank or its module is
asked for; a kept quotient is built from the rows it was decided on.
"""

from __future__ import annotations

from functools import partial
from random import Random
from typing import Callable

import numpy as np

from .algebra import (
    Algebra,
    Filtration,
    Module,
    ModuleHom,
    _hom_matrix,
    _quiver_table,
    _random_quiver_shape,
    bound_quiver_algebra,
    direct_sum,
    free_module,
    quiver_simple,
    random_bound_quiver_algebra,
    submodule,
    submodule_quotient,
    truncated_polynomial_algebra,
)
from .complexes import Complex
from .errors import DegenerateFiltrationError, InvariantError
from .ext import ExtElement, ExtensionSeq, ext_group, extension_from_class
from .linalg import (
    QQ,
    Field,
    Mat,
    _dot,
    _draw_offset,
    _draws_array,
    _random_draws,
    block_diag,
    hstack,
    pivots,
    random_mat,
    rank,
)

__all__ = [
    "kx3_regular",
    "kx3_simple",
    "kx3_filtration",
    "ka3_algebra",
    "ka3_simples",
    "ka3_first_step",
    "ka3_second_step",
    "random_module",
    "random_filtration",
    "random_ext_element",
    "random_ses_pair",
    "random_ses_triple",
    "random_complex",
    "sum_complexes",
]


# -- fixed showcase instances -------------------------------------------------


def kx3_regular(field: Field = QQ) -> Module:
    """k[x]/(x^3) as a module over itself."""
    return free_module(truncated_polynomial_algebra(field, 3), 1, label="A")


def kx3_simple(field: Field = QQ) -> Module:
    """The one-dimensional module k = A/(x) over A = k[x]/(x^3)."""
    alg = truncated_polynomial_algebra(field, 3)
    one = Mat(field, [[1]])
    zero = Mat.zeros(field, 1, 1)
    return Module(alg, action=[one, zero, zero], label="k")


def kx3_filtration(field: Field = QQ) -> Filtration:
    """The filtration (x^2) in (x) in k[x]/(x^3)."""
    amb = kx3_regular(field)
    x = Mat.zeros(field, 3, 1).a.copy()
    x[1, 0] = 1
    x2 = Mat.zeros(field, 3, 1).a.copy()
    x2[2, 0] = 1
    f1 = submodule(amb, Mat(field, x2), label="(x^2)")
    f2 = submodule(amb, Mat(field, x), label="(x)")
    return Filtration(amb, f1, f2)


def ka3_algebra(field: Field = QQ) -> Algebra:
    """Path algebra of 1 -> 2 -> 3 with radical square zero."""
    return bound_quiver_algebra(field, 3, [(0, 1), (1, 2)], nil_index=2,
                                label="kA3/rad^2")


def ka3_simples(field: Field = QQ) -> tuple[Module, Module, Module]:
    alg = ka3_algebra(field)
    return quiver_simple(alg, 0), quiver_simple(alg, 1), quiver_simple(alg, 2)


def _projective_cover_sequence(alg: Algebra, vertex: int) -> ExtensionSeq:
    """0 -> S_(vertex+1) -> P_vertex -> S_vertex -> 0 for the A3 quiver."""
    regular = free_module(alg, 1)
    e = Mat.zeros(alg.field, alg.dim, 1).a.copy()
    e[vertex, 0] = 1
    incl = submodule(regular, Mat(alg.field, e))
    proj_mod = incl.source  # basis: trivial path, then the arrow out of vertex
    top = quiver_simple(alg, vertex)
    soc = quiver_simple(alg, vertex + 1)
    inj = ModuleHom(soc, proj_mod, Mat(alg.field, [[0], [1]]), check=True)
    surj = ModuleHom(proj_mod, top, Mat(alg.field, [[1, 0]]), check=True)
    return ExtensionSeq([soc, proj_mod, top], [inj, surj])


def ka3_first_step(field: Field = QQ) -> ExtensionSeq:
    """The nonsplit sequence 0 -> S2 -> P1 -> S1 -> 0."""
    return _projective_cover_sequence(ka3_algebra(field), 0)


def ka3_second_step(field: Field = QQ) -> ExtensionSeq:
    """The nonsplit sequence 0 -> S3 -> P2 -> S2 -> 0."""
    return _projective_cover_sequence(ka3_algebra(field), 1)


# -- random generators --------------------------------------------------------


def _generates_regular(nv: int, entries: list, k: int, zero=0) -> bool:
    """Nakayama's top test on an n x k generator matrix given row by row as
    entries, zero the entry that stands for 0: as A/rad A = k^nv, the columns
    generate a bound quiver algebra A with nv vertices exactly when each vertex
    v has a column with a nonzero coordinate on the trivial path e_v (the first
    nv rows)."""
    return all(entries[v * k:(v + 1) * k].count(zero) < k for v in range(nv))


def _images(field: Field, stacked: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Row s*k + j is e_s g_j, e_s acting by block s of stacked: one product."""
    a, k = gens.shape
    return _dot(field, stacked, gens).reshape(-1, a, k).transpose(0, 2, 1).reshape(-1, a)


# a draw: (dimension, rank_of, builder), where rank_of(g) = dim A g in the module
_Draw = tuple[int, Callable[[Mat], int], Callable[[], Module]]


def _draw_module(rng: Random, field: Field, nv: int | None, stacked: np.ndarray,
                 algebra: Callable[[], Algebra], max_dim: int = 4, tries: int = 64) -> _Draw:
    """random_module's draw, decided in F = A^1 from A's vertex count nv (None:
    no quiver) and left-regular table stacked; only the builder calls algebra().

    Generators gens leave G = F / A gens.  Nakayama's top test runs on the raw
    draws, so a draw whose generators span F makes no array.  With rows = [e_s
    g_j] of rank n, dim G = F.dim - n; G is built as submodule_quotient(F,
    rows.T), as the canonical quotient depends only on the span of rows.  The
    pivots of rows are those of that quotient's kernel, so its section lifts g
    in G to g off them, 0 on them, and dim A g = rank [rows; e_s lift g] - n.
    Building F checks that stacked is the built algebra's table.  Giving up
    over an algebra without a quiver raises DegenerateFiltrationError.
    """
    n = stacked.shape[1]

    def regular() -> Module:
        free = free_module(algebra(), 1)
        if not np.array_equal(free._blocks()[2], stacked):
            raise InvariantError("a module was decided on a table that is not its algebra's")
        return free

    if n <= max_dim and rng.random() < 0.2:
        return _decided(field, stacked, regular)
    zero = _draw_offset(field)
    for _ in range(tries):
        k = rng.randint(1, max(1, n - 1))
        draws = _random_draws(rng, field, n * k)
        if nv is not None and _generates_regular(nv, draws, k, zero):
            continue
        rows = Mat._of(field, _images(field, stacked, _draws_array(field, draws, n, k)))
        piv = pivots(rows)
        if piv and 1 <= n - len(piv) <= max_dim:
            return _decided(field, stacked, lambda: submodule_quotient(regular(), rows.T)[0],
                            rows, piv)
    if nv is not None:
        v = rng.randrange(nv)  # e_i acts on S_v by 1 if i = v, else by 0
        return _decided(field, field.reduce(np.eye(n, 1, -v, dtype=np.int64)),
                        lambda: quiver_simple(algebra(), v))
    raise DegenerateFiltrationError(f"no small random module in {tries} tries")


def _decided(field: Field, stacked: np.ndarray, make: Callable[[], Module],
             rows: Mat | None = None, piv: tuple[int, ...] = ()) -> _Draw:
    """The draw of G = M / span(rows.T), e_i acting on M by the i-th square block
    of stacked, piv the pivots of rows; build() checks make() gives that dim G.
    Nothing is computed until rank_of or build runs."""
    dim = stacked.shape[1] - len(piv)

    def rank_of(g: Mat) -> int:
        lift = field.zeros((stacked.shape[1], g.ncols))
        lift[[j for j in range(stacked.shape[1]) if j not in piv]] = g.a
        hit = _images(field, stacked, lift)
        stack = hit if rows is None else np.vstack([rows.a, hit])
        return rank(Mat._of(field, stack)) - len(piv)

    def build() -> Module:
        out = make()
        if out.dim != dim:
            raise InvariantError(f"a module decided at dimension {dim} was built at {out.dim}")
        return out

    return dim, rank_of, build


def _draw_over(rng: Random, algebra: Algebra, max_dim: int, tries: int = 64) -> _Draw:
    """_draw_module over an algebra that is already built."""
    return _draw_module(rng, algebra.field, algebra.quiver and algebra.quiver["vertices"],
                        free_module(algebra, 1)._blocks()[2], lambda: algebra, max_dim, tries)


def random_module(rng: Random, algebra: Algebra, max_dim: int = 4,
                  tries: int = 64) -> Module:
    """A random quotient of the regular module with 1 <= dim <= max_dim;
    DegenerateFiltrationError if none is found over an algebra without a quiver."""
    return _draw_over(rng, algebra, max_dim, tries)[2]()


def random_filtration(rng: Random, field: Field, max_dim: int = 6,
                      tries: int = 400) -> Filtration:
    """A nondegenerate nested pair F1 in F2 in G over a random quiver algebra.

    Each try decides G on a drawn quiver shape's left-regular table, and F1 =
    A g1 and F2 = A [g1 | g2] on their ranks in regular-module coordinates (see
    _draw_module); only the draw returned is built, its algebra included.
    """
    for _ in range(tries):
        shape = _random_quiver_shape(rng)
        dim, rank_of, build = _draw_module(rng, field, shape[0], _quiver_table(field, *shape),
                                           partial(bound_quiver_algebra, field, *shape), max_dim)
        if dim < 3:
            continue
        g1 = random_mat(rng, field, dim, 1)
        if not 1 <= (r1 := rank_of(g1)) <= dim - 2:
            continue
        g12 = hstack([g1, random_mat(rng, field, dim, 1)])
        if not r1 < (r12 := rank_of(g12)) < dim:
            continue
        ambient = build()
        filt = Filtration(ambient, submodule(ambient, g1), submodule(ambient, g12))
        if (filt.f1.source.dim, filt.f2.source.dim) != (r1, r12):
            raise InvariantError("a built filtration differs from the ranks it was decided on")
        return filt
    raise DegenerateFiltrationError(f"no nondegenerate filtration in {tries} tries")


def random_ext_element(rng: Random, basis: list[ExtElement],
                       nonzero: bool = True, tries: int = 32) -> ExtElement:
    """Random combination of a basis of one Ext group; nonzero ones need a nonempty basis."""
    if not basis:
        raise ValueError("empty basis has no nonzero elements")
    field = basis[0].source.field
    vecs = hstack([b.vec for b in basis])
    for _ in range(tries):
        out = ExtElement(basis[0].space, vecs @ random_mat(rng, field, len(basis), 1))
        if not nonzero or not out.is_zero():
            return out
    return basis[0]


def _random_ses_chain(rng: Random, field: Field, length: int,
                      tries: int) -> tuple[ExtensionSeq, ...]:
    """length composable extensions over one algebra.

    Draws modules M_0, ..., M_length; E_k classifies Ext^1(M_(k-1), M_k),
    so the sub of each sequence is the quotient of the next.  All of them
    are drawn first, but M_(k+1) is built only when the Ext^1 checks reach
    it; building takes no rng, so the draw stream is that of drawing and
    building each in turn.  Giving up raises DegenerateFiltrationError.
    """
    for _ in range(tries):
        algebra = random_bound_quiver_algebra(rng, field)
        builds = [_draw_over(rng, algebra, 4)[2] for _ in range(length + 1)]
        src, bases = builds[0](), []
        for build in builds[1:]:
            dst = build()
            dim, basis = ext_group(src, dst, 1)
            if dim == 0:
                break
            bases.append(basis)
            src = dst
        else:
            return tuple(extension_from_class(random_ext_element(rng, b)) for b in bases)
    raise DegenerateFiltrationError(f"no composable chain of {length} extensions in {tries} tries")


def random_ses_pair(rng: Random, field: Field,
                    tries: int = 400) -> tuple[ExtensionSeq, ExtensionSeq]:
    """Composable short exact sequences: E1 classifies Ext^1(M, N), E2
    classifies Ext^1(N, L), so class(E1) * class(E2) lands in Ext^2(M, L)."""
    return _random_ses_chain(rng, field, 2, tries)


def random_ses_triple(
    rng: Random, field: Field, tries: int = 800,
) -> tuple[ExtensionSeq, ExtensionSeq, ExtensionSeq]:
    """A chain of three composable extensions over one algebra.

    E1 classifies Ext^1(M, N), E2 classifies Ext^1(N, L), E3 classifies
    Ext^1(L, K); consecutive sub/quotient modules match, so the three roofs
    compose in either association.
    """
    return _random_ses_chain(rng, field, 3, tries)


def sum_complexes(parts: list[Complex]) -> Complex:
    """Degreewise direct sum of complexes over one algebra."""
    if not parts:
        raise ValueError("need at least one complex")
    algebra = parts[0].algebra
    lo = min(p.lo for p in parts)
    hi = max(p.hi for p in parts)
    objects = {n: direct_sum([p.obj(n) for p in parts])[0] for n in range(lo, hi + 1)}
    diffs = {n: ModuleHom(objects[n], objects[n + 1],
                          block_diag([p.diff(n).matrix for p in parts]), check=False)
             for n in range(lo, hi)}
    return Complex(algebra, objects, diffs, check=True)


def _random_hom(rng: Random, m: Module, n: Module) -> ModuleHom:
    K, _ = _hom_matrix(m, n)
    if not K.ncols:
        return ModuleHom.zero(m, n)
    acc = (K @ random_mat(rng, m.field, K.ncols, 1)).a.reshape(n.dim, m.dim)
    return ModuleHom(m, n, Mat._of(m.field, acc), check=False)


def random_complex(rng: Random, algebra: Algebra, max_dim: int = 4) -> Complex:
    """Random bounded complex with d*d = 0, degreewise dimension <= max_dim.

    Built from shifted pieces: single modules, two-term maps, and exact
    three-term quotient sequences, direct-summed at random offsets.
    """
    parts: list[Complex] = []
    width_left = max_dim
    for _ in range(rng.randint(1, 3)):
        if width_left < 1:
            break
        off = rng.randint(-2, 1)
        kind = rng.randrange(3)
        piece_cap = max(1, min(2, width_left))
        m = random_module(rng, algebra, piece_cap)
        if kind == 0:
            parts.append(Complex.single(m, off))
        else:
            n = random_module(rng, algebra, piece_cap)
            f = _random_hom(rng, m, n)
            if kind == 1:
                parts.append(Complex(algebra, {off: m, off + 1: n}, {off: f}))
            else:
                quot, proj, _ = submodule_quotient(n, f.image())
                parts.append(Complex(algebra, {off: m, off + 1: n, off + 2: quot},
                                     {off: f, off + 1: proj}))
        # every module in the piece has dim <= piece_cap, so charging the cap
        # keeps each total degree at or below max_dim
        width_left -= piece_cap
    return sum_complexes(parts)
