"""Worked instances and seeded random generators.

The fixed instances are the two showcases everything else is checked
against: the truncated polynomial ring k[x]/(x^3) with its submodule
filtration (x^2) in (x) in A, and the A3 quiver with radical square zero,
whose simples carry the canonical nonzero degree-2 product.  The random
generators draw small bound-quiver algebras, modules, filtrations,
composable extension pairs, and bounded complexes from an explicit Random,
so runs are reproducible from a seed.  A drawn module is its table, the
stacked blocks of Module._blocks: one elimination decides it and makes it
(see _draw_module), and a kept table that passes the module laws becomes a
Module by one reshape.  random_filtration draws on a quiver shape's table,
from its stored pattern of 1s (see algebra._quiver_table), makes a try's
table only past dim 3, reads the submodule ranks in it, and builds one
algebra per filtration.
"""

from __future__ import annotations

from random import Random
from typing import Callable

import numpy as np

from .algebra import (
    Algebra,
    Filtration,
    Module,
    ModuleHom,
    _hom_matrix,
    _law_failure,
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
    _null_basis,
    _random_draws,
    _reduced,
    block_diag,
    hstack,
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


def _rank_of(table: np.ndarray, g: Mat) -> int:
    """dim A g in the module on which e_i acts by the i-th square block of table."""
    return rank(Mat._of(g.field, _images(g.field, table, g.a)))


def _draw_module(rng: Random, field: Field, nv: int | None, stacked: np.ndarray,
                 max_dim: int = 4, tries: int = 64) -> tuple[int, Callable[[], np.ndarray]]:
    """random_module's draw over the algebra A with nv vertices (None: no
    quiver) and left-regular table stacked, as (dim, table): table() makes
    the drawn module's own table, laid out as stacked.

    The draw is F = A^1 (table stacked), the simple S_v (one column), or
    G = F / A gens.  Nakayama's top test reads the raw draws of gens, so a
    draw whose generators span F makes no array; else the rows [e_s g_j]
    are reduced once, and their pivots give dim G and their null basis its
    table (see _quotient_table).  Giving up over an algebra without a quiver
    raises DegenerateFiltrationError.
    """
    n = stacked.shape[1]
    if n <= max_dim and rng.random() < 0.2:
        return n, lambda: stacked
    zero = _draw_offset(field)
    for _ in range(tries):
        k = rng.randint(1, max(1, n - 1))
        draws = _random_draws(rng, field, n * k)
        if nv is not None and _generates_regular(nv, draws, k, zero):
            continue
        rows = _images(field, stacked, _draws_array(field, draws, n, k))
        piv, take = _reduced(Mat._of(field, rows))
        if piv and 1 <= n - len(piv) <= max_dim:
            return n - len(piv), lambda: _quotient_table(field, stacked, piv, take)
    if nv is not None:
        v = rng.randrange(nv)  # e_v acts on S_v by 1, every other e_i by 0
        return 1, lambda: field.reduce(np.eye(n, 1, -v, dtype=np.int64))
    raise DegenerateFiltrationError(f"no small random module in {tries} tries")


def _quotient_table(field: Field, stacked: np.ndarray, piv: tuple[int, ...],
                    take: Callable) -> np.ndarray:
    """The table of F / span(rows) for rows reduced to (piv, take), e_i acting
    on F by M_i, the i-th block of stacked: with K, free their null basis, e_i
    acts by K.T @ M_i[:, free], as in submodule_quotient(F, rows.T)."""
    n = stacked.shape[1]
    K, free = _null_basis(field, piv, take, n)
    d = len(free)
    cols = stacked.reshape(-1, n, n)[:, :, list(free)].transpose(1, 0, 2).reshape(n, -1)
    return _dot(field, K.a.T, cols).reshape(d, -1, d).transpose(1, 0, 2).reshape(-1, d)


def _module(algebra: Algebra, table: np.ndarray, stacked: np.ndarray | None = None) -> Module:
    """The module on which e_i acts by the i-th square block of table.  A table
    that fails the module laws, or one drawn on a stacked other than
    algebra's left-regular table, raises InvariantError."""
    if stacked is not None and not np.array_equal(free_module(algebra, 1)._blocks()[2], stacked):
        raise InvariantError("a module was decided on a table that is not its algebra's")
    d = table.shape[1]
    if _law_failure(algebra, table, d) is not None:
        raise InvariantError("a drawn module's table fails the module laws")
    hit = table.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)
    return Module(algebra, action=Mat._of(algebra.field, hit))


def random_module(rng: Random, algebra: Algebra, max_dim: int = 4,
                  tries: int = 64) -> Module:
    """A random quotient of the regular module with 1 <= dim <= max_dim, as an
    explicit module; DegenerateFiltrationError if none is found over an
    algebra without a quiver."""
    nv = algebra.quiver and algebra.quiver["vertices"]
    stacked = free_module(algebra, 1)._blocks()[2]
    return _module(algebra, _draw_module(rng, algebra.field, nv, stacked, max_dim, tries)[1]())


def random_filtration(rng: Random, field: Field, max_dim: int = 6,
                      tries: int = 400) -> Filtration:
    """A nondegenerate nested pair F1 in F2 in G over a random quiver algebra.

    Each try draws G on a drawn quiver shape's left-regular table (see
    _draw_module), makes G's table if dim G >= 3, and decides F1 = A g1 and
    F2 = A [g1 | g2] on their ranks in it; only the draw returned is built,
    its algebra included.
    """
    for _ in range(tries):
        shape = _random_quiver_shape(rng)
        stacked = _quiver_table(field, *shape)
        dim, table = _draw_module(rng, field, shape[0], stacked, max_dim)
        if dim < 3:
            continue
        table = table()
        g1 = random_mat(rng, field, dim, 1)
        if not 1 <= (r1 := _rank_of(table, g1)) <= dim - 2:
            continue
        g12 = hstack([g1, random_mat(rng, field, dim, 1)])
        if not r1 < (r12 := _rank_of(table, g12)) < dim:
            continue
        ambient = _module(bound_quiver_algebra(field, *shape), table, stacked)
        filt = Filtration(ambient, submodule(ambient, g1), submodule(ambient, g12))
        if (filt.f1.source.dim, filt.f2.source.dim) != (r1, r12):
            raise InvariantError("a built filtration differs from the ranks it was decided on")
        return filt
    raise DegenerateFiltrationError(f"no nondegenerate filtration in {tries} tries")


def random_ext_element(rng: Random, basis: list[ExtElement]) -> ExtElement:
    """Random nonzero combination of a nonempty basis of one Ext group: the
    first nonzero of 32 draws, else basis[0]."""
    if not basis:
        raise ValueError("empty basis has no nonzero elements")
    field = basis[0].source.field
    vecs = hstack([b.vec for b in basis])
    for _ in range(32):
        out = ExtElement(basis[0].space, vecs @ random_mat(rng, field, len(basis), 1))
        if not out.is_zero():
            return out
    return basis[0]


def _random_ses_chain(rng: Random, field: Field, length: int,
                      tries: int) -> tuple[ExtensionSeq, ...]:
    """length composable extensions over one algebra.

    Draws modules M_0, ..., M_length, each built at once as random_module
    does; E_k classifies Ext^1(M_(k-1), M_k), so the sub of each sequence is
    the quotient of the next.  Giving up raises DegenerateFiltrationError.
    """
    for _ in range(tries):
        algebra = random_bound_quiver_algebra(rng, field)
        mods = [random_module(rng, algebra, 4) for _ in range(length + 1)]
        bases = []
        for src, dst in zip(mods, mods[1:]):
            dim, basis = ext_group(src, dst, 1)
            if dim == 0:
                break
            bases.append(basis)
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
                quot, proj, _ = submodule_quotient(n, f.matrix)
                parts.append(Complex(algebra, {off: m, off + 1: n, off + 2: quot},
                                     {off: f, off + 1: proj}))
        # every module in the piece has dim <= piece_cap, so charging the cap
        # keeps each total degree at or below max_dim
        width_left -= piece_cap
    return sum_complexes(parts)
