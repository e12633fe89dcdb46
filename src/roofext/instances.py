"""Worked instances and seeded random generators.

The fixed instances are the two showcases everything else is checked
against: the truncated polynomial ring k[x]/(x^3) with its submodule
filtration (x^2) in (x) in A, and the A3 quiver with radical square zero,
whose simples carry the canonical nonzero degree-2 product.  The random
generators draw small bound-quiver algebras, modules, filtrations,
composable extension pairs, and bounded complexes; all of them are driven
by an explicit Random instance so runs are reproducible from a seed.
"""

from __future__ import annotations

from random import Random

from .algebra import (
    Algebra,
    Filtration,
    Module,
    ModuleHom,
    bound_quiver_algebra,
    direct_sum,
    free_module,
    hom_space,
    quiver_simple,
    random_bound_quiver_algebra,
    submodule,
    submodule_quotient,
    truncated_polynomial_algebra,
)
from .complexes import Complex
from .errors import DegenerateFiltrationError
from .ext import ExtElement, ExtensionSeq, ext_group, extension_from_class
from .linalg import QQ, Field, Mat, hstack, random_mat

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


def random_module(rng: Random, algebra: Algebra, max_dim: int = 4,
                  tries: int = 64) -> Module:
    """A random quotient of the regular module with 1 <= dim <= max_dim."""
    free = free_module(algebra, 1)
    if free.dim <= max_dim and rng.random() < 0.2:
        return free
    for _ in range(tries):
        k = rng.randint(1, max(1, algebra.dim - 1))
        incl = submodule(free, random_mat(rng, algebra.field, free.dim, k))
        if incl.source.dim in (0, free.dim):
            continue
        quot, _, _ = submodule_quotient(free, incl)
        if 1 <= quot.dim <= max_dim:
            return quot
    if algebra.quiver is not None:
        return quiver_simple(algebra, rng.randrange(algebra.quiver["vertices"]))
    raise RuntimeError("could not draw a small random module")


def random_filtration(rng: Random, field: Field, max_dim: int = 6,
                      tries: int = 400) -> Filtration:
    """A nondegenerate nested pair F1 in F2 in G over a random quiver algebra."""
    for _ in range(tries):
        algebra = random_bound_quiver_algebra(rng, field)
        ambient = random_module(rng, algebra, max_dim=max_dim)
        if ambient.dim < 3:
            continue
        f1 = submodule(ambient, random_mat(rng, field, ambient.dim, 1))
        if not 1 <= f1.source.dim <= ambient.dim - 2:
            continue
        extra = random_mat(rng, field, ambient.dim, 1)
        f2 = submodule(ambient, hstack([f1.matrix, extra]))
        if not f1.source.dim < f2.source.dim < ambient.dim:
            continue
        filt = Filtration(ambient, f1, f2)
        try:
            filt.check_nondegenerate()
        except DegenerateFiltrationError:  # pragma: no cover - guarded above
            continue
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
    so the sub of each sequence is the quotient of the next.
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
    raise RuntimeError(f"could not draw a composable chain of {length} extensions")


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
    sums = {n: direct_sum([p.obj(n) for p in parts]) for n in range(lo, hi + 1)}
    objects = {n: sums[n][0] for n in sums}
    diffs = {}
    for n in range(lo, hi):
        amb, injs, _ = sums[n + 1]
        _, _, projs = sums[n]
        total = ModuleHom.zero(objects[n], amb)
        for i, p in enumerate(parts):
            total = total + (injs[i] @ p.diff(n) @ projs[i])
        diffs[n] = total
    return Complex(algebra, objects, diffs, check=True)


def _random_hom(rng: Random, m: Module, n: Module) -> ModuleHom:
    basis = hom_space(m, n)
    if not basis:
        return ModuleHom.zero(m, n)
    field = m.field
    flat = hstack([Mat(field, b.matrix.a.reshape(-1, 1)) for b in basis])
    acc = (flat @ random_mat(rng, field, len(basis), 1)).a.reshape(n.dim, m.dim)
    return ModuleHom(m, n, Mat(field, acc), check=False)


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
