"""Truncated free resolutions, Ext groups, and the Yoneda product.

Ext^i(M, N) is computed as cocycles modulo coboundaries of the complex
Hom(P_•, N) for a free resolution P_• of M truncated at degree i: the
coboundaries come from d_i, and a cocycle is a hom P_i -> N vanishing on
ker d_i = im d_(i+1), so the syzygy basis of ker d_i that the resolution
computes anyway stands in for P_(i+1) (Weibel, §2.4-2.5).  A hom out of a
free module is just a choice of generator images, so cochain spaces are
coordinatized by stacked image vectors and every lift in sight is a plain
linear solve.

Classes carry canonical quotient coordinates (the transposed kernel of the
transpose, see linalg), so two classes are equal exactly when their
coordinate vectors are — regardless of which cocycle represented them.
One comparison lift, _lift_along, serves products (through a resolution),
extension classes (through the sequence) and roofs.to_ext_class (through
the apex); degree-1 classes convert back via a pushout.

Resolutions pick generators through the radical when the algebra knows
its radical (one per basis vector of the top, by Nakayama), otherwise by a
greedy scan and a pair-merging pass done as eliminations: one pivot scan of
the action images H of the whole basis, then one rank per merge candidate,
whose images are sums of blocks of H.  The pass ends once one generator
fewer could not span the basis: k generators span at most k * dim A.  Either
way H is the step's only action product: the differential out of the new
free module is read off it too.
"""

from __future__ import annotations

from itertools import combinations
from random import Random

import numpy as np

from .algebra import (
    Module,
    ModuleHom,
    direct_sum,
    free_module,
    submodule_quotient,
)
from .errors import InvariantError, MiddleMismatchError, SchemaError, TruncationError
from .linalg import (
    Mat,
    _dot,
    _kernel,
    hstack,
    pivots,
    rank,
    solve,
    subquotient,
    vstack,
)

__all__ = [
    "Resolution",
    "free_resolution",
    "minimal_generators",
    "hom_from_free",
    "ext_group",
    "ExtElement",
    "ext_element_from_images",
    "ext0_from_hom",
    "is_trivial",
    "yoneda_product",
    "ExtensionSeq",
    "class_of_extension",
    "extension_from_class",
    "splice",
    "lift_solve",
    "SPLICE_PRODUCT_SIGN",
]

# class(splice(e1, e2)) == SPLICE_PRODUCT_SIGN * yoneda_product(class(e1), class(e2)).
# With free resolutions, quotient-side splicing, and the lifting order used in
# yoneda_product, the two routes land on the same cocycle on the nose; the
# constant records that normalization and tests enforce it on instances where
# the product is nonzero (so a sign error cannot hide).
SPLICE_PRODUCT_SIGN = 1


def hom_from_free(target: Module, images: Mat) -> Mat:
    """Matrix of the hom A^r -> target sending generator t to images[:, t].

    Free-module coordinates are blocks of algebra coordinates: entry
    t*dim(A) + s is the e_s coefficient of the t-th component.
    """
    a, c = target.algebra.dim, images.ncols
    hit = target.act_all(images).a.reshape(target.dim, a, c)
    return Mat._of(target.field, hit.transpose(0, 2, 1).reshape(target.dim, c * a))


def minimal_generators(ambient: Module, basis: Mat, free: tuple[int, ...]) -> tuple[Mat, Mat]:
    """Pick a small generating set for the submodule spanned by basis columns.

    Returns the generators g and hom_from_free(ambient, g), the differential
    out of the free module on them, both read off the one action product
    H = hom_from_free(ambient, basis).  The span must already be
    action-stable, and basis the identity on its free rows, as _kernel's
    are.  With a known radical the pick is the basis vectors at the
    non-pivots of coords.T, for the radical images' coordinates
    coords = hit[free]: by Nakayama they generate, one per basis vector of
    top M = M / rad M.  That is the minimum over a local algebra, but over a
    quiver algebra with several vertices it keeps dim(top M) = Σ_v m_v
    generators, m_v = dim e_v(top M), while the minimum free rank is
    max_v m_v.  Without a radical, the greedy picker: one elimination scans
    the basis, then one rank decides each pair-merging candidate until the
    dimension bound ends the pass (see _greedy_generators).
    """
    H = hom_from_free(ambient, basis)
    if basis.ncols == 0:
        return basis, H
    rad = ambient.algebra.radical
    if rad is None:
        return _greedy_generators(ambient, basis, H)
    hit = _radical_images(ambient, H, rad)
    coords = hit.take_rows(free)
    if basis @ coords != hit:
        raise InvariantError("radical did not preserve the span")
    piv = set(pivots(coords.T))
    keep = [j for j in range(basis.ncols) if j not in piv]
    n = ambient.algebra.dim
    return basis.take_cols(keep), H.take_cols([j * n + s for j in keep for s in range(n)])


def _radical_images(ambient: Module, H: Mat, rad: Mat) -> Mat:
    """[R_0 basis | R_1 basis | ...] from H = hom_from_free(ambient, basis),
    R_j the action of the radical element with coordinates rad[:, j]: one
    product of the images e_s b_t, one row per (entry, t), with the radical
    coordinates."""
    field, dim = ambient.field, ambient.dim
    n, q = rad.shape
    c = H.ncols // n
    out = _dot(field, H.a.reshape(dim * c, n), rad.a).reshape(dim, c, q).transpose(0, 2, 1)
    return Mat._of(field, out.reshape(dim, q * c))


def _greedy_generators(ambient: Module, basis: Mat, H: Mat) -> tuple[Mat, Mat]:
    """Generators for an algebra without a known radical, by eliminations,
    and the differential out of the free module on them.

    The scan keeps basis column v_j exactly when v_j lies outside
    A{v_0..v_(j-1)}, which is when the group of columns e_s v_j of
    H = hom_from_free(ambient, basis) holds a pivot of H: a pivot column is
    one outside the span of the columns before it.  The pair-merging pass
    then replaces two generators by their sum (or difference) while the
    result still generates, decided by one rank per candidate.  Each
    generator carries its block of H, and the action is linear, so a
    candidate's images are the sum (or difference) of two blocks, and the
    kept blocks side by side are the differential: H is the only action
    product.  k generators span at most k * dim A, so the pass ends once one
    generator fewer could not reach the span's dimension.
    """
    field, n, total = ambient.field, ambient.algebra.dim, basis.ncols
    keep = sorted({c // n for c in pivots(H)})
    gens = [(basis.a[:, j], H.a[:, j * n:(j + 1) * n]) for j in keep]
    signs = (1,) if field.char == 2 else (1, -1)

    def merged() -> list[tuple[np.ndarray, np.ndarray]] | None:
        for i, j in combinations(range(len(gens)), 2):
            rest = [g for t, g in enumerate(gens) if t not in (i, j)]
            (u, hu), (v, hv) = gens[i], gens[j]
            for s in signs:
                images = field.reduce(hu + s * hv)
                blocks = [h for _, h in rest] + [images]
                if rank(Mat._of(field, np.concatenate(blocks, axis=1))) == total:
                    return rest + [(u + s * v, images)]
        return None

    while len(gens) > 1 and total <= (len(gens) - 1) * n and (cand := merged()) is not None:
        gens = cand
    return (Mat(field, np.array([g for g, _ in gens], dtype=object).T),
            Mat._of(field, np.concatenate([h for _, h in gens], axis=1)))


class Resolution:
    """Truncated free resolution ... -> P_1 -> P_0 -> target -> 0.

    Grows monotonically: extending the truncation appends terms without
    touching the ones already computed, so shared cached instances are safe.
    _maps[k] is the matrix of d_k : P_k -> P_(k-1), with P_(-1) the target
    and d_0 the augmentation; gens[k] are its generator images, picked from
    the identity basis of the target for k = 0 and from the syzygies inside
    P_(k-1) after.  _kers[k] = (K, free) is the canonical kernel of d_k, so
    the columns of K span the syzygies inside P_k.
    """

    def __init__(self, target: Module):
        self.target = target
        self.gens: list[Mat] = []
        self.ranks: list[int] = []
        self.terms: list[Module] = []
        self._maps: list[Mat] = []
        self._kers: list[tuple[Mat, tuple[int, ...]]] = []
        self._extend_to(0)

    @property
    def truncation(self) -> int:
        return len(self.ranks) - 1

    def map(self, k: int) -> ModuleHom:
        """The differential d_k : P_k -> P_(k-1), for 0 <= k <= truncation."""
        below = self.terms[k - 1] if k else self.target
        return ModuleHom(self.terms[k], below, self._maps[k], check=False)

    def _extend_to(self, d: int) -> None:
        while self.truncation < d:
            if self.terms:
                prev, span = self.terms[-1], self._kers[-1]
            else:
                prev = self.target
                span = Mat.identity(prev.field, prev.dim), tuple(range(prev.dim))
            g, dmat = minimal_generators(prev, *span)
            self.gens.append(g)
            self.ranks.append(g.ncols)
            self.terms.append(free_module(self.target.algebra, g.ncols))
            self._maps.append(dmat)
            self._kers.append(_kernel(dmat))

    def __repr__(self):
        return f"Resolution(ranks={self.ranks})"


def free_resolution(M: Module, d: int) -> Resolution:
    """Free resolution of M truncated to degree >= d.

    It holds P_0..P_d and the syzygies ker d_d, which is all Ext^d needs.
    Cached on the module, without a lock: roofext is not thread-safe, so do
    not share modules or complexes across threads.
    """
    if d < 0:
        raise ValueError("truncation degree must be nonnegative")
    res = M._cache.get("resolution")
    if res is None:
        res = M._cache["resolution"] = Resolution(M)
    res._extend_to(d)
    return res


# -- Ext spaces --------------------------------------------------------------


def _hom_delta(N: Module, rk: int, g: Mat) -> Mat:
    """Evaluation Hom(P, N) -> N^c on the c columns of g, vectors of a free
    module P of rank rk.

    On the generators gens[k+1] of a resolution (rk = ranks[k]) this is the
    differential Hom(P_k, N) -> Hom(P_(k+1), N).  Block (u, t) is
    sum_s g[t*a + s, u] N_s for N's action matrices N_s: one product of the
    coefficients, shaped (c*rk) x a, with the flattened N_s, shaped a x nn^2.
    """
    field, nn, a = N.field, N.dim, N.algebra.dim
    c = g.ncols
    coeffs = g.a.T.reshape(c * rk, a)
    hit = N.actions().a  # [N_0 | N_1 | ...]
    acts = hit.reshape(nn, a, nn).transpose(1, 0, 2).reshape(a, nn * nn)
    out = _dot(field, coeffs, acts).reshape(c, rk, nn, nn).transpose(0, 2, 1, 3)
    return Mat._of(field, out.reshape(c * nn, rk * nn))


class _ExtSpace:
    """Ext^i(M, N) with canonical cocycle/class coordinate maps; delta_out
    evaluates cochains on the syzygy basis of ker d_i (see the module docstring)."""

    def __init__(self, M: Module, N: Module, i: int):
        self.M, self.N, self.i = M, N, i
        res = self.res = free_resolution(M, i)
        self.delta_out = _hom_delta(N, res.ranks[i], res._kers[i][0])
        if i == 0:
            delta_in = Mat.zeros(M.field, self.delta_out.ncols, 0)
        else:
            delta_in = _hom_delta(N, res.ranks[i - 1], res.gens[i])
        _, self.include, self.project = subquotient(self.delta_out, delta_in)
        self.dim = self.include.ncols

    def key(self) -> tuple:
        return (self.M.key(), self.N.key(), self.i)


def _ext_space(M: Module, N: Module, i: int) -> _ExtSpace:
    """Ext^i(M, N), cached on M under N's identity: the space holds N, so the
    id is not reused while the entry lives, and no lookup builds N.key()."""
    key = ("ext", id(N), i)
    space = M._cache.get(key)
    if space is None:
        space = M._cache[key] = _ExtSpace(M, N, i)
    return space


class ExtElement:
    """An Ext class: a cocycle plus canonical quotient coordinates.

    Equal classes (same groups, possibly different representing cocycles)
    compare equal through the coordinates.  roofext builds every one itself
    (from a lift, a basis column or a sum), never from input, so a vector
    that is not a cocycle, one that does not vanish on the syzygies
    ker d_i, is an internal fault.  This is the one cocycle check.
    """

    def __init__(self, space: _ExtSpace, vec: Mat):
        if vec.shape != (space.res.ranks[space.i] * space.N.dim, 1):
            raise InvariantError("cocycle vector has wrong length for this Ext group")
        if not (space.delta_out @ vec).is_zero():
            raise InvariantError("vector is not a cocycle: it does not vanish on ker d_i")
        self.space = space
        self.vec = vec
        self.coords = space.project @ vec

    @property
    def degree(self) -> int:
        return self.space.i

    @property
    def source(self) -> Module:
        return self.space.M

    @property
    def target(self) -> Module:
        return self.space.N

    @property
    def images(self) -> Mat:
        """Generator images of the cocycle, one column per generator of P_i."""
        r = self.space.res.ranks[self.degree]
        n = self.target.dim
        if r == 0:
            return Mat.zeros(self.vec.field, n, 0)
        return Mat(self.vec.field, np.ascontiguousarray(self.vec.a).reshape(r, n).T)

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._same_space(other)
        return ExtElement(self.space, self.vec + other.vec)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        self._same_space(other)
        return ExtElement(self.space, self.vec - other.vec)

    def scale(self, c) -> "ExtElement":
        return ExtElement(self.space, self.vec.scale(c))

    def _same_space(self, other: "ExtElement") -> None:
        if self.space.key() != other.space.key():
            raise ValueError("Ext elements live in different groups")

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.space.key() == other.space.key() and self.coords == other.coords

    def __repr__(self):
        cs = [self.vec.field.fmt(x) for x in self.coords.a[:, 0]]
        return f"ExtElement(deg={self.degree}, coords={cs})"


def ext_element_from_images(M: Module, N: Module, i: int, images: Mat) -> ExtElement:
    """Wrap generator images of a cocycle P_i -> N as an ExtElement."""
    space = _ext_space(M, N, i)
    field = M.field
    if images.ncols == 0:
        vec = Mat.zeros(field, 0, 1)
    else:
        vec = Mat._of(field, np.ascontiguousarray(images.a.T).reshape(-1, 1))
    return ExtElement(space, vec)


def ext0_from_hom(h: ModuleHom) -> ExtElement:
    """The Ext^0 class of a module homomorphism (h composed with the augmentation)."""
    res = free_resolution(h.source, 0)
    return ext_element_from_images(h.source, h.target, 0, h.matrix @ res.gens[0])


def ext_group(M: Module, N: Module, i: int, truncate: int | None = None):
    """Dimension and basis of Ext^i(M, N).

    The resolution is computed through P_i and the syzygies ker d_i.
    truncate caps the resolution length; degree i needs at least i+1,
    because ker d_i stands in for P_(i+1), and asking for more Ext than the
    cap allows raises TruncationError instead of silently truncating.
    """
    if i < 0:
        raise ValueError("Ext degree must be nonnegative")
    need = i + 1
    if truncate is not None and truncate < need:
        raise TruncationError(
            f"Ext^{i} needs the resolution truncated to degree >= {need}, got {truncate}")
    space = _ext_space(M, N, i)
    basis = [ExtElement(space, space.include.col(t)) for t in range(space.dim)]
    return space.dim, basis


def is_trivial(a: ExtElement) -> bool:
    """True exactly when the canonical quotient coordinates vanish."""
    return a.is_zero()


# -- lifting -----------------------------------------------------------------


def lift_solve(matrix: Mat, rhs: Mat, rng: Random | None = None) -> Mat:
    """Solve matrix @ x = rhs columnwise; must be consistent.

    With an rng, adds random kernel elements to the solution — the lift
    stays valid, which is exactly what well-definedness tests need.
    """
    sol = solve(matrix, rhs, rng)
    if sol is None:
        raise InvariantError("lift failed: right-hand side not in the image")
    return sol


def _lift_along(res: Resolution, start: int, phi: Mat, steps, rng: Random | None = None) -> Mat:
    """The comparison lift (Weibel, Thm 2.2.6) from phi = phi_0, through an
    exact target whose t-th step is steps[t-1] = (C, d): phi_t solves
    d phi_t = phi_(t-1) on res.gens[start+t], evaluated in C.  Returns the last."""
    for t, (C, d) in enumerate(steps, 1):
        phi = lift_solve(d, hom_from_free(C, phi) @ res.gens[start + t], rng)
    return phi


def yoneda_product(a: ExtElement, b: ExtElement) -> ExtElement:
    """Product Ext^i(M,N) x Ext^j(N,L) -> Ext^(i+j)(M,L).

    Lifts a's cocycle to a chain map between the resolutions of M and N,
    then composes with b's cocycle.
    """
    if a.target != b.source:
        raise MiddleMismatchError(
            f"middle module mismatch: first factor targets {a.target!r}, "
            f"second starts at {b.source!r}")
    M, L = a.source, b.target
    i, j = a.degree, b.degree
    res_m = free_resolution(M, i + j)
    res_n = free_resolution(a.target, j)
    # F_0 : P_i(M) -> P_0(N) lifting a's images through the augmentation
    cur = _lift_along(res_m, i, lift_solve(res_n._maps[0], a.images),
                      zip(res_n.terms, res_n._maps[1:j + 1]))
    return ext_element_from_images(M, L, i + j, hom_from_free(L, b.images) @ cur)


# -- extension sequences -----------------------------------------------------


class ExtensionSeq:
    """Exact sequence 0 -> sub -> E_i -> ... -> E_1 -> quotient -> 0.

    maps[t] goes from mods[t] to mods[t+1]; degree is the number of middle
    terms (>= 1).  Exactness is validated at every node and failures name
    the node.
    """

    def __init__(self, mods: list[Module], maps: list[ModuleHom], check: bool = True):
        if len(mods) != len(maps) + 1 or len(maps) < 2:
            raise SchemaError("an extension sequence needs n+1 modules for n >= 2 maps")
        self.mods = list(mods)
        self.maps = list(maps)
        if check:
            self.validate()

    @property
    def degree(self) -> int:
        return len(self.maps) - 1

    @property
    def sub(self) -> Module:
        return self.mods[0]

    @property
    def quotient(self) -> Module:
        return self.mods[-1]

    def validate(self) -> None:
        for t, m in enumerate(self.maps):
            if m.source != self.mods[t] or m.target != self.mods[t + 1]:
                raise SchemaError(f"map {t} does not match the modules at node {t}")
        ranks = [rank(m.matrix) for m in self.maps]
        if ranks[0] != self.sub.dim:
            raise SchemaError("exactness fails at node 0: first map is not injective")
        if ranks[-1] != self.quotient.dim:
            raise SchemaError(
                f"exactness fails at node {len(self.mods) - 1}: last map is not surjective")
        for t in range(1, len(self.maps)):
            if not (self.maps[t] @ self.maps[t - 1]).is_zero():
                raise SchemaError(f"exactness fails at node {t}: composite is nonzero")
            if ranks[t - 1] != self.mods[t].dim - ranks[t]:
                raise SchemaError(f"exactness fails at node {t}: image is smaller than kernel")

    def __repr__(self):
        dims = " -> ".join(str(m.dim) for m in self.mods)
        return f"ExtensionSeq(0 -> {dims} -> 0)"


def splice(e1: ExtensionSeq, e2: ExtensionSeq) -> ExtensionSeq:
    """Concatenate through the shared module: e1's sub must be e2's quotient.

    The orientation matches the product: class(splice(e1, e2)) equals
    SPLICE_PRODUCT_SIGN * yoneda_product(class(e1), class(e2)).
    """
    if e1.sub != e2.quotient:
        raise MiddleMismatchError(
            f"cannot splice: first sequence starts at {e1.sub!r}, "
            f"second ends at {e2.quotient!r}")
    mid = e1.maps[0] @ e2.maps[-1]
    mods = e2.mods[:-1] + e1.mods[1:]
    maps = e2.maps[:-1] + [mid] + e1.maps[1:]
    return ExtensionSeq(mods, maps)


def class_of_extension(e: ExtensionSeq, rng: Random | None = None) -> ExtElement:
    """Ext class of an extension sequence, by lifting the identity of the quotient.

    Passing an rng randomizes every lifting choice; the resulting canonical
    coordinates must not change, and tests verify they do not.
    """
    i = e.degree
    M, N = e.quotient, e.sub
    res = free_resolution(M, i)
    steps = [(e.mods[i - t + 1], e.maps[i - t].matrix) for t in range(1, i + 1)]
    c = _lift_along(res, 0, lift_solve(e.maps[i].matrix, res.gens[0], rng), steps, rng)
    return ext_element_from_images(M, N, i, c)


def extension_from_class(a: ExtElement) -> ExtensionSeq:
    """Short exact sequence realizing a degree-1 class (pushout construction)."""
    if a.degree != 1:
        raise ValueError("only degree-1 classes convert to short exact sequences")
    M, N = a.source, a.target
    res = a.space.res
    field = M.field
    p0 = res.terms[0]
    K = res._kers[0][0]
    pre = lift_solve(res._maps[1], K)
    cbar = hom_from_free(N, a.images) @ pre  # value of the cocycle on the syzygy
    W, injs, _projs = direct_sum([N, p0])
    # cbar is A-linear on the syzygies, so the graph's span is a submodule
    E, proj_w, section = submodule_quotient(W, vstack([cbar, -K]))
    iota = proj_w @ injs[0]
    pibar = hstack([Mat.zeros(field, M.dim, N.dim), res._maps[0]])
    pi = ModuleHom(E, M, pibar @ section, check=True)
    return ExtensionSeq([N, E, M], [iota, pi])
