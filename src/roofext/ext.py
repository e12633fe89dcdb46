"""Truncated free resolutions, Ext groups, and the Yoneda product.

Ext^i(M, N) is computed as cocycles modulo coboundaries of the complex
Hom(P_•, N) for a truncated free resolution P_• of M.  A hom out of a free
module is just a choice of generator images, so cochain spaces are
coordinatized by stacked image vectors and every lift in sight is a plain
linear solve.

Classes carry canonical quotient coordinates (derived from echelon forms),
so two classes are equal exactly when their coordinate vectors are —
regardless of which cocycle represented them.  Products are computed by
comparison lifts between resolutions; extension sequences convert to
classes by lifting the identity, and degree-1 classes convert back via a
pushout.

Resolutions use greedy-minimal generator picking: Nakayama-style through
the radical when the algebra knows its radical, otherwise a greedy scan
with a pair-merging pass.
"""

from __future__ import annotations

import threading
from random import Random

import numpy as np

from .algebra import (
    Module,
    ModuleHom,
    close_span,
    direct_sum,
    free_module,
    submodule,
    submodule_quotient,
)
from .errors import InvariantError, MiddleMismatchError, SchemaError, TruncationError
from .linalg import (
    IncrementalSpan,
    Mat,
    hstack,
    kernel_basis,
    quotient_coords,
    random_mat,
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
    "eval_free_images",
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

_cache_lock = threading.RLock()

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
    return Mat(target.field, hit.transpose(0, 2, 1).reshape(target.dim, c * a))


def eval_free_images(target: Module, images: Mat, vecs: Mat) -> Mat:
    """Evaluate the hom given by generator images on free-coordinate vectors."""
    return hom_from_free(target, images) @ vecs


def minimal_generators(ambient: Module, basis: Mat) -> Mat:
    """Pick a small generating set for the submodule spanned by basis columns.

    The span must already be action-stable.  With a known radical this is
    exact minimality (images spanning span/rad*span generate, by Nakayama);
    without one, a greedy scan over the basis plus a pair-merging pass.
    """
    if basis.ncols == 0:
        return basis
    rad = ambient.algebra.radical
    if rad is not None:
        cols = [ambient.rho(rad.a[:, j], basis) for j in range(rad.ncols)]
        radimg = hstack(cols) if cols else Mat.zeros(ambient.field, ambient.dim, 0)
        coords = solve(basis, radimg)
        if coords is None:
            raise InvariantError("radical did not preserve the span")
        qc = quotient_coords(coords)
        return basis.take_cols(qc.free)
    return _greedy_generators(ambient, basis)


def _greedy_generators(ambient: Module, basis: Mat) -> Mat:
    total = basis.ncols
    gens: list[np.ndarray] = []
    span = IncrementalSpan(ambient.field, ambient.dim)
    for j in range(total):
        v = basis.a[:, j]
        if not span.contains(v):
            gens.append(np.array(v, copy=True))
            close_span(ambient, span, [v])

    def _spans_all(cand: list[np.ndarray]) -> bool:
        sp = IncrementalSpan(ambient.field, ambient.dim)
        close_span(ambient, sp, cand)
        return sp.rank == total

    improved = True
    while improved and len(gens) > 1:
        improved = False
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                merges = [gens[i] + gens[j]]
                if ambient.field.char != 2:
                    merges.append(gens[i] - gens[j])
                rest = [g for t, g in enumerate(gens) if t not in (i, j)]
                done = False
                for m in merges:
                    if _spans_all(rest + [m]):
                        gens = rest + [m]
                        improved = done = True
                        break
                if done:
                    break
            if improved:
                break
    if not gens:
        return Mat.zeros(ambient.field, ambient.dim, 0)
    return Mat(ambient.field, np.array(gens, dtype=object).T)


class Resolution:
    """Truncated free resolution ... -> P_1 -> P_0 -> target -> 0.

    Grows monotonically: extending the truncation appends terms without
    touching the ones already computed, so shared cached instances are safe.
    gens[0] holds generator images in the target; gens[k] (k >= 1) are the
    k-th syzygy generators inside P_(k-1).
    """

    def __init__(self, target: Module):
        self.target = target
        field = target.field
        g0 = minimal_generators(target, Mat.identity(field, target.dim))
        self.gens: list[Mat] = [g0]
        self.ranks: list[int] = [g0.ncols]
        self.terms: list[Module] = [free_module(target.algebra, g0.ncols)]
        self._aug = hom_from_free(target, g0)
        self._maps: list[Mat] = []  # _maps[k-1] is the matrix of d_k
        self._ker = kernel_basis(self._aug)

    @property
    def truncation(self) -> int:
        return len(self.ranks) - 1

    @property
    def augmentation(self) -> ModuleHom:
        return ModuleHom(self.terms[0], self.target, self._aug, check=False)

    def map(self, k: int) -> ModuleHom:
        """The differential d_k : P_k -> P_(k-1), for 1 <= k <= truncation."""
        return ModuleHom(self.terms[k], self.terms[k - 1], self._maps[k - 1], check=False)

    def _extend_to(self, d: int) -> None:
        while self.truncation < d:
            prev = self.terms[-1]
            g = minimal_generators(prev, self._ker)
            self.gens.append(g)
            self.ranks.append(g.ncols)
            self.terms.append(free_module(self.target.algebra, g.ncols))
            dmat = hom_from_free(prev, g)
            self._maps.append(dmat)
            self._ker = kernel_basis(dmat)

    def __repr__(self):
        return f"Resolution(ranks={self.ranks})"


def free_resolution(M: Module, d: int) -> Resolution:
    """Free resolution of M truncated to degree >= d (cached per module)."""
    if d < 0:
        raise ValueError("truncation degree must be nonnegative")
    with _cache_lock:
        res = M._cache.get("resolution")
        if res is None:
            res = Resolution(M)
            M._cache["resolution"] = res
        res._extend_to(d)
    return res


# -- Ext spaces --------------------------------------------------------------


def _hom_delta(res: Resolution, N: Module, k: int) -> Mat:
    """Differential Hom(P_k, N) -> Hom(P_(k+1), N), i.e. precompose with d."""
    field = N.field
    nn = N.dim
    a = N.algebra.dim
    rk, rk1 = res.ranks[k], res.ranks[k + 1]
    out = field.zeros((rk1 * nn, rk * nn))
    eye = Mat.identity(field, nn)
    g = res.gens[k + 1]
    for u in range(rk1):
        for t in range(rk):
            block = g.a[t * a : (t + 1) * a, u]
            if (np.asarray(block, dtype=object) != 0).any():
                out[u * nn : (u + 1) * nn, t * nn : (t + 1) * nn] = N.rho(block, eye).a
    return Mat(field, out)


class _ExtSpace:
    """Ext^i(M, N) with canonical cocycle/class coordinate maps."""

    def __init__(self, M: Module, N: Module, i: int):
        self.M, self.N, self.i = M, N, i
        self.res = free_resolution(M, i + 1)
        self.delta_out = _hom_delta(self.res, N, i)
        if i == 0:
            delta_in = Mat.zeros(M.field, self.delta_out.ncols, 0)
        else:
            delta_in = _hom_delta(self.res, N, i - 1)
        _, qc, self.include, self.project = subquotient(self.delta_out, delta_in)
        self.dim = qc.dim

    def key(self) -> tuple:
        return (self.M.key(), self.N.key(), self.i)


def _ext_space(M: Module, N: Module, i: int) -> _ExtSpace:
    with _cache_lock:
        key = ("ext", N.key(), i)
        space = M._cache.get(key)
        if space is None:
            space = _ExtSpace(M, N, i)
            M._cache[key] = space
    return space


class ExtElement:
    """An Ext class: a cocycle plus canonical quotient coordinates.

    Equal classes (same groups, possibly different representing cocycles)
    compare equal through the coordinates.
    """

    def __init__(self, space: _ExtSpace, vec: Mat):
        if vec.shape != (space.res.ranks[space.i] * space.N.dim, 1):
            raise SchemaError("cocycle vector has wrong length for this Ext group")
        if not (space.delta_out @ vec).is_zero():
            raise SchemaError("vector is not a cocycle: it does not vanish on the next syzygies")
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

    @property
    def cocycle(self) -> ModuleHom:
        return ModuleHom(self.space.res.terms[self.degree], self.target,
                         hom_from_free(self.target, self.images), check=False)

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
        vec = Mat(field, np.ascontiguousarray(images.a.T).reshape(-1, 1))
    return ExtElement(space, vec)


def ext0_from_hom(h: ModuleHom) -> ExtElement:
    """The Ext^0 class of a module homomorphism (h composed with the augmentation)."""
    res = free_resolution(h.source, 1)
    return ext_element_from_images(h.source, h.target, 0, h.matrix @ res.gens[0])


def ext_group(M: Module, N: Module, i: int, truncate: int | None = None):
    """Dimension and basis of Ext^i(M, N).

    truncate caps the resolution length; degree i needs at least i+1, and
    asking for more Ext than the cap allows raises TruncationError instead
    of silently truncating.
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
    sol = solve(matrix, rhs)
    if sol is None:
        raise InvariantError("lift failed: right-hand side not in the image")
    if rng is not None:
        K = kernel_basis(matrix)
        if K.ncols and sol.ncols:
            sol = sol + K @ random_mat(rng, matrix.field, K.ncols, sol.ncols)
    return sol


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
    res_m = free_resolution(M, i + j + 1)
    res_n = free_resolution(a.target, j)
    # F_0 : P_i(M) -> P_0(N) lifting a's images through the augmentation
    cur = lift_solve(res_n._aug, a.images)
    for t in range(1, j + 1):
        rhs = eval_free_images(res_n.terms[t - 1], cur, res_m.gens[i + t])
        cur = lift_solve(res_n._maps[t - 1], rhs)
    c = eval_free_images(L, b.images, cur)
    out = ext_element_from_images(M, L, i + j, c)
    return out


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
        if not self.maps[0].is_injective():
            raise SchemaError("exactness fails at node 0: first map is not injective")
        if not self.maps[-1].is_surjective():
            raise SchemaError(
                f"exactness fails at node {len(self.mods) - 1}: last map is not surjective")
        for t in range(1, len(self.maps)):
            if not (self.maps[t] @ self.maps[t - 1]).is_zero():
                raise SchemaError(f"exactness fails at node {t}: composite is nonzero")
            ker_dim = self.mods[t].dim - rank(self.maps[t].matrix)
            if rank(self.maps[t - 1].matrix) != ker_dim:
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
    res = free_resolution(M, i + 1)
    cur = lift_solve(e.maps[i].matrix, res.gens[0], rng)
    for t in range(1, i):
        rhs = eval_free_images(e.mods[i - t + 1], cur, res.gens[t])
        cur = lift_solve(e.maps[i - t].matrix, rhs, rng)
    rhs = eval_free_images(e.mods[1], cur, res.gens[i])
    c = lift_solve(e.maps[0].matrix, rhs, rng)
    chk = eval_free_images(N, c, res.gens[i + 1])
    if not chk.is_zero():
        raise InvariantError("lifted cocycle fails to vanish on the next syzygies")
    return ext_element_from_images(M, N, i, c)


def extension_from_class(a: ExtElement) -> ExtensionSeq:
    """Short exact sequence realizing a degree-1 class (pushout construction)."""
    if a.degree != 1:
        raise ValueError("only degree-1 classes convert to short exact sequences")
    M, N = a.source, a.target
    res = a.space.res
    field = M.field
    p0 = res.terms[0]
    K = kernel_basis(res._aug)  # first syzygy inside P_0
    pre = lift_solve(res._maps[0], K)
    cbar = eval_free_images(N, a.images, pre)  # value of the cocycle on the syzygy
    W, injs, _projs = direct_sum([N, p0])
    graph = vstack([cbar, -K])
    sub_incl = submodule(W, graph)
    E, proj_w, section = submodule_quotient(W, sub_incl)
    iota = proj_w @ injs[0]
    pibar = hstack([Mat.zeros(field, M.dim, N.dim), res._aug])
    pi = ModuleHom(E, M, pibar @ section, check=True)
    return ExtensionSeq([N, E, M], [iota, pi])
