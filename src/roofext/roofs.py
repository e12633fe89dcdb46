"""Derived-category morphisms as left roofs, and their calculus.

A roof apex <- s -> ... represents a fraction g/s: a morphism source ->
target through a quasi-isomorphism s: apex -> source and an ordinary chain
map g: apex -> target.  Composition builds a homotopy pullback apex whose
third summand stores the homotopy witness, so the defining square commutes
up to an *explicit* homotopy that is asserted, not searched for.

Equality of roofs between shifted single modules is decided through the
Ext normal form: a roof M[0] -> N[k] determines a class in Ext^k(M, N) by
lifting a free resolution of M through the s-leg (the comparison theorem,
ext._lift_along, which the Yoneda product and extension classes share) and
composing with g.  Canonical coordinates on the Ext group make the
comparison exact.
"""

from __future__ import annotations

from random import Random

from .algebra import Filtration, ModuleHom, direct_sum, submodule_quotient
from .complexes import ChainMap, Complex, Homotopy, is_quasi_iso, shift
from .errors import InvariantError, MiddleMismatchError, SchemaError, UnsupportedEndpointsError
from .ext import (
    ExtElement,
    ExtensionSeq,
    _lift_along,
    class_of_extension,
    ext_element_from_images,
    free_resolution,
    is_trivial,
    lift_solve,
)
from .linalg import Mat, block_matrix, vstack

__all__ = [
    "Roof",
    "ses_to_roof",
    "compose_roofs",
    "to_ext_class",
    "roof_equal",
    "identity_roof",
    "zero_roof",
    "filtration_two_class",
]


class Roof:
    """Left roof: s quasi-iso into the source, g an ordinary leg to the target."""

    def __init__(self, source: Complex, target: Complex, apex: Complex,
                 s: ChainMap, g: ChainMap, check: bool = True):
        self.source = source
        self.target = target
        self.apex = apex
        self.s = s
        self.g = g
        if check:
            if s.source != apex or g.source != apex:
                raise SchemaError("both legs must start at the apex")
            if s.target != source or g.target != target:
                raise SchemaError("legs do not land on the declared endpoints")
            if not is_quasi_iso(s):
                raise SchemaError("the denominator leg is not a quasi-isomorphism")

    def shift(self, k: int) -> "Roof":
        """The roof between the k-fold shifts.  Source, target and apex are
        each shifted once and both legs are re-indexed onto those objects, so
        the shifted legs start at the shifted apex itself."""
        src, tgt, apex = (shift(c, k) for c in (self.source, self.target, self.apex))
        return Roof(src, tgt, apex, self.s.shift(k, apex, src), self.g.shift(k, apex, tgt),
                    check=False)

    def __repr__(self):
        return f"Roof({self.source!r} => {self.target!r})"


def identity_roof(x: Complex) -> Roof:
    ident = ChainMap.identity(x)
    return Roof(x, x, x, ident, ident, check=False)


def zero_roof(source: Complex, target: Complex) -> Roof:
    return Roof(source, target, source, ChainMap.identity(source),
                ChainMap.zero(source, target), check=False)


def ses_to_roof(e: ExtensionSeq) -> Roof:
    """The roof C[0] -> A[1] of a short exact sequence 0 -> A -> B -> C -> 0.

    Apex is [A -> B] in degrees -1, 0; the s-leg projects B onto C in
    degree 0 (a quasi-isomorphism because the sequence is exact) and the
    g-leg is the identity of A in degree -1.
    """
    if e.degree != 1:
        raise ValueError("only short exact sequences convert directly to roofs")
    a, b, c = e.sub, e.mods[1], e.quotient
    apex = Complex(a.algebra, {-1: a, 0: b}, {-1: e.maps[0]}, check=False)
    src = Complex.single(c, 0)
    tgt = Complex.single(a, -1)  # A[1]
    s = ChainMap(apex, src, {0: e.maps[1]}, check=False)
    g = ChainMap(apex, tgt, {-1: ModuleHom.identity(a)}, check=False)
    return Roof(src, tgt, apex, s, g)


def compose_roofs(r1: Roof, r2: Roof) -> Roof:
    """Compose r1 then r2 (r1.target must equal r2.source).

    The common apex is the homotopy pullback of (r1.g, r2.s): degree n holds
    r1.apex^n + r2.apex^n + middle^(n-1), with the middle coordinate acting
    as an explicit homotopy between the two ways around the square.  The
    projection onto r1.apex is a quasi-isomorphism (base change of r2.s),
    which the Roof constructor re-verifies on ranks.
    """
    if r1.target != r2.source:
        raise MiddleMismatchError(
            f"cannot compose: first roof targets {r1.target!r}, second starts at {r2.source!r}")
    z1, z2, mid = r1.apex, r2.apex, r1.target
    u, v = r1.g, r2.s
    algebra = z1.algebra
    lo = min(z1.lo, z2.lo, mid.lo + 1)
    hi = max(z1.hi, z2.hi, mid.hi + 1)
    sums = {n: direct_sum([z1.obj(n), z2.obj(n), mid.obj(n - 1)]) for n in range(lo, hi + 1)}
    dims = {n: [z1.obj(n).dim, z2.obj(n).dim, mid.obj(n - 1).dim] for n in sums}
    diffs = {}
    for n in range(lo, hi):
        parts = {(0, 0): z1.diffs.get(n), (1, 1): z2.diffs.get(n), (2, 0): u.comps.get(n),
                 (2, 1): v.comps.get(n), (2, 2): mid.diffs.get(n - 1)}
        mat = block_matrix(algebra.field, dims[n + 1], dims[n], {
            (r, c): -h.matrix if r == 2 and c else h.matrix
            for (r, c), h in parts.items() if h is not None})
        diffs[n] = ModuleHom(sums[n][0], sums[n + 1][0], mat, check=False)
    apex = Complex(algebra, {n: sums[n][0] for n in sums}, diffs, check=True)
    p1 = ChainMap(apex, z1, {n: sums[n][2][0] for n in apex.degrees()}, check=True)
    p2 = ChainMap(apex, z2, {n: sums[n][2][1] for n in apex.degrees()}, check=True)
    witness = Homotopy(apex, mid, {n: sums[n][2][2] for n in apex.degrees() if dims[n][2]})
    if witness.boundary() != (u @ p1) - (v @ p2):
        raise InvariantError("homotopy pullback witness fails to bound the square")
    return Roof(r1.source, r2.target, apex, r1.s @ p1, r2.g @ p2)


def _single_endpoints(r: Roof) -> tuple[int, int]:
    sd = r.source.single_degree()
    td = r.target.single_degree()
    if sd is None or td is None:
        raise UnsupportedEndpointsError(
            "roof endpoints must be shifted single modules for the Ext normal form")
    return sd, td


def to_ext_class(r: Roof, rng: Random | None = None) -> ExtElement:
    """Ext normal form of a roof between shifted single modules.

    After normalizing the shift so the source sits in degree 0, a free
    resolution of the source module is lifted through the s-leg one degree
    at a time (each step one linear solve; solvability is the comparison
    theorem) and composed with the g-leg to read off a degree-k cocycle.

    The cocycle is scaled by the normalization constant (-1)^(k(k-1)/2).
    With the shift convention d[1] = -d, a raw composite of roofs of
    degrees i and j differs from the cocycle-level product by (-1)^(ij);
    this factor is exactly what the constant absorbs (it is +1 in degrees
    0 and 1, so short-exact-sequence roofs are unaffected), making
    composition and the Yoneda product agree on the nose.  Tests enforce
    the agreement.
    """
    sd, td = _single_endpoints(r)
    k = sd - td
    if k < 0:
        raise UnsupportedEndpointsError(
            f"roof raises degree by {-k}; Ext in negative degrees has no normal form")
    rr = r.shift(sd) if sd else r
    m = rr.source.obj(0)
    n = rr.target.obj(-k)
    z, s, g = rr.apex, rr.s, rr.g
    res = free_resolution(m, k)
    # degree 0: land on cocycles of the apex that map onto the augmentation
    d0 = z.diff(0).matrix
    system = vstack([s.comp(0).matrix, d0])
    rhs = vstack([res.gens[0], Mat.zeros(m.field, d0.nrows, res.ranks[0])])
    steps = [(z.obj(1 - t), z.diff(-t).matrix) for t in range(1, k + 1)]
    phi = _lift_along(res, 0, lift_solve(system, rhs, rng), steps, rng)
    c = g.comp(-k).matrix @ phi
    if (k * (k - 1) // 2) % 2:
        c = c.scale(-1)
    return ext_element_from_images(m, n, k, c)


def roof_equal(r1: Roof, r2: Roof) -> bool:
    """Equality in the derived category, decided via the Ext normal form."""
    _single_endpoints(r1)
    _single_endpoints(r2)
    if r1.source != r2.source or r1.target != r2.target:
        raise ValueError("roofs do not share endpoints")
    return to_ext_class(r1) == to_ext_class(r2)


def filtration_sequences(f: Filtration) -> tuple[ExtensionSeq, ExtensionSeq]:
    """The two short exact sequences a nested pair F1 in F2 in G cuts out.

    Bottom: 0 -> F1 -> F2 -> F2/F1 -> 0.  Top: 0 -> F2/F1 -> G/F1 -> G/F2 -> 0.
    """
    amb = f.ambient
    f1m = f.f1.source
    f2m = f.f2.source
    q21, proj21, sec21 = submodule_quotient(f2m, f.inclusion_12)
    ses_bottom = ExtensionSeq([f1m, f2m, q21], [f.inclusion_12, proj21])
    gf1, proj_g1, sec_g1 = submodule_quotient(amb, f.f1)
    gf2, proj_g2, _ = submodule_quotient(amb, f.f2)
    mid_incl = ModuleHom(q21, gf1, proj_g1.matrix @ (f.f2.matrix @ sec21), check=True)
    top_proj = ModuleHom(gf1, gf2, proj_g2.matrix @ sec_g1, check=True)
    ses_top = ExtensionSeq([q21, gf1, gf2], [mid_incl, top_proj])
    return ses_bottom, ses_top


def filtration_two_class(f: Filtration):
    """Two-step filtration to composite degree-2 class, the roofs way.

    Builds the short exact sequences of both filtration steps, converts them
    to roofs, composes the roofs, and converts the composite back to a
    degree-2 Ext class.  Returns (bottom class, top class, composite class,
    report); the composite is expected to vanish, and the report records
    dimensions, verdicts, and coordinates.
    """
    f.check_nondegenerate()
    amb = f.ambient
    f1m = f.f1.source
    f2m = f.f2.source
    ses_bottom, ses_top = filtration_sequences(f)

    a1 = class_of_extension(ses_bottom)
    a2 = class_of_extension(ses_top)
    composite_roof = compose_roofs(ses_to_roof(ses_top), ses_to_roof(ses_bottom).shift(1))
    a = to_ext_class(composite_roof)

    field = amb.field

    def _entry(x: ExtElement) -> dict:
        return {"trivial": is_trivial(x),
                "coords": [field.fmt(v) for v in x.coords.a[:, 0]]}

    report = {
        "field": field.name,
        "module_dims": {"ambient": amb.dim, "f1": f1m.dim, "f2": f2m.dim},
        "ext_dims": {"bottom": a1.space.dim, "top": a2.space.dim, "composite": a.space.dim},
        "bottom_class": _entry(a1),
        "top_class": _entry(a2),
        "composite_class": _entry(a),
    }
    return a1, a2, a, report
