"""Roofs: construction, composition, and the Ext normal form.

The composite-vs-product tests are exact: both routes produce canonical
coordinates in the same Ext group and the assertion is equality, not
equality up to sign or scalar.
"""

from random import Random

import pytest

from roofext.algebra import Module, ModuleHom, submodule
from roofext.complexes import ChainMap, Complex, is_quasi_iso, shift, zero_module
from roofext.errors import (
    DegenerateFiltrationError,
    MiddleMismatchError,
    SchemaError,
    UnsupportedEndpointsError,
)
from roofext.ext import class_of_extension, ext_group, yoneda_product
from roofext.instances import (
    ka3_first_step,
    ka3_second_step,
    kx3_filtration,
    kx3_regular,
    kx3_simple,
    random_filtration,
    random_ses_pair,
    random_ses_triple,
)
from roofext.linalg import GF, QQ, Mat
from roofext.roofs import (
    Roof,
    compose_roofs,
    filtration_sequences,
    filtration_two_class,
    identity_roof,
    roof_equal,
    ses_to_roof,
    to_ext_class,
    zero_roof,
)

F2 = GF(2)
F3 = GF(3)


# -- construction ----------------------------------------------------------------


def test_ses_to_roof_shape():
    e = ka3_first_step(QQ)
    r = ses_to_roof(e)
    assert r.source.single_degree() == 0
    assert r.target.single_degree() == -1
    assert r.apex.lo == -1 and r.apex.hi == 0
    assert is_quasi_iso(r.s)


def test_roof_constructor_rejects_bad_denominator():
    amb = kx3_regular(QQ)
    x2 = submodule(amb, Mat(QQ, [[0], [0], [1]]))
    src = Complex.single(amb, 0)
    apex = Complex.single(x2.source, 0)
    incl = ChainMap(apex, src, {0: x2})
    with pytest.raises(SchemaError, match="quasi-isomorphism"):
        Roof(src, src, apex, incl, incl)


def test_roof_constructor_rejects_wrong_endpoints():
    e = ka3_first_step(QQ)
    r = ses_to_roof(e)
    with pytest.raises(SchemaError, match="legs"):
        Roof(r.target, r.source, r.apex, r.s, r.g)


# -- the Ext normal form -----------------------------------------------------------


def test_roundtrip_matches_class_of_extension():
    for e in (ka3_first_step(QQ), ka3_second_step(F3)):
        assert to_ext_class(ses_to_roof(e)) == class_of_extension(e)


def test_roundtrip_on_kx3_socle_sequence():
    amb = kx3_regular(QQ)
    from roofext.algebra import submodule_quotient

    incl = submodule(amb, Mat(QQ, [[0], [1], [0]]))
    quot, proj, _ = submodule_quotient(amb, incl)
    from roofext.ext import ExtensionSeq

    e = ExtensionSeq([incl.source, amb, quot], [incl, proj])
    assert to_ext_class(ses_to_roof(e)) == class_of_extension(e)


def test_roundtrip_random(rng):
    for field in (F2, F3, QQ):
        e, _ = random_ses_pair(rng, field)
        assert to_ext_class(ses_to_roof(e)) == class_of_extension(e)


def test_to_ext_class_lift_randomization():
    e = ka3_first_step(F3)
    r = ses_to_roof(e)
    base = to_ext_class(r)
    rng = Random(3)
    for _ in range(10):
        assert to_ext_class(r, rng) == base


def test_shift_invariance():
    e = ka3_first_step(QQ)
    r = ses_to_roof(e)
    cls = to_ext_class(r)
    for k in (-2, -1, 1, 3):
        assert to_ext_class(r.shift(k)) == cls


def test_zero_roof_is_trivial():
    k = Complex.single(kx3_simple(QQ), 0)
    tgt = Complex.single(kx3_simple(QQ), -2)
    assert to_ext_class(zero_roof(k, tgt)).is_zero()


def test_identity_roof_is_ext0_identity():
    k = Complex.single(kx3_simple(QQ), 0)
    cls = to_ext_class(identity_roof(k))
    assert cls.degree == 0 and not cls.is_zero()


def test_unsupported_endpoints():
    e = ka3_first_step(QQ)
    r = ses_to_roof(e)
    with pytest.raises(UnsupportedEndpointsError):
        to_ext_class(identity_roof(r.apex))  # two-term endpoint
    k = Complex.single(kx3_simple(QQ), 0)
    up = Complex.single(kx3_simple(QQ), 1)
    with pytest.raises(UnsupportedEndpointsError, match="negative"):
        to_ext_class(zero_roof(k, up))  # would be Ext^(-1)


# -- composition ---------------------------------------------------------------------


def test_compose_requires_matching_endpoints():
    e = ka3_first_step(QQ)
    r = ses_to_roof(e)
    with pytest.raises(MiddleMismatchError):
        compose_roofs(r, r)


def test_compose_with_identity_keeps_class():
    e = ka3_first_step(QQ)
    r = ses_to_roof(e)
    cls = to_ext_class(r)
    assert to_ext_class(compose_roofs(identity_roof(r.source), r)) == cls
    assert to_ext_class(compose_roofs(r, identity_roof(r.target))) == cls


def test_composite_matches_product_on_ka3():
    """Degree-2 nonzero case: composite of the two projective-cover roofs."""
    e_top = ka3_first_step(QQ)
    e_bot = ka3_second_step(QQ)
    roof = compose_roofs(ses_to_roof(e_top), ses_to_roof(e_bot).shift(1))
    got = to_ext_class(roof)
    want = yoneda_product(class_of_extension(e_top), class_of_extension(e_bot))
    assert not want.is_zero()
    assert got == want


@pytest.mark.parametrize("case", ["ka3", "lemma-fp"])
def test_compose_roofs_builds_no_zero_map_and_no_key(case, monkeypatch):
    """compose_roofs reads stored components only: it builds no zero map and
    no complex key.  A shifted roof has one apex, where both legs start."""
    if case == "ka3":
        e1, e2 = ka3_first_step(QQ), ka3_second_step(QQ)
    else:  # the first lemma-fp draw at its pinned seed, composed as filtration_two_class does
        e2, e1 = filtration_sequences(random_filtration(Random(0xACCE551), F2, max_dim=6))
    r1 = ses_to_roof(e1)
    for k in (1, -3):
        r = ses_to_roof(e2).shift(k)
        assert r.s.source is r.apex and r.g.source is r.apex
        assert r.s.target is r.source and r.g.target is r.target
        assert r.apex == shift(ses_to_roof(e2).apex, k)
    r2 = ses_to_roof(e2).shift(1)
    calls = []
    zero, key = ModuleHom.zero, Complex.key
    monkeypatch.setattr(ModuleHom, "zero", staticmethod(
        lambda *a: calls.append("zero") or zero(*a)))
    monkeypatch.setattr(Complex, "key", lambda self: calls.append("key") or key(self))
    composite = compose_roofs(r1, r2)
    assert calls == []
    composite.apex.diff(composite.apex.hi)  # the counters are live
    hash(composite.apex)
    assert calls == ["zero", "key"]


def test_composite_keeps_zero_objects_shared():
    """Every zero object of the composite roof is its algebra's one zero
    module, and so is every endpoint of a zero leg component."""
    roof = compose_roofs(ses_to_roof(ka3_first_step(QQ)),
                         ses_to_roof(ka3_second_step(QQ)).shift(1))
    zeros = 0
    for c in (roof.source, roof.target, roof.apex):
        for n in range(c.lo - 2, c.hi + 3):
            if c.obj(n).dim == 0:
                assert c.obj(n) is zero_module(c.algebra)
                zeros += 1
    for leg in (roof.s, roof.g):
        for n in range(leg.source.lo - 1, leg.source.hi + 2):
            comp = leg.comp(n)
            for m in (comp.source, comp.target):
                assert m.dim or m is zero_module(m.algebra)
    assert zeros


@pytest.mark.parametrize("field", [F2, F3, QQ])
def test_composite_matches_product_random(field, rng):
    for _ in range(3 if field is QQ else 5):
        e1, e2 = random_ses_pair(rng, field)
        roof = compose_roofs(ses_to_roof(e1), ses_to_roof(e2).shift(1))
        got = to_ext_class(roof)
        want = yoneda_product(class_of_extension(e1), class_of_extension(e2))
        assert got == want


def test_composition_associative_up_to_roof_equal():
    rng = Random(0xA550C)
    for trial in range(4):
        field = F2 if trial % 2 else F3
        e1, e2, e3 = random_ses_triple(rng, field)
        r1 = ses_to_roof(e1)
        r2 = ses_to_roof(e2).shift(1)
        r3 = ses_to_roof(e3).shift(2)
        left = compose_roofs(compose_roofs(r1, r2), r3)
        right = compose_roofs(r1, compose_roofs(r2, r3))
        assert roof_equal(left, right)


def test_roof_equal_needs_shared_endpoints():
    e = ka3_first_step(QQ)
    r = ses_to_roof(e)
    other = ses_to_roof(ka3_second_step(QQ))
    with pytest.raises(ValueError, match="endpoints"):
        roof_equal(r, other)


# -- filtrations ------------------------------------------------------------------------


def test_filtration_sequences_structure():
    f = kx3_filtration(QQ)
    bottom, top = filtration_sequences(f)
    bottom.validate()
    top.validate()
    assert bottom.sub == f.f1.source
    assert bottom.quotient == top.sub  # the shared subquotient F2/F1
    assert top.quotient.dim == f.ambient.dim - f.f2.source.dim


def test_filtration_two_class_showcase():
    """(x^2) in (x) in k[x]/(x^3): both step classes are nonzero, and the
    composite degree-2 class vanishes even though Ext^2 itself does not."""
    a1, a2, alpha, report = filtration_two_class(kx3_filtration(QQ))
    assert not a1.is_zero()
    assert not a2.is_zero()
    assert alpha.is_zero()
    assert report["ext_dims"] == {"bottom": 1, "top": 1, "composite": 1}
    assert report["bottom_class"]["trivial"] is False
    assert report["top_class"]["trivial"] is False
    assert report["composite_class"]["trivial"] is True
    assert report["module_dims"] == {"ambient": 3, "f1": 1, "f2": 2}


def test_filtration_two_class_equals_product():
    f = kx3_filtration(F3)
    a1, a2, alpha, _ = filtration_two_class(f)
    assert alpha == yoneda_product(a2, a1)


def test_filtration_two_class_random(rng):
    for field in (F2, F3):
        f = random_filtration(rng, field)
        a1, a2, alpha, report = filtration_two_class(f)
        assert alpha.is_zero()
        assert alpha == yoneda_product(a2, a1)


def test_filtration_two_class_rejects_degenerate():
    amb = kx3_regular(QQ)
    fx = submodule(amb, Mat(QQ, [[0], [1], [0]]))
    from roofext.algebra import Filtration

    with pytest.raises(DegenerateFiltrationError):
        filtration_two_class(Filtration(amb, fx, fx))
