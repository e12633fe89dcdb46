"""Fixed showcase instances and the seeded random generators."""

import hashlib
from random import Random

import pytest

from roofext.algebra import random_bound_quiver_algebra
from roofext.complexes import cohomology
from roofext.errors import DegenerateFiltrationError
from roofext.ext import class_of_extension
from roofext.jsonio import complex_to_json, dump_canonical, extension_to_json, filtration_to_json
from roofext.instances import (
    ka3_algebra,
    ka3_first_step,
    ka3_second_step,
    ka3_simples,
    kx3_filtration,
    kx3_regular,
    kx3_simple,
    random_complex,
    random_ext_element,
    random_filtration,
    random_module,
    random_ses_pair,
    random_ses_triple,
    sum_complexes,
)
from roofext.linalg import GF, QQ, field_from_name

F2 = field_from_name("f2")
F3 = field_from_name("f3")


# -- fixed instances ---------------------------------------------------------


def test_kx3_regular_and_simple():
    amb = kx3_regular(QQ)
    assert amb.dim == 3
    amb.validate()
    k = kx3_simple(QQ)
    assert k.dim == 1
    k.validate()
    # x acts by zero on the simple quotient
    assert not any(k.act_mat(1).a.reshape(-1))


def test_kx3_filtration_shape():
    f = kx3_filtration(F3)
    assert (f.f1.source.dim, f.f2.source.dim, f.ambient.dim) == (1, 2, 3)
    f.check_nondegenerate()


def test_ka3_fixed_instances():
    alg = ka3_algebra(QQ)
    assert alg.dim == 5  # three vertices, two arrows, radical square zero
    s1, s2, s3 = ka3_simples(QQ)
    assert (s1.dim, s2.dim, s3.dim) == (1, 1, 1)
    for s in (s1, s2, s3):
        s.validate()
    for e in (ka3_first_step(QQ), ka3_second_step(QQ)):
        assert [m.dim for m in e.mods] == [1, 2, 1]
        e.validate()


def test_ka3_steps_chain():
    # the quotient of the first step is the sub of the second, so the two
    # classes compose
    e1, e2 = ka3_first_step(F2), ka3_second_step(F2)
    assert e1.mods[0] == e2.mods[2]


# -- random generators -------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "QQ"])
def test_random_module_valid(field):
    rng = Random(0xD1CE)
    for _ in range(10):
        alg = random_bound_quiver_algebra(rng, field)
        m = random_module(rng, alg, max_dim=4)
        assert 1 <= m.dim <= 4
        m.validate()


def test_random_module_deterministic():
    draws = []
    for _ in range(2):
        rng = Random(99)
        alg = random_bound_quiver_algebra(rng, F3)
        draws.append(random_module(rng, alg, max_dim=4))
    assert draws[0] == draws[1]


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_random_filtration_nondegenerate(field):
    rng = Random(0xF117)
    for _ in range(8):
        f = random_filtration(rng, field, max_dim=6)
        f.check_nondegenerate()
        assert 1 <= f.f1.source.dim < f.f2.source.dim < f.ambient.dim <= 6
        # nesting holds on the nose
        assert (f.f2 @ f.inclusion_12) == f.f1


def test_random_filtration_gives_up_with_a_typed_error():
    with pytest.raises(DegenerateFiltrationError, match="0 tries"):
        random_filtration(Random(0), GF(2), tries=0)


def test_random_filtration_deterministic():
    a = random_filtration(Random(31), F3)
    b = random_filtration(Random(31), F3)
    assert a.ambient == b.ambient and a.f1 == b.f1 and a.f2 == b.f2


def test_random_ext_element_spans_and_rejects_empty():
    from roofext.ext import ext_group

    rng = Random(4)
    m = kx3_simple(F3)
    _, basis = ext_group(m, m, 1)
    el = random_ext_element(rng, basis)
    assert not el.is_zero()
    assert el.degree == 1
    with pytest.raises(ValueError, match="empty basis"):
        random_ext_element(rng, [])


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "QQ"])
def test_random_ses_pair_chains(field):
    rng = Random(0x5E5)
    for _ in range(3):
        e1, e2 = random_ses_pair(rng, field)
        e1.validate()
        e2.validate()
        # E1 classifies Ext^1(M, N) and E2 classifies Ext^1(N, L): the sub of
        # E1 is the quotient of E2
        assert e1.mods[0] == e2.mods[2]
        c1, c2 = class_of_extension(e1), class_of_extension(e2)
        assert c1.degree == 1 and c2.degree == 1
        assert c1.target == c2.source


def test_random_ses_triple_chains():
    for field in (F2, F3):
        e1, e2, e3 = random_ses_triple(Random(0x7121), field)
        for e in (e1, e2, e3):
            e.validate()
        assert e1.mods[0] == e2.mods[2]
        assert e2.mods[0] == e3.mods[2]
        assert e1.mods[0].algebra is e3.mods[0].algebra


def test_random_complex_bounded_and_valid():
    rng = Random(0xC0)
    for field in (F2, F3, QQ):
        alg = random_bound_quiver_algebra(rng, field)
        for _ in range(4):
            c = random_complex(rng, alg)
            assert c.lo <= c.hi
            assert all(c.obj(n).dim <= 4 for n in range(c.lo, c.hi + 1))
            for n in range(c.lo, c.hi):
                sq = c.diff(n + 1) @ c.diff(n)
                assert not any(sq.matrix.a.reshape(-1))


def test_sum_complexes_additive_on_cohomology():
    rng = Random(5)
    alg = random_bound_quiver_algebra(rng, F3)
    c1 = random_complex(rng, alg)
    c2 = random_complex(rng, alg)
    s = sum_complexes([c1, c2])
    for n in range(min(c1.lo, c2.lo) - 1, max(c1.hi, c2.hi) + 2):
        want = cohomology(c1, n).module.dim + cohomology(c2, n).module.dim
        assert cohomology(s, n).module.dim == want


def test_sum_complexes_edge_cases():
    rng = Random(6)
    alg = random_bound_quiver_algebra(rng, F2)
    c = random_complex(rng, alg)
    assert sum_complexes([c]) == c
    with pytest.raises(ValueError, match="at least one"):
        sum_complexes([])


# -- pinned seeded draws ------------------------------------------------------

# sha256 of the canonical JSON of each draw below from Random(0xD1A5).  A
# refactor of the generators must draw the same values in the same order, so
# these digests only change when the instances themselves are meant to.
DRAW_DIGESTS = {
    ("filtration", "f2"): "bbf2391302398c9471c08adafda134a368595e08a1cbf2407235e2665e92f9aa",
    ("filtration", "f3"): "b459cb00e1eec6aee2b788990c76f5add4cbd2772f5650886fbcb20de3007f66",
    ("filtration", "q"): "b919a9abb8cb0c87a7fedcb88ce359d3c324f065813b6a4efd762ce5827b1b2a",
    ("ses_pair", "f2"): "59d2d4bea71cde1cfbe2e8561a218ba100e81a1249d57f5ea7f407f3be4d48bf",
    ("ses_pair", "f3"): "5e0181b07eb36bc7e720ffd9523da96dbdc8a880a0b808e7f7fe951c49eb95c4",
    ("ses_triple", "f2"): "fbdef1488cbe4717bd7d2da15bce4b44d6f8952175a4cf7be971cedba7882705",
    ("ses_triple", "f3"): "448374bd808fff5cfc0dedd514e1ff411c4de4df719553e5b229c5fd8b0321bc",
    ("complex", "f2"): "ea699760a0f45005c122f0f15c15c06ba630f4ff2b7e9a910eb6b9e3139974eb",
    ("complex", "f3"): "7da526b064c0e80a7d70681b0534ee9169c49b33cbd17d87686badf6b0cc1c5b",
    ("complex", "q"): "3f5910630649b9dcb3065c3783176609f532c776696c2b41846efbc00bb874ed",
}


def _seeded_draws(kind, field):
    rng = Random(0xD1A5)
    if kind == "filtration":
        return [filtration_to_json(random_filtration(rng, field)) for _ in range(3)]
    if kind == "ses_pair":
        return [[extension_to_json(e) for e in random_ses_pair(rng, field)] for _ in range(2)]
    if kind == "ses_triple":
        return [extension_to_json(e) for e in random_ses_triple(rng, field)]
    alg = random_bound_quiver_algebra(rng, field)
    return [complex_to_json(random_complex(rng, alg)) for _ in range(4)]


@pytest.mark.parametrize("kind, name", sorted(DRAW_DIGESTS))
def test_seeded_draws_are_pinned(kind, name):
    docs = _seeded_draws(kind, field_from_name(name))
    assert hashlib.sha256(dump_canonical(docs).encode()).hexdigest() == DRAW_DIGESTS[kind, name]
