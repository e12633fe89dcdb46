"""Fixed showcase instances and the seeded random generators."""

import hashlib
from collections import Counter
from random import Random

import pytest
from helpers import _draw_module_reference, random_filtration_reference, ses_chain_reference

import roofext.algebra as algebra_module
import roofext.instances as instances
from roofext.algebra import _closure, free_module, random_bound_quiver_algebra
from roofext.complexes import cohomology
from roofext.errors import DegenerateFiltrationError, InvariantError
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
from roofext.linalg import GF, QQ, Mat, field_from_name, random_mat, rank

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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "QQ"])
def test_top_test_says_generates_exactly_when_the_closure_is_everything(field, seed):
    rng = Random(seed)
    seen = set()
    for _ in range(40):
        algebra = random_bound_quiver_algebra(rng, field)
        free = free_module(algebra, 1)
        gens = random_mat(rng, field, free.dim, rng.randint(1, 3)).a.copy()
        gens[[rng.random() < 0.4 for _ in range(free.dim)]] = 0  # leave some vertices unhit
        gens = Mat(field, gens)
        generates = instances._generates_regular(algebra.quiver["vertices"],
                                                 gens.a.reshape(-1).tolist(), gens.ncols)
        assert generates == (_closure(free, gens)[0].ncols == free.dim)
        seen.add(generates)
    assert seen == {True, False}


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


def test_module_and_chain_samplers_give_up_with_a_typed_error():
    # Giving up is exit 4, not a RuntimeError that a caller catching
    # InvariantError would also catch.  kx3 has no quiver, so no simple
    # fallback, and dim 3 > max_dim rules out the free draw.
    with pytest.raises(DegenerateFiltrationError, match="0 tries"):
        random_module(Random(0), kx3_regular(F3).algebra, max_dim=2, tries=0)
    with pytest.raises(DegenerateFiltrationError, match="0 tries"):
        random_ses_pair(Random(0), F2, tries=0)


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


@pytest.mark.parametrize("name", ["f2", "f3"])
def test_filtration_sampler_builds_only_kept_draws(monkeypatch, name):
    # Rejected draws are decided from ranks alone: submodule runs only for F1
    # and F2 of each returned filtration, and an ambient is built from its
    # drawn table, with no submodule_quotient.
    subs, quotients = [], []

    def counted_submodule(*args, **kwargs):
        subs.append(1)
        return real_submodule(*args, **kwargs)

    real_submodule = instances.submodule
    monkeypatch.setattr(instances, "submodule", counted_submodule)
    monkeypatch.setattr(instances, "submodule_quotient", lambda *a: quotients.append(1))
    docs = _seeded_draws("filtration", field_from_name(name))
    assert len(subs) == 2 * len(docs) and not quotients


@pytest.mark.parametrize("name", ["f2", "f3"])
def test_filtration_tries_make_a_table_only_past_dim_3(monkeypatch, name):
    """Over 60 seeded filtrations, a try's table is made once when its draw
    has dim >= 3, and never for a smaller draw, and the rows of each draw
    past the top test are eliminated once."""
    draws, arrays, reductions = [], [], []  # draws: [dim, tables made] per try

    def draw_module(*args, **kwargs):
        dim, table = real(*args, **kwargs)
        draws.append([dim, 0])
        record = draws[-1]

        def counted():
            record[1] += 1
            return table()

        return dim, counted

    real, real_array, real_reduced = (instances._draw_module, instances._draws_array,
                                      instances._reduced)
    monkeypatch.setattr(instances, "_draw_module", draw_module)
    monkeypatch.setattr(instances, "_draws_array", lambda *a: arrays.append(1) or real_array(*a))
    monkeypatch.setattr(instances, "_reduced", lambda m: reductions.append(1) or real_reduced(m))
    rng, field = Random(0x1A2E), field_from_name(name)
    for _ in range(60):
        random_filtration(rng, field)
    assert all(made == (dim >= 3) for dim, made in draws)
    assert {dim >= 3 for dim, _ in draws} == {True, False}
    assert len(reductions) == len(arrays) > 0


def test_ses_sampler_matches_the_reference_without_quotients(monkeypatch):
    """On criterion 4's seed (10 pairs, then 5 triples) the sampler gives the
    sequences and the rng state of the reference, which builds each drawn
    module as a submodule quotient, and calls submodule_quotient nowhere."""
    quotients = []
    monkeypatch.setattr(instances, "submodule_quotient", lambda *a: quotients.append(1))
    runs = []
    for chain in (instances._random_ses_chain, ses_chain_reference):
        rng = Random(0x400F)
        docs = [[extension_to_json(e) for e in chain(rng, (F2, F3)[i % 2], 2 + (i >= 10), 800)]
                for i in range(15)]
        runs.append((dump_canonical(docs), rng.getstate()))
    assert runs[0] == runs[1]
    assert not quotients


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["F2", "F3", "F5", "QQ"])
def test_random_module_matches_the_reference_draw(field):
    """random_module draws and builds the module of the reference, which
    decides on the free module and builds a submodule quotient, over 48
    seeded algebras, through each of the free, quotient and simple draws,
    and leaves the same rng state; every module it returns is explicit."""
    runs = []
    for draw in (random_module, lambda *a: _draw_module_reference(*a)[2]()):
        rng = Random(0x3D0D + field.char)
        mods = []
        for t in range(48):
            algebra = random_bound_quiver_algebra(rng, field)
            mods.append(draw(rng, algebra, (4, 6)[t % 2], 64 if t % 3 else 0))
        runs.append((mods, rng.getstate()))
    (mods, state), (ref_mods, ref_state) = runs
    assert [m.key() for m in mods] == [m.key() for m in ref_mods] and state == ref_state
    assert not any(m.is_free for m in mods)
    assert {m.dim == m.algebra.dim for m in mods} == {True, False}
    assert 1 in {m.dim for m in mods}


@pytest.mark.parametrize("name, count", [("f2", 60), ("f3", 60), ("f5", 60), ("q", 20)])
def test_filtration_sampler_builds_one_algebra_per_filtration(monkeypatch, name, count):
    """Deciding every try on the quiver shape's regular table gives the
    filtrations, give-ups and final rng state of building every try's algebra,
    and builds one algebra per filtration returned."""

    def draw(sampler, rng):
        try:
            return filtration_to_json(sampler(rng, field))
        except DegenerateFiltrationError:  # a give-up still leaves an rng state
            return None

    built = []
    real = algebra_module.bound_quiver_algebra
    monkeypatch.setattr(algebra_module, "bound_quiver_algebra",
                        lambda *a: built.append(1) or real(*a))
    monkeypatch.setattr(instances, "bound_quiver_algebra", algebra_module.bound_quiver_algebra)
    field = field_from_name(name)
    runs = []
    for sampler in (random_filtration, random_filtration_reference):
        built.clear()
        rng = Random(0xF117 + count)
        docs = [draw(sampler, rng) for _ in range(count)]
        runs.append((docs, rng.getstate(), len(built)))
    (docs, state, algebras), (ref_docs, ref_state, ref_algebras) = runs
    assert dump_canonical(docs) == dump_canonical(ref_docs) and state == ref_state
    assert algebras == count - docs.count(None) > 0 and ref_algebras >= 10 * algebras


@pytest.mark.parametrize("name", ["f2", "f3", "f5", "q"])
def test_filtration_tries_store_each_pattern_once_and_arrays_only_past_the_top(
        monkeypatch, name):
    """Over 60 seeded filtrations, each shape drawn has its table pattern
    stored once, a draw that Nakayama's top test rejects makes no array, and
    the filtrations, give-ups and final rng state are those of building every
    try's algebra."""
    writes, shapes, tops, arrays = Counter(), set(), [], []

    class Store(dict):
        def __setitem__(self, key, value):
            writes[key] += 1
            super().__setitem__(key, value)

    def shape(rng):
        out = real_shape(rng)
        shapes.add((out[0], tuple(out[1]), out[2]))
        return out

    def top(*args):
        tops.append(real_top(*args))
        return tops[-1]

    def array(*args):
        arrays.append(1)
        return real_array(*args)

    def draw(sampler, rng):
        try:
            return filtration_to_json(sampler(rng, field))
        except DegenerateFiltrationError:
            return None

    real_shape, real_top = instances._random_quiver_shape, instances._generates_regular
    real_array = instances._draws_array
    monkeypatch.setattr(algebra_module, "_TABLE_ONES", Store())
    monkeypatch.setattr(instances, "_random_quiver_shape", shape)
    monkeypatch.setattr(instances, "_generates_regular", top)
    monkeypatch.setattr(instances, "_draws_array", array)
    field = field_from_name(name)
    runs = []
    for sampler in (random_filtration, random_filtration_reference):
        rng = Random(0x5A4D)
        runs.append(([draw(sampler, rng) for _ in range(60)], rng.getstate()))
    assert set(writes) == shapes and set(writes.values()) == {1}
    assert len(arrays) == tops.count(False) and tops.count(True) > 0
    (docs, state), (ref_docs, ref_state) = runs
    assert dump_canonical(docs) == dump_canonical(ref_docs) and state == ref_state


def test_filtration_sampler_checks_what_it_built(monkeypatch):
    # A submodule that drops g2 builds F2 = F1, against the ranks decided.
    real = instances.submodule
    monkeypatch.setattr(instances, "submodule", lambda m, g: real(m, g.take_cols([0])))
    with pytest.raises(InvariantError, match="differs from the ranks"):
        random_filtration(Random(0xD1A5), F2)


def test_drawn_module_checks_its_table(monkeypatch):
    # Transposed blocks are the action of the opposite algebra: a drawn table
    # that fails the module laws is refused before it becomes a module.
    real = instances._draw_module

    def transposed(*args):
        dim, table = real(*args)
        return dim, lambda: table().reshape(-1, dim, dim).transpose(0, 2, 1).reshape(-1, dim)

    monkeypatch.setattr(instances, "_draw_module", transposed)
    rng = Random(0xD1A5)
    with pytest.raises(InvariantError, match="fails the module laws"):
        for _ in range(40):
            random_module(rng, random_bound_quiver_algebra(rng, F3))
    # a table decided on another algebra's regular table is refused as well
    algebra, other = (random_bound_quiver_algebra(Random(seed), F3) for seed in (1, 2))
    table = free_module(algebra, 1)._blocks()[2]
    assert algebra.dim != other.dim
    with pytest.raises(InvariantError, match="not its algebra's"):
        instances._module(algebra, table, free_module(other, 1)._blocks()[2])


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["F2", "F3", "F5", "QQ"])
def test_decided_rank_is_the_built_rank(field):
    """_rank_of(table, g), read in a drawn table, is the rank of A g in the
    module built from it: the free table is the regular table itself, the
    simple table has one column, and a quotient's is made from its rows."""
    rng = Random(0xDEC1DE)
    branches, outcomes = set(), set()
    for t in range(40):
        algebra = random_bound_quiver_algebra(rng, field)
        stacked = free_module(algebra, 1)._blocks()[2]
        # tries=0 skips the quotient draws: the free draw or the simple fallback
        tries = 64 if t % 4 else 0
        dim, table = instances._draw_module(rng, field, algebra.quiver["vertices"], stacked,
                                            6, tries)
        table = table()
        module = instances._module(algebra, table, stacked)
        branch = "free" if table is stacked else "quotient" if tries else "simple"
        branches.add(branch)
        assert module.dim == dim == table.shape[1] and (branch != "simple" or dim == 1)
        for cols in (1, 2):
            g = random_mat(rng, field, dim, cols).a.copy()
            g[[rng.random() < 0.5 for _ in range(dim)]] = 0  # not always a generator
            g = Mat(field, g)
            r = instances._rank_of(table, g)
            assert r == rank(module.act_all(g)) == _closure(module, g)[0].ncols
            outcomes.add(1 <= r <= dim - 2)
    assert branches == {"free", "simple", "quotient"}
    assert outcomes == {True, False}
