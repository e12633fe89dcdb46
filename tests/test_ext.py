"""Ext groups, the Yoneda product, and extension sequences.

Frozen dimensions: over A = k[x]/(x^3) the module k has the periodic
resolution ... -> A --x--> A --x^2--> A -> k, so Ext^i(k, k) is
one-dimensional in every degree.  Over the radical-square-zero A3 quiver
the Ext algebra of the simples is the path combinatorics: one-dimensional
Ext^1 along each arrow, one-dimensional Ext^2 along the length-two path,
and the product of the two arrow classes generates it.
"""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from helpers import ext_space_reference, greedy_generators_reference, route_linalg

from roofext import cli, jsonio, linalg
from roofext.algebra import (
    Module,
    direct_sum,
    free_module,
    hom_space,
    random_bound_quiver_algebra,
)
from roofext.errors import MiddleMismatchError, SchemaError
from roofext.ext import (
    SPLICE_PRODUCT_SIGN,
    ExtensionSeq,
    _ext_space,
    _hom_delta,
    _radical_images,
    class_of_extension,
    ext0_from_hom,
    ext_group,
    extension_from_class,
    free_resolution,
    hom_from_free,
    is_trivial,
    lift_solve,
    minimal_generators,
    splice,
    yoneda_product,
)
from roofext.instances import (
    ka3_first_step,
    ka3_second_step,
    ka3_simples,
    kx3_regular,
    kx3_simple,
    random_filtration,
    random_module,
    random_ses_pair,
    random_ses_triple,
)
from roofext.linalg import GF, QQ, Mat, hstack, random_mat, vstack
from roofext.roofs import filtration_two_class

F2 = GF(2)
F3 = GF(3)


# -- resolutions ----------------------------------------------------------------


def test_resolution_is_a_complex():
    k = kx3_simple(QQ)
    res = free_resolution(k, 4)
    assert res.truncation >= 4
    assert res.map(0).target == k  # d_0 is the augmentation
    for t in range(4):
        assert (res.map(t) @ res.map(t + 1)).is_zero()


def _combine(field, coeffs, mats, n):
    out = Mat.zeros(field, n, n)
    for c, m in zip(coeffs, mats):
        out = out + m.scale(c)
    return out


def _reference_hom_delta(res, N, k, g):
    """Block by block: block (u, t) is sum_s g[t*a + s, u] act_mat(s)."""
    field, nn, a = N.field, N.dim, N.algebra.dim
    mats = [N.act_mat(s) for s in range(a)]
    rows = [hstack([Mat.zeros(field, nn, 0)]
                   + [_combine(field, g.a[t * a : (t + 1) * a, u], mats, nn)
                      for t in range(res.ranks[k])])
            for u in range(g.ncols)]
    return vstack([Mat.zeros(field, 0, res.ranks[k] * nn)] + rows)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["f2", "f3", "q"])
def test_block_products_match_per_block_references(field):
    """_hom_delta, on the next generators and on the syzygy basis, and the
    radical images against loops over act_mat, on free modules of rank 0-2
    and on explicit modules."""
    rng = Random(0xDE17A)
    for _ in range(5):
        alg = random_bound_quiver_algebra(rng, field)
        res = free_resolution(random_module(rng, alg), 2)
        rad = alg.radical
        for N in (*(free_module(alg, r) for r in range(3)), random_module(rng, alg)):
            for k in range(2):
                g = res.gens[k + 1]
                assert _hom_delta(N, res.ranks[k], g) == _reference_hom_delta(res, N, k, g)
            for k in range(3):
                K = res._kers[k][0]
                assert _hom_delta(N, res.ranks[k], K) == _reference_hom_delta(res, N, k, K)
            basis = random_mat(rng, field, N.dim, rng.randint(1, 3))
            mats = [N.act_mat(s) for s in range(alg.dim)]
            expected = [_combine(field, rad.a[:, j], mats, N.dim) @ basis
                        for j in range(rad.ncols)]
            assert _radical_images(N, hom_from_free(N, basis), rad) == hstack(
                [Mat.zeros(field, N.dim, 0)] + expected)


def test_resolution_of_kx3_simple_is_periodic():
    k = kx3_simple(F3)
    res = free_resolution(k, 5)
    assert res.ranks[:6] == [1, 1, 1, 1, 1, 1]


def _count_eliminations(monkeypatch, names=("_reduced", "_eliminate_qq")) -> list:
    """Route every roofext binding of the named linalg eliminations through
    a counter; returns the list of reduced shapes, which grows as they are
    called.  Every elimination over Q (rref, _kernel, solve, pivots, rank)
    runs in _eliminate_qq, and every one over a prime field that reads
    reduced rows runs in _reduced, so _reduced, which calls _eliminate_qq
    over Q, is counted over prime fields only.  pivots may be counted over
    any prime: it never calls _reduced."""
    calls = []

    def counter(prime_only):
        def count(m):
            if not (prime_only and m.field.char == 0):
                calls.append(m.shape)
        return count

    for fn in names:
        route_linalg(monkeypatch, fn, counter(fn == "_reduced"))
    return calls


def test_one_resolution_step_reduces_twice(monkeypatch):
    """One elimination picks the generators (the pivots of the radical
    coordinates read off the kernel's free rows) and one reduction gives
    the next kernel."""
    s1, _, _ = ka3_simples(F3)
    res = free_resolution(s1, 0)
    calls = _count_eliminations(monkeypatch, ("_reduced", "pivots"))
    res._extend_to(1)
    assert res.ranks[1] > 0 and len(calls) == 2


def test_random_lift_reduces_once(monkeypatch):
    """The random null-space part of a lift comes from the same reduction."""
    e = ka3_first_step(F3)
    gens = free_resolution(e.quotient, 1).gens[0]
    calls = _count_eliminations(monkeypatch)
    lifted = lift_solve(e.maps[1].matrix, gens, Random(5))
    assert len(calls) == 1 and e.maps[1].matrix @ lifted == gens


def test_extension_from_class_reads_the_first_syzygy(monkeypatch):
    """The first syzygy is the resolution's, not a fresh kernel of the
    augmentation, and the span of the cocycle's graph is already a
    submodule, so no closure runs: lift and quotient reduce once each."""
    e1, _ = random_ses_pair(Random(4), GF(3))
    a = class_of_extension(e1)
    calls = _count_eliminations(monkeypatch)
    e = extension_from_class(a)
    assert len(calls) == 2
    assert a.space.res._kers[0][0] == linalg.kernel_basis(a.space.res._maps[0])
    assert class_of_extension(e) == a


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["f2", "f3", "f5", "q"])
def test_greedy_generators_match_reference(field):
    """Without a radical the eliminating picker takes the generators of the
    one-test-at-a-time reference, in the same order, at every step of the
    resolutions of 52 seeded modules per field.  A merged generator is a
    sum or difference of basis columns, so it is no basis column itself;
    each field has steps with one, and steps where the dimension bound ended
    the pass: k > 1 generators were kept, and k - 1 of them could not span
    the basis, since they span at most (k - 1) * dim A."""
    rng = Random(0x6E7)
    merged = bounded = 0
    for _ in range(52):
        algebra = random_bound_quiver_algebra(rng, field)
        algebra.radical = None
        M = random_module(rng, algebra)
        res = free_resolution(M, 2)
        for k in range(3):
            prev, basis = (res.terms[k - 1], res._kers[k - 1][0]) if k else (
                M, Mat.identity(field, M.dim))
            ref = greedy_generators_reference(prev, basis)
            assert res.gens[k].key() == ref.key()
            merged += not {tuple(g) for g in ref.a.T} <= {tuple(v) for v in basis.a.T}
            bounded += 1 < ref.ncols and (ref.ncols - 1) * algebra.dim < basis.ncols
    assert merged > 0 and bounded > 0


def test_greedy_picker_eliminates_once_per_candidate(monkeypatch):
    """Through degree 2 of a JSON fixture (no radical, over Q) the picker
    takes the reference's generators and the differential on them with one
    action product per call, the scan's H, whose blocks give every merge
    candidate's images.  One elimination scans the basis and one decides
    each sum candidate the reference tried (the reference builds one
    IncrementalSpan for the scan and one per candidate, and tries the
    difference of a pair after its failed sum), until the dimension bound
    ends the pass: after that the picker tries none, so once the bound fires
    it makes fewer rank tests than the reference tried sums.  It grows no
    IncrementalSpan."""
    M = jsonio.module_from_json(cli._document("fixture:ka3_simple1"))
    assert M.algebra.radical is None
    res = free_resolution(M, 2)
    steps = [(M, Mat.identity(QQ, M.dim), tuple(range(M.dim))),
             *((res.terms[k], *res._kers[k]) for k in range(2))]
    spans, adds, products = [], [], []
    init = linalg.IncrementalSpan.__init__
    monkeypatch.setattr(linalg.IncrementalSpan, "__init__",
                        lambda self, *a: spans.append(a) or init(self, *a))
    act_all = Module.act_all
    monkeypatch.setattr(Module, "act_all", lambda self, v: products.append(
        (len(spans), v.ncols)) or act_all(self, v))
    refs, sums = [], []
    for prev, basis, _ in steps:
        spans.clear()
        products.clear()
        refs.append(greedy_generators_reference(prev, basis))
        # the scan grows the first span, and each later span closes one
        # candidate, as wide as its round's generators less one; a round
        # tries each pair's sum, then its difference if the sum failed
        rounds = Counter(width for span, width in products if span > 1)
        sums.append(sum((tried + 1) // 2 for tried in rounds.values()))
    maps = [hom_from_free(prev, ref) for (prev, _, _), ref in zip(steps, refs)]
    monkeypatch.setattr(linalg.IncrementalSpan, "add", lambda self, v: adds.append(v))
    calls = _count_eliminations(monkeypatch)
    fired = 0
    for (prev, basis, free), ref, dmat, ref_sums in zip(steps, refs, maps, sums):
        products.clear()
        calls.clear()
        assert minimal_generators(prev, basis, free) == (ref, dmat)
        assert len(products) == 1
        bound = 1 < ref.ncols and (ref.ncols - 1) * M.algebra.dim < basis.ncols
        fired += bound
        rank_tests = len(calls) - 1  # one pivot scan, then one rank per candidate
        assert rank_tests < ref_sums if bound else rank_tests == ref_sums
    assert fired > 0 and max(sums) > 0 and not adds


def test_resolution_grows_in_place():
    k = kx3_simple(F2)
    r1 = free_resolution(k, 1)
    r2 = free_resolution(k, 3)
    assert r1 is r2  # cached and extended, never rebuilt
    assert r2.truncation >= 3


def test_ext_reads_no_deeper_than_its_degree():
    """Ext^i resolves through P_i; the filtration classes stop at the
    degrees they read: G/F2 at 2 (the composite), F2/F1 at 1."""
    rng = Random(0xDE97)
    for i in range(4):
        M = kx3_simple(F3) if i % 2 else random_module(rng, random_bound_quiver_algebra(rng, F3))
        ext_group(M, M, i)
        assert free_resolution(M, 0).truncation == i
    a1, _, a, _ = filtration_two_class(random_filtration(Random(0xF17), F2))
    assert free_resolution(a.source, 0).truncation == 2
    assert free_resolution(a1.source, 0).truncation == 1


def test_resolution_of_free_module_is_trivial():
    amb = kx3_regular(QQ)
    res = free_resolution(amb, 3)
    assert res.ranks == [1, 0, 0, 0]


# -- Ext dimensions ---------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["f2", "f3", "f5", "q"])
def test_ext_space_matches_next_generator_reference(field):
    """Cocycles cut out by the syzygy basis of ker d_i have the canonical
    coordinates of those cut out by the generators of P_(i+1)."""
    rng = Random(0xE47)
    nonzero = 0
    for _ in range(12):
        alg = random_bound_quiver_algebra(rng, field)
        M = random_module(rng, alg)
        for N in (random_module(rng, alg), free_module(alg, 1)):
            for i in range(3):
                space = _ext_space(M, N, i)
                include, project = ext_space_reference(M, N, i)
                assert space.dim == include.ncols
                assert space.include.key() == include.key()
                assert space.project.key() == project.key()
                nonzero += i > 0 and space.dim > 0
    assert nonzero >= 5


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_ext_of_kx3_simple_all_degrees(field):
    k = kx3_simple(field)
    for i in range(5):
        dim, basis = ext_group(k, k, i)
        assert dim == 1 and len(basis) == 1


def test_ext_vanishes_on_free_source():
    amb = kx3_regular(QQ)
    k = kx3_simple(QQ)
    for i in (1, 2, 3):
        assert ext_group(amb, k, i)[0] == 0


def test_ext0_is_hom():
    amb = kx3_regular(QQ)
    k = kx3_simple(QQ)
    for m, n in [(k, k), (amb, k), (amb, amb), (k, amb)]:
        assert ext_group(m, n, 0)[0] == len(hom_space(m, n))


def test_ext0_from_hom_embedding():
    k = kx3_simple(F3)
    h = hom_space(k, k)[0]
    cls = ext0_from_hom(h)
    assert cls.degree == 0 and not cls.is_zero()


def test_ka3_ext_dimensions():
    s1, s2, s3 = ka3_simples(QQ)
    assert ext_group(s1, s2, 1)[0] == 1
    assert ext_group(s2, s3, 1)[0] == 1
    assert ext_group(s1, s3, 2)[0] == 1
    # and the directions with no arrows or paths carry nothing
    assert ext_group(s2, s1, 1)[0] == 0
    assert ext_group(s1, s3, 1)[0] == 0
    assert ext_group(s3, s1, 2)[0] == 0


def test_ext_degree_two_and_negative_degree():
    k = kx3_simple(QQ)
    dim, _ = ext_group(k, k, 2)
    assert dim == 1
    with pytest.raises(ValueError):
        ext_group(k, k, -1)


# -- Yoneda products ---------------------------------------------------------------


def test_nonzero_product_on_ka3():
    """The two arrow classes compose to the length-two path class."""
    s1, s2, s3 = ka3_simples(QQ)
    _, (a,) = ext_group(s1, s2, 1)
    _, (b,) = ext_group(s2, s3, 1)
    prod = yoneda_product(a, b)
    assert prod.degree == 2
    assert prod.source == s1 and prod.target == s3
    assert not prod.is_zero()


def test_product_middle_mismatch():
    s1, s2, s3 = ka3_simples(QQ)
    _, (a,) = ext_group(s1, s2, 1)
    with pytest.raises(MiddleMismatchError, match="middle"):
        yoneda_product(a, a)
    _, (b,) = ext_group(s2, s3, 1)
    with pytest.raises(MiddleMismatchError):
        yoneda_product(b, a)  # wrong order


def test_product_with_ext0_identity():
    k = kx3_simple(QQ)
    ident = ext0_from_hom(hom_space(k, k)[0])
    _, (a,) = ext_group(k, k, 1)
    assert yoneda_product(ident, a) == a
    assert yoneda_product(a, ident) == a


def test_product_bilinearity(rng):
    for field in (F2, F3):
        e1, e2 = random_ses_pair(rng, field)
        a = class_of_extension(e1)
        b = class_of_extension(e2)
        two_a = a + a
        assert yoneda_product(two_a, b) == yoneda_product(a, b) + yoneda_product(a, b)
        c = 1 if field.p == 2 else 2
        assert yoneda_product(a.scale(c), b) == yoneda_product(a, b.scale(c))


def test_product_associative_on_random_triples():
    rng = Random(0xACC)
    for trial in range(4):
        field = F2 if trial % 2 else F3
        e1, e2, e3 = random_ses_triple(rng, field)
        a, b, c = (class_of_extension(e) for e in (e1, e2, e3))
        left = yoneda_product(yoneda_product(a, b), c)
        right = yoneda_product(a, yoneda_product(b, c))
        assert left == right


# -- extension sequences ------------------------------------------------------------


def test_extension_seq_validates_exactness():
    from roofext.algebra import ModuleHom
    from roofext.errors import SchemaError

    s1, s2, _ = ka3_simples(QQ)
    e = ka3_first_step(QQ)
    e.validate()
    assert e.sub == s2 and e.quotient == s1 and e.degree == 1
    with pytest.raises(SchemaError, match="not surjective"):
        ExtensionSeq(e.mods, [e.maps[0], ModuleHom.zero(e.mods[1], s1)])
    # injective first map, surjective last map, but the middle is too big
    total, injs, projs = direct_sum([e.mods[1], s2])
    with pytest.raises(SchemaError, match="image is smaller"):
        ExtensionSeq([s2, total, s1], [injs[1], e.maps[1] @ projs[0]])


def test_split_extension_is_trivial():
    k = kx3_simple(QQ)
    amb = kx3_regular(QQ)
    total, injs, projs = direct_sum([k, amb])
    e = ExtensionSeq([k, total, amb], [injs[0], projs[1]])
    assert is_trivial(class_of_extension(e))


def test_class_of_ka3_steps_nonzero():
    for e in (ka3_first_step(F3), ka3_second_step(F3)):
        assert not class_of_extension(e).is_zero()


def test_scaling_an_fp_class_is_exact_or_refused():
    """Over F3 an integer scalar of any size scales by its residue, and a
    non-integral one is refused rather than truncated to an int."""
    a = class_of_extension(ka3_first_step(F3))
    assert a.scale(2**70) == a.scale(2**70 % 3) == a
    assert a.scale(-(2**70)) == a.scale(2)
    with pytest.raises(SchemaError, match="not an integer"):
        a.scale(Fraction(1, 2))


def test_class_is_lift_independent():
    e = ka3_first_step(QQ)
    base = class_of_extension(e)
    rng = Random(7)
    for _ in range(25):
        assert class_of_extension(e, rng) == base


def test_extension_from_class_roundtrip(rng):
    for field in (F2, F3, QQ):
        e1, _ = random_ses_pair(rng, field)
        a = class_of_extension(e1)
        again = class_of_extension(extension_from_class(a))
        assert again == a
        zero = a.scale(0)
        e0 = extension_from_class(zero)
        assert is_trivial(class_of_extension(e0))


def test_extension_from_class_degree_guard():
    s1, s2, s3 = ka3_simples(QQ)
    _, (a,) = ext_group(s1, s2, 1)
    _, (b,) = ext_group(s2, s3, 1)
    prod = yoneda_product(a, b)
    with pytest.raises(ValueError, match="degree-1"):
        extension_from_class(prod)


# -- splice vs product ----------------------------------------------------------------


def test_splice_matches_product_on_ka3():
    """Nonzero instance, so a sign error cannot hide."""
    e_top = ka3_first_step(QQ)      # 0 -> S2 -> P1 -> S1 -> 0
    e_bot = ka3_second_step(QQ)     # 0 -> S3 -> P2 -> S2 -> 0
    spliced = splice(e_top, e_bot)
    spliced.validate()
    assert spliced.degree == 2
    a = class_of_extension(e_top)
    b = class_of_extension(e_bot)
    prod = yoneda_product(a, b)
    assert not prod.is_zero()
    assert class_of_extension(spliced) == prod.scale(SPLICE_PRODUCT_SIGN)


def test_splice_matches_product_randomized(rng):
    hits = 0
    for trial in range(16):
        field = F2 if trial % 2 else F3
        e1, e2 = random_ses_pair(rng, field)
        spliced = splice(e1, e2)
        prod = yoneda_product(class_of_extension(e1), class_of_extension(e2))
        assert class_of_extension(spliced) == prod.scale(SPLICE_PRODUCT_SIGN)
        hits += 0 if prod.is_zero() else 1
        if hits and trial >= 5:
            break
    assert hits >= 1  # at least one genuinely nonzero comparison


def test_splice_middle_mismatch():
    e = ka3_first_step(QQ)
    with pytest.raises(MiddleMismatchError, match="splice"):
        splice(e, e)
