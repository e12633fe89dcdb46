"""Bounded complexes: validation, cohomology, cones, homotopy, inner Hom.

The inner-Hom tests compare dim H^0 against the chain-map/boundary count
from helpers.chain_map_data, which never touches inner_hom; on one small F2
instance the homotopy classes are also counted by literal enumeration.
"""

import hashlib
from itertools import product
from random import Random

import pytest

from helpers import (
    boundary_reference,
    chain_map_compose_reference,
    chain_map_data,
    chain_map_sub_reference,
    chain_map_validate_reference,
    complex_eq_reference,
    complex_validate_reference,
    quasi_iso_reference,
)
from roofext.algebra import (
    Module,
    ModuleHom,
    direct_sum,
    free_module,
    random_bound_quiver_algebra,
    truncated_polynomial_algebra,
)
from roofext.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    cohomology,
    cone,
    find_homotopy,
    inner_hom,
    is_quasi_iso,
    shift,
    zero_module,
)
from roofext.errors import InvariantError, SchemaError
from roofext.instances import (
    _random_hom,
    ka3_first_step,
    ka3_second_step,
    kx3_regular,
    kx3_simple,
    random_complex,
    random_filtration,
    sum_complexes,
)
from roofext.linalg import GF, QQ, Mat, field_from_name
from roofext.roofs import compose_roofs, filtration_sequences, ses_to_roof

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def _mult_by_x(field=QQ):
    """The two-term complex A --x--> A over A = k[x]/(x^3), degrees 0 and 1."""
    amb = kx3_regular(field)
    alg = amb.algebra
    x_mat = alg.left_mult(1)
    d = ModuleHom(amb, amb, x_mat, check=True)
    return Complex(alg, {0: amb, 1: amb}, {0: d}, check=True)


# -- construction and validation ------------------------------------------------


def test_d_squared_is_checked():
    amb = kx3_regular(QQ)
    alg = amb.algebra
    ident = ModuleHom.identity(amb)
    with pytest.raises(SchemaError, match="d\\*d"):
        Complex(alg, {0: amb, 1: amb, 2: amb}, {0: ident, 1: ident}, check=True)


def test_differential_endpoint_check():
    amb = kx3_regular(QQ)
    k = kx3_simple(QQ)
    alg = amb.algebra
    bad = ModuleHom.zero(k, amb)
    with pytest.raises(SchemaError):
        Complex(alg, {0: amb, 1: amb}, {0: bad}, check=True)


def test_single_and_zero():
    k = kx3_simple(F2)
    c = Complex.single(k, -2)
    assert c.single_degree() == -2
    assert c.obj(-2) == k and c.obj(0).dim == 0
    assert not c.is_zero()


def test_complex_equality_and_cache_key():
    a = _mult_by_x()
    b = _mult_by_x()
    assert a == b and hash(a) == hash(b)
    assert a != shift(a, 1)
    assert a == a


def test_zero_objects_are_one_module_per_algebra():
    c = _mult_by_x(F3)
    zero = zero_module(c.algebra)
    assert zero.dim == 0 and zero_module(c.algebra) is zero
    assert c.obj(c.hi + 3) is zero and c.obj(c.lo - 1) is zero
    assert c.diff(c.hi).target is zero
    m = kx3_simple(F3)
    assert Complex.single(m) == Complex.single(m)
    # a zero object between two live degrees is the shared one as well
    gap = Complex(m.algebra, {0: m, 1: Module(m.algebra, free_rank=0), 2: m}, {})
    assert gap.obj(1) is zero_module(m.algebra)


# -- cohomology ------------------------------------------------------------------


def test_cohomology_of_multiplication_by_x():
    c = _mult_by_x()
    # kernel = (x^2), image = (x): both H^0 and H^1 are one-dimensional
    assert cohomology(c, 0).module.dim == 1
    assert cohomology(c, 1).module.dim == 1
    assert cohomology(c, 2).module.dim == 0


def test_cohomology_include_project_laws():
    c = _mult_by_x(F3)
    h = cohomology(c, 1)
    assert (h.project @ h.include) == Mat.identity(F3, h.module.dim)
    # project kills the image of the incoming differential
    assert (h.project @ c.diff(0).matrix).is_zero()


def test_shift_negates_differential_and_moves_cohomology():
    c = _mult_by_x()
    s = shift(c, 1)
    # degreewise: X[1]^n = X^(n+1), d[1] = -d
    assert s.obj(-1) == c.obj(0)
    assert s.diff(-1).matrix == c.diff(0).matrix.scale(-1)
    for n in (-1, 0, 1):
        assert cohomology(s, n).module.dim == cohomology(c, n + 1).module.dim


def test_shift_roundtrip():
    c = _mult_by_x(F2)
    assert shift(shift(c, 1), -1) == c


# -- chain maps and quasi-isomorphisms -------------------------------------------


def test_chain_map_must_commute():
    c = _mult_by_x()
    amb = c.obj(0)
    # identity in degree 0 only: the square against d = x fails
    with pytest.raises(SchemaError):
        ChainMap(c, c, {0: ModuleHom.identity(amb)}, check=True)


def test_identity_is_quasi_iso():
    c = _mult_by_x()
    rep = is_quasi_iso(ChainMap.identity(c))
    assert rep
    assert rep.degrees[0] == (1, 1, 1)


def test_non_quasi_iso_reported():
    k = kx3_simple(QQ)
    src = Complex.single(k, 0)
    tgt = Complex(k.algebra, {0: k}, {}, check=True)
    zero = ChainMap.zero(src, tgt)
    rep = is_quasi_iso(zero)
    assert not rep
    assert rep.degrees[0] == (1, 1, 0)  # right dims, rank drops


def _summand_maps(parts):
    """Inclusion and projection chain maps of each summand of sum_complexes."""
    total = sum_complexes(parts)
    sums = {n: direct_sum([p.obj(n) for p in parts]) for n in total.degrees()}
    maps = []
    for i, p in enumerate(parts):
        maps.append(ChainMap(p, total, {n: s[1][i] for n, s in sums.items()}))
        maps.append(ChainMap(total, p, {n: s[2][i] for n, s in sums.items()}))
    return maps


def _roof_legs(rng, field):
    """The s and g legs of both filtration roofs and of their composite."""
    bottom, top = filtration_sequences(random_filtration(rng, field))
    r1, r2 = ses_to_roof(top), ses_to_roof(bottom).shift(1)
    return [leg for r in (r1, r2, compose_roofs(r1, r2)) for leg in (r.s, r.g)]


def _verdict(check, *args):
    """(exception type, message) of a check, or None when it passes."""
    try:
        check(*args)
    except ValueError as e:
        return type(e), str(e)
    return None


def _mats(f: ChainMap) -> dict:
    return {n: c.matrix for n, c in f.comps.items()}


def _random_homotopy(rng, x, y) -> Homotopy:
    comps = {n: _random_hom(rng, x.obj(n), y.obj(n - 1)) for n in x.degrees()}
    return Homotopy(x, y, {n: h for n, h in comps.items() if not h.is_zero()})


def _dropped_components(x):
    """The identity of x without its component in degree m, for each m next
    to a differential: the squares at m - 1 and m then have one side absent,
    and at least one of them fails."""
    return [ChainMap(x, x, {n: ModuleHom.identity(x.obj(n)) for n in x.degrees() if n != m},
                     check=False) for m in x.degrees() if m in x.diffs or m - 1 in x.diffs]


@pytest.mark.parametrize("field", [F2, F3, F5, QQ], ids=["f2", "f3", "f5", "q"])
def test_sparse_operations_match_dense_references(field):
    """Validation, @, -, boundaries and == on stored components against the
    dense references that build a zero map for every absent degree."""
    rng = Random(0x5BA5)
    showcase = (ses_to_roof(ka3_first_step(field)), ses_to_roof(ka3_second_step(field)).shift(1))
    maps = [leg for r in (*showcase, compose_roofs(*showcase)) for leg in (r.s, r.g)]
    maps += _roof_legs(Random(0x9150), field)
    homotopies, d2 = [], set()
    for t in range(6):
        alg = (truncated_polynomial_algebra(field, 3) if t % 2
               else random_bound_quiver_algebra(rng, field))
        x, y = random_complex(rng, alg, max_dim=4), random_complex(rng, alg, max_dim=4)
        data = chain_map_data(x, y)
        maps += [ChainMap.identity(x), ChainMap.zero(x, y), *_summand_maps([x, y]),
                 *(data.random_chain_map(rng)[0] for _ in range(2)), *_dropped_components(x)]
        homotopies += [_random_homotopy(rng, x, y), _random_homotopy(rng, y, x),
                       find_homotopy(ChainMap.identity(cone(ChainMap.identity(x))))]
        for m, gap in ((x.obj(x.lo), True), (y.obj(y.hi), False)):  # d*d on random maps
            objects = dict.fromkeys(range(4), m)
            diffs = {n: _random_hom(rng, m, m) for n in range(3)}
            if gap:
                diffs[1] = ModuleHom.zero(m, m)
            got = _verdict(Complex, alg, objects, diffs)
            assert got == _verdict(complex_validate_reference, alg, objects, diffs)
            d2.add(got is None)
    assert d2 == {True, False}

    verdicts = [_verdict(f.validate) for f in maps]
    assert verdicts == [_verdict(chain_map_validate_reference, f) for f in maps]
    assert None in verdicts and any(verdicts)
    for f in maps:
        for g in maps:
            if g.target == f.source:
                assert _mats(f @ g) == _mats(chain_map_compose_reference(f, g))
            if (g.source, g.target) == (f.source, f.target):
                assert _mats(f - g) == _mats(chain_map_sub_reference(f, g))
    for h in homotopies:
        assert _mats(h.boundary()) == _mats(boundary_reference(h))

    complexes = [c for f in maps for c in (f.source, f.target)]
    complexes += [shift(shift(c, 1), -1) for c in complexes[::4]]
    complexes += [Complex(c.algebra, c.objects, {n: -d for n, d in c.diffs.items()},
                          check=False) for c in complexes[::3]]
    for c in complexes:
        assert _verdict(Complex, c.algebra, c.objects, c.diffs) is None
        assert _verdict(complex_validate_reference, c.algebra, c.objects, c.diffs) is None
    outcomes = set()
    for a in complexes:
        for b in complexes:
            same = a.key() == b.key()
            assert (a == b) == complex_eq_reference(a, b) == same
            outcomes.add((a is b, same))
    assert outcomes == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("field", [F2, F3, F5, QQ], ids=["f2", "f3", "f5", "q"])
def test_quasi_iso_report_matches_cohomology_reference(field):
    """The rank formulas against canonical cohomology, report for report."""
    rng = Random(0x9150)
    outcomes = set()
    maps = _roof_legs(rng, field)
    for t in range(16):
        alg = (truncated_polynomial_algebra(field, 3) if t % 2
               else random_bound_quiver_algebra(rng, field))
        x = random_complex(rng, alg, max_dim=4)
        y = random_complex(rng, alg, max_dim=4)
        maps += [ChainMap.identity(x), ChainMap.zero(x, y), *_summand_maps([x, y])]
    for f in maps:
        got, want = is_quasi_iso(f), quasi_iso_reference(f)
        assert (got.ok, got.degrees) == (want.ok, want.degrees)
        outcomes.add(got.ok)
    assert outcomes == {True, False}


def test_cone_of_identity_is_acyclic():
    c = _mult_by_x(F2)
    cn = cone(ChainMap.identity(c))
    for n in range(cn.lo - 1, cn.hi + 2):
        assert cohomology(cn, n).module.dim == 0


def test_cone_of_multiplication_by_x():
    amb = kx3_regular(QQ)
    x_hom = ModuleHom(amb, amb, amb.algebra.left_mult(1), check=True)
    f = ChainMap(Complex.single(amb, 0), Complex.single(amb, 0), {0: x_hom})
    cn = cone(f)
    # kernel and cokernel of x on k[x]/(x^3) are both one-dimensional
    assert cohomology(cn, -1).module.dim == 1
    assert cohomology(cn, 0).module.dim == 1


# -- homotopies -------------------------------------------------------------------


def test_zero_map_is_null_homotopic():
    c = _mult_by_x()
    h = find_homotopy(ChainMap.zero(c, c))
    assert h is not None
    assert h.boundary().is_zero()


def test_identity_on_cohomology_is_not_null_homotopic():
    k = Complex.single(kx3_simple(QQ), 0)
    assert find_homotopy(ChainMap.identity(k)) is None


def test_find_homotopy_witness_verifies():
    """On an acyclic complex the identity is null-homotopic; check the witness."""
    c = _mult_by_x(F3)
    cn = cone(ChainMap.identity(c))
    ident = ChainMap.identity(cn)
    h = find_homotopy(ident)
    assert h is not None
    assert h.boundary() == ident


def test_find_homotopy_endpoint_mismatch():
    c = _mult_by_x()
    k = Complex.single(kx3_simple(QQ), 0)
    with pytest.raises(ValueError, match="endpoints"):
        find_homotopy(ChainMap.zero(c, c), ChainMap.zero(k, k))


# -- inner Hom ---------------------------------------------------------------------


def test_inner_hom_h0_on_fixed_instance():
    """[A -x-> A] against k[0]: one chain map up to homotopy, and one in
    degree -1 as well (h: A -> k kills the image of x)."""
    c = _mult_by_x()
    k = Complex.single(kx3_simple(QQ), 0)
    hom = inner_hom(c, k)
    assert cohomology(hom, 0).module.dim == 1
    assert cohomology(hom, -1).module.dim == 1


def test_inner_hom_matches_constraint_count_fixed():
    c = _mult_by_x(F3)
    k = Complex.single(kx3_simple(F3), 0)
    data = chain_map_data(c, k)
    assert data.classes_dim == cohomology(inner_hom(c, k), 0).module.dim


def test_inner_hom_enumeration_over_f2():
    """Literal count: over F2 the homotopy classes can be enumerated."""
    c = _mult_by_x(F2)
    k = Complex.single(kx3_simple(F2), 0)
    data = chain_map_data(c, k)
    # all coefficient vectors of chain maps, reduced modulo boundaries
    seen = set()
    cols = data.cocycles
    for bits in product((0, 1), repeat=cols.ncols):
        coeffs = Mat.zeros(F2, data.total, 1)
        for t, b in enumerate(bits):
            if b:
                coeffs = coeffs + cols.col(t)
        rep = None
        for other_bits in product((0, 1), repeat=data.boundaries.ncols):
            cand = coeffs
            for t, b in enumerate(other_bits):
                if b:
                    cand = cand + data.boundaries.col(t)
            key = cand.key()
            if rep is None or key < rep:
                rep = key
        seen.add(rep)
    h0 = cohomology(inner_hom(c, k), 0).module.dim
    assert len(seen) == 2 ** h0


@pytest.mark.parametrize("field,seed", [(F2, 11), (F3, 12), (F2, 13), (F3, 14)])
def test_inner_hom_random_cross_check(field, seed):
    rng = Random(seed)
    alg = truncated_polynomial_algebra(field, 3)
    x = random_complex(rng, alg, max_dim=4)
    y = random_complex(rng, alg, max_dim=4)
    data = chain_map_data(x, y)
    assert data.classes_dim == cohomology(inner_hom(x, y), 0).module.dim
    # find_homotopy agrees with membership in the boundary space
    for _ in range(4):
        f, coeffs = data.random_chain_map(rng)
        witness = find_homotopy(f)
        assert (witness is not None) == data.is_null_homotopic(coeffs)
        if witness is not None:
            assert witness.boundary() == f


def test_inner_hom_rejects_a_differential_that_is_not_a_module_map():
    alg = truncated_polynomial_algebra(F3, 2)
    a = free_module(alg, 1)
    swap = ModuleHom(a, a, Mat(F3, [[0, 1], [1, 0]]), check=False)  # k-linear only
    y = Complex(alg, {0: a, 1: a}, {0: swap}, check=False)
    with pytest.raises(InvariantError, match="left the hom space"):
        inner_hom(Complex.single(a, 0), y)


# sha256 over ten seeded pairs x, y = random_complex(...) per field (from
# Random(0x40C), each over a random_bound_quiver_algebra) of the key of
# inner_hom(x, y), the include map of its H^0, and the find_homotopy
# witnesses of id_x, of 0: x -> y and of the identity of the contractible
# cone(id_x).  Dimensions alone do not pin these coordinates.
HOM_COMPLEX_DIGESTS = {
    "f2": "c1c765fa4f70eedbf9bec21747d02930236b844e9b681470be3b93eae32e989f",
    "f3": "37036e240f7f421e8fd028f5d0bd2cf32e7cd675f441ebaa8892d891e3dd208c",
    "f5": "7fd040877549945b9867609a3c79e93b8a51ec95f62983281f07e00354bc9e24",
    "q": "8dea33b4c678d89bf60476f1f1d15940df653e055b896865c16b251855640a41",
}


@pytest.mark.parametrize("name", sorted(HOM_COMPLEX_DIGESTS))
def test_hom_complex_and_homotopies_are_pinned(name):
    field = field_from_name(name)
    rng = Random(0x40C)
    h = hashlib.sha256()
    for _ in range(10):
        alg = random_bound_quiver_algebra(rng, field)
        x, y = random_complex(rng, alg), random_complex(rng, alg)
        hom = inner_hom(x, y)
        h.update(repr(hom.key()).encode())
        h.update(repr(cohomology(hom, 0).include.key()).encode())
        for f in (ChainMap.identity(x), ChainMap.zero(x, y),
                  ChainMap.identity(cone(ChainMap.identity(x)))):
            w = find_homotopy(f)
            h.update(repr(w and sorted((n, c.matrix.key()) for n, c in w.comps.items())).encode())
    assert h.hexdigest() == HOM_COMPLEX_DIGESTS[name]


def test_random_complexes_are_bounded_and_valid(rng):
    alg = truncated_polynomial_algebra(F3, 3)
    for _ in range(10):
        c = random_complex(rng, alg, max_dim=4)
        for n in c.degrees():
            assert c.obj(n).dim <= 4
            # d*d = 0 was checked at construction; re-check explicitly
            assert (c.diff(n + 1) @ c.diff(n)).is_zero()


def test_random_complex_deterministic():
    alg = truncated_polynomial_algebra(F2, 3)
    a = random_complex(Random(99), alg)
    b = random_complex(Random(99), alg)
    assert a == b
