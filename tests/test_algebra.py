"""Finite-dimensional algebras, modules, and the submodule calculus."""

import ast
import importlib
import itertools
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path
from random import Random

import numpy as np
import pytest

import roofext
import roofext.algebra as algebra_module
from helpers import (
    ListModuleReference,
    bound_quiver_algebra_reference,
    coordinates_in_hom_basis,
    direct_sum_reference,
    free_module_reference,
    hom_constraints_reference,
)
from roofext.algebra import (
    Algebra,
    Filtration,
    Module,
    ModuleHom,
    _hom_matrix,
    _quiver_table,
    bound_quiver_algebra,
    direct_sum,
    free_module,
    hom_space,
    quiver_simple,
    random_bound_quiver_algebra,
    submodule,
    submodule_quotient,
    trivial_algebra,
    truncated_polynomial_algebra,
    vector_space_module,
)
from roofext.complexes import Complex, cohomology, zero_module
from roofext.errors import DegenerateFiltrationError, NotSubmoduleError, SchemaError
from roofext.ext import hom_from_free
from roofext.instances import kx3_filtration, kx3_regular, kx3_simple, random_module
from roofext.jsonio import algebra_to_json, mat_to_json, module_from_json
from roofext.linalg import (
    GF, QQ, Mat, _kernel, block_diag, hstack, random_mat, rank, rref, solve)

F2 = GF(2)
F3 = GF(3)


# -- algebras ------------------------------------------------------------------


def test_truncated_polynomial_structure():
    a = truncated_polynomial_algebra(QQ, 3)
    assert a.dim == 3
    a.validate()  # associativity and unit laws hold
    # x * x = x^2 and x^2 * x = 0
    assert list(a.mult[1, 1]) == [0, 0, 1]
    assert list(a.mult[2, 1]) == [0, 0, 0]
    assert rank(a.radical) == 2


def test_algebra_rejects_broken_associativity():
    a = truncated_polynomial_algebra(QQ, 3)
    mult = np.array(a.mult, dtype=object).copy()
    mult[2, 2, 0] = 1  # force x^2 * x^2 = 1: kills associativity
    with pytest.raises(SchemaError, match="associativity"):
        Algebra(QQ, mult, a.unit)


def test_algebra_rejects_broken_unit():
    a = truncated_polynomial_algebra(QQ, 3)
    with pytest.raises(SchemaError, match="unit"):
        Algebra(QQ, a.mult, [0, 1, 0])


def test_algebra_rejects_broken_right_unit():
    # x * y = y: the left unit and associativity hold, e_1 * 1 = e_0 != e_1
    mult = np.zeros((2, 2, 2), dtype=object)
    mult[:, 0, 0] = mult[:, 1, 1] = 1
    with pytest.raises(SchemaError, match=r"e_j \* 1 != e_j"):
        Algebra(QQ, mult, [1, 0])


def _reference_law_failure(field, n, unit, mult, mats):
    """The per-pair loop: "unit" when sum u_i M_i != I, else the first
    (i, j) in row-major order with M_i M_j != sum_k c_ijk M_k, else None."""

    def combine(coeffs):
        out = Mat.zeros(field, mats[0].nrows, mats[0].ncols)
        for c, m in zip(coeffs, mats):
            out = out + m.scale(c)
        return out

    if combine(unit) != Mat.identity(field, mats[0].nrows):
        return "unit"
    for i in range(n):
        for j in range(n):
            if mats[i] @ mats[j] != combine(mult[i, j]):
                return i, j
    return None


def _perturbed(rng, field, arr):
    out = np.array(arr, dtype=object)
    flat = out.reshape(-1)
    flat[rng.randrange(flat.size)] += rng.choice([1, 2] if field.char != 2 else [1])
    return out


def _reference_algebra_failure(field, mult, unit):
    """The message the per-triple loop raises first, or None."""
    n = len(unit)
    mats = [Mat(field, mult[i].T.copy()) for i in range(n)]
    bad = _reference_law_failure(field, n, unit, mult, mats)
    if bad == "unit":
        return "1 * e_j != e_j"
    right = [sum(unit[i] * mult[j, i, :] for i in range(n)) for j in range(n)]
    if Mat(field, np.array(right, dtype=object)) != Mat.identity(field, n):
        return "e_j * 1 != e_j"
    return bad and "associativity fails on basis triple (e_%d, e_%d, *)" % bad


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["f2", "f3", "q"])
def test_algebra_law_checks_name_the_first_failure(field):
    """Perturbed structure constants fail exactly where the per-triple loop
    fails first, with the unit checks before associativity."""
    rng = Random(0xA55C)
    later = 0
    for _ in range(40):
        alg = random_bound_quiver_algebra(rng, field)
        mult = field.reduce(_perturbed(rng, field, alg.mult))
        expected = _reference_algebra_failure(field, mult, alg.unit)
        if expected is None:
            Algebra(field, mult, alg.unit)
            continue
        with pytest.raises(SchemaError) as err:
            Algebra(field, mult, alg.unit)
        assert expected in str(err.value)
        later += "triple" in expected and "(e_0, e_0" not in expected
    assert later


def test_algebra_rejects_bad_shapes():
    with pytest.raises(SchemaError, match="n\\*n\\*n"):
        Algebra(QQ, np.zeros((2, 2), dtype=object), [1, 0])
    a = truncated_polynomial_algebra(QQ, 3)
    with pytest.raises(SchemaError, match="unit vector length"):
        Algebra(QQ, a.mult, [1, 0])


def test_quiver_algebra_composition_rule():
    """p * q means "q then p", and truncation kills long words."""
    two = bound_quiver_algebra(QQ, 3, [(0, 1), (1, 2)], nil_index=2)
    two.validate()
    assert two.dim == 5  # three vertices, two arrows
    a01, a12 = 3, 4  # basis positions of the arrows
    assert not any(two.mult[a12, a01])  # the composite path is truncated away
    assert not any(two.mult[a01, a12])  # not composable in this order at all

    three = bound_quiver_algebra(QQ, 3, [(0, 1), (1, 2)], nil_index=3)
    three.validate()
    assert three.dim == 6
    assert list(three.mult[a12, a01]) == [0, 0, 0, 0, 0, 1]  # "0->1 then 1->2"
    assert not any(three.mult[a01, a12])


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["f2", "f3", "q"])
def test_quiver_algebra_matches_path_pair_reference(field):
    """Every quiver with 2-3 vertices and 1-3 arrows, bound at length 2 and 3:
    the structure constants, unit, radical, quiver data and label are those
    of the path-pair-by-path-pair construction, and _quiver_table is the
    table of the free module, both when it stores a shape's pattern and when
    it reads it back.  The store then holds one pattern per shape, 1,806 of
    them, in at most 0.5 MB."""
    for nv in (2, 3):
        edges = [(s, t) for s in range(nv) for t in range(nv)]
        for na in (1, 2, 3):
            for arrows in itertools.product(edges, repeat=na):
                for nil in (2, 3):
                    alg = bound_quiver_algebra(field, nv, list(arrows), nil)
                    ref = bound_quiver_algebra_reference(field, nv, list(arrows), nil)
                    assert alg.key() == ref.key()
                    assert (alg.mult.dtype, alg.unit.dtype) == (ref.mult.dtype, ref.unit.dtype)
                    assert alg.radical == ref.radical and alg.quiver == ref.quiver
                    assert alg.label == ref.label
                    # the table random_filtration decides on, unbuilt
                    stacked = free_module(alg, 1)._blocks()[2]
                    for _ in range(2):
                        table = _quiver_table(field, nv, list(arrows), nil)
                        assert (table.shape, table.dtype) == (stacked.shape, stacked.dtype)
                        assert table.tolist() == stacked.tolist()
                        assert {type(x) for x in table.reshape(-1).tolist()} == {int}
    store = algebra_module._TABLE_ONES
    assert len(store) == 1806
    assert all(ones.base is None and not ones.flags.writeable for _, ones in store.values())
    assert sum(sys.getsizeof(ones) for _, ones in store.values()) <= 500_000


def test_quiver_algebra_rejects_arrows_off_the_quiver():
    with pytest.raises(ValueError, match="join vertices"):
        bound_quiver_algebra(F2, 2, [(0, 2)])


def test_quiver_simple_rejects_a_vertex_off_the_quiver():
    alg = bound_quiver_algebra(F2, 2, [(0, 1)])
    for vertex in (-1, 2):
        with pytest.raises(ValueError, match=f"no quiver with a vertex {vertex}"):
            quiver_simple(alg, vertex)
    with pytest.raises(ValueError, match="no quiver"):
        quiver_simple(truncated_polynomial_algebra(F2, 2), 0)


def test_random_quiver_algebras_are_associative(rng):
    for _ in range(25):
        random_bound_quiver_algebra(rng, F3).validate()


# -- modules -------------------------------------------------------------------


def test_regular_and_simple_modules_validate():
    kx3_regular(QQ).validate()
    kx3_simple(F2).validate()
    alg = bound_quiver_algebra(F3, 2, [(0, 1)])
    for v in range(2):
        quiver_simple(alg, v).validate()


def test_module_rejects_incompatible_action():
    alg = truncated_polynomial_algebra(QQ, 3)
    one = Mat(QQ, [[1]])
    with pytest.raises(SchemaError, match="incompatible"):
        # x acts invertibly on a 1-dim module: contradicts x^3 = 0
        Module(alg, action=[one, one, one]).validate()
    with pytest.raises(SchemaError, match="unit law"):
        Module(alg, action=[Mat(QQ, [[0]]), one, one]).validate()


def test_module_rejects_an_action_array_of_the_wrong_width():
    """[A_0 | A_1 | A_2] of a dim-2 module over k[x]/(x^3) is 2 x 6: a 2 x 7
    array is refused, not loaded with its last column dropped."""
    alg = truncated_polynomial_algebra(F3, 3)
    hit = Mat(F3, [[1, 0, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0]])
    with pytest.raises(SchemaError, match="7 action columns"):
        Module(alg, action=hit)
    assert Module(alg, action=hit.take_cols(range(6))).dim == 2


def test_module_action_failure_names_a_later_pair():
    alg = truncated_polynomial_algebra(QQ, 3)
    one, zero = Mat(QQ, [[1]]), Mat(QQ, [[0]])
    # x acts by 0 and x^2 by 1: every pair before (x, x) holds, x * x = x^2 fails
    with pytest.raises(SchemaError, match=r"basis pair \(e_1, e_1\)"):
        Module(alg, action=[one, zero, one]).validate()


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["f2", "f3", "q"])
def test_module_law_checks_name_the_first_failure(field):
    """A perturbed action matrix fails exactly where the per-pair loop over
    act_mat fails first; unperturbed free and explicit modules pass."""
    rng = Random(0x1A75)
    seen = set()
    for _ in range(12):
        alg = random_bound_quiver_algebra(rng, field)
        for module in (*(free_module(alg, r) for r in range(3)), random_module(rng, alg)):
            module.validate()
            mats = [module.act_mat(i) for i in range(alg.dim)]
            if module.dim == 0:
                continue
            k = rng.randrange(alg.dim)
            mats[k] = Mat(field, _perturbed(rng, field, mats[k].a))
            expected = _reference_law_failure(field, alg.dim, alg.unit, alg.mult, mats)
            if expected is None:
                Module(alg, action=mats).validate()
                continue
            with pytest.raises(SchemaError) as err:
                Module(alg, action=mats).validate()
            if expected == "unit":
                assert "unit law" in str(err.value)
            else:
                assert f"basis pair (e_{expected[0]}, e_{expected[1]})" in str(err.value)
                seen.add(expected > (0, 0))
    assert True in seen


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["f2", "f3", "q"])
def test_hom_check_names_the_first_failing_element(field):
    """A perturbed hom fails on the first e_i with A_i F != F B_i."""
    rng = Random(0x4031)
    later = 0
    for _ in range(12):
        alg = random_bound_quiver_algebra(rng, field)
        for source in (free_module(alg, 1), random_module(rng, alg)):
            target = random_module(rng, alg)
            homs = hom_space(source, target)
            for hom in homs:
                ModuleHom(source, target, hom.matrix)
            base = homs[-1].matrix if homs else Mat.zeros(field, target.dim, source.dim)
            f = Mat(field, _perturbed(rng, field, base.a))
            bad = [i for i in range(alg.dim)
                   if target.act_mat(i) @ f != f @ source.act_mat(i)]
            if not bad:
                ModuleHom(source, target, f)
                continue
            with pytest.raises(SchemaError, match=f"action of e_{bad[0]}$"):
                ModuleHom(source, target, f)
            later += bad[0] > 0
    assert later


def test_free_module_dims():
    alg = bound_quiver_algebra(QQ, 3, [(0, 1), (1, 2)])
    free = free_module(alg, 2)
    assert free.is_free and free.dim == 10
    free.validate()


def test_hom_space_dimensions():
    # Hom(A, M) is M itself, picked out by generator images
    amb = kx3_regular(QQ)
    k = kx3_simple(QQ)
    assert len(hom_space(amb, k)) == k.dim
    assert len(hom_space(amb, amb)) == amb.dim
    # simples at different vertices admit no homs at all
    alg = bound_quiver_algebra(QQ, 3, [(0, 1), (1, 2)])
    s0, s1 = quiver_simple(alg, 0), quiver_simple(alg, 1)
    assert hom_space(s0, s1) == []
    assert len(hom_space(s0, s0)) == 1


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["f2", "f3", "f5", "q"])
def test_hom_matrix_coordinates_are_its_free_rows(field):
    """Coordinates read off the free rows of _hom_matrix equal those solved
    for in the hom_space basis, and hom_space is its columns, reshaped."""
    rng = Random(0x40E)
    for _ in range(10):
        alg = random_bound_quiver_algebra(rng, field)
        for source in (free_module(alg, 1), random_module(rng, alg)):
            target = random_module(rng, alg)
            K, free = _hom_matrix(source, target)
            basis = hom_space(source, target)
            assert [b.matrix.a.reshape(-1).tolist() for b in basis] == K.T.a.tolist()
            assert K.take_rows(free) == Mat.identity(field, K.ncols)
            coeffs = random_mat(rng, field, K.ncols, 1)
            flat = K @ coeffs
            hom = ModuleHom(source, target, Mat(field, flat.a.reshape(target.dim, source.dim)))
            assert flat.take_rows(free) == coeffs
            assert coordinates_in_hom_basis(basis, hom.matrix) == coeffs


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["f2", "f3", "f5", "q"])
def test_hom_matrix_matches_kron_reference(field):
    """_hom_matrix is the canonical kernel of the Kronecker-product
    constraints, zero-dimensional modules included."""
    rng = Random(0x4B0)
    for _ in range(8):
        alg = random_bound_quiver_algebra(rng, field)
        zero = Module(alg, action=[Mat.zeros(field, 0, 0)] * alg.dim)
        mods = [free_module(alg, 1), random_module(rng, alg), random_module(rng, alg), zero]
        for source in mods:
            for target in mods:
                cons = hom_constraints_reference(source, target)
                assert _hom_matrix(source, target) == _kernel(cons)


def test_hom_space_members_are_module_maps():
    amb = kx3_regular(F3)
    sub = submodule(amb, Mat(F3, [[0], [1], [0]]))  # (x)
    for h in hom_space(sub.source, amb):
        h.validate()


# -- submodules and quotients ----------------------------------------------------


def test_submodule_closure_dims():
    amb = kx3_regular(QQ)
    x = Mat(QQ, [[0], [1], [0]])
    x2 = Mat(QQ, [[0], [0], [1]])
    one = Mat(QQ, [[1], [0], [0]])
    assert submodule(amb, x).source.dim == 2  # (x) also contains x^2
    assert submodule(amb, x2).source.dim == 1
    assert submodule(amb, one).source.dim == 3  # 1 generates everything


def test_submodule_canonical_basis():
    """Different generating sets of the same subspace give the same module."""
    amb = kx3_regular(QQ)
    g1 = Mat(QQ, [[0], [1], [0]])
    g2 = Mat(QQ, [[0], [2], [5]])  # 2x + 5x^2 still generates (x)
    one = submodule(amb, g1)
    other = submodule(amb, g2)
    assert one.source == other.source
    assert one.matrix == other.matrix


def test_submodule_quotient_laws():
    amb = kx3_regular(F3)
    incl = submodule(amb, Mat(F3, [[0], [0], [1]]))
    quot, proj, section = submodule_quotient(amb, incl)
    assert quot.dim == 2
    quot.validate()
    assert (proj @ incl).is_zero()
    assert proj.is_surjective()
    assert (proj.matrix @ section) == Mat.identity(F3, 2)


def test_submodule_quotient_rejects_unstable_subspace():
    amb = kx3_regular(QQ)
    span_of_unit = Mat(QQ, [[1], [0], [0]])  # x * 1 = x escapes the span
    with pytest.raises(NotSubmoduleError, match="e_1"):
        submodule_quotient(amb, span_of_unit)


def _reference_submodule(module, gens):
    """Fixed-point closure: act and re-echelonize until the span stops
    growing; the induced action comes from solve."""

    def canonical(cols):
        red, piv = rref(cols.T)
        return red.take_rows(range(len(piv))).T

    mats = [module.act_mat(i) for i in range(module.algebra.dim)]
    basis = canonical(gens)
    while True:
        grown = canonical(hstack([basis] + [m @ basis for m in mats]))
        if grown.ncols == basis.ncols:
            break
        basis = grown
    return basis, [solve(basis, m @ basis) for m in mats]


def _check_actions_against_act_mat(module, gens):
    """Every action method against the materialized matrices act_mat(i)."""
    field, n = module.field, module.algebra.dim
    mats = [module.act_mat(i) for i in range(n)]
    assert module.act_all(gens) == hstack([m @ gens for m in mats])
    for i, m in enumerate(mats):
        assert module.act(i, gens) == m @ gens
    # free coordinate t*dim(A) + s is e_s on generator t
    cols = [m @ gens.col(t) for t in range(gens.ncols) for m in mats]
    expected = hstack(cols) if cols else Mat.zeros(field, module.dim, 0)
    assert hom_from_free(module, gens) == expected


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["f2", "f3", "q"])
def test_submodule_matches_fixed_point_closure(field):
    rng = Random(0xC105E)
    for _ in range(6):
        alg = random_bound_quiver_algebra(rng, field)
        zero = Module(alg, action=[Mat.zeros(field, 0, 0)] * alg.dim)
        for module in (*(free_module(alg, r) for r in range(3)), random_module(rng, alg), zero):
            gens = random_mat(rng, field, module.dim, rng.randint(0, 2))
            _check_actions_against_act_mat(module, gens)
            incl = submodule(module, gens)
            basis, action = _reference_submodule(module, gens)
            assert incl.matrix == basis
            assert [incl.source.act_mat(i) for i in range(alg.dim)] == action
            incl.source.validate()


def _check_against_list_reference(module: Module, ref: ListModuleReference, rng: Random):
    """Every view of the one action array equals the list-of-Mats module's,
    and none of them is writable."""
    n = module.algebra.dim
    mats = [module.act_mat(i) for i in range(n)]
    assert mats == ref.action and module.actions() == ref.actions()
    assert module.key() == ref.key() and module == Module(module.algebra, action=ref.action)
    a, r, stacked = module._blocks()
    if not module.is_free:
        assert (a, r) == (module.dim, 1) and np.array_equal(stacked, ref.stacked())
    vecs = random_mat(rng, module.field, module.dim, 2)
    assert module.act_all(vecs) == ref.act_all(vecs)
    assert not any(m.a.flags.writeable for m in [module.actions(), *mats])


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["f2", "f3", "f5", "q"])
def test_one_action_array_matches_list_of_mats_reference(field):
    """Free modules, submodules, quotients, quiver simples, direct sums,
    cohomology modules and JSON-loaded modules, against the earlier list of
    per-element action Mats, whose matrices come from the reference's own."""
    rng = Random(0x1A55 + field.char)
    for _ in range(6):
        alg = random_bound_quiver_algebra(rng, field)
        free, free_ref = free_module(alg, 2), free_module_reference(alg, 2)
        incl = submodule(free, random_mat(rng, field, free.dim, rng.randint(1, 2)))
        sub, basis = incl.source, incl.matrix
        sub_ref = ListModuleReference(alg, [solve(basis, m @ basis) for m in free_ref.action])
        quot, proj, section = submodule_quotient(free, incl)
        quot_ref = ListModuleReference(alg, [proj.matrix @ m @ section for m in free_ref.action])
        v = rng.randrange(alg.quiver["vertices"])
        simple = quiver_simple(alg, v)
        simple_ref = ListModuleReference.from_act_all(
            alg, Mat(field, [[int(i == v) for i in range(alg.dim)]]))
        parts = (quot_ref, simple_ref, sub_ref)
        total_ref = ListModuleReference(
            alg, [block_diag([r.action[i] for r in parts]) for i in range(alg.dim)])
        mods = [free, sub, quot, simple, direct_sum([quot, simple, sub])[0]]
        refs = [free_ref, sub_ref, quot_ref, simple_ref, total_ref]
        x = Complex(alg, {0: sub, 1: free}, {0: incl})  # H^1 = free / sub
        y = Complex(alg, {0: sub, 1: free}, {})  # H^0 = sub, H^1 = free
        for cx, n, obj_ref in ((x, 1, free_ref), (y, 0, sub_ref), (y, 1, free_ref)):
            h = cohomology(cx, n)
            mods.append(h.module)
            refs.append(ListModuleReference(alg, [h.project @ m @ h.include
                                                  for m in obj_ref.action]))
        doc = {"algebra": algebra_to_json(alg), "dim": quot_ref.dim,
               "action": [mat_to_json(m) for m in quot_ref.action]}
        mods.append(module_from_json(doc))
        refs.append(quot_ref)
        for module, ref in zip(mods, refs):
            _check_against_list_reference(module, ref, rng)


# Each probe must raise InvariantError even with asserts stripped by -O.
_INVARIANT_PROBES = {
    "subquotient": """
from roofext.linalg import GF, Mat, subquotient
subquotient(Mat.identity(GF(3), 2), Mat(GF(3), [[1], [0]]))
""",
    "non-associative-submodule": """
from roofext.algebra import Module, submodule, truncated_polynomial_algebra
from roofext.linalg import GF, Mat
F3 = GF(3)
alg = truncated_polynomial_algebra(F3, 2)  # x * x = 0
shift = Mat(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # but x acts with x^2 != 0
module = Module(alg, action=[Mat.identity(F3, 3), shift], check=False)
submodule(module, Mat(F3, [[1], [0], [0]]))
""",
    "minimal-generators-unstable-basis": """
from roofext.ext import minimal_generators
from roofext.instances import kx3_regular
from roofext.linalg import GF, Mat
minimal_generators(kx3_regular(GF(3)), Mat(GF(3), [[1], [0], [0]]), (0,))  # x * 1 escapes
""",
    "filtration-built-off-its-ranks": """
from random import Random
import roofext.instances as instances
from roofext.linalg import GF
real = instances.submodule
instances.submodule = lambda m, g: real(m, g.take_cols([0]))  # F2 built without g2
instances.random_filtration(Random(0xD1A5), GF(2))
""",
    "filtration-quotient-table-transposed": """
from random import Random
import roofext.instances as instances
from roofext.linalg import GF
real = instances._draw_module
def transposed(*args):  # each square block of a kept table transposed
    dim, table = real(*args)
    return dim, lambda: table().reshape(-1, dim, dim).transpose(0, 2, 1).reshape(-1, dim)
instances._draw_module = transposed
rng = Random(0xD1A5)
for _ in range(20):
    instances.random_filtration(rng, GF(3))
""",
    "filtration-decided-on-a-corrupted-pattern": """
from random import Random
import roofext.algebra as algebra
import roofext.instances as instances
from roofext.linalg import GF
key = 2, ((1, 1), (0, 1)), 3
algebra._quiver_table(GF(3), *key)
n, ones = algebra._TABLE_ONES[key]
# e_1 e_1 = e_1 dropped: unchecked, a kept quotient's rows span no submodule
algebra._TABLE_ONES[key] = (n, ones[[0] + list(range(2, len(ones)))])
rng = Random(0xD1A5)
for _ in range(40):
    instances.random_filtration(rng, GF(3))
""",
    "extension-class-off-the-syzygies": """
import roofext.ext as ext
from roofext.instances import ka3_first_step
from roofext.linalg import GF, Mat
real = ext._lift_along
def shifted(*args):  # a lift off by the all-ones images
    c = real(*args)
    return c + Mat(c.field, [[1] * c.ncols] * c.nrows)
ext._lift_along = shifted
ext.class_of_extension(ka3_first_step(GF(3)))
""",
    "yoneda-product-off-the-cocycles": """
import roofext.ext as ext
from roofext.instances import ka3_first_step, ka3_second_step
from roofext.linalg import GF, Mat
a, b = (ext.class_of_extension(e) for e in (ka3_first_step(GF(3)), ka3_second_step(GF(3))))
real = ext._lift_along
def shifted(*args):  # a lift off by the all-ones images
    c = real(*args)
    return c + Mat(c.field, [[1] * c.ncols] * c.nrows)
ext._lift_along = shifted
ext.yoneda_product(a, b)
""",
    "roof-witness-off-by-one-block": """
import numpy as np
import roofext.roofs as roofs
from roofext.algebra import ModuleHom, direct_sum
from roofext.instances import ka3_first_step, ka3_second_step
from roofext.linalg import GF, Mat
def shifted(mods):  # the witness projection reads the block-width of columns before its own
    amb, injs, projs = direct_sum(mods)
    p = projs[-1].matrix
    rolled = Mat(p.field, np.roll(p.a, -mods[-1].dim, axis=1))
    return amb, injs, projs[:-1] + [ModuleHom(amb, mods[-1], rolled, check=False)]
roofs.direct_sum = shifted
F3 = GF(3)
roofs.compose_roofs(roofs.ses_to_roof(ka3_first_step(F3)),
                    roofs.ses_to_roof(ka3_second_step(F3)).shift(1))
""",
}
# One pivot-row entry of every kernel off by one, over F3 (small kernels read
# off the row elimination, larger ones packed) and over Q (fraction-free rows
# read at the free columns).
_FLIPPED_KERNEL_PROBE = """
import roofext.algebra as algebra
import roofext.ext as ext
import roofext.linalg as linalg
from roofext.instances import ka3_first_step
from roofext.linalg import GF, QQ, Mat
real = linalg._kernel
def flipped(m):  # the first pivot row's first entry off by one
    K, free = real(m)
    rows = [i for i in range(K.nrows) if i not in free]
    if not rows or not K.ncols:
        return K, free
    a = K.a.copy()
    a[rows[0], 0] += 1
    return Mat(K.field, a), free
for module in (linalg, algebra, ext):
    module._kernel = flipped
ext.class_of_extension(ka3_first_step({field}))
"""
_INVARIANT_PROBES.update({
    "packed-kernel-with-a-flipped-entry": _FLIPPED_KERNEL_PROBE.format(field="GF(3)"),
    "qq-kernel-with-a-flipped-entry": _FLIPPED_KERNEL_PROBE.format(field="QQ"),
    # the reduced rows themselves corrupted, before any kernel, solve or RREF reads them
    "row-elimination-with-a-flipped-entry": """
import roofext.ext as ext
import roofext.linalg as linalg
from roofext.instances import ka3_first_step
from roofext.linalg import GF
real = linalg._eliminate_rows
def flipped(rows, ncols, p):  # the first reduced row off by one at its first free column
    piv = real(rows, ncols, p)
    free = [j for j in range(ncols) if j not in piv]
    if piv and free:
        rows[0][free[0]] = (rows[0][free[0]] + 1) % p
    return piv
linalg._eliminate_rows = flipped
ext.class_of_extension(ka3_first_step(GF(3)))
""",
})


@pytest.mark.parametrize("name", sorted(_INVARIANT_PROBES))
def test_invariants_raise_under_python_O(name):
    src = str(Path(roofext.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = textwrap.indent(_INVARIANT_PROBES[name].strip(), "    ")
    script = (f"import sys\nfrom roofext.errors import InvariantError\ntry:\n{probe}\n"
              "except InvariantError:\n    print('InvariantError', sys.flags.optimize)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "InvariantError 1", proc.stderr


def test_every_exported_name_resolves():
    """Each roofext module's __all__ names only what the module defines."""
    for info in pkgutil.iter_modules(roofext.__path__):
        module = importlib.import_module(f"roofext.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)



def test_no_module_level_import_goes_unused():
    """Each name a roofext module imports at module level (other than from
    __future__) is read somewhere in that module; __init__ re-exports."""
    unused = []
    for path in sorted(Path(roofext.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update({a.asname or a.name.split(".")[0]: node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused, unused


def test_no_module_reads_the_environment():
    """No roofext module reads os.environ or calls os.getenv (nor imports
    either by name), so a seeded run's bytes cannot depend on the environment."""
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(Path(roofext.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name in names]
    assert not reads, reads


def test_every_process_cache_wraps_a_function_without_parameters():
    """Each functools cache in roofext, a decorator or a call, wraps a
    function with no parameters, so it holds one value per process and no
    input of an invocation: nothing is cached across invocations."""
    caches = {"cache", "lru_cache"}
    cached, bad = set(), []
    for path in sorted(Path(roofext.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        aliases = {a.asname or a.name for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.module == "functools"
                   for a in n.names if a.name in caches}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = node.value.id == "functools" and node.attr in caches
            else:
                hit = isinstance(node, ast.Name) and node.id in aliases
            if not hit:
                continue
            wrapped = [f for f in defs.values() if node in f.decorator_list]
            wrapped += [defs.get(a.id) for c in ast.walk(tree) if isinstance(c, ast.Call)
                        and c.func is node for a in c.args if isinstance(a, ast.Name)]
            for f in wrapped or [None]:
                if f is None or ast.unparse(f.args):
                    bad.append(f"{path.name}:{node.lineno}")
                else:
                    cached.add(f.name)
    assert not bad, bad
    assert "build_parser" in cached


def test_direct_sum_identities():
    alg = truncated_polynomial_algebra(F2, 3)
    m = free_module(alg, 1)
    k = kx3_simple(F2)
    total, injs, projs = direct_sum([m, k])
    assert total.dim == 4
    total.validate()
    for i, a in enumerate((m, k)):
        assert (projs[i] @ injs[i]) == ModuleHom.identity(a)
    assert (projs[0] @ injs[1]).is_zero()
    acc = injs[0] @ projs[0] + injs[1] @ projs[1]
    assert acc == ModuleHom.identity(total)


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["f2", "f3", "f5", "q"])
def test_direct_sum_matches_block_diag_reference(field):
    rng = Random(0xD5)
    for _ in range(8):
        alg = random_bound_quiver_algebra(rng, field)
        mods = [free_module(alg, r) for r in range(3)] + [random_module(rng, alg)]
        rng.shuffle(mods)
        for k in (1, 2, 4):
            total, injs, projs = direct_sum(mods[:k])
            want, want_injs, want_projs = direct_sum_reference(mods[:k])
            assert total.key() == want.key()
            assert [h.matrix for h in injs] == [h.matrix for h in want_injs]
            assert [h.matrix for h in projs] == [h.matrix for h in want_projs]
            mats = [total.act_mat(i) for i in range(alg.dim)]
            mats += [h.matrix for h in injs + projs]
            assert not any(m.a.flags.writeable for m in mats)
            assert all(m.a.dtype == want.act_mat(0).a.dtype for m in mats)


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["f2", "f3", "f5", "q"])
def test_module_actions_are_act_all_of_the_identity(field):
    """Module.actions(), computed once per module, is act_all(identity) in
    values, shape and dtype, and read-only."""
    rng = Random(0xAC75)
    for _ in range(4):
        alg = random_bound_quiver_algebra(rng, field)
        mods = [free_module(alg, r) for r in range(3)]
        mods += [random_module(rng, alg), quiver_simple(alg, 0), zero_module(alg)]
        for m in mods:
            got, want = m.actions(), m.act_all(Mat.identity(field, m.dim))
            assert got.shape == want.shape == (m.dim, alg.dim * m.dim)
            assert got == want and got.a.dtype == want.a.dtype
            assert not got.a.flags.writeable and m.actions() is got


def test_vector_space_module():
    triv = trivial_algebra(QQ)
    v = vector_space_module(QQ, 4)
    assert v.algebra == triv and v.dim == 4
    v.validate()


# -- filtrations ---------------------------------------------------------------


def test_filtration_accepts_nested_pair():
    f = kx3_filtration(QQ)
    f.check_nondegenerate()
    assert f.inclusion_12.source == f.f1.source
    assert (f.f2 @ f.inclusion_12) == f.f1


def test_filtration_rejects_non_nested():
    amb = kx3_regular(QQ)
    fx = submodule(amb, Mat(QQ, [[0], [1], [0]]))
    whole = submodule(amb, Mat(QQ, [[1], [0], [0]]))
    with pytest.raises(SchemaError, match="not contained"):
        Filtration(amb, whole, fx)


def test_filtration_degenerate_steps():
    amb = kx3_regular(QQ)
    fx = submodule(amb, Mat(QQ, [[0], [1], [0]]))
    fx2 = submodule(amb, Mat(QQ, [[0], [0], [1]]))
    whole = submodule(amb, Mat(QQ, [[1], [0], [0]]))
    with pytest.raises(DegenerateFiltrationError, match="F1 = F2"):
        Filtration(amb, fx, fx).check_nondegenerate()
    with pytest.raises(DegenerateFiltrationError, match="F2 = G"):
        Filtration(amb, fx2, whole).check_nondegenerate()


def test_module_hom_validation():
    amb = kx3_regular(QQ)
    k = kx3_simple(QQ)
    with pytest.raises(SchemaError):
        # projection onto the socle coordinate is not equivariant
        ModuleHom(amb, k, Mat(QQ, [[0, 0, 1]]), check=True)
    ok = ModuleHom(amb, k, Mat(QQ, [[1, 0, 0]]), check=True)
    assert not ok.is_injective() and ok.is_surjective()
