"""Finite-dimensional algebras, modules, and the submodule calculus."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from random import Random

import numpy as np
import pytest

import roofext
from roofext.algebra import (
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
    trivial_algebra,
    truncated_polynomial_algebra,
    vector_space_module,
)
from roofext.errors import DegenerateFiltrationError, NotSubmoduleError, SchemaError
from roofext.ext import hom_from_free
from roofext.instances import kx3_filtration, kx3_regular, kx3_simple, random_module
from roofext.linalg import GF, QQ, Mat, hstack, random_mat, rank, rref, solve

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


def _check_actions_against_act_mat(rng, module, gens):
    """Every action method against the materialized matrices act_mat(i)."""
    field, n = module.field, module.algebra.dim
    mats = [module.act_mat(i) for i in range(n)]
    assert module.act_all(gens) == hstack([m @ gens for m in mats])
    coeffs = random_mat(rng, field, n, 1).a[:, 0]
    element = Mat.zeros(field, module.dim, module.dim)
    for c, m in zip(coeffs, mats):
        element = element + m.scale(c)
    assert module.rho(coeffs, gens) == element @ gens
    left = random_mat(rng, field, 2, module.dim)
    for i, m in enumerate(mats):
        assert module.act(i, gens) == m @ gens
        assert module.act_right(i, left) == left @ m
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
            _check_actions_against_act_mat(rng, module, gens)
            incl = submodule(module, gens)
            basis, action = _reference_submodule(module, gens)
            assert incl.matrix == basis
            assert [incl.source.act_mat(i) for i in range(alg.dim)] == action
            incl.source.validate()


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
}


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
