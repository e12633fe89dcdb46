"""Round trips and schema validation for the JSON formats."""

import pytest

from roofext.algebra import Filtration, bound_quiver_algebra, submodule
from roofext.complexes import Complex
from roofext.errors import SchemaError
from roofext.instances import (
    ka3_algebra,
    ka3_first_step,
    kx3_filtration,
    kx3_regular,
    kx3_simple,
)
from roofext.jsonio import (
    algebra_from_json,
    algebra_hash,
    algebra_to_json,
    complex_from_json,
    complex_to_json,
    dump_canonical,
    extension_from_json,
    extension_to_json,
    filtration_from_json,
    filtration_to_json,
    load_document,
    mat_from_json,
    mat_to_json,
    module_from_json,
    module_to_json,
    parse_document,
)
from roofext.linalg import GF, QQ, Mat

F3 = GF(3)


def test_dump_canonical_is_stable():
    a = dump_canonical({"b": 1, "a": [1, 2]})
    b = dump_canonical({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}\n'


def test_parse_document_errors():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_document("{", "doc")
    with pytest.raises(SchemaError, match="top level"):
        parse_document("[1]", "doc")
    with pytest.raises(SchemaError, match="not found"):
        load_document("/nonexistent/file.json")
    with pytest.raises(SchemaError, match="nested too deeply"):
        parse_document("[" * 100_000, "doc")


def test_mat_roundtrip_qq():
    m = Mat(QQ, [[QQ.parse(x) for x in row] for row in [["1/2", 3], [0, "-7/3"]]])
    data = mat_to_json(m)
    again = mat_from_json(QQ, data, 2, 2, "m")
    assert again == m


def test_mat_shape_and_scalar_errors():
    with pytest.raises(SchemaError, match="must be 2x1"):
        mat_from_json(QQ, [[1]], 2, 1, "m")
    with pytest.raises(SchemaError, match="must be 1x1"):
        mat_from_json(QQ, [[1, 2]], 1, 1, "m")
    with pytest.raises(SchemaError, match="scalar"):
        mat_from_json(QQ, [["x"]], 1, 1, "m")


@pytest.mark.parametrize("field, scalar", [
    (F3, 1.5), (F3, True), (F3, "1/2"), (QQ, 0.5), (QQ, False), (QQ, "1/0"),
    # Q strings are "[+-]a[/b]" in ASCII decimal digits and nothing else
    (QQ, "1e1"), (QQ, "0e10000000"), (QQ, "1.5"), (QQ, " 1"), (QQ, "1_000"), (QQ, "0x10"),
    (QQ, "inf"), (QQ, "1/-2"), (QQ, "\u0661"), (QQ, "3\n"), (QQ, None), (QQ, "1" * 5000),
    # F_p strings are the integer part of that grammar, "[+-]a"
    (F3, " 1"), (F3, "1_000"), (F3, "\u0661"), (F3, "3\n"),
], ids=["fp-float", "fp-bool", "fp-fraction", "q-float", "q-bool", "q-zero-denominator",
        "q-exponent", "q-huge-exponent", "q-decimal", "q-space", "q-underscore", "q-hex",
        "q-inf", "q-negative-denominator", "q-non-ascii-digit", "q-newline", "q-null",
        "q-too-many-digits", "fp-space", "fp-underscore", "fp-non-ascii-digit", "fp-newline"])
def test_mat_from_json_refuses_inexact_scalars(field, scalar):
    with pytest.raises(SchemaError, match="bad scalar"):
        mat_from_json(field, [[scalar]], 1, 1, "m")


def test_algebra_roundtrip():
    for alg in (ka3_algebra(QQ), kx3_regular(F3).algebra):
        doc = algebra_to_json(alg)
        again = algebra_from_json(doc)
        assert again == alg  # same structure constants over the same field


def test_algebra_hash_reference():
    alg = ka3_algebra(QQ)
    registry = {}
    doc = algebra_to_json(alg)
    first = algebra_from_json(doc, registry)
    href = algebra_hash(alg)
    assert href.startswith("sha256:")
    assert algebra_from_json(href, registry) is first
    with pytest.raises(SchemaError, match="not seen inline"):
        algebra_from_json("sha256:0000000000000000", {})


def test_algebra_validation_on_load():
    alg = ka3_algebra(QQ)
    doc = algebra_to_json(alg)
    doc["mult"][1][1] = doc["mult"][0][0]  # corrupt one plane
    with pytest.raises(SchemaError):
        algebra_from_json(doc)


def test_module_roundtrip_with_registry():
    registry: dict = {}
    k = kx3_simple(F3)
    doc1 = module_to_json(k, registry)
    assert isinstance(doc1["algebra"], dict)  # first time inline
    doc2 = module_to_json(kx3_regular(F3), registry)
    assert isinstance(doc2["algebra"], str)  # then by hash
    load_reg: dict = {}
    again1 = module_from_json(doc1, load_reg)
    again2 = module_from_json(doc2, load_reg)
    assert again1 == k
    assert again2.dim == 3 and again2.algebra == again1.algebra


def test_module_rejects_bad_action():
    k = kx3_simple(QQ)
    doc = module_to_json(k)
    doc["action"][1] = [[1]]  # x acts as identity on a 1-dim module
    with pytest.raises(SchemaError):
        module_from_json(doc)


def test_complex_roundtrip():
    amb = kx3_regular(QQ)
    alg = amb.algebra
    from roofext.algebra import ModuleHom

    d = ModuleHom(amb, amb, alg.left_mult(1), check=True)
    c = Complex(alg, {0: amb, 1: amb}, {0: d}, check=True)
    doc = complex_to_json(c)
    assert doc["lo"] == 0 and doc["hi"] == 1
    again = complex_from_json(doc)
    assert again == c


def test_complex_rejects_broken_differential():
    amb = kx3_regular(QQ)
    alg = amb.algebra
    from roofext.algebra import ModuleHom

    d = ModuleHom(amb, amb, alg.left_mult(1), check=True)
    c = Complex(alg, {0: amb, 1: amb, 2: amb}, {0: d, 1: d}, check=False)
    doc = complex_to_json(c)  # d*d != 0 sneaks into the document
    with pytest.raises(SchemaError):
        complex_from_json(doc)


def test_extension_roundtrip():
    e = ka3_first_step(QQ)
    doc = extension_to_json(e)
    again = extension_from_json(doc)
    again.validate()
    assert again.sub == e.sub and again.quotient == e.quotient
    assert [m.dim for m in again.mods] == [1, 2, 1]


def test_extension_rejects_inexact():
    e = ka3_first_step(QQ)
    doc = extension_to_json(e)
    doc["maps"][1] = [[0, 0]]  # kill the surjection
    with pytest.raises(SchemaError):
        extension_from_json(doc)


def test_filtration_roundtrip():
    f = kx3_filtration(QQ)
    doc = filtration_to_json(f)
    again = filtration_from_json(doc)
    assert again.f1.source.dim == 1
    assert again.f2.source.dim == 2
    assert again.ambient.dim == 3
    again.check_nondegenerate()


def test_filtration_dim_mismatch():
    f = kx3_filtration(QQ)
    doc = filtration_to_json(f)
    # span of the unit generates the whole algebra, so the closure outgrows
    # the declared dimension
    doc["f1"]["matrix"] = [["1"], ["0"], ["0"]]
    with pytest.raises(SchemaError, match="closure has dimension 3"):
        filtration_from_json(doc)


def test_missing_key_messages_name_the_path():
    f = kx3_filtration(QQ)
    doc = filtration_to_json(f)
    del doc["f2"]
    with pytest.raises(SchemaError, match="f2"):
        filtration_from_json(doc)
    e_doc = extension_to_json(ka3_first_step(QQ))
    del e_doc["maps"]
    with pytest.raises(SchemaError, match="maps"):
        extension_from_json(e_doc)


def _one_dim_documents():
    """A document of each kind whose int keys named below hold 1."""
    alg = {"field": "q", "dim": 1, "unit": [1], "mult": [[[1]]]}
    simple = kx3_simple(QQ)
    return {
        "algebra": (alg, algebra_from_json),
        "module": ({"algebra": alg, "dim": 1, "action": [[[1]]]}, module_from_json),
        "complex": (complex_to_json(Complex.single(simple, 1)), complex_from_json),
        "filtration": (filtration_to_json(kx3_filtration(QQ)), filtration_from_json),
    }


@pytest.mark.parametrize("kind, keys", [("algebra", ["dim"]), ("module", ["dim"]),
                                        ("complex", ["lo"]), ("complex", ["hi"]),
                                        ("filtration", ["f1", "dim"])],
                         ids=["algebra-dim", "module-dim", "complex-lo", "complex-hi",
                              "filtration-dim"])
def test_booleans_are_not_integers(kind, keys):
    doc, load = _one_dim_documents()[kind]
    load(doc)
    part = doc
    for key in keys[:-1]:
        part = part[key]
    assert part[keys[-1]] == 1
    part[keys[-1]] = True
    with pytest.raises(SchemaError, match=f"{keys[-1]!r} must be int"):
        load(doc)


def test_canonical_file_roundtrip(tmp_path):
    doc = filtration_to_json(kx3_filtration(QQ))
    path = tmp_path / "filtration.json"
    path.write_text(dump_canonical(doc), encoding="utf-8")
    loaded = load_document(str(path))
    assert loaded == parse_document(dump_canonical(doc), "w")
    filtration_from_json(loaded).check_nondegenerate()
