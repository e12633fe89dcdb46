"""JSON serialization for algebras, modules, complexes, sequences, filtrations.

All files are UTF-8 JSON.  Scalars are strings "a/b" over the rationals and
plain integers over prime fields; every document names its field.  An
algebra appears either inline or as the content hash of an inline one seen
earlier in the same document (or registry), so multi-module documents do
not repeat their structure constants.  Malformed input raises SchemaError
with the first violated invariant named — loaders never assert.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .algebra import Algebra, Filtration, Module, ModuleHom, submodule
from .complexes import Complex
from .errors import SchemaError
from .ext import ExtensionSeq
from .linalg import Field, Mat, field_from_name

__all__ = [
    "mat_to_json",
    "mat_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "algebra_hash",
    "module_to_json",
    "module_from_json",
    "complex_to_json",
    "complex_from_json",
    "extension_to_json",
    "extension_from_json",
    "filtration_to_json",
    "filtration_from_json",
    "dump_canonical",
    "parse_document",
    "load_document",
]


def dump_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_document(text: str, where: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer too long for int()
        raise SchemaError(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: top level must be a JSON object")
    return doc


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    return parse_document(text, path)


def _need(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = obj[key]
    if not isinstance(val, kind):
        names = "/".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise SchemaError(f"{where}: key {key!r} must be {names}")
    return val


# -- matrices ----------------------------------------------------------------


def mat_to_json(m: Mat) -> list[list]:
    return m.to_lists()


def mat_from_json(field: Field, data, nrows: int, ncols: int, where: str) -> Mat:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise SchemaError(f"{where}: matrix must be a list of rows")
    if len(data) != nrows or any(len(r) != ncols for r in data):
        raise SchemaError(f"{where}: matrix must be {nrows}x{ncols}")
    if nrows == 0 or ncols == 0:
        return Mat.zeros(field, nrows, ncols)
    try:
        rows = [[field.parse(x) for x in r] for r in data]
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: bad scalar ({exc})") from None
    return Mat(field, rows)


# -- algebras ----------------------------------------------------------------


def algebra_to_json(a: Algebra) -> dict:
    n = a.dim
    mult = [[[a.field.fmt(a.mult[i, j, k]) for k in range(n)] for j in range(n)]
            for i in range(n)]
    return {
        "field": a.field.name,
        "dim": n,
        "unit": [a.field.fmt(x) for x in a.unit],
        "mult": mult,
    }


def algebra_hash(a: Algebra) -> str:
    blob = dump_canonical(algebra_to_json(a)).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()[:16]


def algebra_from_json(obj, registry: dict[str, Algebra] | None = None,
                      where: str = "algebra") -> Algebra:
    """Inline algebra object, or a hash string resolved through registry."""
    if isinstance(obj, str):
        if registry and obj in registry:
            return registry[obj]
        raise SchemaError(f"{where}: algebra hash {obj!r} not seen inline earlier")
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: algebra must be an object or a hash string")
    field = field_from_name(_need(obj, "field", str, where))
    n = _need(obj, "dim", int, where)
    if n < 1:
        raise SchemaError(f"{where}: algebra dimension must be >= 1")
    mult = _need(obj, "mult", list, where)
    if len(mult) != n:
        raise SchemaError(f"{where}: mult must be an n*n*n array")
    planes = [mat_from_json(field, plane, n, n, f"{where}.mult[{i}]").a
              for i, plane in enumerate(mult)]
    unit = _need(obj, "unit", list, where)
    unit_mat = mat_from_json(field, [unit], 1, n, where)
    alg = Algebra(field, planes, unit_mat.a[0], check=True)
    if registry is not None:
        registry[algebra_hash(alg)] = alg
    return alg


# -- modules -----------------------------------------------------------------


def module_to_json(m: Module, registry: dict[str, Algebra] | None = None) -> dict:
    """Serialize with an inline algebra the first time, then by hash."""
    h = algebra_hash(m.algebra)
    if registry is not None and h in registry:
        alg_repr: Any = h
    else:
        alg_repr = algebra_to_json(m.algebra)
        if registry is not None:
            registry[h] = m.algebra
    return {
        "algebra": alg_repr,
        "dim": m.dim,
        "action": [mat_to_json(m.act_mat(i)) for i in range(m.algebra.dim)],
    }


def module_from_json(obj: dict, registry: dict[str, Algebra] | None = None,
                     where: str = "module") -> Module:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: module must be a JSON object")
    alg = algebra_from_json(_need(obj, "algebra", (dict, str), where),
                            registry, where=where)
    dim = _need(obj, "dim", int, where)
    if dim < 0:
        raise SchemaError(f"{where}: module dimension must be >= 0")
    action_raw = _need(obj, "action", list, where)
    if len(action_raw) != alg.dim:
        raise SchemaError(f"{where}: need one action matrix per algebra basis vector")
    action = [mat_from_json(alg.field, m, dim, dim, f"{where}.action[{i}]")
              for i, m in enumerate(action_raw)]
    mod = Module(alg, action=action)
    try:
        mod.validate()
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return mod


# -- complexes ---------------------------------------------------------------


def complex_to_json(x: Complex) -> dict:
    registry: dict[str, Algebra] = {}
    objects = [module_to_json(x.obj(n), registry) for n in range(x.lo, x.hi + 1)]
    diff = [mat_to_json(x.diff(n).matrix) for n in range(x.lo, x.hi)]
    return {"lo": x.lo, "hi": x.hi, "objects": objects, "diff": diff}


def complex_from_json(obj: dict, where: str = "complex") -> Complex:
    lo = _need(obj, "lo", int, where)
    hi = _need(obj, "hi", int, where)
    if hi < lo:
        raise SchemaError(f"{where}: hi must be >= lo")
    objects_raw = _need(obj, "objects", list, where)
    diff_raw = _need(obj, "diff", list, where)
    if len(objects_raw) != hi - lo + 1:
        raise SchemaError(f"{where}: expected {hi - lo + 1} objects for degrees {lo}..{hi}")
    if len(diff_raw) != hi - lo:
        raise SchemaError(f"{where}: expected {hi - lo} differentials")
    registry: dict[str, Algebra] = {}
    mods = [module_from_json(o, registry, f"{where}.objects[{i}]")
            for i, o in enumerate(objects_raw)]
    if any(m.algebra != mods[0].algebra for m in mods):
        raise SchemaError(f"{where}: all objects must share one algebra")
    objects = {lo + i: m for i, m in enumerate(mods)}
    diffs = {}
    for i, d in enumerate(diff_raw):
        src, tgt = mods[i], mods[i + 1]
        mat = mat_from_json(src.field, d, tgt.dim, src.dim, f"{where}.diff[{i}]")
        diffs[lo + i] = ModuleHom(src, tgt, mat, check=True)
    return Complex(mods[0].algebra, objects, diffs, check=True)


# -- extension sequences ------------------------------------------------------


def extension_to_json(e: ExtensionSeq) -> dict:
    registry: dict[str, Algebra] = {}
    return {
        "mods": [module_to_json(m, registry) for m in e.mods],
        "maps": [mat_to_json(m.matrix) for m in e.maps],
    }


def extension_from_json(obj: dict, where: str = "extension") -> ExtensionSeq:
    mods_raw = _need(obj, "mods", list, where)
    maps_raw = _need(obj, "maps", list, where)
    if len(mods_raw) < 3:
        raise SchemaError(f"{where}: an extension needs at least 3 modules")
    if len(maps_raw) != len(mods_raw) - 1:
        raise SchemaError(f"{where}: expected {len(mods_raw) - 1} maps")
    registry: dict[str, Algebra] = {}
    mods = [module_from_json(m, registry, f"{where}.mods[{i}]")
            for i, m in enumerate(mods_raw)]
    if any(m.algebra != mods[0].algebra for m in mods):
        raise SchemaError(f"{where}: all modules must share one algebra")
    maps = []
    for t, raw in enumerate(maps_raw):
        src, tgt = mods[t], mods[t + 1]
        mat = mat_from_json(src.field, raw, tgt.dim, src.dim, f"{where}.maps[{t}]")
        maps.append(ModuleHom(src, tgt, mat, check=True))
    return ExtensionSeq(mods, maps, check=True)


# -- filtrations --------------------------------------------------------------


def filtration_to_json(f: Filtration) -> dict:
    registry: dict[str, Algebra] = {}
    return {
        "ambient": module_to_json(f.ambient, registry),
        "f1": {"dim": f.f1.source.dim, "matrix": mat_to_json(f.f1.matrix)},
        "f2": {"dim": f.f2.source.dim, "matrix": mat_to_json(f.f2.matrix)},
    }


def filtration_from_json(obj: dict, where: str = "filtration") -> Filtration:
    ambient = module_from_json(_need(obj, "ambient", dict, where),
                               where=f"{where}.ambient")
    incls = []
    for name in ("f1", "f2"):
        part = _need(obj, name, dict, where)
        dim = _need(part, "dim", int, f"{where}.{name}")
        mat = mat_from_json(ambient.field, _need(part, "matrix", list, f"{where}.{name}"),
                            ambient.dim, dim, f"{where}.{name}")
        incl = submodule(ambient, mat)
        if incl.source.dim != dim:
            raise SchemaError(
                f"{where}.{name}: columns do not span an action-stable subspace "
                f"of dimension {dim} (closure has dimension {incl.source.dim})")
        incls.append(incl)
    return Filtration(ambient, incls[0], incls[1])
