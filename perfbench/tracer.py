"""Span tracer that wraps roofext functions from outside the package.

Nothing under src/roofext is edited.  Each traced function is replaced, in
every roofext module that binds it (many are imported by name, for example
`solve` into algebra, ext and complexes), by a wrapper that records one span:
name, start, end, parent span and instance id.  Methods are patched on their
class.  Spans are kept in compact arrays while the run lasts and written out
once it ends; `restore` puts every original object back.

The package is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs that get a span; the span name is "<module>.<function>".
SPANNED = {
    "instances": ["random_filtration", "random_ses_pair", "random_ses_triple",
                  "random_module"],
    "algebra": ["submodule", "_closure", "submodule_quotient", "hom_space"],
    "linalg": ["rref", "solve", "kernel_basis", "_dot"],
    "ext": ["free_resolution", "minimal_generators", "ext_group", "lift_solve",
            "yoneda_product", "class_of_extension", "extension_from_class"],
    "complexes": ["cohomology", "is_quasi_iso"],
    "roofs": ["compose_roofs", "to_ext_class", "filtration_two_class", "roof_equal"],
    "jsonio": ["parse_document", "load_document", "algebra_from_json",
               "module_from_json", "extension_from_json", "filtration_from_json",
               "mat_from_json", "dump_canonical"],
    "projcoh": ["cohomology_table", "prop2_report"],
}
# Methods that get a span, as (module, class, method).
SPANNED_METHODS = [("linalg", "IncrementalSpan", "add")]
# Called too often, or too deep inside a spanned caller, to be worth a span:
# these are only counted, and their time stays in the caller's self time.
COUNTED = [("algebra", "random_bound_quiver_algebra"), ("ext", "_greedy_generators")]
COUNTED_METHODS = [("algebra", "Module", "act")]
# jsonio functions whose self time adds up to `jsonio.load.self_s`.
JSON_LOADERS = ["parse_document", "load_document", "algebra_from_json",
                "module_from_json", "extension_from_json", "filtration_from_json",
                "mat_from_json"]


class Tracer:
    """Installs the wrappers, holds the spans and aggregates them per name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.instance = array("q")
        self.name = array("q")
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.instance_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installing and removing wrappers --------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.rref": lambda args, out: self._max("linalg.rref.max_cells",
                                                       args[0].nrows * args[0].ncols),
            "ext.free_resolution": lambda args, out: self._max("ext.resolution.max_rank",
                                                               max(out.ranks)),
            "ext.ext_group": lambda args, out: self._tally("ext.ext_group.nonzero", out[0] > 0),
            "linalg.IncrementalSpan.add": lambda args, out: self._tally(
                "linalg.IncrementalSpan.add.accepted", out),
        }
        for mod, funcs in SPANNED.items():
            for fn in funcs:
                name = f"{mod}.{fn}"
                self._rebind(mod, fn, self._spanned(name, _attr(mod, fn), hooks.get(name)))
        for mod, cls, meth in SPANNED_METHODS:
            name = f"{mod}.{cls}.{meth}"
            owner = _attr(mod, cls)
            self._set(owner, meth, self._spanned(name, owner.__dict__[meth], hooks.get(name)))
        for mod, fn in COUNTED:
            self._rebind(mod, fn, self._counted(f"{mod}.{fn}", _attr(mod, fn)))
        for mod, cls, meth in COUNTED_METHODS:
            owner = _attr(mod, cls)
            self._set(owner, meth, self._counted(f"{mod}.{cls}.{meth}", owner.__dict__[meth]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, mod: str, fn: str, wrapper) -> None:
        """Replace every binding of roofext.<mod>.<fn> across roofext.*."""
        original = _attr(mod, fn)
        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == "roofext" or mname.startswith("roofext.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------------

    def _spanned(self, name: str, fn, hook):
        nid = self._name_id(name)
        starts, ends, parents, insts, names = (self.start, self.end, self.parent,
                                               self.instance, self.name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            insts.append(tracer.instance_id)
            names.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _tally(self, key: str, hit) -> None:
        if hit:
            self.counts[key] += 1

    # -- aggregation and output ------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(selfs[i])} for i, n in enumerate(self.names)}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        is_child = (name == self._name_ids[child_name]) & (parent >= 0)
        parents_named = name[parent[is_child]] == self._name_ids[parent_name]
        return int(parents_named.sum())

    def write(self, path) -> None:
        """One JSON header line, then one tab-separated line per span:
        name id, start ns, end ns (from tracer creation), parent index, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent",
                                            "instance"]}) + "\n")
            t0 = self._t0
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]}\t{int((self.start[i] - t0) * 1e9)}\t"
                         f"{int((self.end[i] - t0) * 1e9)}\t{self.parent[i]}\t"
                         f"{self.instance[i]}\n")


def _attr(mod: str, name: str):
    return getattr(sys.modules[f"roofext.{mod}"], name)
