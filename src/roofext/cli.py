"""Command-line interface.

Six commands: `ext` (Ext tables for two modules), `yoneda` (product of two
extension classes, computed by both the cocycle and the splice route),
`roof` (the same composite through roof composition), `lemma-check` (the
headline vanishing suite over bundled or random filtrations), `projcoh`
(sheaf cohomology tables), and `prop2-report` (the two-chain consistency
report).

Exit codes: 0 success, 1 a checked property failed (a nontrivial
lemma-check composite, or the second route of `yoneda` or `roof` disagreeing
with the first), 2 malformed input (schema), 3 semantic mismatch (e.g.
non-composable inputs), 4 degenerate filtration (also a random sampler that
gives up), 5 internal error (a failed invariant check, an inconsistent
long-exact-sequence chase, or any other ValueError: a bug, not bad input),
6 out of memory (the computation outgrew the memory it could allocate).

Each `cmd_*` returns `(docs, lines, code)`: its canonical JSON documents
(for `lemma-check` the header and one per instance), its text view as a
list of lines (`None` for `lemma-check`, which always prints JSON lines),
and its exit code.  Only `main` writes them, to stdout or `--out`: the
documents under `--json` or without a text view, else the lines.
JSON output is canonical — sorted keys, no whitespace — so identical inputs
and seeds produce byte-identical bytes.  Input tokens of the form
`fixture:NAME` resolve to the bundled example files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import resources
from random import Random

from . import jsonio
from .errors import (
    AmbiguousChaseError,
    DegenerateFiltrationError,
    InvariantError,
    MiddleMismatchError,
    NotSubmoduleError,
    SchemaError,
    TruncationError,
    UnsupportedEndpointsError,
)
from .ext import (
    SPLICE_PRODUCT_SIGN,
    class_of_extension,
    ext_group,
    is_trivial,
    splice,
    yoneda_product,
)
from .instances import random_filtration
from .linalg import field_from_name
from .projcoh import cohomology_table, parse_sheaf, prop2_report
from .roofs import compose_roofs, filtration_two_class, ses_to_roof, to_ext_class

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_SEMANTIC = 3
EXIT_DEGENERATE = 4
EXIT_INTERNAL = 5
EXIT_MEMORY = 6

RNG_ALGORITHM = "mersenne-twister"


def _document(token: str) -> dict:
    if token.startswith("fixture:"):
        name = token[len("fixture:"):]
        ref = resources.files("roofext").joinpath("fixtures", name + ".json")
        try:
            text = ref.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise SchemaError(f"no bundled fixture named {name!r}") from None
        return jsonio.parse_document(text, token)
    return jsonio.load_document(token)


def _emit(data: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(data)
        except OSError as exc:
            raise SchemaError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(data)


def _coords(element) -> list:
    field = element.source.field
    return [field.fmt(v) for v in element.coords.a[:, 0]]


def _class_entry(element) -> dict:
    return {"trivial": is_trivial(element), "coords": _coords(element)}


def _parse_seed(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise SchemaError(f"seed must be hexadecimal, got {text!r}") from None


def _parse_count(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"count must be an integer, got {text!r}") from None


# -- ext -----------------------------------------------------------------------


def cmd_ext(args) -> tuple:
    m, n = (jsonio.module_from_json(_document(t), where=t, table=args.table)
            for t in args.module)
    if m.algebra != n.algebra:
        raise MiddleMismatchError("the two modules are over different algebras")
    degrees = sorted(set(args.degree))
    if any(d < 0 for d in degrees):
        raise SchemaError("Ext degree must be nonnegative")
    table = {}
    for d in degrees:
        dim, basis = ext_group(m, n, d, truncate=args.truncate)
        table[str(d)] = {
            "dim": dim,
            "basis": [{"coords": _coords(b),
                       "cocycle": jsonio.mat_to_json(b.images)} for b in basis],
        }
    doc = {"command": "ext", "field": m.field.name,
           "dims": {k: v["dim"] for k, v in table.items()}, "table": table}
    lines = [f"Ext over {m.algebra!r}: source dim {m.dim}, target dim {n.dim}"]
    for d in degrees:
        entry = table[str(d)]
        lines.append(f"  Ext^{d}: dim {entry['dim']}")
        for t, b in enumerate(entry["basis"]):
            lines.append(f"    basis[{t}] cocycle generator images: {b['cocycle']}")
    return [doc], lines, EXIT_OK


# -- yoneda --------------------------------------------------------------------


def _sequences(args) -> list:
    return [jsonio.extension_from_json(_document(t), where=t, table=args.table)
            for t in args.sequence]


def cmd_yoneda(args) -> tuple:
    e1, e2 = _sequences(args)
    a = class_of_extension(e1)
    b = class_of_extension(e2)
    product = yoneda_product(a, b)
    spliced = splice(e1, e2)
    spliced_class = class_of_extension(spliced)
    doc = {
        "command": "yoneda",
        "field": a.source.field.name,
        "degrees": {"first": e1.degree, "second": e2.degree,
                    "product": product.degree},
        "first_class": _class_entry(a),
        "second_class": _class_entry(b),
        "product": _class_entry(product),
        "splice_class": _class_entry(spliced_class),
        "splice_matches_product": spliced_class == product.scale(SPLICE_PRODUCT_SIGN),
    }
    lines = [
        f"first class  (Ext^{e1.degree}): trivial={doc['first_class']['trivial']} "
        f"coords={doc['first_class']['coords']}",
        f"second class (Ext^{e2.degree}): trivial={doc['second_class']['trivial']} "
        f"coords={doc['second_class']['coords']}",
        f"product      (Ext^{product.degree}): trivial={doc['product']['trivial']} "
        f"coords={doc['product']['coords']}",
        f"splice route agrees with the pinned sign: {doc['splice_matches_product']}",
    ]
    return [doc], lines, EXIT_OK if doc["splice_matches_product"] else EXIT_FAIL


# -- roof ----------------------------------------------------------------------


def cmd_roof(args) -> tuple:
    e1, e2 = _sequences(args)
    if e1.degree != 1 or e2.degree != 1:
        raise SchemaError("roof composition works on short exact sequences (degree 1)")
    r1 = ses_to_roof(e1)
    r2 = ses_to_roof(e2).shift(1)
    composite = compose_roofs(r1, r2)
    c = to_ext_class(composite)
    product = yoneda_product(class_of_extension(e1), class_of_extension(e2))
    doc = {
        "command": "roof",
        "field": c.source.field.name,
        "apex_degrees": list(composite.apex.degrees()),
        "composite_class": _class_entry(c),
        "matches_yoneda_product": c == product,
    }
    lines = [
        f"composite roof apex lives in degrees {doc['apex_degrees']}",
        f"composite class (Ext^2): trivial={doc['composite_class']['trivial']} "
        f"coords={doc['composite_class']['coords']}",
        f"agrees with the cocycle-route product: {doc['matches_yoneda_product']}",
    ]
    return [doc], lines, EXIT_OK if doc["matches_yoneda_product"] else EXIT_FAIL


# -- lemma-check -----------------------------------------------------------------


def _instance_line(index: int, report: dict) -> dict:
    return {
        "index": index,
        "dims": report["module_dims"],
        "ext_dims": report["ext_dims"],
        "alpha1_trivial": report["bottom_class"]["trivial"],
        "alpha2_trivial": report["top_class"]["trivial"],
        "alpha_trivial": report["composite_class"]["trivial"],
        "alpha_coords": report["composite_class"]["coords"],
        "alpha1_coords": report["bottom_class"]["coords"],
        "alpha2_coords": report["top_class"]["coords"],
    }


def cmd_lemma_check(args) -> tuple:
    if args.random is not None and args.filtration:
        raise SchemaError("choose either --filtration or --random, not both")
    seed = args.seed
    count = args.count
    if args.random is not None:
        if len(args.random) == 2:
            seed, count = args.random[0], _parse_count(args.random[1])
        elif args.random:
            raise SchemaError("--random takes no arguments or SEED COUNT")
    if count < 1:
        raise SchemaError("count must be >= 1")
    if args.filtration:
        filtrations = [(0, jsonio.filtration_from_json(
            _document(args.filtration), where=args.filtration, table=args.table))]
        header = {"command": "lemma-check", "source": args.filtration, "count": 1}
    else:
        field = field_from_name(args.field)
        rng = Random(_parse_seed(seed))
        header = {"command": "lemma-check", "source": "random",
                  "generator": RNG_ALGORITHM, "seed": seed.lower(),
                  "field": field.name, "count": count}
        filtrations = ((i, random_filtration(rng, field)) for i in range(count))

    docs = [header]
    for index, filt in filtrations:
        try:
            _, _, alpha, report = filtration_two_class(filt)
        except DegenerateFiltrationError as exc:
            raise DegenerateFiltrationError(f"instance {index}: {exc}") from None
        docs.append(_instance_line(index, report))
    all_trivial = all(line["alpha_trivial"] for line in docs[1:])
    return docs, None, EXIT_OK if all_trivial else EXIT_FAIL


# -- projcoh ---------------------------------------------------------------------


def _table_doc(space: str, sheaf: str) -> dict:
    table = cohomology_table(parse_sheaf(space, sheaf))
    doc = {
        "space": space,
        "sheaf": sheaf,
        "normal_form": table.descriptor.describe(),
        "table": {str(q): {"dim": dim, "rule": rule}
                  for q, (dim, rule) in sorted(table.entries.items())},
        "chi": table.chi(),
    }
    try:  # Python prints ints only up to a digit limit (4300 by default)
        for n in (doc["chi"], *(v["dim"] for v in doc["table"].values())):
            str(n)
    except ValueError:
        raise SchemaError(f"the cohomology of {sheaf[:40]!r} on {space[:40]} has an "
                          "entry with more decimal digits than Python prints") from None
    return doc


def _table_text(doc: dict) -> list[str]:
    nonzero = [(int(q), v) for q, v in doc["table"].items() if v["dim"]]
    head = f"{doc['space']}, {doc['sheaf']}  (normal form {doc['normal_form']})"
    if not nonzero:
        return [head, "  all cohomology vanishes (chi = 0)"]
    width = max(len(str(v["dim"])) for _, v in nonzero)
    rows = [f"  h^{q} = {v['dim']:>{width}}   [{v['rule']}]"
            for q, v in sorted(nonzero)]
    return [head, *rows, f"  chi = {doc['chi']}"]


def cmd_projcoh(args) -> tuple:
    pairs: list[tuple[str, str]] = []
    if args.batch:
        doc = _document(args.batch)
        entries = doc.get("descriptors")
        if not isinstance(entries, list) or not entries:
            raise SchemaError(f"{args.batch}: expected a nonempty 'descriptors' list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or not all(
                    isinstance(entry.get(k), str) for k in ("space", "sheaf")):
                raise SchemaError(
                    f"{args.batch}: descriptors[{i}] needs 'space' and 'sheaf' strings")
            pairs.append((entry["space"], entry["sheaf"]))
    elif args.space and args.sheaf:
        pairs.append((args.space, args.sheaf))
    else:
        raise SchemaError("projcoh needs a space and a sheaf expression (or --batch)")
    docs = [_table_doc(s, sh) for s, sh in pairs]
    payload = docs[0] if len(docs) == 1 else {"command": "projcoh", "tables": docs}
    return [payload], [line for d in docs for line in _table_text(d)], EXIT_OK


# -- prop2-report ------------------------------------------------------------------


def _chain_text(label: str, steps: list[dict]) -> list[str]:
    lines = [f"{label}:"]
    for i, step in enumerate(steps, start=1):
        dim = "-" if step["dim"] is None else str(step["dim"])
        flag = step.get("vs_prev", "")
        marker = f"  <-- {flag}" if flag == "MISMATCH" else ""
        lines.append(f"  [{i}] {step['node']}: dim {dim}{marker}")
        lines.append(f"      rule: {step['rule']}")
        if "note" in step:
            lines.append(f"      note: {step['note']}")
    return lines


def cmd_prop2(args) -> tuple:
    report = prop2_report()
    lines = [*_chain_text("chain 1 (sections of the quadric)", report["chain1"]),
             *_chain_text("chain 2 (tangent-sheaf pairing)", report["chain2"])]
    term = report["terminal"]
    lines.append("terminal claim:")
    lines.append(f"  h^1(P3, Omega^1(-5)) = {term['receiving_group_h1']}, "
                 f"h^2 = {term['receiving_group_h2']} "
                 f"(full column {term['full_column_Omega^1(-5)']})")
    lines.append(f"  {term['statement']}")
    rewrite = term["ext2_tangent_rewrite"]
    lines.append(f"  {rewrite['node']}: dim {rewrite['dim']} [{rewrite['rule']}]")
    checks = report["sequence_chi_checks"]
    lines.append("Euler-characteristic additivity of the two defining sequences: "
                 f"{checks['quadric_structure_sequence_additive_on_grid']} / "
                 f"{checks['euler_quotient_sequence_additive']}")
    lines.append(f"verdict: {report['summary']['verdict']}")
    return [report], lines, EXIT_OK


# -- argument plumbing ---------------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roofext",
        description="exact Ext, roof composition, and sheaf cohomology tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ext", help="Ext dimensions and basis cocycles")
    p.add_argument("module", nargs=2, help="module JSON files (source, target)")
    p.add_argument("--degree", nargs="+", type=int, default=[0, 1, 2])
    p.add_argument("--truncate", type=int, default=None,
                   help="cap the resolution length")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("yoneda", help="product of two extension classes")
    p.add_argument("sequence", nargs=2, help="extension-sequence JSON files")
    _add_output_flags(p)
    p.set_defaults(func=cmd_yoneda)

    p = sub.add_parser("roof", help="compose the roofs of two short exact sequences")
    p.add_argument("sequence", nargs=2, help="extension-sequence JSON files")
    _add_output_flags(p)
    p.set_defaults(func=cmd_roof)

    p = sub.add_parser("lemma-check",
                       help="filtration two-step classes and their product")
    p.add_argument("--filtration", metavar="FILE", help="filtration JSON file")
    p.add_argument("--random", nargs="*", metavar="ARG",
                   help="random suite; optionally SEED COUNT")
    p.add_argument("--seed", default="0xC0FFEE", help="hex seed for --random")
    p.add_argument("--count", type=int, default=1, help="number of random instances")
    p.add_argument("--field", default="f3", help="q, f2, f3, or fp:<p>")
    _add_output_flags(p)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("projcoh", help="sheaf cohomology table")
    p.add_argument("space", nargs="?", help="P1, P2, ... or P1xP1")
    p.add_argument("sheaf", nargs="?", help="sheaf expression, e.g. \"Omega^1(-5)\"")
    p.add_argument("--batch", metavar="FILE",
                   help="JSON file with a 'descriptors' list")
    _add_output_flags(p)
    p.set_defaults(func=cmd_projcoh)

    p = sub.add_parser("prop2-report", help="two-chain consistency report")
    _add_output_flags(p)
    p.set_defaults(func=cmd_prop2)

    return parser


# Built once per process; parsing leaves no state in it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # the intern table of this invocation: its input documents share equal
    # algebras and modules (see jsonio); it ends with the call
    args.table = {}
    try:
        docs, lines, code = args.func(args)
        if args.json or lines is None:
            _emit("".join(map(jsonio.dump_canonical, docs)), args.out)
        else:
            _emit("\n".join(lines) + "\n", args.out)
        return code
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (MiddleMismatchError, UnsupportedEndpointsError,
            TruncationError, NotSubmoduleError) as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except DegenerateFiltrationError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvariantError, AmbiguousChaseError, ValueError) as exc:
        # every input check raises SchemaError or a semantic error above, so
        # any other ValueError broke an internal API contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:  # numpy's failed allocations subclass it
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
