"""Command-line interface: commands, exit codes, determinism.

Every test drives `main(argv)` in-process and reads stdout through capsys;
one smoke test at the end exercises the installed console script.
"""

import argparse
import ast
import hashlib
import json
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import roofext.cli as cli
import roofext.ext as ext
from roofext import jsonio, linalg
from roofext.algebra import Algebra, Module
from roofext.cli import main
from roofext.errors import AmbiguousChaseError, InvariantError
from roofext.linalg import Mat


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


# -- ext ----------------------------------------------------------------------


def test_ext_text_table(capsys):
    rc, out = run(capsys, ["ext", "fixture:kx3_simple", "fixture:kx3_simple"])
    assert rc == 0
    assert "Ext^0: dim 1" in out
    assert "Ext^1: dim 1" in out
    assert "Ext^2: dim 1" in out


def test_ext_json_dims(capsys):
    rc, out = run(capsys, ["ext", "fixture:ka3_simple1", "fixture:ka3_simple3",
                           "--degree", "0", "1", "2", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "ext"
    # no arrows from vertex 1 to 3, but a length-two path of extensions
    assert doc["dims"] == {"0": "0", "1": "0", "2": "1"} or \
        doc["dims"] == {"0": 0, "1": 0, "2": 1}


def test_ext_mixed_algebras_is_semantic_error(capsys):
    rc, _ = run(capsys, ["ext", "fixture:kx3_simple", "fixture:ka3_simple1"])
    assert rc == 3


# -- yoneda and roof ------------------------------------------------------------


def test_yoneda_nonzero_control(capsys):
    rc, out = run(capsys, ["yoneda", "fixture:ka3_ses_12", "fixture:ka3_ses_23",
                           "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["product"]["trivial"] is False
    assert doc["splice_matches_product"] is True
    assert doc["degrees"] == {"first": 1, "second": 1, "product": 2}


def test_yoneda_reversed_order_is_semantic_error(capsys):
    rc, _ = run(capsys, ["yoneda", "fixture:ka3_ses_23", "fixture:ka3_ses_12"])
    assert rc == 3


def test_roof_showcase_vanishes(capsys):
    rc, out = run(capsys, ["roof", "fixture:kx3_ses_top", "fixture:kx3_ses_bottom",
                           "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["composite_class"]["trivial"] is True
    assert doc["matches_yoneda_product"] is True


def test_roof_text_output(capsys):
    rc, out = run(capsys, ["roof", "fixture:kx3_ses_top", "fixture:kx3_ses_bottom"])
    assert rc == 0
    assert "agrees with the cocycle-route product: True" in out


@pytest.mark.parametrize("command, check", [("yoneda", "splice_matches_product"),
                                            ("roof", "matches_yoneda_product")])
def test_failed_cross_check_exits_1(capsys, monkeypatch, command, check):
    """A Yoneda lift off by the all-ones images still lands on a cocycle
    here, but on the wrong class: the command prints its verdict as before
    and exits 1."""
    real = ext._lift_along

    def shifted(res, start, *args):
        c = real(res, start, *args)
        return c + Mat(c.field, [[1] * c.ncols] * c.nrows) if start > 0 else c

    argv = [command, "fixture:kx3_ses_top", "fixture:kx3_ses_bottom"]
    monkeypatch.setattr(ext, "_lift_along", shifted)
    rc, out = run(capsys, argv + ["--json"])
    assert rc == 1
    assert json.loads(out)[check] is False
    rc, out = run(capsys, argv)
    assert rc == 1 and ": False" in out


# -- one load per invocation ------------------------------------------------------


def _fixture_doc(name: str) -> dict:
    return json.loads(resources.files("roofext").joinpath("fixtures", name + ".json")
                      .read_text(encoding="utf-8"))


def _count_calls(monkeypatch) -> dict:
    """Count Algebra.validate, Module.validate, the greedy generator picker,
    Ext-space constructions and algebra hashes from here on."""
    counts = {"algebra": 0, "module": 0, "greedy": 0, "ext_spaces": 0, "hash": 0}

    def counted(owner, attr, name):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(Algebra, "validate", "algebra")
    counted(Module, "validate", "module")
    counted(ext, "_greedy_generators", "greedy")
    counted(ext, "_ExtSpace", "ext_spaces")
    counted(jsonio, "algebra_hash", "hash")
    return counts


# Per invocation: the two documents' common algebra is validated once and
# each distinct module once (kx3's sequences hold only the simple and the
# middle module), and a shared module is resolved once.  An algebra is
# hashed only for a document's hash registry, once per invocation: extension
# documents keep one, the module and filtration loaders none.
SHARED_LOAD_COUNTS = {
    ("roof", "ka3_ses_12", "ka3_ses_23"):
        {"algebra": 1, "module": 5, "greedy": 5, "ext_spaces": 3, "hash": 1},
    ("yoneda", "ka3_ses_12", "ka3_ses_23"):
        {"algebra": 1, "module": 5, "greedy": 5, "ext_spaces": 3, "hash": 1},
    ("roof", "kx3_ses_top", "kx3_ses_bottom"):
        {"algebra": 1, "module": 2, "greedy": 3, "ext_spaces": 2, "hash": 1},
    ("ext", "kx3_simple", "kx3_simple"):
        {"algebra": 1, "module": 1, "greedy": 3, "ext_spaces": 3, "hash": 0},
    ("ext", "ka3_simple1", "ka3_simple3"):
        {"algebra": 1, "module": 2, "greedy": 3, "ext_spaces": 3, "hash": 0},
    ("lemma-check", "--filtration", "kx3_filtration"):
        {"algebra": 1, "module": 1, "greedy": 5, "ext_spaces": 3, "hash": 0},
}


@pytest.mark.parametrize("command", sorted(SHARED_LOAD_COUNTS), ids="-".join)
def test_an_invocation_loads_each_algebra_and_module_once(capsys, monkeypatch, command):
    counts = _count_calls(monkeypatch)
    name, *tokens = command
    argv = [t if t.startswith("--") else f"fixture:{t}" for t in tokens]
    assert main([name, *argv, "--json"]) == 0
    capsys.readouterr()
    assert counts == SHARED_LOAD_COUNTS[command]


def test_one_table_shares_the_middle_module():
    docs = [_fixture_doc("ka3_ses_12"), _fixture_doc("ka3_ses_23")]
    table: dict = {}
    e1, e2 = (jsonio.extension_from_json(d, table=table) for d in docs)
    assert e1.sub is e2.quotient
    assert all(m.algebra is e1.sub.algebra for m in e1.mods + e2.mods)
    # without a table each call starts a fresh one
    f1, f2 = (jsonio.extension_from_json(d) for d in docs)
    assert f1.sub is not f2.quotient and f1.sub == f2.quotient


def test_identical_invocations_each_validate_their_algebra(capsys, monkeypatch):
    counts = _count_calls(monkeypatch)
    argv = ["roof", "fixture:ka3_ses_12", "fixture:ka3_ses_23", "--json"]
    seen = []
    for _ in range(2):
        assert main(argv) == 0
        seen.append(counts["algebra"])
    capsys.readouterr()
    assert seen == [1, 2]


def test_hash_references_stay_per_document(capsys, tmp_path):
    """The second document names the first one's algebra only by hash: the
    first document loaded it, but hash references resolve within a document."""
    first, second = _fixture_doc("ka3_ses_12"), _fixture_doc("ka3_ses_23")
    href = jsonio.algebra_hash(jsonio.algebra_from_json(first["mods"][0]["algebra"]))
    assert second["mods"][1]["algebra"] == href
    second["mods"][0]["algebra"] = href
    path = tmp_path / "second.json"
    path.write_text(json.dumps(second))
    assert main(["roof", "fixture:ka3_ses_12", str(path)]) == 2
    assert "not seen inline earlier" in capsys.readouterr().err


def test_documents_over_different_algebras_stay_apart(capsys):
    assert main(["roof", "fixture:ka3_ses_12", "fixture:kx3_ses_top"]) == 3
    assert "semantic error" in capsys.readouterr().err


def test_a_repeated_algebra_with_a_corrupted_plane_is_validated(capsys, tmp_path):
    second = _fixture_doc("ka3_ses_23")
    assert second["mods"][0]["algebra"] == _fixture_doc("ka3_ses_12")["mods"][0]["algebra"]
    second["mods"][0]["algebra"]["mult"][0][1][1] = "1"
    path = tmp_path / "second.json"
    path.write_text(json.dumps(second))
    assert main(["roof", "fixture:ka3_ses_12", str(path)]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "fails" in err


# -- lemma-check ------------------------------------------------------------------


def test_lemma_check_fixture(capsys):
    rc, out = run(capsys, ["lemma-check", "--filtration", "fixture:kx3_filtration"])
    assert rc == 0
    header, line = json_lines(out)
    assert header["source"] == "fixture:kx3_filtration"
    assert line["alpha1_trivial"] is False
    assert line["alpha2_trivial"] is False
    assert line["alpha_trivial"] is True
    assert line["ext_dims"] == {"bottom": 1, "top": 1, "composite": 1}
    assert line["dims"] == {"ambient": 3, "f1": 1, "f2": 2}


def test_lemma_check_random_deterministic(capsys):
    argv = ["lemma-check", "--random", "0xBEEF", "3", "--field", "f2"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = json_lines(out1)
    assert lines[0]["seed"] == "0xbeef"
    assert lines[0]["count"] == 3
    assert len(lines) == 4
    assert all(line["alpha_trivial"] for line in lines[1:])


def test_lemma_check_json_flag_is_a_no_op(capsys):
    # the command always emits canonical JSON lines
    _, plain = run(capsys, ["lemma-check", "--filtration", "fixture:kx3_filtration"])
    _, flagged = run(capsys, ["lemma-check", "--filtration", "fixture:kx3_filtration",
                              "--json"])
    assert plain == flagged


def test_lemma_check_failure_exit_code(capsys, monkeypatch):
    real = cli.filtration_two_class

    def doctored(filt):
        a1, a2, alpha, report = real(filt)
        fake = dict(report)
        fake["composite_class"] = {"trivial": False, "coords": ["1"]}
        return a1, a2, alpha, fake

    monkeypatch.setattr(cli, "filtration_two_class", doctored)
    rc, out = run(capsys, ["lemma-check", "--filtration", "fixture:kx3_filtration"])
    assert rc == 1
    assert json_lines(out)[1]["alpha_trivial"] is False


def test_lemma_check_degenerate_filtration(capsys, tmp_path):
    doc = json.loads(resources.files("roofext")
                     .joinpath("fixtures", "kx3_filtration.json").read_text())
    doc["f1"] = doc["f2"]
    path = tmp_path / "degen.json"
    path.write_text(json.dumps(doc))
    rc, _ = run(capsys, ["lemma-check", "--filtration", str(path)])
    assert rc == 4


@pytest.mark.parametrize("argv", [
    ["lemma-check", "--random", "abc"],
    ["lemma-check", "--random", "zz", "1"],
    ["lemma-check", "--random", "0x1", "0"],
    ["lemma-check", "--filtration", "fixture:kx3_filtration", "--random"],
    ["lemma-check", "--filtration", "/tmp/never-exists-anywhere.json"],
    ["ext", "fixture:nope", "fixture:kx3_simple"],
    ["lemma-check", "--random", "0x1", "abc"],
    ["lemma-check", "--random", "--field", "f4"],
    ["lemma-check", "--random", "--field", "fp:4"],
    ["lemma-check", "--random", "--field", "fp:x"],
    ["lemma-check", "--random", "--field", "fp:1000000000000000003"],
], ids=["one-random-arg", "bad-seed", "zero-count", "both-sources",
        "missing-file", "missing-fixture", "bad-count", "field-f4", "field-fp4",
        "field-fpx", "prime-above-bound"])
def test_schema_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("field, scalar", [("f3", 1.5), ("q", "1/0"), ("f4", 1)],
                         ids=["float-over-fp", "zero-denominator", "field-f4"])
def test_bad_scalars_and_fields_in_json_exit_2(capsys, tmp_path, field, scalar):
    doc = {"algebra": {"field": field, "dim": 1, "unit": [1], "mult": [[[1]]]},
           "dim": 1, "action": [[[scalar]]]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    assert main(["ext", str(path), str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("scalar", ["1e1", "0e10000000", "1.5"])
def test_q_scalars_outside_the_grammar_exit_2(capsys, tmp_path, scalar):
    # "0e10000000" would cost Fraction() time exponential in its length
    doc = json.loads(resources.files("roofext")
                     .joinpath("fixtures", "kx3_simple.json").read_text())
    doc["action"][1][0][0] = scalar
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    assert main(["ext", str(path), str(path), "--degree", "0"]) == 2
    assert "not an integer or an 'a/b' string" in capsys.readouterr().err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["ext", str(path), str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["ext"], ["yoneda"], ["projcoh", "--batch"],
                                     ["lemma-check", "--filtration"]],
                         ids=lambda argv: argv[0])
def test_non_utf8_input_exits_2(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    files = [str(path)] * (2 if command[0] in ("ext", "yoneda") else 1)
    assert main(command + files) == 2
    out, err = capsys.readouterr()
    assert out == "" and "schema error" in err and str(path) in err


def test_boolean_dim_in_json_exits_2(capsys, tmp_path):
    doc = {"algebra": {"field": "q", "dim": True, "unit": [1], "mult": [[[1]]]},
           "dim": True, "action": [[[1]]]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    assert main(["ext", str(path), str(path)]) == 2
    assert "must be int" in capsys.readouterr().err


def test_exhausted_filtration_sampler_exits_4(capsys, monkeypatch):
    real = cli.random_filtration
    monkeypatch.setattr(cli, "random_filtration", lambda rng, field: real(rng, field, tries=0))
    assert main(["lemma-check", "--random"]) == 4
    assert "0 tries" in capsys.readouterr().err


# Full canonical --json output on the bundled fixtures, coordinates included,
# so a change of resolution generators or Ext basis shows up here.  ROADMAP
# item 5 (deriving the radical of JSON algebras) changes the resolutions and
# may re-record these digests, with a note in CHANGES.md.
FIXTURE_OUTPUT_DIGESTS = {
    "ext-kx3": (["ext", "fixture:kx3_simple", "fixture:kx3_simple",
                 "--degree", "0", "1", "2", "3"],
                "996179b5f6924f5645f6ccba1bf44bb0ce06d2a3ea4f01b8e8ed6b845cbe6aac"),
    "ext-kx3-regular": (["ext", "fixture:kx3_simple", "fixture:kx3_regular",
                         "--degree", "0", "1", "2", "3"],
                        "d49d3a2d2869e13bdb5767adf33ae9ec4fc01c160c42abce8f7f1934b06d3ddb"),
    "ext-ka3-12": (["ext", "fixture:ka3_simple1", "fixture:ka3_simple2",
                    "--degree", "0", "1", "2", "3"],
                   "6d6df2a5c59a2cfd6027cf79d75284ddb3799be4e16f82d3f5fe46603b7a7d93"),
    "ext-ka3-13": (["ext", "fixture:ka3_simple1", "fixture:ka3_simple3",
                    "--degree", "0", "1", "2", "3"],
                   "9104222c3e95fa0a6e418fcaf925852d7d075da05d5ddd796a0c4630b40fba74"),
    "yoneda-ka3": (["yoneda", "fixture:ka3_ses_12", "fixture:ka3_ses_23"],
                   "c87ea924564280b953300283992f98bed220c36dfeafcf181682a269bb9569da"),
    "yoneda-kx3": (["yoneda", "fixture:kx3_ses_top", "fixture:kx3_ses_bottom"],
                   "0149f7a0261c9d0db689ae31917e88fe1e26984be102b75a1d5f38c0b55e5720"),
    "roof-ka3": (["roof", "fixture:ka3_ses_12", "fixture:ka3_ses_23"],
                 "03c74f95140062848ac1e34642e44aa2807385707dfd03697e9ecbea46f8b555"),
    "roof-kx3": (["roof", "fixture:kx3_ses_top", "fixture:kx3_ses_bottom"],
                 "99894efa7d35e7cb1f8030dd3c0f12163ce518495df1a3cdbcdf60f076830bf6"),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_OUTPUT_DIGESTS))
def test_fixture_json_output_is_pinned(capsys, name):
    """Digests recorded before the one-round submodule closure; they still hold."""
    argv, digest = FIXTURE_OUTPUT_DIGESTS[name]
    rc, out = run(capsys, argv + ["--json"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _random_lemma_digest(capsys, name, count):
    rc, out = run(capsys, ["lemma-check", "--random", "0xBEEF", count, "--field", name, "--json"])
    assert rc == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_random_q_lemma_output_is_pinned(capsys):
    """Ext coordinates of seeded random instances over Q, by digest."""
    assert (_random_lemma_digest(capsys, "q", "3")
            == "d08bcaecfea56208bf9bc2c719bb1cab732a9c60d8f67a5f4098640231d3e4d2")


@pytest.mark.parametrize("name, digest", [
    ("f2", "75cf4c8addc3479e945876e1ff3225392fe99f7d97e3f83bc3ca46ec93eb72c4"),
    ("f3", "5b9b09ab1539eaf24bc59805721e8032b320a0b7382aa938a759203fedb9cd38"),
])
def test_random_fp_lemma_output_is_pinned(capsys, name, digest):
    """The same over F2 and F3, on forty filtrations: the sampler's draws
    through the CLI."""
    assert _random_lemma_digest(capsys, name, "40") == digest


# -- internal errors ----------------------------------------------------------------


@pytest.mark.parametrize("error", [InvariantError("closure failed to be action-stable"),
                                   AmbiguousChaseError("negative dimension"),
                                   ValueError("composition endpoint mismatch")],
                         ids=["invariant", "ambiguous-chase", "value-error"])
def test_internal_errors_exit_5(capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "ext_group", broken)
    rc = main(["ext", "fixture:kx3_simple", "fixture:kx3_simple"])
    assert rc == 5
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("allocate", [lambda: MemoryError(),
                                      lambda: np.empty(1 << 62, dtype=np.int8)],
                         ids=["memory-error", "numpy-allocation"])
def test_out_of_memory_exits_6(capsys, monkeypatch, allocate):
    """A computation that outgrows memory exits 6 with one stderr line, not
    a traceback and exit 1 (a failed property).  numpy's failed allocation
    (asked here for 4 EiB, which no address space holds) is a MemoryError."""
    def broken(*args, **kwargs):
        raise allocate()

    monkeypatch.setattr(cli, "ext_group", broken)
    rc = main(["ext", "fixture:kx3_simple", "fixture:kx3_simple"])
    captured = capsys.readouterr()
    assert rc == 6 and not captured.out
    assert captured.err.startswith("out of memory: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_repeated_calls_share_no_parsed_state(capsys):
    """The parser is built once per process; each call must still print what
    a call in a fresh process prints."""
    ext = ["ext", "fixture:kx3_simple", "fixture:kx3_simple", "--json"]
    pair = ["fixture:ka3_ses_12", "fixture:ka3_ses_23", "--json"]
    calls = [ext + ["--degree", "1"], ext, ["yoneda", *pair], ["lemma-check",
             "--filtration", "fixture:kx3_filtration"], ["roof", *pair],
             ext + ["--degree", "1"], ext]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert fresh[0] != fresh[1]  # the degree option changes the output
    assert [run(capsys, argv) for argv in calls] == fresh


# -- projcoh ----------------------------------------------------------------------


def test_projcoh_single_table_json(capsys):
    rc, out = run(capsys, ["projcoh", "P1xP1", "O(-6,-6)", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["table"]["2"]["dim"] == 25
    assert doc["table"]["0"]["dim"] == 0
    assert doc["chi"] == 25


def test_projcoh_text_format(capsys):
    rc, out = run(capsys, ["projcoh", "P3", "Omega^1(-5)"])
    assert rc == 0
    assert "h^3 = 36" in out
    rc, out = run(capsys, ["projcoh", "P3", "O(-2)"])
    assert rc == 0
    assert "all cohomology vanishes" in out


def test_projcoh_normalizes_expressions(capsys):
    rc, out = run(capsys, ["projcoh", "P2", "dual(O(1)*O(2))", "--json"])
    assert rc == 0
    assert json.loads(out)["normal_form"] == "O(-3)"


def test_projcoh_batch_fixture(capsys):
    rc, out = run(capsys, ["projcoh", "--batch", "fixture:prop2_descriptors",
                           "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "projcoh"
    sheaves = [t["sheaf"] for t in doc["tables"]]
    assert "O(-6,-6)" in sheaves and "Omega^1(-5)" in sheaves


@pytest.mark.parametrize("argv", [
    ["projcoh", "Q2", "O(1)"],
    ["projcoh", "P2", "dual(Omega^1)"],
    ["projcoh", "P2", "O(("],
    ["projcoh", "P1xP1", "Omega^1"],
    ["projcoh", "P2"],
    ["projcoh", "P2", "Omega^O"],
], ids=["bad-space", "dual-of-rank-2", "bad-syntax", "omega-on-product",
        "missing-sheaf", "non-integer-degree"])
def test_projcoh_schema_errors(capsys, argv):
    rc, _ = run(capsys, argv)
    assert rc == 2


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("args", [["P3", "O(" + "9" * 2000 + ")"], ["P20000", "O(20000)"]],
                         ids=["huge-twist", "huge-space"])
def test_projcoh_unprintable_answer_exits_2(capsys, tmp_path, args, fmt):
    """An entry with more digits than Python prints is refused before any output."""
    out = tmp_path / "table.out"
    assert main(["projcoh", *args, *fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more decimal digits than Python prints" in captured.err
    assert main(["projcoh", *args, *fmt, "--out", str(out)]) == 2
    assert not out.exists()


def test_projcoh_space_with_more_digits_than_int_converts_exits_2(capsys):
    rc = main(["projcoh", "P" + "1" * 5000, "O(1)"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "schema error" in captured.err


def test_projcoh_space_with_more_than_100000_table_rows_exits_2(capsys):
    """P100000's table would have 100,001 rows; it is refused before any is built."""
    for space in ("P100000", "P100000000", "P" + "1" * 4000):
        rc = main(["projcoh", space, "O(1)"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "schema error" in captured.err and "over 100000 rows" in captured.err


def test_projcoh_has_no_space_or_sheaf_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["projcoh", "--space", "P2", "--sheaf", "O(1)"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


CLI_OPTIONS = {
    "ext": ["--degree", "--json", "--out"],
    "lemma-check": ["--field", "--filtration", "--json", "--out", "--random"],
    "projcoh": ["--batch", "--json", "--out"],
    "prop2-report": ["--json", "--out"],
    "roof": ["--json", "--out"],
    "yoneda": ["--json", "--out"],
}


def test_cli_surface_is_pinned():
    """Each subcommand's option strings, besides -h/--help: a flag added or
    removed shows up here."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(s for a in p._actions if not isinstance(a, argparse._HelpAction)
                            for s in a.option_strings)
               for name, p in sub.choices.items()}
    assert surface == CLI_OPTIONS
    assert sum(map(len, surface.values())) == 17


@pytest.mark.parametrize("argv", [
    ["ext", "fixture:kx3_simple", "fixture:kx3_simple", "--degree", "2", "--truncate", "1"],
    ["lemma-check", "--seed", "0x1"],
    ["lemma-check", "--random", "--count", "2"],
], ids=["truncate", "seed", "count"])
def test_retired_flags_are_unknown(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"space": 5, "sheaf": "O(1)"},
                                   {"space": "P2", "sheaf": ["O(1)"]}],
                         ids=["int-space", "list-sheaf"])
def test_projcoh_batch_non_string_entry_exits_2(tmp_path, entry):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"descriptors": [entry]}))
    assert main(["projcoh", "--batch", str(path)]) == 2


# -- prop2-report -----------------------------------------------------------------


def test_prop2_report_json_deterministic(capsys):
    rc1, out1 = run(capsys, ["prop2-report", "--json"])
    rc2, out2 = run(capsys, ["prop2-report", "--json"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["summary"]["chain1_mismatches"] == 2


def test_prop2_report_text_flags_mismatches(capsys):
    rc, out = run(capsys, ["prop2-report"])
    assert rc == 0
    assert out.count("<-- MISMATCH") == 2
    assert "verdict:" in out


# -- output plumbing --------------------------------------------------------------


def test_out_flag_writes_same_bytes(capsys, tmp_path):
    path = tmp_path / "table.json"
    rc, _ = run(capsys, ["projcoh", "P3", "O(3)", "--json", "--out", str(path)])
    assert rc == 0
    rc, out = run(capsys, ["projcoh", "P3", "O(3)", "--json"])
    assert path.read_text() == out


@pytest.mark.parametrize("argv, target", [
    (["projcoh", "P2", "O(1)"], "missing/x.json"),
    (["ext", "fixture:kx3_simple", "fixture:kx3_simple"], "."),
], ids=["missing-parent", "directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, argv, target):
    assert main(argv + ["--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err


def _readme_commands() -> list[list[str]]:
    """The `roofext ...` lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("roofext ")]


_README_COMMANDS = _readme_commands()


def test_readme_shows_every_command():
    assert {argv[0] for argv in _README_COMMANDS} == {
        "ext", "yoneda", "roof", "lemma-check", "projcoh", "prop2-report"}


def _text_argv(argv: list[str]) -> list[str]:
    return [a for a in argv if a != "--json"]


# sha256 of the text (non --json) stdout of each README command line, keyed
# by that line without --json; recorded before the commands returned their
# documents to `main`, which alone writes them.  lemma-check prints JSON
# lines either way.
README_TEXT_DIGESTS = {
    "ext fixture:kx3_simple fixture:kx3_simple --degree 0 1 2":
        "f4d3f687b162715c62a3376d517dcbb5901a0cf5ca00d3d967a0244b115dd976",
    "yoneda fixture:ka3_ses_12 fixture:ka3_ses_23":
        "5542e6e6641be45065f32ccb294e7567337a42e20e4032336f2d45ba8c2663eb",
    "roof fixture:kx3_ses_top fixture:kx3_ses_bottom":
        "ccbc36054eed4a5c4c331c6965a454dbc916903c467af9efd8061e685d454c97",
    "lemma-check --filtration fixture:kx3_filtration":
        "a6f8896917f7d478761256e996ff39173b333fdb2c611938fc4ada49d43e863f",
    "lemma-check --random 0xBEEF 20 --field f2":
        "b1db1dc361605af2c1d8d1221db7792ec704e4299f8d752eac5996999e195279",
    "projcoh P1xP1 'O(-6,-6)'":
        "e6814fe0f87ccb1329face0043e97a078e68cb205abb239ba59ebf6604705f5f",
    "projcoh P3 'Omega^1(-5)'":
        "bd8c435a7b3c221b138cd0b25b9358e0b66de433471ecfa78ef1f629f73a1f19",
    "projcoh --batch fixture:prop2_descriptors":
        "7a495977b96ac78354078392993f01913008ffdaded300156aebfcc51b26ac25",
    "prop2-report":
        "e5101fd794fa0a84168ef25d1365184845ebf2a8f5246de2c03889aa0062b322",
}


@pytest.mark.parametrize("argv", _README_COMMANDS,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(_README_COMMANDS)])
def test_readme_text_output_is_pinned(capsys, argv):
    rc, out = run(capsys, _text_argv(argv))
    assert rc == 0
    digest = README_TEXT_DIGESTS[shlex.join(_text_argv(argv))]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", _README_COMMANDS,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(_README_COMMANDS)])
def test_readme_command_lines_run(capsys, tmp_path, argv):
    """Each README line runs, with and without --json, and --out receives
    the bytes that stdout does."""
    out = tmp_path / "out.txt"
    for flags in ([], ["--json"]):
        assert main(_text_argv(argv) + flags + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = out.read_bytes()
        assert written
        assert run(capsys, _text_argv(argv) + flags) == (0, written.decode("utf-8"))


def test_only_main_writes_command_output():
    """Commands return their documents and `main` writes them: nothing but
    `main` calls `_emit`, nothing but `_emit` names stdout, and `print` is
    called only in `main`, with file=sys.stderr."""
    def to_stderr(call):
        return any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                   for k in call.keywords)

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    stray = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        allowed = set()
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and ((node.func.id == "_emit" and owner == "main") or (
                        node.func.id == "print" and owner == "main" and to_stderr(node)))):
                allowed.add(node.func)
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ((name in ("_emit", "print") and node not in allowed)
                    or (name in ("stdout", "__stdout__") and owner != "_emit")):
                stray.append(f"{owner}:{node.lineno} {name}")
    assert not stray, stray


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "roofext.cli", "projcoh", "P3", "O(-2)", "--json"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["chi"] == 0


# -- the benchmark's fixture invocations ---------------------------------------


def _bench_cli_commands() -> dict:
    """CLI_COMMANDS of perfbench/run.py, read off its source without importing it."""
    src = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for node in ast.parse(src.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLI_COMMANDS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no CLI_COMMANDS")


def test_fixture_commands_never_clear_denominators(monkeypatch, tmp_path):
    """All rational data of the benchmark's nine fixture invocations is
    integral, so their products, reductions and eliminations over Q take
    the one type test and never rescan an array for its denominators."""
    cleared, eliminated = [], []
    clear, eliminate = linalg._clear_denominators, linalg._eliminate_qq
    monkeypatch.setattr(linalg, "_clear_denominators",
                        lambda a: cleared.append(a.shape) or clear(a))
    monkeypatch.setattr(linalg, "_eliminate_qq",
                        lambda a: eliminated.append(a.shape) or eliminate(a))
    commands = _bench_cli_commands()
    assert len(commands) == 9
    for name, argv in commands.items():
        assert main(argv + ["--json", "--out", str(tmp_path / "out.json")]) == 0, name
    assert eliminated and not cleared
