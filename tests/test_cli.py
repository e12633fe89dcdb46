"""Command-line interface: commands, exit codes, determinism.

Every test drives `main(argv)` in-process and reads stdout through capsys;
one smoke test at the end exercises the installed console script.
"""

import hashlib
import json
import subprocess
import sys
from importlib import resources

import pytest

import roofext.cli as cli
from roofext.cli import main
from roofext.errors import AmbiguousChaseError, InvariantError


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


def test_ext_truncation_too_small(capsys):
    rc, _ = run(capsys, ["ext", "fixture:kx3_simple", "fixture:kx3_simple",
                         "--degree", "2", "--truncate", "1"])
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
    ["lemma-check", "--count", "0"],
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


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "roofext.cli", "projcoh", "P3", "O(-2)", "--json"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["chi"] == 0
