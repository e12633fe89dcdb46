"""Smoke test of the benchmark: each workload at minimal size, and the gate.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _minimal(name: str, trace: bool = False) -> dict:
    """One item from the workload's pinned seed, then the pinned replay."""
    seed = run.PINNED[name]["seed"]
    return (run.per_layer if trace else run.end_to_end)(name, seed, 0)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_at_minimal_size(name):
    result = _minimal(name)
    assert result["correct"], result["details"]["failures"]
    assert result["details"]["pinned"]["ok"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_names_every_workload_it_measures():
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.BENCHMARK_WORKLOADS


@pytest.mark.parametrize("name, greedy", [("lemma-fp", False), ("roofs-fp", False),
                                          ("cli-fixtures", True)])
def test_traced_run_matches_untraced_and_restores(name, greedy):
    result = _minimal(name, trace=True)
    assert result["correct"], result["details"]["failures"]
    d = result["details"]
    assert d["digest_traced"] == d["digest_untraced"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert (result["metrics"]["ext.minimal_generators.greedy_share"]["value"] > 0) == greedy
    linalg = sys.modules["roofext.linalg"]
    for restored in (run.ext.solve, linalg.solve, run.ext.minimal_generators,
                     linalg.IncrementalSpan.add, sys.modules["roofext.algebra"].Module.act):
        assert not hasattr(restored, "__wrapped__")


def test_gate_trips_on_a_wrong_verdict(monkeypatch):
    monkeypatch.setattr(run.ext, "is_trivial", lambda element: not element.is_zero())
    result = _minimal("lemma-fp")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_gate_trips_on_a_wrong_cli_verdict(monkeypatch):
    monkeypatch.setattr(run.cli, "is_trivial", lambda element: True)
    result = _minimal("cli-fixtures")
    assert not result["correct"]


def test_changed_digest_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(run.PINNED["roofs-fp"], "sha256", "0" * 64)
    assert run.main(["--workload", "roofs-fp", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_refuses_to_run_without_roofext(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lemma-fp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
