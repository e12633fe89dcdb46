#!/usr/bin/env python3
"""roofext benchmark: exact-verdict workloads with a traced per-layer split.

Run from the repository root; roofext is imported from ./src.

    python3 perfbench/run.py                     # every workload, tracing off
    python3 perfbench/run.py --trace 1           # every workload, per-layer split
    python3 perfbench/run.py --workload lemma-fp --seed 7 --seconds 25 --trace 0

Each workload is a closed loop with one caller, in this one process and on
one thread: the next instance is drawn only after the previous verdict is in.
The seed only drives the instance draws; the library receives the drawn
instances.  Every verdict is checked exactly, and in every run the first
items of the workload's pinned seed are replayed: their canonical lines must
hash to the digest recorded at the seed commit (pinned.json).

Human-readable lines come first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  The exit status is 0 when
every check passed, 1 when a verdict, a digest or a command failed, and 2 when
roofext cannot be imported from ./src.  A result file and, for traced runs,
the spans are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    from roofext import cli, ext, instances, roofs
    from roofext.linalg import field_from_name
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"found {cli.__file__} instead")
except ImportError as exc:
    print(f"perfbench: cannot import roofext from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

from tracer import JSON_LOADERS, SPANNED, SPANNED_METHODS, Tracer  # noqa: E402

F2, F3, QQ = field_from_name("f2"), field_from_name("f3"), field_from_name("q")
PINNED = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
SETUP_PROBES = 5
clock = time.perf_counter


@dataclass
class Item:
    """One drawn and verified instance (or one CLI command)."""

    total_s: float      # draw plus verdict
    check_s: float      # verdict only
    ok: bool
    line: dict          # canonical output line; goes into the digest


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _coords(element) -> list:
    fld = element.source.field
    return [fld.fmt(v) for v in element.coords.a[:, 0]]


# -- workloads -----------------------------------------------------------------------
#
# lemma-fp and lemma-q run the headline computation (criterion 1's mix) over
# F2/F3 and over Q; roofs-fp runs criterion 4's mix of SES pairs and triples;
# cli-fixtures runs the six CLI commands on the bundled fixtures.  perfbench/
# README.md says why each exists and which layer it stresses.


class Lemma:
    """Random filtrations F1 < F2 < G; the verdict is that alpha = alpha2 * alpha1 is 0."""

    def __init__(self, fields):
        self.fields = fields

    def warm(self) -> None:
        roofs.filtration_two_class(instances.kx3_filtration(self.fields[0]))

    def item(self, rng: Random, i: int) -> Item:
        fld = self.fields[i % len(self.fields)]
        t0 = clock()
        filt = instances.random_filtration(rng, fld, max_dim=6)
        t1 = clock()
        _, _, alpha, report = roofs.filtration_two_class(filt)
        ok = ext.is_trivial(alpha) and report["composite_class"]["trivial"]
        t2 = clock()
        line = {"i": i, "field": fld.name, "dims": report["module_dims"],
                "ext_dims": report["ext_dims"], "alpha_trivial": ok,
                **{k: report[k] for k in ("bottom_class", "top_class", "composite_class")}}
        return Item(t2 - t0, t2 - t1, ok, line)


def _pair_verdict(e1, e2):
    product = ext.yoneda_product(ext.class_of_extension(e1), ext.class_of_extension(e2))
    composite = roofs.compose_roofs(roofs.ses_to_roof(e1), roofs.ses_to_roof(e2).shift(1))
    return roofs.to_ext_class(composite) == product, product


def _seq_dims(*seqs) -> list:
    return [[m.dim for m in e.mods] for e in seqs]


class Roofs:
    """Criterion 4: two SES pairs (roof route == cocycle route) per SES triple
    (associativity of roof composition), fields alternating F2/F3."""

    def warm(self) -> None:
        _pair_verdict(instances.ka3_first_step(F3), instances.ka3_second_step(F3))

    def item(self, rng: Random, i: int) -> Item:
        fld = F2 if i % 2 == 0 else F3
        if i % 3 != 2:
            t0 = clock()
            e1, e2 = instances.random_ses_pair(rng, fld)
            t1 = clock()
            ok, product = _pair_verdict(e1, e2)
            t2 = clock()
            line = {"i": i, "kind": "pair", "field": fld.name, "dims": _seq_dims(e1, e2),
                    "agree": ok, "product": _coords(product)}
            return Item(t2 - t0, t2 - t1, ok, line)
        t0 = clock()
        e1, e2, e3 = instances.random_ses_triple(rng, fld)
        t1 = clock()
        r1 = roofs.ses_to_roof(e1)
        r2 = roofs.ses_to_roof(e2).shift(1)
        r3 = roofs.ses_to_roof(e3).shift(2)
        left = roofs.compose_roofs(roofs.compose_roofs(r1, r2), r3)
        right = roofs.compose_roofs(r1, roofs.compose_roofs(r2, r3))
        ok = bool(roofs.roof_equal(left, right))
        t2 = clock()
        line = {"i": i, "kind": "triple", "field": fld.name,
                "dims": _seq_dims(e1, e2, e3), "associative": ok}
        return Item(t2 - t0, t2 - t1, ok, line)


# Nine invocations of the six commands.  An odd count keeps the pooled p50
# and p95 inside one command's distribution rather than on the boundary
# between two, where they would jump from run to run.  Only basis-independent
# fields are compared: Ext coordinates of JSON-loaded algebras depend on the
# generator picker and may legitimately change.
CLI_COMMANDS = {
    "ext-kx3": ["ext", "fixture:kx3_simple", "fixture:kx3_simple", "--degree", "0", "1", "2"],
    "ext-ka3": ["ext", "fixture:ka3_simple1", "fixture:ka3_simple3", "--degree", "0", "1", "2"],
    "yoneda-ka3": ["yoneda", "fixture:ka3_ses_12", "fixture:ka3_ses_23"],
    "roof-kx3": ["roof", "fixture:kx3_ses_top", "fixture:kx3_ses_bottom"],
    "roof-ka3": ["roof", "fixture:ka3_ses_12", "fixture:ka3_ses_23"],
    "lemma-check": ["lemma-check", "--filtration", "fixture:kx3_filtration"],
    "projcoh": ["projcoh", "--batch", "fixture:prop2_descriptors"],
    "projcoh-p3": ["projcoh", "P3", "Omega^1(-5)"],
    "prop2-report": ["prop2-report"],
}


def _cli_projection(name: str, docs: list[dict]) -> tuple[dict, bool]:
    """Basis-independent fields of a command's output, and its own verdict."""
    doc = docs[0]
    command = CLI_COMMANDS[name][0]
    if command == "ext":
        return {"field": doc["field"], "dims": doc["dims"]}, True
    if command == "yoneda":
        flags = {k: doc[k]["trivial"] for k in
                 ("first_class", "second_class", "product", "splice_class")}
        ok = doc["splice_matches_product"]
        return {"degrees": doc["degrees"], "trivial": flags, "splice_matches_product": ok}, ok
    if command == "roof":
        ok = doc["matches_yoneda_product"]
        return {"apex_degrees": doc["apex_degrees"],
                "trivial": doc["composite_class"]["trivial"],
                "matches_yoneda_product": ok}, ok
    if command == "lemma-check":
        lines = [{k: v for k, v in d.items() if not k.endswith("coords")} for d in docs]
        return {"lines": lines}, all(d.get("alpha_trivial", True) for d in docs[1:])
    if command == "projcoh":
        return doc, True
    return {"summary": doc["summary"],
            "dims": [[s["dim"] for s in doc[c]] for c in ("chain1", "chain2")]}, True


class CliFixtures:
    """The CLI commands in-process through cli.main(... --json --out TMP); each
    round runs all nine invocations in an order shuffled by the seed."""

    def __init__(self):
        self.order: list[str] = []
        self.out = RESULTS / f"cli-out-{os.getpid()}.json"
        self.expected = PINNED["cli-fixtures"]["commands"]
        self.times: dict[str, list[float]] = {n: [] for n in CLI_COMMANDS}
        RESULTS.mkdir(exist_ok=True)

    def warm(self) -> None:
        for name in ("lemma-check", "projcoh"):
            self._call(name)

    def _call(self, name: str) -> tuple[int, float]:
        argv = CLI_COMMANDS[name] + ["--json", "--out", str(self.out)]
        t0 = clock()
        rc = cli.main(argv)
        return rc, clock() - t0

    def item(self, rng: Random, i: int) -> Item:
        if i % len(CLI_COMMANDS) == 0:
            self.order = sorted(CLI_COMMANDS)
            rng.shuffle(self.order)
        name = self.order[i % len(CLI_COMMANDS)]
        rc, dt = self._call(name)
        self.times[name].append(dt)
        line = {"i": i, "command": name, "exit": rc}
        ok = rc == 0
        if ok:
            text = self.out.read_text(encoding="utf-8")
            proj, ok = _cli_projection(name, [json.loads(t) for t in text.splitlines()])
            digest = hashlib.sha256(_canon(proj).encode()).hexdigest()
            ok = ok and digest == self.expected.get(name)
            line["output"] = digest
        return Item(dt, dt, ok, line)

    def close(self) -> None:
        self.out.unlink(missing_ok=True)


WORKLOADS = {
    "lemma-fp": lambda: Lemma([F2, F3]),
    "roofs-fp": Roofs,
    "cli-fixtures": CliFixtures,
    "lemma-q": lambda: Lemma([QQ]),
}
# The workloads BENCHMARK.json names.  The other two are kept for one-off
# and traced measurements but are too unsteady for a gate: a minute of
# roofs-fp holds about 120 items of 0.3 s to 2.5 s, so its figures move by
# 20-45% from one seed to the next, and lemma-q takes seconds to tens of
# seconds per instance.
BENCHMARK_WORKLOADS = ["lemma-fp", "cli-fixtures"]
# Tail percentile per workload, fixed so that a faster commit (more samples)
# does not report a higher percentile; at the seed commit a 60 s run has at
# least forty samples beyond it.  lemma-fp uses p90, not p95: its p95 moved by
# 20% between seeds.
TAIL_PERCENTILE = {"lemma-fp": 90, "cli-fixtures": 95, "roofs-fp": 75, "lemma-q": 50}


# -- measuring ---------------------------------------------------------------------------


@dataclass
class Loop:
    wall_s: float       # without the host probes
    items: list[Item]
    digest: str
    failures: list[dict] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    probe_before: list[int] = field(default_factory=list)  # per item: last probe before it

    @property
    def host(self) -> float:
        """Time scale of this loop: REF_PROBE_S over its mean probe time."""
        return REF_PROBE_S / statistics.fmean(self.probes)

    def scales(self) -> list[float]:
        """Per item: REF_PROBE_S over the mean of the probes around it."""
        p = self.probes
        return [2 * REF_PROBE_S / (p[k] + p[k + 1]) for k in self.probe_before]


# Host speed.  On the two-core VM this was written on, the host flips between
# a fast and a slow state about once a second, and the share of time spent in
# each differs from one run to the next by enough to move a run's figures by
# 30%; CPU time tracks wall time, so it is host speed, not scheduling.  A
# fixed pure-Python probe that touches no roofext code runs between items, at
# most every PROBE_EVERY_S, and each item's time is multiplied by
# REF_PROBE_S / (mean of the probes just before and after it): it reads as on
# a host where the probe takes REF_PROBE_S.  A change to roofext cannot move
# the probe.  Raw figures are kept in the result file.
REF_PROBE_S = 0.003
PROBE_EVERY_S = 0.25


def probe_seconds() -> float:
    """Time of one run of the fixed probe, with the garbage collector paused."""
    gc.disable()
    try:
        t0 = clock()
        acc, total = Fraction(0), 0
        for k in range(1, 800):
            acc += Fraction(k % 7 - 3, k % 5 + 1)
            total += (k * k) % 11
        mat = np.arange(36, dtype=object).reshape(6, 6)
        for _ in range(40):
            mat = mat.dot(mat) % 5
        return clock() - t0
    finally:
        gc.enable()


def run_loop(workload, seed: int, seconds: float | None = None,
             count: int | None = None, tracer: Tracer | None = None) -> Loop:
    """Draw and verify items from Random(seed) until `seconds` have passed
    (always at least one item) or, with `count`, exactly that many."""
    rng = Random(seed)
    digest = hashlib.sha256()
    items: list[Item] = []
    failures: list[dict] = []
    probes = [probe_seconds()]
    probe_before: list[int] = []
    probing = 0.0
    last_probe = start = clock()
    i = 0
    while (i < count) if count is not None else (i == 0 or clock() - start < seconds):
        if tracer is not None:
            tracer.instance_id = i
        try:
            item = workload.item(rng, i)
        except Exception as exc:  # an exception is a failed verdict; the loop goes on
            item = Item(0.0, 0.0, False, {"i": i, "error": f"{type(exc).__name__}: {exc}"})
        if not item.ok:
            failures.append(item.line)
        digest.update((_canon(item.line) + "\n").encode())
        items.append(item)
        probe_before.append(len(probes) - 1)
        i += 1
        if clock() - last_probe >= PROBE_EVERY_S:
            t0 = clock()
            probes.append(probe_seconds())
            last_probe = clock()
            probing += last_probe - t0
    wall = clock() - start - probing
    if probe_before[-1] == len(probes) - 1:
        probes.append(probe_seconds())
    return Loop(wall, items, digest.hexdigest(), failures, probes, probe_before)


def pinned_check(name: str, workload) -> dict:
    """Replay the first items of the pinned seed and compare their digest."""
    pin = PINNED[name]
    loop = run_loop(workload, pin["seed"], count=pin["items"])
    return {"seed": pin["seed"], "items": pin["items"], "digest": loop.digest,
            "ok": loop.digest == pin["sha256"] and not loop.failures}


def tail(values: list[float], target: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the workload's fixed
    nearest-rank percentile, lowered only when fewer than ten samples lie
    beyond it."""
    n = len(values)
    for p in (target, 90, 75, 50):
        rank = max(1, math.ceil(n * p / 100))
        if p <= target and n - rank >= 10:
            break
    return sorted(values)[rank - 1], p, n - rank


def setup_seconds(name: str) -> tuple[float, list[float]]:
    """Median, at reference host speed, of the wall time of fresh interpreters
    that import roofext and warm the workload up; and the raw times.

    The child probes the host itself, after its imports and after the
    warm-up, because it may run on the other core; the probe time is taken
    out of its wall time."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        child = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe", name],
                               check=True, cwd=ROOT, capture_output=True, text=True)
        wall = clock() - t0
        probes = json.loads(child.stdout)
        raw.append(wall - sum(probes))
        scaled.append(raw[-1] * len(probes) * REF_PROBE_S / sum(probes))
    return statistics.median(scaled), raw


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    setup_s, setup_raw = setup_seconds(name)
    workload = WORKLOADS[name]()
    workload.warm()
    pin = pinned_check(name, WORKLOADS[name]())
    # Read before the timed loop: set-up and the pinned replay have the same
    # inputs in every run, so the figure does not depend on the seed.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop = run_loop(workload, seed, seconds)
    _close(workload)
    raw_totals = [it.total_s * 1e3 for it in loop.items]
    raw_checks = [it.check_s * 1e3 for it in loop.items]
    scales = loop.scales()
    totals = [t * f for t, f in zip(raw_totals, scales)]
    checks = [t * f for t, f in zip(raw_checks, scales)]
    host = sum(totals) / sum(raw_totals) if sum(raw_totals) else loop.host
    target = TAIL_PERCENTILE[name]
    inst_tail, inst_p, inst_beyond = tail(totals, target)
    check_tail, check_p, check_beyond = tail(checks, target)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "instances_per_s": _metric(len(loop.items) / (loop.wall_s * host), "1/s"),
        "instance_ms_p50": _metric(statistics.median(totals), "ms"),
        "instance_ms_tail": _metric(inst_tail, "ms"),
        "check_ms_p50": _metric(statistics.median(checks), "ms"),
        "check_ms_tail": _metric(check_tail, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    details = {
        "samples": len(loop.items), "wall_s": loop.wall_s,
        "host": {"scale": loop.host, "probes": len(loop.probes),
                 "probe_ms_min": min(loop.probes) * 1e3, "probe_ms_max": max(loop.probes) * 1e3},
        "raw": {"setup_s": setup_raw, "instances_per_s": len(loop.items) / loop.wall_s,
                "instance_ms_p50": statistics.median(raw_totals),
                "instance_ms_tail": tail(raw_totals, target)[0],
                "check_ms_p50": statistics.median(raw_checks),
                "check_ms_tail": tail(raw_checks, target)[0]},
        "instance_ms_tail": {"percentile": inst_p, "beyond": inst_beyond},
        "check_ms_tail": {"percentile": check_p, "beyond": check_beyond},
        "failed_share": len(loop.failures) / len(loop.items),
        "digest": loop.digest, "pinned": pin, "failures": loop.failures[:20],
    }
    if isinstance(workload, CliFixtures):
        details["command_ms_p50"] = {n: statistics.median(t) * 1e3
                                     for n, t in workload.times.items() if t}
    return _result(name, seed, loop, pin, metrics, details)


def per_layer(name: str, seed: int, seconds: float) -> dict:
    """Untraced for a third of the time, then the same items traced."""
    plain_wl = WORKLOADS[name]()
    plain_wl.warm()
    plain = run_loop(plain_wl, seed, seconds / 3)
    _close(plain_wl)
    traced_wl = WORKLOADS[name]()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(traced_wl, seed, count=len(plain.items), tracer=tracer)
    finally:
        tracer.restore()
        _close(traced_wl)
    pin = pinned_check(name, WORKLOADS[name]())
    agg = tracer.aggregate()
    metrics = {}
    spans = [f"{mod}.{fn}" for mod, funcs in SPANNED.items() for fn in funcs
             if not (mod == "jsonio" and fn in JSON_LOADERS)]
    spans += [f"{mod}.{cls}.{meth}" for mod, cls, meth in SPANNED_METHODS]
    for span in spans:
        stats = agg.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = _metric(stats["calls"], "count")
        metrics[f"{span}.self_s"] = _metric(stats["self_s"], "s")
    calls = {span: s["calls"] for span, s in agg.items()}
    counts = tracer.counts

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    generators = [f"instances.{f}" for f in
                  ("random_filtration", "random_ses_pair", "random_ses_triple")]
    drawn = sum(calls.get(g, 0) for g in generators)
    sub_draws = tracer.children_of("instances.random_module", "algebra.submodule")
    layer_ratios = {
        "instances.draw.accept_ratio": (drawn, counts["algebra.random_bound_quiver_algebra"]),
        "instances.random_module.accept_ratio": (calls.get("instances.random_module", 0),
                                                 sub_draws),
        "linalg.IncrementalSpan.add.accept_ratio": (
            counts["linalg.IncrementalSpan.add.accepted"],
            calls.get("linalg.IncrementalSpan.add", 0)),
        "ext.minimal_generators.greedy_share": (counts["ext._greedy_generators"],
                                                calls.get("ext.minimal_generators", 0)),
        "ext.ext_group.nonzero_ratio": (counts["ext.ext_group.nonzero"],
                                        calls.get("ext.ext_group", 0)),
    }
    for key, (num, den) in layer_ratios.items():
        metrics[key] = _metric(ratio(num, den), "ratio")
    metrics["algebra.Module.act.calls"] = _metric(counts["algebra.Module.act"], "count")
    metrics["linalg.rref.max_cells"] = _metric(tracer.maxima.get("linalg.rref.max_cells", 0),
                                               "count")
    metrics["ext.resolution.max_rank"] = _metric(
        tracer.maxima.get("ext.resolution.max_rank", 0), "count")
    metrics["jsonio.load.self_s"] = _metric(
        sum(agg.get(f"jsonio.{f}", {"self_s": 0.0})["self_s"] for f in JSON_LOADERS), "s")
    for cmd in sorted({argv[0] for argv in CLI_COMMANDS.values()}):
        samples = [t for n, ts in getattr(plain_wl, "times", {}).items()
                   if CLI_COMMANDS[n][0] == cmd for t in ts]
        metrics[f"cli.{cmd}.ms_p50"] = _metric(
            statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    # Inclusive shares of the traced wall time, for the profile ROADMAP records.
    generating = sum(agg.get(g, {"total_s": 0.0})["total_s"] for g in generators)
    metrics["instances.share_of_wall"] = _metric(generating / traced.wall_s, "ratio")
    metrics["ext.minimal_generators.share_of_wall"] = _metric(
        agg.get("ext.minimal_generators", {"total_s": 0.0})["total_s"] / traced.wall_s, "ratio")
    # Both walls at reference host speed, like the end-to-end times.
    untraced_s, traced_s = plain.wall_s * plain.host, traced.wall_s * traced.host
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")

    failures = plain.failures + traced.failures
    if traced.digest != plain.digest:
        failures.append({"error": "traced and untraced digests differ",
                         "untraced": plain.digest, "traced": traced.digest})
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{name}-seed{seed}.spans.tsv"
    tracer.write(spans_path)
    details = {
        "samples": len(traced.items), "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s, "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "ratio_bases": {k: {"num": n, "den": d} for k, (n, d) in layer_ratios.items()},
        "digest_untraced": plain.digest, "digest_traced": traced.digest,
        "pinned": pin, "failures": failures[:20],
        "spans_by_name": agg,
    }
    loop = Loop(plain.wall_s + traced.wall_s, plain.items + traced.items,
                traced.digest, failures)
    return _result(name, seed, loop, pin, metrics, details)


def _close(workload) -> None:
    if hasattr(workload, "close"):
        workload.close()


def _result(name, seed, loop: Loop, pin: dict, metrics: dict, details: dict) -> dict:
    failed = len(loop.failures) + (0 if pin["ok"] else 1)
    return {"workload": name, "seed": seed, "correct": failed == 0,
            "attempted": len(loop.items) + 1, "failed": failed,
            "metrics": metrics, "details": details}


# -- environment and output -----------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(result: dict, trace: int, env: dict) -> None:
    name = result["workload"]
    print(f"== {name} seed={result['seed']} trace={trace} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    d = result["details"]
    for key, m in result["metrics"].items():
        extra = ""
        if key in ("instance_ms_tail", "check_ms_tail"):
            extra = f"  (p{d[key]['percentile']:g}, {d[key]['beyond']} of {d['samples']} beyond)"
        elif key in d.get("ratio_bases", {}):
            extra = f"  ({d['ratio_bases'][key]['num']}/{d['ratio_bases'][key]['den']})"
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}{extra}")
    if trace:
        print(f"  {'trace.untraced_wall_s':44s} {d['untraced_wall_s']:.6g} s")
        print(f"  {'trace.traced_wall_s':44s} {d['traced_wall_s']:.6g} s  ({d['spans']} spans)")
    else:
        print(f"  {'failed_share':44s} {d['failed_share']:.6g} share  "
              f"({result['failed']}/{result['attempted']})")
        for cmd, ms in d.get("command_ms_p50", {}).items():
            print(f"  {'command_ms_p50.' + cmd:44s} {ms:.6g} ms")
    print(f"  pinned digest (seed {d['pinned']['seed']:#x}, {d['pinned']['items']} items): "
          f"{'ok' if d['pinned']['ok'] else 'CHANGED ' + d['pinned']['digest']}")
    for failure in d["failures"]:
        print(f"  FAILED {_canon(failure)}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{result['seed']}-trace{trace}.json"
    path.write_text(json.dumps({"environment": env, **result}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS],
                        help="one workload, or all that BENCHMARK.json names")
    parser.add_argument("--seed", type=lambda s: int(s, 16) if s.lower().startswith("0x")
                        else int(s), default=None,
                        help="instance seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=60.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer split from a traced run")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        first = probe_seconds()
        WORKLOADS[args.setup_probe]().warm()
        print(json.dumps([first, probe_seconds()]))
        return 0
    names = BENCHMARK_WORKLOADS if args.workload == "all" else [args.workload]
    env = environment()
    print("environment: " + _canon(env))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        seed = PINNED[name]["seed"] if args.seed is None else args.seed
        run = per_layer if args.trace else end_to_end
        result = run(name, seed, args.seconds)
        report(result, args.trace, env)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(_canon(total), flush=True)
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
