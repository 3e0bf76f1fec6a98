"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import oracles
import run

sys.path.insert(0, str(run.ROOT / "src"))
import tracer  # noqa: E402  (needs the package on sys.path)

EXACT = (".calls", ".calls_large", ".term_pairs", ".hit_ratio")


def _runner(tmp_path, workload, name="w"):
    work = tmp_path / name
    work.mkdir()
    return run.Runner(workload, 7, work, tmp_path / f"spans-{name}.jsonl")


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == run._unit(name) for name in tracer.metric_names())


def test_traced_runs_repeat_counts_and_match_the_reference(tmp_path):
    first = _runner(tmp_path, run.WORKLOADS["audit-deep"], "a").call("trace")
    second_runner = _runner(tmp_path, run.WORKLOADS["audit-deep"], "b")
    second = second_runner.call("trace")
    # None would mean a digest mismatch: tracing left the output intact.
    assert first is not None and second is not None, second_runner.problems
    second_runner.verify()
    assert second_runner.failed == 0, second_runner.problems
    counts = [{k: v for k, v in r["layers"].items() if k.endswith(EXACT)} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["qalg.mul.calls"] > 0 and counts[0]["formulas.whitney2_explicit.calls"] > 0
    layers = first["layers"]
    # Self times partition the traced call into cli.main.
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], rel=1e-6)
    assert layers["trace.wall_s"] <= first["wall_s"]
    spans = [json.loads(line) for line in (tmp_path / "spans-b.jsonl").read_text().splitlines()]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    assert sum(1 for s in spans if s["name"].startswith("audit.")) == 35


def test_table_trace_touches_only_kernel_triangles_and_cli(tmp_path):
    report = _runner(tmp_path, run.WORKLOADS["table-lah"]).call("trace")
    assert report is not None
    layers = report["layers"]
    quiet = [k for k in layers if k.startswith(("formulas.", "audit.", "qalg.exact_div.", "upoly."))]
    assert quiet and all(layers[k] == 0 for k in quiet)
    assert layers["qalg.mul.calls"] > 0 and layers["cli.main.self_s"] > 0


def test_corrupted_reference_digest_counts_as_failure(tmp_path):
    wrong = dataclasses.replace(run.WORKLOADS["audit-deep"], digest="0" * 64)
    runner = _runner(tmp_path, wrong)
    assert runner.call("run") is None
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "digest" in runner.problems[0]


def test_audit_oracle_rejects_a_changed_verdict(tmp_path):
    runner = _runner(tmp_path, run.WORKLOADS["audit-deep"])
    assert runner.call("run") is not None
    doc = json.loads((runner.work / "output").read_bytes())
    assert oracles.check_audit(json.dumps(doc).encode(), [2], [1], 16, 35) == []
    doc["errata"] = doc["errata"][1:]
    assert oracles.check_audit(json.dumps(doc).encode(), [2], [1], 16, 35)
    doc = json.loads((runner.work / "output").read_bytes())
    doc["checks"][0]["status"] = "fail"
    assert oracles.check_audit(json.dumps(doc).encode(), [2], [1], 16, 35)
    # An oracle mismatch fails every call that produced the checked output.
    runner.workload = dataclasses.replace(runner.workload, check=lambda data, seed: ["mismatch"])
    runner.verify()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_lah_oracle_rejects_a_changed_coefficient(tmp_path):
    from qwhitney import cli

    out = tmp_path / "lah.txt"
    assert cli.main(["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "8", "-o", str(out)]) == 0
    text = out.read_text()
    assert oracles.check_lah_table(text.encode(), 3, 3, 8, 12345) == []
    row = text.split("\n")[8]
    bumped = re.sub(r"(\d+)\*q", lambda m: f"{int(m.group(1)) + 1}*q", row, count=1)
    corrupted = text.replace(row, bumped)
    assert corrupted != text
    assert oracles.check_lah_table(corrupted.encode(), 3, 3, 8, 12345)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
