"""qwhitney benchmark: CLI workloads, each call timed in a fresh interpreter.

    python3 perfbench/run.py --workload audit-grid --seed 1 --seconds 55 --trace 0

BENCHMARK.json lists `audit-grid` and `table-lah`. `audit-deep` runs the
same way but is not listed: its big-operand multiplies made it the most
sensitive to the shared machine, with a run-to-run spread above the
largest bound a listed metric may have.

Every timed call runs in a new process (child.py). The package memoises
q-brackets, binomials, bracket powers, rising products and whole triangles
for the life of the process, and `triangles.clear_registry()` drops only
the triangles; a second call in the same process would time cache hits,
not the work a user pays for on each CLI call.

With --trace 0 the run repeats the workload until --seconds have passed
and reports the end-to-end metrics: the median wall time of the call into
cli.main, the median peak RSS of the process, and the median set-up time
(spawn, `import qwhitney.cli`, building the parser) over separate spawns,
SETUP_SPAWNS_PER_ROUND before each call so that they sample the whole run.
With --trace 1 it alternates untraced and traced calls (tracer.py) and
reports the per-layer metrics, with the tracing overhead.

Every output is checked against its recorded reference digest
and by oracles.py, outside the timed region. A call fails on a wrong exit
code, a digest mismatch or an oracle mismatch; `failed / attempted` is the
error rate. The commands are fixed, so their outputs have fixed digests;
the seed picks the extra evaluation point of the table oracle.

`--workload all` runs all three workloads in turn and prints each one's
metrics by name and unit.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"
SETUP_SPAWNS_PER_ROUND = 3
CHILD_TIMEOUT_S = 100


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # "{out}" stands for the output path
    digest: str  # sha256 of the output recorded when the benchmark was defined
    check: Callable[[bytes, int], list[str]]  # (output, seed) -> problems


def _audit_check(m_values, r_values, nmax, results):
    def check(data: bytes, seed: int) -> list[str]:
        return oracles.check_audit(data, m_values, r_values, nmax, results)

    return check


def _lah_check(data: bytes, seed: int) -> list[str]:
    point = random.Random(seed).randrange(3, oracles.PRIME - 1)
    return oracles.check_lah_table(data, 3, 3, 40, point)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "audit-grid",
            ("audit", "--quiet", "--json", "{out}"),
            "2df583ded9d014aa1bb48a51ff053cd02b78f992792cabe65e7fd02ee067b55d",
            _audit_check([1, 2, 3], [-2, -1, 0, 1, 2, 3], 10, 630),
        ),
        Workload(
            "audit-deep",
            ("audit", "--quiet", "--json", "{out}", "--grid", "m=2 r=1 nmax=16"),
            "fa826a05f6b451abb2394fd04b95d494dfa3d50f12aa89bb64570d198953c5ff",
            _audit_check([2], [1], 16, 35),
        ),
        Workload(
            "table-lah",
            ("table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "40", "-o", "{out}"),
            "c0f0cb460f2620e64de0af860943add39db75b39528fbbb0627ea1a7eafcf3d2",
            _lah_check,
        ),
    ]
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    # Set-up is timed with a bytecode cache, as an installed package has one.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_time(env: dict[str, str]) -> float:
    """Seconds from spawning a child until it has imported the CLI and built its parser."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(CHILD), "setup"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {err.decode(errors='replace').strip()}")
    return ready - start


class Runner:
    """Runs one workload's calls and checks each output.

    `call` checks the exit code and the output digest. The oracle is slow,
    so `verify` runs it once, after the timed calls, on the output they
    share: every call that passed the digest check wrote the same bytes.
    """

    def __init__(self, workload: Workload, seed: int, work: Path, spans: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spans = spans
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.matched = 0  # calls whose output had the reference digest
        self._output: bytes | None = None

    def call(self, mode: str) -> dict | None:
        """One call in a fresh process; returns the child's report, or None if it failed."""
        out = self.work / "output"
        result = self.work / "result.json"
        for path in (out, result):
            path.unlink(missing_ok=True)
        argv = [arg.replace("{out}", str(out)) for arg in self.workload.argv]
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(result), str(self.spans), self.workload.name, *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"no result within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not result.exists():
            return self._fail(f"child exited {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
        report = json.loads(result.read_text())
        if report["exit_code"] != 0:
            return self._fail(f"qwhitney exited {report['exit_code']}")
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.workload.digest:
            return self._fail(f"output digest {digest[:12]} != reference {self.workload.digest[:12]}")
        self.matched += 1
        self._output = data
        return report

    def verify(self) -> None:
        """Runs the oracle on the reference output; on a mismatch every matched call fails."""
        if self._output is None:
            return
        problems = self.workload.check(self._output, self.seed)
        if problems:
            self.failed += self.matched
            self.problems += ["oracle: " + problem for problem in problems[:3]]

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        return None


def measure(runner: Runner, seconds: int, trace: bool) -> dict[str, tuple[float, str]]:
    """Repeats the workload for up to `seconds`; returns {metric: (value, unit)}."""
    setup_time(runner.env)  # untimed: compiles the bytecode cache once
    walls, rss, layers, traced_walls, setups = [], [], [], [], []
    start = last = time.perf_counter()
    longest = 0.0
    # Whole rounds only, and none that would end past `seconds`.
    while last + longest - start <= seconds:
        if not trace:
            setups += [setup_time(runner.env) for _ in range(SETUP_SPAWNS_PER_ROUND)]
        report = runner.call("run")
        if report is not None:
            walls.append(report["wall_s"])
            rss.append(report["peak_rss_kb"] / 1024)
        if trace:
            report = runner.call("trace")
            if report is not None:
                traced_walls.append(report["wall_s"])
                layers.append(report["layers"])
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
    runner.verify()
    metrics: dict[str, tuple[float, str]] = {}
    if not walls or (trace and not layers):
        return metrics
    if not trace:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
        metrics["setup_s"] = (statistics.median(setups), "s")
        return metrics
    import tracer  # imports qwhitney only to name the metrics

    for name in tracer.metric_names():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(walls)
        else:
            # median_low: a measured sample, so counts stay whole numbers
            value = statistics.median_low(layer[name] for layer in layers)
        metrics[name] = (value, _unit(name))
    return metrics


def _unit(name: str) -> str:
    if name.endswith((".calls", ".calls_large", ".term_pairs")):
        return "count"
    if name.endswith(".hit_ratio"):
        return "ratio"
    return "s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit makes subprocess.run kill and reap the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qwhitney" / "cli.py").is_file():
        print(f"no qwhitney sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        work = Path(tempfile.mkdtemp(dir=WORK))
        runner = Runner(WORKLOADS[name], args.seed, work, WORK / f"spans-{name}.jsonl")
        try:
            found = measure(runner, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(work)
        attempted += runner.attempted
        failed += runner.failed
        for problem in runner.problems[:5]:
            print(f"{name}: {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"{name}: {runner.attempted} calls, {runner.failed} failed")
        rate = runner.failed / runner.attempted
        print(f"  {'error_rate':<40} {rate:.6g} ratio ({runner.failed}/{runner.attempted})")
        for key, (value, unit) in found.items():
            print(f"  {key:<40} {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
