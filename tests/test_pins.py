"""Tests for the equivalence gate's replay, tests/pins.py."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pins

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The pins that replay in about 5 s on 2 vCPUs, each in every way it is pinned.
QUICK = ("audit", "lah40", "t24.json", "t24.latex", "t24.csv", "tq.text", "tq.csv", "step1", "step2", "step3")


def test_names_are_unique():
    assert len(pins.DIGESTS) == len(pins.PINS)


def test_benchmark_digests_are_the_pins(monkeypatch):
    # The benchmark checks each output against its own copy of a pinned
    # digest; a pin changed in one place only must fail here.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports oracles.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    pinned = {"audit-grid": "audit", "audit-deep": "audit-deep", "table-lah": "lah40"}
    assert {name: w.digest for name, w in run.WORKLOADS.items()} == {
        name: pins.DIGESTS[pin] for name, pin in pinned.items()
    }


def test_quick_pins_replay():
    quick = [pin for pin in pins.PINS if pin.name in QUICK]
    assert len(quick) == len(QUICK)
    assert list(pins.replay(quick)) == []


def test_altered_digest_is_named(capsys):
    # A copy of two cheap pins with one digest changed, and one argv the CLI refuses.
    table = [pin for pin in pins.PINS if pin.name in ("step1", "expand-k0")]
    table[1] = table[1]._replace(sha256="0" * 64)
    table.append(pins.Pin("refused", "0" * 64, "table --family nope --m 1 --r 0 --nmax 2"))
    assert pins.main(table) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"expand-k0 (file): sha256 {pins.DIGESTS['expand-k0']}, pinned {'0' * 64}",
        "refused (file): exit 2: qwhitney table: error: argument --family: unknown family 'nope'",
        "3 pins, 3 runs: 2 failed",
    ]


def test_multi_threaded_warning_fails_the_pin(tmp_path, monkeypatch):
    # A stand-in CLI that writes the empty output and, on import of its
    # package, the warning a fork after a thread has started gives; it shows
    # only because the replay turns DeprecationWarning on.
    package = tmp_path / "qwhitney"
    package.mkdir()
    (package / "__init__.py").write_text(
        "import warnings\nwarnings.warn('This process is multi-threaded, use of fork() may lead to deadlocks', DeprecationWarning)\n"
    )
    (package / "cli.py").write_text("import sys\nif '-o' in sys.argv:\n    open(sys.argv[-1], 'w').close()\n")
    monkeypatch.setattr(pins, "SRC", str(tmp_path))
    empty = hashlib.sha256(b"").hexdigest()
    lines = list(pins.replay([pins.Pin("forks", empty, "table", ("file", "pipe", "one-cpu"))]))
    assert [line.split(": ", 1)[0] for line in lines] == ["forks (file)", "forks (pipe)", "forks (one-cpu)"]
    assert all(": stderr says multi-threaded: " in line for line in lines)
