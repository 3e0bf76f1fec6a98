"""The equivalence gate: each pinned output of the CLI, named once.

A pin is the sha256 of what one `qwhitney` argv writes, as first recorded,
and the ways it is run through `python -m qwhitney.cli` with `src/` on the
path: "file" (to `--json PATH` for `audit`, else `-o PATH`, on every usable
CPU), "pipe" (no output option, read from stdout) and "one-cpu" (as "file",
bound to one CPU, so nothing forks).  Every run has
`PYTHONWARNINGS=always::DeprecationWarning` and fails if it warns
"multi-threaded" (a fork after a thread has started, from Python 3.12 on).

`python tests/pins.py` replays every pin, prints one line per failing run,
naming the pin, and exits 1 if any fails.  To add a pin, add a row to PINS
with the digest of an output checked by hand.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SRC = str(Path(__file__).resolve().parent.parent / "src")


class Pin(NamedTuple):
    name: str
    sha256: str
    argv: str
    ways: tuple[str, ...] = ("file",)


POOLED_AND_ONE_CPU = ("file", "one-cpu")
INVERSE = "--check C13_INVERSE_RELATIONS --check C15_W_FROM_LAH --check C16_DOWLING_QI"
LAH33 = "table --family lah --m 3 --r 3"
PINS = (
    # Audit reports: the default grid, a deep point, a point whose products
    # need slots wider than 8 bytes, the default (m, r) grid at nmax 18 and
    # 22, and the three checks that read inverses down to r = -3.
    Pin("audit", "2df583ded9d014aa1bb48a51ff053cd02b78f992792cabe65e7fd02ee067b55d", "audit --quiet", POOLED_AND_ONE_CPU),
    Pin("audit-deep", "fa826a05f6b451abb2394fd04b95d494dfa3d50f12aa89bb64570d198953c5ff", "audit --grid 'm=2 r=1 nmax=16' --quiet"),
    Pin("audit-wide", "b88364e700c8bba286eda75d2c839f2007aa87a4bc5696f31d97c2d805b092ed", "audit --grid 'm=3 r=3 nmax=18' --quiet"),
    Pin("audit-n18", "6afeba87f72f821fcecd305d6c00a91889ae0d53e83e0a50ca7acf0b300ed2ff", "audit --grid nmax=18 --quiet"),
    Pin("audit-n22", "04def63eca3e8349a9982f839a5fcf21be210f68b20e1271726948198c24f180", "audit --grid nmax=22 --quiet"),
    Pin("audit-inv", "03bb828c786685a846b0281f850d930ba2acd9d57625de10e2f72eed4b6fb805", f"audit --grid 'm=1,2,3 r=-3..3 nmax=12' {INVERSE} --quiet", POOLED_AND_ONE_CPU),
    # Tables: lah (3,3) to row 40 (45 MB) by two processes and by one; to row
    # 24 as streamed formats and at q = -1/3; both paths of the fill step,
    # the 31-row one by two processes and by one.
    Pin("lah40", "c0f0cb460f2620e64de0af860943add39db75b39528fbbb0627ea1a7eafcf3d2", f"{LAH33} --nmax 40", ("file", "pipe", "one-cpu")),
    Pin("t24.json", "5801543d619277049ba3e466ce78515e048576140b52b6387bb654f5ecf0c3f1", f"{LAH33} --nmax 24 --format json"),
    Pin("t24.latex", "06a5410e94cc2428bf29748a7551f4b394a9be7fb7b43f595b8a8354104a9b8d", f"{LAH33} --nmax 24 --format latex"),
    Pin("t24.csv", "9f9be03315d63e7a6a21df760de8fa55dcbbe0bf82e022e5c07542ba129fcac0", f"{LAH33} --nmax 24 --format csv"),
    Pin("tq.text", "0a98d368bc1d1d256ddf3609e2e713147ec82e7f293484e651770e6f8c317ec0", f"{LAH33} --nmax 24 --q=-1/3"),
    Pin("tq.csv", "2798e2982537e71a2f9b7e61ae462bb59fdeb063b2efc0360ebedeeeb22c1a99", f"{LAH33} --nmax 24 --q=-1/3 --format csv"),
    Pin("step1", "d9920d8260e6c684e77e3f3fed53fe1967ecd7772d82c5b25f042c232781363a", "table --family lah --m 2 --r -3 --nmax 24"),
    Pin("step2", "1345dd8f08c26f75f9ad531a8b533133d571c3061ec3a5736d0ab211b0e7c9bf", "table --family w1 --m 2 --r 3 --nmax 24"),
    Pin("step3", "9cbcb12093e9a08827c6ffc05b8297745c890b9a505e91656978a862f12b6fbe", "table --family lah --m 1 --r -1 --nmax 30 --format latex", POOLED_AND_ONE_CPU),
    # The one-process commands at a length where a table would fork; expand at
    # a high column, a long order and sparse denominators (one factor, r < 0).
    Pin("dowling40.text", "410da3d75cca4093d8ea76a236fdc4bf1da6a0c2bc41b2902acd53578a75244a", "dowling --form 1 --m 3 --r 3 --nmax 40 --format text"),
    Pin("dowling40.csv", "de24c26f3e0766d74c28bb5d59221959032a70fcc4b3e55338a465df78e9bf44", "dowling --form 1 --m 3 --r 3 --nmax 40 --format csv"),
    Pin("dowling40.json", "7390b4ba0cc861cd50af8157a90d0fe9dc51df8eedcd429e0b13b5e68de36639", "dowling --form 1 --m 3 --r 3 --nmax 40 --format json"),
    Pin("dowling40.latex", "04311324a4f79e4dcd7a09d2ace17c1e9fc1c893c34110612f26e5b988067ab7", "dowling --form 1 --m 3 --r 3 --nmax 40 --format latex"),
    Pin("expand60.text", "191cf19f59991373fc9d6d894121d848d2a3758b4ea5a5a26c896ce762f610e2", "expand --k 3 --m 3 --r 3 --order 60 --format text"),
    Pin("expand60.csv", "d48488d1e07661644e34ce210e8b9c47062d4a8ddaf4209d8880cf91b6de2e70", "expand --k 3 --m 3 --r 3 --order 60 --format csv"),
    Pin("expand60.json", "e7b20f7bcebbe6ce04b08a9c6ef0c370e2ede51e89b5e11c90e2044348ccd7b3", "expand --k 3 --m 3 --r 3 --order 60 --format json"),
    Pin("expand60.latex", "c07ac0b181c08032824d0acda43a3d7b021a00b6c9c6e7050aea29f7133de4ed", "expand --k 3 --m 3 --r 3 --order 60 --format latex"),
    Pin("expand-k80", "e07124a670f161dda7614673864ebdc2271a21e22804e7915c4773c0c6d78fee", "expand --k 80 --m 3 --r 3 --order 82"),
    Pin("expand-k5", "8c722ce9ff528e3198adf709ed90f2df7b630f7cf78f993cc71291376bbcff9b", "expand --k 5 --m 3 --r 3 --order 120"),
    Pin("expand-k0", "7cb53cd0bb9371c72336e9465e719a2f65f067f847e30569d6acd6703d6bc4ee", "expand --k 0 --m 1 --r 0 --order 3000"),
    Pin("expand-k2", "d8a0ac00d08dc710dbef71e2f85e1c9f79a0f3c10619c22ce20a03aab6ba70eb", "expand --k 2 --m 2 --r -2 --order 200"),
)
DIGESTS = {pin.name: pin.sha256 for pin in PINS}


def _sha256(stream) -> str:
    digest = hashlib.sha256()
    for chunk in iter(lambda: stream.read(1 << 20), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _failure(pin: Pin, way: str) -> str | None:
    """Run the pin one way; the line that says how it failed, or None."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="always::DeprecationWarning")
    args = shlex.split(pin.argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if way != "pipe":
            args += ["--json" if args[0] == "audit" else "-o", out]
        with open(os.path.join(tmp, "err"), "w+b") as err:
            one_cpu = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if way == "one-cpu" else None
            argv = [sys.executable, "-m", "qwhitney.cli", *args]
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, preexec_fn=one_cpu) as proc:
                digest = _sha256(proc.stdout)
            err.seek(0)
            stderr = err.read().decode(errors="replace").strip()
        if way != "pipe" and proc.returncode == 0:
            with open(out, "rb") as written:
                digest = _sha256(written)
    if proc.returncode != 0:
        return f"{pin.name} ({way}): exit {proc.returncode}: {stderr.splitlines()[-1] if stderr else ''}"
    if "multi-threaded" in stderr:
        return f"{pin.name} ({way}): stderr says multi-threaded: {stderr}"
    if digest != pin.sha256:
        return f"{pin.name} ({way}): sha256 {digest}, pinned {pin.sha256}"
    return None


def replay(pins=PINS):
    """The line of each failing run, in the order of `pins`."""
    return (line for pin in pins for way in pin.ways if (line := _failure(pin, way)) is not None)


def main(pins=PINS) -> int:
    failed = 0
    for line in replay(pins):
        print(line, flush=True)
        failed += 1
    print(f"{len(pins)} pins, {sum(len(pin.ways) for pin in pins)} runs: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
