"""One benchmark process: runs one qwhitney CLI call in a fresh interpreter.

    python3 child.py setup
        import qwhitney.cli, build its parser, print "ready" and exit.
    python3 child.py run|trace RESULT_JSON SPANS_JSONL TRACE_ID ARG...
        call qwhitney.cli.main([ARG...]) and write its exit code, wall time
        and peak RSS to RESULT_JSON. In trace mode the layers are wrapped
        first (see tracer.py), the per-layer aggregates go into RESULT_JSON
        and the spans, tagged with TRACE_ID, into SPANS_JSONL.

The import happens before the clock starts, so wall time covers only the
call into cli.main: argument parsing, the work, rendering and writing.
"""

import json
import resource
import sys
import time

from qwhitney import cli

mode = sys.argv[1]
if mode == "setup":
    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.exit(0)

result_path, spans_path, trace_id, argv = sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
active = None
if mode == "trace":
    import tracer

    active = tracer.install()

start = time.perf_counter()
try:
    code = cli.main(argv)
except SystemExit as exc:
    code = exc.code
wall = time.perf_counter() - start

report = {
    "exit_code": code,
    "wall_s": wall,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}
if active is not None:
    report["layers"] = active.report()
    active.write_spans(spans_path, trace_id)
with open(result_path, "w") as fh:
    json.dump(report, fh)
