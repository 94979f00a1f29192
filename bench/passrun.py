"""One workload pass in a fresh interpreter.

Usage: python -I passrun.py SRC_DIR CONFIG_JSON

Imports `firm.cli` from SRC_DIR and prints `ready` once it is importable
(the parent times set-up up to that line). With CONFIG_JSON `-` it stops
there. Otherwise it runs every invocation of the config in order through
`firm.cli.main`, with the tracer installed when the config asks for it, and
writes wall time, peak RSS, per-invocation outcomes and any spans to the
config's result path.
"""

import os
import sys

src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import firm.cli  # noqa: E402

if not os.path.abspath(firm.cli.__file__).startswith(src + os.sep):
    sys.exit(f"firm.cli was imported from {firm.cli.__file__}, not from {src}")
print("ready", flush=True)
if sys.argv[2] == "-":
    sys.exit(0)

import json  # noqa: E402
import time  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    config = json.load(fh)

tracer = None
if config["trace"]:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()

outcomes = []
start = time.perf_counter()
for argv in config["invocations"]:
    t0 = time.perf_counter()
    error = None
    try:
        code = firm.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code, error = exc.code, "SystemExit"
    except Exception as exc:  # noqa: BLE001 - a raising invocation is a failed one
        code, error = None, f"{type(exc).__name__}: {exc}"
    outcomes.append({"code": code, "error": error, "seconds": time.perf_counter() - t0})
wall = time.perf_counter() - start

# VmHWM is this process's own peak. ru_maxrss is not: Linux carries the
# parent's high-water mark across fork and exec into it.
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

result = {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "invocations": outcomes}
if tracer is not None:
    result["spans"] = tracer.spans
    result["missing_hooks"] = tracer.missing
with open(config["result"], "w", encoding="utf-8") as fh:
    json.dump(result, fh)
