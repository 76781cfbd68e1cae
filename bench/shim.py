"""Traced stand-in for `python -m jordanbounds` in the cold CLI workload.

    JBBENCH_SPAWN=<monotonic spawn time> JBBENCH_OUT=<file> JBBENCH_OP=<id> \
        JBBENCH_SPANS=<file> JBBENCH_PASS=<label> python3 bench/shim.py <arguments>

Installs the span wrappers, then calls jordanbounds.cli.main.  On exit it
appends its spans to JBBENCH_SPANS and writes a summary (per-function
totals, work counts and the spawn-to-main start-up time) to JBBENCH_OUT.
"""

import json
import os
import sys
import time

import tracer


def main() -> int:
    rec = tracer.Recorder()
    rec.op = int(os.environ["JBBENCH_OP"])
    import jordanbounds.cli  # noqa: F401
    tracer.install(rec)
    from jordanbounds import cli
    startup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(os.environ["JBBENCH_SPAWN"])
    try:
        return cli.main(sys.argv[1:])
    finally:
        rec.enabled = False
        out = os.environ["JBBENCH_OUT"]
        summary = rec.summary()
        summary["cli.startup_s"] = startup_s
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        rec.dump(os.environ["JBBENCH_SPANS"], os.environ["JBBENCH_PASS"])


if __name__ == "__main__":
    sys.exit(main())
