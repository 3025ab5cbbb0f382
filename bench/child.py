"""One CLI run in a fresh interpreter, as a user would pay for it.

    python3 child.py RESULT SRC TRACE RUN_ID [CLI ARGS...]

Imports `spinphase.cli` from SRC, then (if CLI ARGS are given) times
`cli.main(argv)`, traced when TRACE is 1. Writes RESULT as JSON: the
monotonic clock once the import is done (CLOCK_MONOTONIC is system-wide, so
the parent can subtract its own spawn time), the exit code, the run time,
ru_maxrss, any exception, and the spans of a traced run. Exits with the
CLI's exit code, or 1 on an exception.
"""

import json
import resource
import sys
import time
import traceback


def main(argv):
    result_path, src, trace, run_id, cli_argv = argv[0], argv[1], argv[2] == "1", argv[3], argv[4:]
    sys.path.insert(0, src)
    import spinphase.cli as cli

    out = {"imported_at": time.monotonic(), "exit_code": 0, "error": None}
    if cli_argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer(run_id)
            out["wrapped"] = tracer.install()
        start = time.perf_counter()
        try:
            out["exit_code"] = cli.main(cli_argv)
        except Exception:
            out["exit_code"] = 1
            out["error"] = traceback.format_exc()
        out["run_s"] = time.perf_counter() - start
        if tracer is not None:
            out["spans"] = tracer.spans
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
