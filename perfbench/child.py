"""One diqkd-cc CLI invocation in a fresh interpreter, timed from inside.

Usage: python child.py TIMINGS_JSON TRACE [CLI_ARG ...]

Writes {"t_import", "t_main0", "t_main1", "rc"[, "tally"]} to TIMINGS_JSON,
with times from time.perf_counter (the system-wide monotonic clock, so the
parent can subtract its own spawn time). With no CLI arguments it only
imports the CLI, which measures set-up alone. TRACE=1 wraps the layer entry
points with spans.py before calling the CLI and adds the per-layer tally.
"""
import json
import sys
import time

from diqkd_cc import cli

T_IMPORT = time.perf_counter()


def main() -> int:
    path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    record = {"t_import": T_IMPORT, "rc": 0}
    if argv:
        patches = None
        if trace:
            import spans
            recorder = spans.Recorder()
            patches = spans.install(recorder)
        t0 = time.perf_counter()
        rc = cli.main(argv)
        t1 = time.perf_counter()
        sys.stdout.flush()
        record.update(rc=rc, t_main0=t0, t_main1=t1)
        if patches is not None:
            cache = cli.polytope._strategy_matrix.cache_info()
            record["tally"] = spans.tally(recorder.spans, t1 - t0, cache)
    with open(path, "w") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
