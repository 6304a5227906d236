"""Run one klayer CLI command in this fresh interpreter and write its record.

    python3 child.py RECORD [--trace] [CLI ARGS...]

With no CLI arguments only ``import klayer.cli`` runs (the warm-up).  The
record is a JSON object: the monotonic time at which the import finished (the
parent subtracts its spawn time to get the set-up time), the in-process import
time, then the wall and CPU seconds of ``klayer.cli.main`` alone, the peak
resident memory of the process, the exit code and, with --trace, the spans.
"""

import sys
import time


def main() -> int:
    record_path = sys.argv[1]
    cli_args = sys.argv[2:]
    traced = cli_args[:1] == ["--trace"]
    if traced:
        cli_args = cli_args[1:]

    start = time.perf_counter()
    import klayer.cli

    record = {
        "import_done": time.monotonic(),
        "import_s": time.perf_counter() - start,
        "klayer_file": klayer.__file__,
    }
    # imported only now, so the set-up time covers the interpreter and klayer
    import json
    import resource
    import traceback

    # nothing below may leave bytecode in the benchmark's directory
    sys.dont_write_bytecode = True
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    if cli_args:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = klayer.cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
        record["rc"] = rc
    else:
        record["rc"] = 0
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
