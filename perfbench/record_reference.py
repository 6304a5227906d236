"""Record the reference values every workload's outputs are checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each job of the named workloads (all by default) once per input level
with the klayer in src/, checks the outputs' invariants, and stores the
values that workloads.py compares in reference.json.  Re-record only in a
change whose purpose is to move those values, and state how far they moved.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    work = run.OUT / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    client = run.Client(work, deadline=float("inf"))
    try:
        for name in names:
            levels = {}
            for level in range(workloads.LEVELS):
                values = {}
                for job in workloads.jobs(name, seed=level):
                    out = work / name / str(level) / job.name
                    t0 = time.monotonic()
                    rec = client.spawn([*job.argv, "--out", str(out)])
                    if rec is None or rec["exit_code"] != 0:
                        print(f"{name} level {level} {job.name}: failed", file=sys.stderr)
                        return 1
                    problems = job.invariants(out)
                    if problems:
                        print("\n".join(problems), file=sys.stderr)
                        return 1
                    values[job.name] = job.values(out)
                    print(f"{name} level {level} {job.name}: "
                          f"{time.monotonic() - t0:.1f} s", flush=True)
                levels[str(level)] = values
            reference[name] = levels
            run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
