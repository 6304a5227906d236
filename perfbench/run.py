"""klayer benchmark: end-to-end and per-layer metrics of three CLI workloads.

    python3 perfbench/run.py --workload radial-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is ``src/klayer`` next to this
directory.  One single-threaded closed-loop client runs the workload's job
list (see workloads.py) over and over, each job a fresh interpreter started
only after the previous one finished, until the next pass would overrun
--seconds (at least one pass).  Every output is checked.

--trace 0 prints the end-to-end metrics: the median over passes of wall_s,
cpu_s and peak_rss_mb, and the median set-up time over every fresh
interpreter of the run.  --trace 1 alternates untraced and traced passes
(at least one of each), prints the per-layer metrics of the traced passes and
the tracing overhead, and checks that the machine-independent counts repeat
exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans, the run record and the counts seen per
seed are written under .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
HARD_LIMIT_S = 170.0  # the whole run, whatever --seconds says
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "KLAYER_THREADS")


class Client:
    """Starts one child interpreter at a time and collects its record."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self._n = 0

    def spawn(self, cli_args=(), traced=False):
        """Run one child; returns its record, or None if it left none."""
        self._n += 1
        record_path = self.work / f"record-{self._n}.json"
        argv = [sys.executable, str(CHILD), str(record_path)]
        argv += ["--trace"] if traced else []
        argv += list(cli_args)
        log_path = self.work / f"log-{self._n}.txt"
        with open(log_path, "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        record["setup_s"] = record["import_done"] - start
        record["exit_code"] = proc.returncode
        if proc.returncode != 0:
            record["log_tail"] = log_path.read_text()[-300:].strip()
        return record


def run_pass(client, jobs, references, traced, pass_dir):
    """Run the job list once; returns (records, problems per job)."""
    records, problems = [], []
    for job in jobs:
        out = pass_dir / job.name
        rec = client.spawn([*job.argv, "--out", str(out)], traced)
        found = []
        if rec is None:
            found.append(f"{job.name}: no record (crashed or timed out)")
        elif rec["exit_code"] != 0:
            found.append(f"{job.name}: exit code {rec['exit_code']}: "
                         f"{rec.get('log_tail', '')}")
        elif not Path(rec["klayer_file"]).resolve().is_relative_to(SRC.resolve()):
            found.append(f"{job.name}: klayer imported from {rec['klayer_file']}")
        else:
            ref = references.get(job.name)
            if ref is None:
                found.append(f"{job.name}: no reference values for these inputs")
            else:
                found += workloads.check(job, out, ref)
        records.append(rec)
        problems.append(found)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return records, problems


def _median(values):
    return statistics.median(values) if values else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "klayer").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args, level):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "level": level,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def check_counts(passes, args, source):
    """Exact-repeat check of the machine-independent counts within one seed.

    Compares the traced passes of this run with each other and with the
    counts an earlier run of the same workload, seed and source tree left in
    this checkout.  Returns the mismatches (determinism findings).
    """
    findings = []
    seen = [{k: m[k] for k in tracer.EXACT_COUNTS if m[k] is not None} for m in passes]
    for i, counts in enumerate(seen[1:], start=2):
        for key, value in counts.items():
            if value != seen[0].get(key):
                findings.append(f"{key}: traced pass {i} gave {value}, pass 1 gave "
                                f"{seen[0].get(key)}")
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}-{source[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for key, value in seen[0].items():
            if key in earlier and earlier[key] != value:
                findings.append(f"{key}: {value} now, {earlier[key]} in an earlier run "
                                "of this seed")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(seen[0], indent=1, sort_keys=True))
    return findings


def measure(client, jobs, refs, seconds, trace, t_start):
    """Repeat the job list until the next pass would overrun `seconds`.

    Returns [(traced, records, problems, pass seconds)].  With trace on,
    untraced and traced passes alternate and there is at least one of each.
    """
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        records, problems = run_pass(client, jobs, refs, traced,
                                     client.work / f"pass-{len(passes)}")
        passes.append((traced, records, problems, time.monotonic() - t0))
        next_end = time.monotonic() + passes[-1][3]
        if (not trace or len(passes) >= 2) and next_end > t_start + seconds:
            return passes
        if next_end > t_start + HARD_LIMIT_S:
            return passes


def pass_totals(passes, traced):
    """Per complete pass: wall and CPU seconds summed over its jobs, and the
    largest peak RSS (MB) among them."""
    walls, cpus, rss = [], [], []
    for is_traced, records, _, _ in passes:
        if is_traced == traced and all(records):
            walls.append(sum(r["wall_s"] for r in records))
            cpus.append(sum(r["cpu_s"] for r in records))
            rss.append(max(r["maxrss_kb"] for r in records) / 1024.0)
    return walls, cpus, rss


def end_to_end(passes):
    walls, cpus, rss = pass_totals(passes, traced=False)
    setup = [r["setup_s"] for p in passes for r in p[1] if r]
    samples = {"wall_s": walls, "setup_s": setup, "cpu_s": cpus, "peak_rss_mb": rss}
    metrics, lines = {}, []
    for name, unit in END_TO_END.items():
        vals = samples[name]
        metrics[name] = {"value": _median(vals), "unit": unit}
        if vals:
            lines.append(f"  {name:<12} {_median(vals):12.6f} {unit:<3} median of "
                         f"{len(vals)} (min {min(vals):.6f}, max {max(vals):.6f})")
    if walls:
        lines.append(f"  cpu_s/wall_s {_median(cpus) / _median(walls):.3f}")
    return metrics, lines


def per_layer(passes, args, source):
    """Median per-layer metrics over the traced passes, the tracing overhead
    and the determinism findings."""
    per_pass, missing = [], []
    for is_traced, records, _, _ in passes:
        if is_traced and all(records):
            values, missing = tracer.layer_metrics(
                [r["trace"] for r in records],
                statistics.median(r["import_s"] for r in records))
            per_pass.append(values)
    findings = check_counts(per_pass, args, source) if per_pass else []
    untraced_walls = pass_totals(passes, traced=False)[0]
    traced_walls = pass_totals(passes, traced=True)[0]
    overhead = None
    if untraced_walls and traced_walls:
        overhead = _median(traced_walls) / _median(untraced_walls) - 1.0
    metrics, lines = {}, []
    for name, (unit, _better, _needs) in tracer.METRICS.items():
        vals = [m[name] for m in per_pass]
        value = None
        if vals and None not in vals:
            # counts stay whole numbers
            ints = all(isinstance(v, int) for v in vals)
            value = statistics.median_low(vals) if ints else statistics.median(vals)
        if name == "trace.overhead_frac":
            value = overhead
        metrics[name] = {"value": value, "unit": unit}
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<34} {shown:>14} {unit}")
    if missing:
        lines.append("  absent (name no longer exists): " + ", ".join(missing))
    lines.append(f"  traced passes {len(per_pass)}, untraced passes {len(untraced_walls)}")
    lines += [f"  DETERMINISM {msg}" for msg in findings]
    return metrics, lines, findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "klayer" / "cli.py").is_file():
        print(f"error: no klayer sources at {SRC}/klayer", file=sys.stderr)
        return 2
    try:
        references = json.loads(REFERENCE.read_text())[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read reference values: {exc}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    level = workloads.level_of(args.seed)
    jobs = workloads.jobs(args.workload, args.seed)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    client = Client(work, t_start + HARD_LIMIT_S)
    try:
        # untimed warm-up: byte-code caches and the page cache fill here,
        # as they would after a user's first call
        warm = client.spawn()
        if warm is None or warm["rc"] != 0:
            print("error: `import klayer.cli` fails:", file=sys.stderr)
            print((work / "log-1.txt").read_text(), file=sys.stderr)
            return 2
        passes = measure(client, jobs, references.get(str(level), {}), args.seconds,
                         args.trace == 1, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p[1]) for p in passes)
    failures = [msg for p in passes for job_problems in p[2] for msg in job_problems]
    failed = sum(1 for p in passes for job_problems in p[2] if job_problems)
    record = run_record(args, level)
    lines = [f"perfbench workload={args.workload} seed={args.seed} level={level} "
             f"trace={args.trace} passes={len(passes)} ops={attempted} failed={failed} "
             f"failed_frac={failed / attempted:.4f}"]
    lines += [f"  FAILED {msg}" for msg in failures]
    if args.trace == 0:
        metrics, table = end_to_end(passes)
        findings = []
    else:
        metrics, table, findings = per_layer(passes, args, record["source_sha256"])
        spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_out.write_text(json.dumps(
            [{"pass": i, "job": job.name, **(rec["trace"] if rec else {})}
             for i, (is_traced, records, _, _) in enumerate(passes) if is_traced
             for job, rec in zip(jobs, records)]))
        table.append(f"  spans written to {spans_out.relative_to(ROOT)}")
    lines += table
    record["determinism_findings"] = findings
    record["failures"] = failures
    lines.append("run-record " + json.dumps(record, sort_keys=True))
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1, sort_keys=True))

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
