"""End-to-end benchmark of the normality-lab CLI over seeded workloads.

    python3 perfbench/run.py --workload digit-scan --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  Each
workload is a closed loop with one client: the job list runs in this
process through `normality_lab.cli.main(argv)`, one job after another,
with stdout captured.  Passes over the job list repeat until the next
one would end after --seconds; medians over passes are reported.  Every
output is checked against a stdlib oracle after the timed passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a warm-up and
an untraced pass, then two traced passes, and prints the per-layer
metrics; the
spans are written to perfbench/_traces/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from oracle import Oracle
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "normality_lab"

SETUP_REPEATS = 7
TRACED_PASSES = 2
JOB_LIMIT_S = 60.0
# no job may run later than this after the first timed job starts, so a
# hanging program still gives a result well inside the run's time limit
RUN_LIMIT_S = 140.0
MEMORY_LIMIT_BYTES = 4 << 30

END_TO_END_UNITS = {
    "wall_s": "s",
    "digits_per_s": "digits/s",
    "verify_paper_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Record:
    job: workloads.Job
    code: object
    out: str
    err: str
    elapsed: float
    scale: float = 1.0
    failure: str | None = None

    @property
    def scaled(self) -> float:
        """Elapsed time at the reference machine speed (see speed.py)."""
        return self.elapsed * self.scale


def import_cli():
    """A fresh import of the package from ./src, never an installed copy."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate the seeded inputs and parse every job's source."""
    start = perf_counter()
    cli = import_cli()
    inputs = workloads.make_inputs(seed, workdir)
    jobs = workloads.WORKLOADS[workload](inputs)
    parse = sys.modules[f"{PACKAGE}.sources"].parse_source_spec
    for job in jobs:
        argv = list(job.argv)
        if "--source" in argv:
            base = int(argv[argv.index("--base") + 1]) if "--base" in argv else None
            parse(argv[argv.index("--source") + 1], base)
    return perf_counter() - start, cli, inputs, jobs


def run_job(main, job: workloads.Job, limit: float, probe: SpeedProbe | None = None) -> Record:
    out, err = io.StringIO(), io.StringIO()
    code: object = None
    with probe or contextlib.nullcontext():
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except JobTimeout:
            code = f"timeout after {limit:.0f} s"
        except Exception:  # a crash fails this job; the run goes on and reports it
            code = "traceback"
            err.write(traceback.format_exc())
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    record = Record(job, code, out.getvalue(), err.getvalue(), elapsed)
    if probe is not None:
        record.elapsed -= probe.spent
        record.scale = probe.scale
    return record


def run_pass(main, jobs, deadline: float, on_job=None, probe: SpeedProbe | None = None) -> list[Record]:
    records = []
    for index, job in enumerate(jobs):
        gc.collect()
        left = min(JOB_LIMIT_S, deadline - perf_counter())
        if left <= 0:
            records.append(Record(job, "run time limit reached", "", "", 0.0))
            continue
        if on_job is not None:
            on_job(index)
        records.append(run_job(main, job, left, probe))
    return records


def check_outputs(oracle: Oracle, passes: list[list[Record]]) -> None:
    """Mark each record's failure; an output equal to a verified one passes."""
    verified: dict[str, str] = {}
    for records in passes:
        for rec in records:
            if rec.code == 0 and "Traceback" not in rec.err and verified.get(rec.job.name) == rec.out:
                continue
            rec.failure = oracle.check(rec.job, rec.code, rec.out, rec.err)
            if rec.failure is None:
                verified[rec.job.name] = rec.out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def untraced(args, cli, inputs, jobs, setup_times):
    # the first pass grows the heap and runs slower than the rest; it is
    # checked like every pass but left out of the timings
    warmup = run_pass(cli.main, jobs, perf_counter() + RUN_LIMIT_S)
    probe = SpeedProbe()
    passes: list[list[Record]] = []
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    while True:
        pass_start = perf_counter()
        passes.append(run_pass(cli.main, jobs, deadline, probe=probe))
        now = perf_counter()
        if now + (now - pass_start) - start > args.seconds or now >= deadline:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_outputs(Oracle(inputs), [warmup, *passes])

    walls = [sum(r.scaled for r in records) for records in passes]
    raw_walls = [sum(r.elapsed for r in records) for records in passes]
    verify = [r.scaled for records in passes for r in records if r.job.name == "verify-paper"]
    digits = sum(job.digits for job in jobs)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "digits_per_s": digits / wall,
        "verify_paper_s": statistics.median(verify),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_mib,
    }
    spread = {"wall_s": walls, "verify_paper_s": verify, "setup_s": setup_times}
    print(f"{len(passes)} passes of {len(jobs)} jobs; {digits} source digits per pass")
    for name, value in metrics.items():
        line = f"  {name:<16} {value:<14.6g} {END_TO_END_UNITS[name]:<9}"
        if name in spread:
            q1, q2, q3 = quartiles(spread[name])
            line += f" median of {len(spread[name])}, quartiles {q1:.4g} .. {q3:.4g}"
        print(line)
    print("  wall_s by pass: " + " ".join(f"{w:.3f}" for w in walls))
    print("  raw wall time by pass, not scaled to reference speed: "
          + " ".join(f"{w:.3f}" for w in raw_walls))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return [warmup, *passes], metrics, []


def traced(args, cli, inputs, jobs):
    deadline = perf_counter() + RUN_LIMIT_S
    warmup = run_pass(cli.main, jobs, deadline)
    # probes before and after each job only, so no span holds probe time
    probe = SpeedProbe(inside=False)
    reference = run_pass(cli.main, jobs, deadline, probe=probe)
    reference_wall = sum(r.scaled for r in reference)

    check_ids = sys.modules[f"{PACKAGE}.verify"].check_ids()
    tracer = tracing.Tracer()
    tracer.install(PACKAGE)
    job_names: list[str] = []
    pass_ids: list[list[int]] = []
    passes = [warmup, reference]
    for k in range(TRACED_PASSES):
        base_id = len(job_names)
        job_names += [f"pass {k + 1}: {' '.join(job.argv)}" for job in jobs]
        pass_ids.append(list(range(base_id, len(job_names))))

        def on_job(index, base_id=base_id):
            if tracer.job >= 0:
                tracer.end_job()
            tracer.job = base_id + index

        passes.append(run_pass(cli.main, jobs, deadline, on_job, probe))
        tracer.end_job()
        tracer.job = -1
    check_outputs(Oracle(inputs), passes)

    per_pass = [tracing.layer_metrics(tracer, ids, check_ids) for ids in pass_ids]
    counts = tracing.count_metric_names()
    unsteady = [k for k in counts if len({m[k] for m in per_pass}) > 1]
    metrics = {k: {"value": per_pass[-1][k], "unit": "count"} for k in counts}
    for k in tracing.time_metric_names(check_ids):
        if k != "trace.overhead_s":
            metrics[k] = {"value": statistics.median(m[k] for m in per_pass), "unit": "s"}
    traced_wall = statistics.median(sum(r.scaled for r in p) for p in passes[2:])
    metrics["trace.overhead_s"] = {"value": traced_wall - reference_wall, "unit": "s"}

    trace_path = HERE / "_traces" / f"{args.workload}-seed{args.seed}.json.gz"
    tracer.write(trace_path, job_names)
    print(f"warm-up, 1 untraced and {TRACED_PASSES} traced passes of {len(jobs)} jobs;"
          f" {len(tracer.spans)} spans written to {trace_path.relative_to(HERE.parent)}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:<14.6g} {m['unit']}")
    for k in unsteady:
        print(f"FAILED count {k} differs across traced passes: {[m[k] for m in per_pass]}")
    return passes, metrics, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the pi checks must read the packaged asset, whatever the caller's environment
    os.environ.pop("NORMALITY_LAB_ASSETS", None)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_times = []
        for _ in range(repeats):
            with SpeedProbe() as speed:
                elapsed, cli, inputs, jobs = set_up(args.workload, args.seed, workdir)
            setup_times.append((elapsed - speed.spent) * speed.scale)
        print(f"normality-lab benchmark: workload {args.workload}, seed {args.seed},"
              f" trace {args.trace}")
        if args.trace:
            passes, metrics, unsteady = traced(args, cli, inputs, jobs)
        else:
            passes, metrics, unsteady = untraced(args, cli, inputs, jobs, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p]
    failed = [r for r in records if r.failure is not None]
    for r in failed:
        print(f"FAILED {r.job.name}: {r.failure}")
    print(f"  error_rate       {len(failed) / len(records):<14.6g} failed/attempted"
          f" ({len(failed)} of {len(records)} jobs)")
    print(json.dumps({
        "correct": not failed and not unsteady,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
