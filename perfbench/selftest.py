"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that a tampered output, a crash,
a hang and a wrong exit code each count as one failed job while the
rest of the run still passes; that the oracle's formulas reproduce the
pinned constants; and that a second seed changes the generated inputs
but keeps the job list and the job sizes.
"""
from __future__ import annotations

import re
import signal
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import oracle
import run
import workloads

SIZE_FLAGS = ("-n", "--n-max", "--digits", "--max-power")


def check_failures_are_counted(workdir: Path) -> None:
    _, cli, inputs, jobs = run.set_up("digit-scan", 1, workdir)
    picked = [j for j in jobs if j.name in ("stats-file10", "expand-file10")]
    deadline = time.perf_counter() + 60
    real = run.run_pass(cli.main, picked, deadline)

    good = real[0]
    line = re.search(r"digit \d+: (\d+) occurrences", good.out)
    tampered = replace(good, out=good.out.replace(line.group(0), line.group(0).replace(
        line.group(1), str(int(line.group(1)) + 1))))

    def crash(argv):
        raise RuntimeError("boom")

    def hang(argv):
        time.sleep(30)

    def usage_error(argv):
        raise SystemExit(2)

    start = time.perf_counter()
    hung = run.run_job(hang, good.job, 0.2)
    if time.perf_counter() - start > 5:
        raise AssertionError("the per-job time limit did not stop a hanging job")
    bad = [tampered, run.run_job(crash, good.job, 5), hung, run.run_job(usage_error, good.job, 5)]

    passes = [real, bad, real]
    run.check_outputs(oracle.Oracle(inputs), passes)
    failed = [r.failure for p in passes for r in p if r.failure is not None]
    if [r.failure is None for r in real] != [True, True]:
        raise AssertionError(f"correct outputs were failed: {[r.failure for r in real]}")
    if not all(r.failure for r in bad) or len(failed) != len(bad):
        raise AssertionError(f"expected {len(bad)} failures, got {failed}")
    print(f"ok: a digit count off by one, a crash, a hang and exit code 2 are {len(bad)} failures")


def check_seeds_keep_the_job_list(dir_a: Path, dir_b: Path) -> None:
    a, b = workloads.make_inputs(1, dir_a), workloads.make_inputs(2, dir_b)
    if a.file10.read_bytes() == b.file10.read_bytes() or a.xorshift_seed == b.xorshift_seed:
        raise AssertionError("a second seed did not change the generated inputs")
    for name, build in workloads.WORKLOADS.items():
        jobs_a, jobs_b = build(a), build(b)
        if [(j.name, j.digits, len(j.argv)) for j in jobs_a] != [
            (j.name, j.digits, len(j.argv)) for j in jobs_b
        ]:
            raise AssertionError(f"{name}: a second seed changed the job list")
        for ja, jb in zip(jobs_a, jobs_b):
            sizes = [(ja.argv[i + 1], jb.argv[i + 1]) for i, t in enumerate(ja.argv) if t in SIZE_FLAGS]
            if any(x != y for x, y in sizes):
                raise AssertionError(f"{name}/{ja.name}: a second seed changed a job size")
    print("ok: a second seed changes the inputs but keeps every job and size")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    oracle.self_check()
    print("ok: the oracle reproduces D = 657/10000 and champernowne's 7981/100000 and 179810")
    (run.HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.HERE / "_work") as tmp:
        dir_a, dir_b = Path(tmp, "a"), Path(tmp, "b")
        dir_a.mkdir()
        dir_b.mkdir()
        check_failures_are_counted(dir_a)
        check_seeds_keep_the_job_list(dir_a, dir_b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
