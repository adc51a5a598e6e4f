"""Benchmark of padic-automata: seeded workloads in a closed loop.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 30 --trace 0

One process, one thread and one caller: each job starts only after the
previous one returned.  A run sets the workload up several times (fresh
import of the package from ``src/``, input generation, documents written,
one warm-up job) and reports the median as ``setup_s``.  It then runs whole
passes over the workload's job population until ``--seconds`` have passed
and at least 100 jobs ran, checking every job's output.

Times are reported at a reference machine speed.  On shared virtual
machines the CPU speed can drift by a third and more between runs, and
within a run, so between jobs (and around each set-up) the run times a fixed
calibration loop that calls no program code.  Each job's time is scaled by
``CALIBRATION_REF_NS`` over the mean of the calibrations just before and
just after it.  A faster program therefore reads faster, while a slower
machine does not.  The printed lines give the overall scale factor, so raw
times can be recovered.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
jobs untraced for half the time, under a statistical sampler, then traced for
exactly ``TRACED_PASSES`` passes; it writes the spans to ``.bench_out/`` and
reports the per-layer metrics per pass over the population (see
``tracing.py``), so they do not depend on how fast the machine runs.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import jobs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "padic_automata"
MODULES = ("oracle", "mahler", "quotient", "transducer", "geometry", "formats", "cli", "subjects")
SETUP_REPEATS = 7
TRACED_PASSES = 1
SETUP_CALIBRATIONS = 4  # before and after each set-up
MIN_JOBS = 100
SHOWN_PROBLEMS = 5
CALIBRATION_REF_NS = 300_000

# name -> unit; ``ok_ratio`` stands in for the failed ratio, which is 0 on
# a healthy run and so has no relative spread (the failed count is reported
# beside the metrics and printed as ``failed_ratio``)
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _package_modules() -> list[str]:
    return [name for name in sys.modules if name == PACKAGE or name.startswith(PACKAGE + ".")]


def load_program() -> SimpleNamespace:
    """The package's modules as attributes, plus ``modules``: all of them."""
    prog = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    prog.modules = [sys.modules[name] for name in _package_modules()]
    return prog


def forget_program() -> None:
    """Drop the package from ``sys.modules``, so that the next
    :func:`load_program` imports it afresh and every set-up pays for the
    import, and the old copy can be freed."""
    for name in _package_modules():
        del sys.modules[name]


def calibrate() -> int:
    """Nanoseconds for a fixed loop of list, big-integer and dict work."""
    start = time.perf_counter_ns()
    mod = 3 ** 20
    coeffs = [7 ** i % mod for i in range(41)]
    row = [1] + [0] * 40
    seen = {}
    acc = 0
    for x in range(40):
        acc += sum(a * b for a, b in zip(coeffs, row)) % mod
        for i in range(40, 0, -1):
            row[i] = (row[i] + row[i - 1]) % mod
        seen[x] = (acc, x)
    return time.perf_counter_ns() - start


def speed_scale(calibrations: list[int]) -> float:
    """Factor taking times measured between these calibrations to reference speed."""
    return CALIBRATION_REF_NS / statistics.fmean(calibrations)


@dataclass
class Pass:
    raw_ns: list[int] = field(default_factory=list)  # time inside each job
    latencies_ns: list[float] = field(default_factory=list)  # the same at reference speed
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0

    @property
    def busy_ns(self) -> float:
        """Time inside the jobs, at reference speed."""
        return sum(self.latencies_ns)

    @property
    def scale(self) -> float:
        return self.busy_ns / sum(self.raw_ns)


class Runner:
    """Runs a workload's jobs and checks every output.

    The first execution of each job fixes its digest and contributes its
    wrong-verdict counts; every later execution must reproduce the digest.
    """

    def __init__(self, workload: jobs.Workload):
        self.workload = workload
        self.digests: dict[int, object] = {}
        self.findings: Counter = Counter()
        self.problems: list[str] = []

    def execute(self, index: int, job: jobs.Job, tracer=None) -> tuple[int, bool]:
        """Run one job; return (nanoseconds in the job, output correct)."""
        start = time.perf_counter_ns()
        try:
            out = job.run()
        except Exception:  # a failing job is recorded and the loop goes on
            ns = time.perf_counter_ns() - start
            return ns, self._fail(job, traceback.format_exc(limit=3).strip())
        ns = time.perf_counter_ns() - start
        verdict = job.check(out)
        if tracer is not None:
            tracer.add_report_bytes(verdict.report_bytes)
        if index not in self.digests:
            self.digests[index] = verdict.digest
            self.findings.update(verdict.counts)
        elif verdict.digest != self.digests[index]:
            verdict.problems.append("output differs from the job's first execution")
        if verdict.problems:
            return ns, self._fail(job, "; ".join(verdict.problems))
        return ns, True

    def _fail(self, job: jobs.Job, reason: str) -> bool:
        if len(self.problems) < SHOWN_PROBLEMS:
            self.problems.append(f"{job.name}: {reason}")
        return False

    def run(self, seconds: float, min_jobs: int = 0, rounds: int | None = None, tracer=None) -> Pass:
        """Whole passes over the population until ``seconds`` have passed and
        ``min_jobs`` ran, or exactly ``rounds`` passes when given."""
        result = Pass()
        start = time.perf_counter()
        before = calibrate()
        while True:
            for index, job in enumerate(self.workload.jobs):
                if tracer is not None:
                    tracer.begin_job(len(result.latencies_ns))
                ns, ok = self.execute(index, job, tracer)
                after = calibrate()
                result.raw_ns.append(ns)
                result.latencies_ns.append(ns * speed_scale([before, after]))
                result.failed += not ok
                before = after
            result.rounds += 1
            result.wall_s = time.perf_counter() - start
            if rounds is not None:
                if result.rounds >= rounds:
                    return result
            elif result.wall_s >= seconds and len(result.latencies_ns) >= min_jobs:
                return result


def set_up(workload: str, seed: int, size: str):
    """One set-up: import, inputs, documents and one checked warm-up job.

    Returns its time in seconds at reference speed, the program, a runner
    holding the workload, and whether the warm-up output was correct.
    """
    calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    prog = load_program()
    wl = jobs.WORKLOADS[workload](prog, seed, size)
    runner = Runner(wl)
    _, ok = runner.execute(-1, wl.warmup)
    seconds = time.perf_counter() - start
    calibrations += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return seconds * speed_scale(calibrations), prog, runner, ok


def end_to_end(base: Pass, setup_s: float) -> dict[str, float]:
    deciles = statistics.quantiles(base.latencies_ns, n=10)
    attempted = len(base.latencies_ns)
    return {
        "jobs_per_s": attempted / (base.busy_ns / 1e9),
        "job_p50_ms": deciles[4] / 1e6,
        "job_p90_ms": deciles[8] / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - base.failed) / attempted,
    }


def findings_lines(findings: Counter) -> list[str]:
    pairs = (
        ("unsound_pass", "mp_check_pass", "the mp check PASSes but the fiber oracle fails"),
        ("fail_vs_oracle_pass", "mp_check_fail", "the mp check FAILs but the fiber oracle passes"),
        ("unsound_ergodic_pass", "ergodic_check_pass", "the ergodic check PASSes but the cycle oracle fails"),
    )
    lines = [f"  {name:<22} {findings[name]} of {findings[base]} distinct jobs: {what}"
             for name, base, what in pairs if base in findings]
    if "anchor_mismatch" in findings:
        lines.append(f"  {'anchor_mismatch':<22} {findings['anchor_mismatch']}: a built-in anchor gets the wrong verdict")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: millisecond jobs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)  # machine documents, series files and rasters live here
    try:
        return measure(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args) -> int:
    setup_times, warmup_ok = [], True
    for _ in range(SETUP_REPEATS):
        prog = runner = None  # free the previous copy before the next import
        forget_program()
        gc.collect()
        seconds, prog, runner, ok = set_up(args.workload, args.seed, args.size)
        setup_times.append(seconds)
        warmup_ok &= ok
    setup_s = statistics.median(setup_times)
    distinct = len(runner.workload.jobs)

    if not args.trace:
        base = runner.run(args.seconds, MIN_JOBS)
        metrics = end_to_end(base, setup_s)
        attempted, failed = len(base.latencies_ns), base.failed
        print(f"workload {args.workload} seed {args.seed}: {attempted} jobs in {base.rounds} passes "
              f"over {distinct} distinct jobs, {base.wall_s:.1f} s; times scaled by {base.scale:.4f} "
              f"to reference speed")
        for name, value in metrics.items():
            print(f"  {name:<22} {value:.6g} {END_TO_END[name]}")
        print(f"  {'failed_ratio':<22} {failed / attempted:.6g} ({failed} of {attempted})")
    else:
        sampler = tracing.Sampler()
        sampler.start()
        try:
            base = runner.run(args.seconds / 2)
        finally:
            sampler.stop()
        tracer = tracing.Tracer()
        tracer.install(prog)
        try:
            traced = runner.run(0, rounds=TRACED_PASSES, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        overhead = (traced.busy_ns / traced.rounds) / (base.busy_ns / base.rounds) - 1
        metrics = tracer.metrics(traced.scale, overhead, traced.rounds)
        attempted = len(base.latencies_ns) + len(traced.latencies_ns)
        failed = base.failed + traced.failed
        print(f"workload {args.workload} seed {args.seed}: traced {len(traced.latencies_ns)} jobs "
              f"({traced.rounds} passes), {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}; "
              f"times scaled by {traced.scale:.4f} to reference speed")
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.6g} {tracing.PER_LAYER[name][0]}")
        print("  layer shares of traced job time:     " + tracing.format_shares(tracer.layer_shares(sum(traced.raw_ns))))
        print(f"  layer shares sampled, untraced ({sampler.total} samples): " + tracing.format_shares(sampler.shares()))
    for line in findings_lines(runner.findings):
        print(line)
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in tracing.PER_LAYER.items()}
    print(json.dumps({
        "correct": failed == 0 and warmup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
