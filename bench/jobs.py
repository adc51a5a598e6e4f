"""The three workloads as runnable jobs with output checks.

A job's ``run`` calls the program and returns its raw output; ``check``
inspects that output and returns a :class:`Verdict`.  Only ``run`` is
timed.  Files (documents, series, rasters) live in the current directory.  Calls into the program go through module attributes looked up at
call time (``prog.mahler.check_delay_conditions(...)``), so a tracer that
swaps those attributes sees every call.

A job *fails* when it raises, exits 1 or 4, or breaks a structural check,
or when a coefficient check's verdict differs from the one the stated
conditions give (see :func:`conditions_at_delay_1`).  Wrong verdicts
against the brute-force oracles (a check that PASSes a map the fiber
oracle fails, an anchor with the wrong answer) are findings about the
mathematics the program implements, not broken outputs: they are counted
in ``Verdict.counts`` and do not fail the job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import inputs


@dataclass
class Verdict:
    problems: list[str]
    digest: Any  # compared across repeats of the same job
    counts: Counter = field(default_factory=Counter)
    report_bytes: int = 0  # size of the CLI report, where the job has one


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]


@dataclass
class Workload:
    warmup: Job
    jobs: list[Job]


# ---------------------------------------------------------------------------
# Independent reference evaluation (never through the program)
# ---------------------------------------------------------------------------


def series_at(values: tuple[int, ...], x: int, mod: int) -> int:
    """sum_i a_i C(x, i) mod ``mod``, one exact big-integer sum per point."""
    return sum(a * math.comb(x, i) for i, a in enumerate(values)) % mod


def cycle_count(table: list[int]) -> int:
    """Number of cycles of a finite self-map."""
    state = [0] * len(table)  # 0 unseen, 1 on the current walk, 2 settled
    found = 0
    for start in range(len(table)):
        walk = []
        x = start
        while state[x] == 0:
            state[x] = 1
            walk.append(x)
            x = table[x]
        found += state[x] == 1
        for y in walk:
            state[y] = 2
    return found


def mirror(value: int, length: int, p: int) -> int:
    """The length-``length`` digit word of ``value`` read in reverse."""
    out = 0
    for _ in range(length):
        value, d = divmod(value, p)
        out = out * p + d
    return out


def level_size(p: int, n: int, k: int) -> int:
    """Domain size of the level-k reduction: p^(nk), or p^k at delay 0."""
    return p ** (n * k if n else k)


def conditions_at_delay_1(p: int, values: list[int]) -> tuple[str, str, str]:
    """Verdicts of the delay, measure-preservation and ergodicity conditions
    on a delay-1 series with these coefficient residues.

    At n = 1 the conditions are settled: the delay floor is
    floor_log(p, i) - 1, the tail floor floor_log(p, i), a_p must be a unit
    (and = 1 mod p for ergodicity, with a_1 + ... + a_(p-1) = 0 mod p).
    The residues' precision exceeds every floor met here, so a residue
    decides each condition.
    """
    a_p = values[p] if p < len(values) else 0
    tail = all(a % p ** inputs.floor_log(p, i) == 0 for i, a in enumerate(values) if i > p)
    delay = all(a % p ** max(inputs.floor_log(p, i) - 1, 0) == 0 for i, a in enumerate(values))
    mp = a_p % p != 0 and tail
    ergodic = sum(values[1:p]) % p == 0 and a_p % p == 1 and tail
    return tuple("pass" if ok else "fail" for ok in (delay, mp, ergodic))


def expected_verdicts(p: int, n: int, values: list[int], family: str) -> tuple[str | None, ...]:
    """(delay, mp, ergodic) verdicts that hold whatever the floors at n >= 2
    become, None where nothing is fixed: the stated conditions at n = 1, and
    FAIL of the mp check for an mp-failing draw at every n (its one broken
    congruence stays broken when the floors only rise)."""
    if n == 1:
        return conditions_at_delay_1(p, values)
    return (None, "fail" if family == "mp-failing" else None, None)


def machine_table(document: str) -> tuple[int, str, dict]:
    """(p, initial state, (state, letter) -> (next state, output letters))
    of a ``padic-transducer-v1`` document written by :mod:`inputs`."""
    p, initial, table = 0, "", {}
    for line in document.splitlines():
        tokens = line.split()
        if tokens[0] == "p":
            p = int(tokens[1])
        elif tokens[0] == "initial":
            initial = tokens[1]
        elif tokens[0] == "trans":
            table[tokens[1], int(tokens[2])] = (tokens[3], [int(t) for t in tokens[5:]])
    return p, initial, table


def simulate(document: str, x: int, m: int) -> int:
    """f(x) mod p^m for the machine of ``document``: feed the digits of x,
    least significant first, until m output letters came out."""
    p, state, table = machine_table(document)
    out: list[int] = []
    while len(out) < m:
        x, digit = divmod(x, p)
        state, letters = table[state, digit]
        out.extend(letters)
    return sum(d * p ** i for i, d in enumerate(out[:m]))


def forward_differences(values: list[int], mod: int) -> list[int]:
    """Mahler coefficients a_i = (Delta^i f)(0) mod ``mod`` from f(0), f(1), ..."""
    coeffs, row = [], list(values)
    while row:
        coeffs.append(row[0] % mod)
        row = [b - a for a, b in zip(row, row[1:])]
    return coeffs


# ---------------------------------------------------------------------------
# crosscheck: coefficient conditions against the finite-quotient oracles
# ---------------------------------------------------------------------------


def _crosscheck_job(prog, spec: inputs.CrosscheckSpec) -> Job:
    s = spec.series
    p, n = s.p, s.n
    reference = {}

    def run():
        mahler, quotient = prog.mahler, prog.quotient
        series = mahler.MahlerSeries.from_ints(p, n, s.precision, s.values)
        reports = (
            mahler.check_delay_conditions(series),
            mahler.check_measure_preserving_conditions(series),
            mahler.check_ergodicity_conditions(series),
        )
        oracle = mahler.series_oracle(series)
        mp = quotient.is_measure_preserving_upto(oracle, spec.kmax)
        cyc = quotient.unique_cycle_upto(oracle, spec.kmax)
        return reports, mp, cyc

    def check(out) -> Verdict:
        reports, mp, cyc = out
        problems = []
        for k, hist in mp.histograms:
            total = sum(size * count for size, count in hist)
            if total != p ** (n * k):
                problems.append(f"level {k} fibers sum to {total}, not {p}^{n * k}")
        if not reference:
            # level-2 fibers and level-1 cycles by independent evaluation
            mod = p ** n
            table = [series_at(s.values, x, mod) for x in range(p ** (2 * n))]
            fibers = Counter(table)
            reference["hist"] = tuple(sorted(Counter(fibers[y] for y in range(mod)).items()))
            reference["cycles"] = cycle_count(table[:mod])
        if mp.histograms[0] != (2, reference["hist"]):
            problems.append(f"level-2 fibers {mp.histograms[0]} != reference {reference['hist']}")
        if cyc.cycle_counts[0] != (1, reference["cycles"]):
            problems.append(f"level-1 cycles {cyc.cycle_counts[0]} != reference {reference['cycles']}")
        verdicts = tuple(r.verdict.value for r in reports)
        for which, got, want in zip(("delay", "mp", "ergodic"), verdicts,
                                    expected_verdicts(p, n, list(s.values), s.family)):
            if want is not None and got != want:
                problems.append(f"{which} check gives {got}, the stated conditions give {want}")
        counts = Counter()
        if verdicts[1] == "pass":
            counts["mp_check_pass"] += 1
            counts["unsound_pass"] += not mp.passed
        elif verdicts[1] == "fail":
            counts["mp_check_fail"] += 1
            counts["fail_vs_oracle_pass"] += mp.passed
        if verdicts[2] == "pass":
            counts["ergodic_check_pass"] += 1
            counts["unsound_ergodic_pass"] += not cyc.passed
        digest = (verdicts, mp.histograms, cyc.cycle_counts)
        return Verdict(problems, digest, counts)

    name = f"crosscheck {s.family} p={p} n={n} support={len(s.values)} kmax={spec.kmax}"
    return Job(name, run, check)


def crosscheck_workload(prog, seed: int, size: str) -> Workload:
    warmup, specs = inputs.crosscheck_population(seed, size)
    return Workload(
        _crosscheck_job(prog, warmup),
        [_crosscheck_job(prog, spec) for spec in specs],
    )


# ---------------------------------------------------------------------------
# image: geometric images, cover fractions and PGM rasters
# ---------------------------------------------------------------------------


def _image_subject(prog, spec: inputs.ImageSpec):
    """The oracle or family machine a job images, built inside the job."""
    if spec.kind == "series":
        s = spec.series
        return prog.mahler.series_oracle(prog.mahler.MahlerSeries.from_ints(s.p, s.n, s.precision, s.values))
    if spec.kind == "shift":
        return prog.subjects.shift_oracle(spec.p, spec.n)
    if spec.kind == "delay-echo":
        return prog.transducer.function_of(prog.subjects.delay_echo_transducer(spec.p, spec.n))
    return prog.subjects.make_builtin(spec.name, spec.p)


def _reference_cells(spec: inputs.ImageSpec) -> set[tuple[int, int]]:
    """Occupied cells at resolution m over levels >= m of a delay-n map.

    f(x) mod p^m depends only on x mod p^(m+n), so the cells are exactly
    the mirrored pairs (x mod p^m, f(x) mod p^m) over x < p^(m+n).
    """
    p, n, m = spec.p, spec.n, spec.m
    mod = p ** m
    if spec.kind == "series":
        f = lambda x: series_at(spec.series.values, x, mod)  # noqa: E731
    else:  # shift and delay-echo both realize floor(x / p^n)
        f = lambda x: x // p ** n % mod  # noqa: E731
    return {(mirror(x % mod, m, p), mirror(f(x), m, p)) for x in range(p ** (m + n))}


def _image_job(prog, spec: inputs.ImageSpec, index: int) -> Job:
    p, m = spec.p, spec.m
    pgm_path = f"image-{index:03d}.pgm"
    reference = {}

    def run():
        geometry = prog.geometry
        subject = _image_subject(prog, spec)
        if spec.kind == "family":
            points = geometry.family_points(subject, spec.depth)
        else:
            points = geometry.accumulate_image(subject, range(m, m + 4))
        report = geometry.cover_fraction(points, m)
        return report, geometry.render_pgm(report, m, pgm_path)

    def check(out) -> Verdict:
        report, pgm = out
        problems = []
        grid = p ** m
        header = b"P5\n%d %d\n255\n" % (grid, grid)
        body = pgm[len(header):]
        if not pgm.startswith(header) or len(body) != grid * grid:
            problems.append(f"PGM is not {grid} by {grid}")
        elif body.count(0) != report.occupied:
            problems.append(f"PGM has {body.count(0)} black pixels, report says {report.occupied}")
        if spec.kind == "family":
            expected = {"digitwise-add": Fraction(1), "identity": Fraction(1, grid)}.get(spec.name)
            if expected is not None and report.fraction != expected:
                problems.append(f"{spec.name} family fraction {report.fraction}, expected {expected}")
        else:
            bound = Fraction(p ** spec.n, grid)
            if report.fraction > bound:
                problems.append(f"cover fraction {report.fraction} exceeds p^(n-m) = {bound}")
            if "cells" not in reference:
                reference["cells"] = _reference_cells(spec)
            if set(report.cells) != reference["cells"]:
                problems.append("occupied cells differ from the independent reference")
        digest = (report.occupied, report.fraction, hashlib.sha256(pgm).hexdigest())
        return Verdict(problems, digest)

    label = spec.name if spec.kind == "family" else spec.kind
    name = f"image {label} p={p} n={spec.n} m={m}" + (f" depth={spec.depth}" if spec.depth else "")
    return Job(name, run, check)


def image_workload(prog, seed: int, size: str) -> Workload:
    warmup, specs = inputs.image_population(seed, size)
    return Workload(
        _image_job(prog, warmup, len(specs)),
        [_image_job(prog, spec, i) for i, spec in enumerate(specs)],
    )


# ---------------------------------------------------------------------------
# machines: in-process CLI jobs with JSON reports
# ---------------------------------------------------------------------------


EXIT_OF_VERDICT = {"pass": 0, "fail": 3, "insufficient-precision": 2}

# Mathematically expected answers for the built-in anchors.  The zero map
# is neither measure-preserving nor ergodic: 2^k - 1 of its 2^k points are
# transient, so a cycle criterion that passes it is a wrong verdict.
ANCHOR_VERDICTS = {
    ("shift", "mp"): True, ("shift", "cycles"): True,
    ("odometer", "mp"): True, ("odometer", "cycles"): True,
    ("zero", "mp"): False, ("zero", "cycles"): False,
}


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def _anchor_fibers(builtin: str, p: int, n: int, k: int) -> list[list[int]]:
    """Exact collapsed fiber histogram of a built-in anchor at level k."""
    if builtin == "odometer":  # a synchronous machine: a bijection on Z/p^k
        return [[1, p ** k]]
    cod = p ** (n * (k - 1))
    if builtin == "shift":
        return [[p ** n, cod]]
    return [[0, cod - 1], [p ** (n * k), 1]]  # zero


def _series_residues(path: Path) -> list[int]:
    residues = []
    for line in path.read_text().splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "coeff":
            residues.append(int(tokens[2]))
    return residues


def _machine_problems(spec: inputs.MachineSpec, code: int, report: dict, counts: Counter,
                      reference: Callable[[], list[int]]) -> list[str]:
    argv = spec.argv
    command = argv[0]
    problems = []
    if command == "brute":
        p, n = report["p"], report["n"]
        if code != (0 if report["passed"] else 3):
            problems.append(f"exit {code} disagrees with passed={report['passed']}")
        if report["mode"] == "mp":
            for level in report["levels"]:
                k, fibers = level["level"], level["fibers"]
                total = sum(size * count for size, count in fibers)
                if total != level_size(p, n, k):
                    problems.append(f"level {k} fibers sum to {total}, not {level_size(p, n, k)}")
                if spec.kind == "anchor" and fibers != _anchor_fibers(_flag(argv, "--builtin"), p, n, k):
                    problems.append(f"anchor level {k} fibers {fibers} are not the exact ones")
        else:
            levels = report["cycle_counts"]
            if len(levels) != int(_flag(argv, "--kmax")) or any(c < 1 for _, c in levels):
                problems.append(f"cycle counts {levels} malformed")
            if spec.kind == "anchor" and any(c != 1 for _, c in levels):
                problems.append(f"anchor cycle counts {levels} are not all 1")
        if spec.kind == "anchor":
            expected = ANCHOR_VERDICTS[(_flag(argv, "--builtin"), report["mode"])]
            counts["anchor_mismatch"] += report["passed"] != expected
    elif command == "coeffs":
        residues = [row["residue"] for row in report["coefficients"]]
        if residues != reference():
            problems.append("coefficients differ from the finite differences of the simulated machine")
        if _series_residues(Path(_flag(argv, "--out"))) != residues:
            problems.append("written series does not match the report")
    elif command == "check":
        if EXIT_OF_VERDICT.get(report["verdict"]) != code:
            problems.append(f"exit {code} disagrees with verdict {report['verdict']}")
        if report["n"] == 1:
            # the series file was written by the coeffs job and checked there
            residues = _series_residues(Path(_flag(argv, "--subject")))
            which = ("delay", "mp", "ergodic").index(_flag(argv, "--which"))
            expected = conditions_at_delay_1(report["p"], residues)[which]
            if report["verdict"] != expected:
                problems.append(f"verdict {report['verdict']}, the stated conditions give {expected}")
    else:  # transitivity
        if code != (0 if report["passed"] else 3) or report["passed"] == bool(report["counterexample"]):
            problems.append(f"exit {code}, passed={report['passed']}, counterexample {report['counterexample']}")
        expected = _flag(argv, "--builtin") == "digitwise-add" or _flag(argv, "--resolution") == "1"
        counts["anchor_mismatch"] += report["passed"] != expected
    return problems


def _machine_job(prog, spec: inputs.MachineSpec, document: str = "") -> Job:
    argv = [*spec.argv, "--report-format", "json"]
    cached = []

    def reference() -> list[int]:
        """Coefficients of a coeffs job, from the document by simulation."""
        if not cached:
            terms, precision = int(_flag(argv, "--terms")), int(_flag(argv, "--precision"))
            p = machine_table(document)[0]
            values = [simulate(document, x, precision) for x in range(terms)]
            cached.extend(forward_differences(values, p ** precision))
        return cached

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = prog.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> Verdict:
        code, text, err = result
        size = len(text.encode())
        if code in (1, 4):
            return Verdict([f"exit {code}: {err.strip()}"], text, report_bytes=size)
        try:
            report = json.loads(text)
        except ValueError as exc:
            return Verdict([f"report is not JSON: {exc}"], text, report_bytes=size)
        counts = Counter()
        problems = _machine_problems(spec, code, report, counts, reference)
        return Verdict(problems, text, counts, size)

    return Job("machines " + " ".join(spec.argv), run, check)


def machines_workload(prog, seed: int, size: str) -> Workload:
    """Writes the documents into the current directory, where the jobs read them."""
    docs, warmup, specs = inputs.machines_population(seed, size)
    for name, text in docs.items():
        Path(name).write_text(text)
    return Workload(_machine_job(prog, warmup), [_machine_job(prog, s, docs.get(s.doc, "")) for s in specs])


WORKLOADS = {
    "crosscheck": crosscheck_workload,
    "image": image_workload,
    "machines": machines_workload,
}
