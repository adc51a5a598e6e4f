"""Command-line driver.

Subjects are either a document file (``--subject``; series and transducer
schemas are described in :mod:`padic_automata.formats`) or a bundled
built-in (``--builtin`` with ``--p`` / ``--n`` / ``--coeffs``).  Commands:

``coeffs``        extract Mahler coefficients (``--terms``, ``--precision``)
``check``         decide the delay / measure-preservation / ergodicity
                  coefficient conditions (``--which delay|mp|ergodic``)
``brute``         finite-quotient oracles (``--mode mp|cycles``, ``--kmax``)
``image``         geometric image, cover report and PGM raster
``transitivity``  family transitivity at word length ``--resolution``

Exit codes: 0 pass, 1 input error, 2 insufficient precision,
3 criterion fail, 4 budget exceeded.  Machine-readable output
(``--report-format json``) is deterministic: two runs of one job give
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import geometry, mahler, quotient
from .errors import BudgetExceededError, FormatError, PrecisionError
from .formats import parse_series, parse_transducer, serialize_series
from .mahler import CheckStatus, MahlerSeries
from .oracle import FunctionOracle
from .padics import valuation
from .subjects import BUILTIN_NAMES, make_builtin
from .transducer import Transducer, family_transitivity, function_of

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_PRECISION = 2
EXIT_FAIL = 3
EXIT_BUDGET = 4

REPORT_SCHEMA = "padic-automata-report-v1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-automata",
        description="transducers and Mahler series as p-adic dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("--subject", help="series or transducer document")
        p_.add_argument("--builtin", choices=BUILTIN_NAMES, help="bundled subject")
        p_.add_argument("--p", type=int, default=2, help="prime (built-ins)")
        p_.add_argument("--n", type=int, default=1, help="delay parameter (built-ins)")
        p_.add_argument(
            "--coeffs", help="comma-separated integers for --builtin polynomial"
        )
        p_.add_argument("--precision", type=int, default=16, help="digits K")
        p_.add_argument("--budget", type=int, default=quotient.DEFAULT_BUDGET)
        p_.add_argument(
            "--report-format", choices=("text", "json"), default="text"
        )
        p_.add_argument("--out", help="output path (series file or PGM)")

    c = sub.add_parser("coeffs", help="Mahler coefficients by finite differences")
    common(c)
    c.add_argument("--terms", type=int, default=16, help="coefficient count M")
    c.set_defaults(handler=cmd_coeffs)

    c = sub.add_parser("check", help="decide the coefficient conditions")
    common(c)
    c.add_argument("--which", choices=("delay", "mp", "ergodic"), required=True)
    c.add_argument("--terms", type=int, default=16, help="M when deriving a series")
    c.set_defaults(handler=cmd_check)

    c = sub.add_parser("brute", help="finite-quotient oracle checks")
    common(c)
    c.add_argument("--mode", choices=("mp", "cycles"), required=True)
    c.add_argument("--kmax", type=int, default=6)
    c.set_defaults(handler=cmd_brute)

    c = sub.add_parser("image", help="geometric image, cover report, PGM")
    common(c)
    c.add_argument("--kmax", type=int, default=6, help="levels 1..K to accumulate")
    c.add_argument("--resolution", type=int, default=3, help="grid exponent m")
    c.add_argument("--depth", type=int, default=6, help="family exploration depth")
    c.set_defaults(handler=cmd_image)

    c = sub.add_parser("transitivity", help="family transitivity check")
    common(c)
    c.add_argument("--resolution", type=int, default=1, help="word length m")
    c.add_argument("--depth", type=int, default=4, help="state exploration depth")
    c.set_defaults(handler=cmd_transitivity)

    return parser


def load_subject(args):
    if bool(args.subject) == bool(args.builtin):
        raise FormatError("give exactly one of --subject FILE or --builtin NAME")
    if args.builtin:
        coeffs = None
        if args.coeffs:
            try:
                coeffs = [int(tok) for tok in args.coeffs.split(",")]
            except ValueError:
                raise FormatError("--coeffs must be comma-separated integers")
        return make_builtin(args.builtin, args.p, args.n, coeffs)
    path = Path(args.subject)
    if not path.is_file():
        raise FormatError(f"no such subject file: {path}")
    text = path.read_text()
    head = text.lstrip().split("\n", 1)[0]
    if "mahler-series" in head:
        return parse_series(text)
    return parse_transducer(text)


def to_oracle(subject) -> FunctionOracle:
    if isinstance(subject, FunctionOracle):
        return subject
    if isinstance(subject, MahlerSeries):
        return mahler.series_oracle(subject)
    if isinstance(subject, Transducer):
        return function_of(subject)
    raise FormatError(f"cannot use {type(subject).__name__} as a function oracle")


def to_series(subject, args) -> MahlerSeries:
    if isinstance(subject, MahlerSeries):
        return subject
    # the difference triangle of M values takes M(M+1)/2 subtractions
    work = args.terms * (args.terms + 1) // 2
    if work > args.budget:
        raise BudgetExceededError(
            f"{args.terms} terms take {work} differences, over the budget {args.budget}"
        )
    return mahler.coeffs_from_oracle(to_oracle(subject), args.terms, args.precision)


def subject_label(args) -> str:
    if args.builtin:
        return f"built-in {args.builtin} (p={args.p}, n={args.n})"
    return f"file {args.subject}"


def emit(args, lines: list[str], payload: dict) -> None:
    if args.report_format == "json":
        payload = {"schema": REPORT_SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator} = {float(fr):.6f}"


def cmd_coeffs(args) -> int:
    series = to_series(load_subject(args), args)
    lines = [f"mahler coefficients of {subject_label(args)}",
             f"p={series.p} n={series.n} precision={series.precision} terms={series.support}"]
    rows = []
    for i, a in enumerate(series.coeffs):
        val = valuation(series.p, series.precision, a)
        shown = f">= {series.precision}" if val is None else val
        lines.append(f"  a_{i} = {a}   valuation {shown}")
        rows.append({"index": i, "residue": a, "valuation": val})
    payload = {
        "command": "coeffs",
        "p": series.p,
        "n": series.n,
        "precision": series.precision,
        "coefficients": rows,
    }
    if args.out:
        Path(args.out).write_text(serialize_series(series))
        lines.append(f"series written to {args.out}")
        payload["out"] = args.out
    emit(args, lines, payload)
    return EXIT_PASS


_WHICH = {
    "delay": mahler.check_delay_conditions,
    "mp": mahler.check_measure_preserving_conditions,
    "ergodic": mahler.check_ergodicity_conditions,
}


def cmd_check(args) -> int:
    series = to_series(load_subject(args), args)
    report = _WHICH[args.which](series)
    lines = [f"{report.which} conditions for {subject_label(args)}",
             f"p={report.p} n={report.n} precision={report.precision}"]
    rows = []
    for c in report.checks:
        observed = f">={report.precision}" if c.observed is None else str(c.observed)
        lines.append(
            f"  {c.label}: required valuation {c.required}, observed {observed}"
            f" -> {c.status.value}"
        )
        rows.append(
            {
                "index": c.index,
                "label": c.label,
                "required": c.required,
                "observed": c.observed,
                "status": c.status.value,
            }
        )
    lines.append(f"verdict: {report.verdict.value}")
    emit(
        args,
        lines,
        {
            "command": "check",
            "which": report.which,
            "p": report.p,
            "n": report.n,
            "precision": report.precision,
            "checks": rows,
            "verdict": report.verdict.value,
        },
    )
    if report.verdict is CheckStatus.PASS:
        return EXIT_PASS
    if report.verdict is CheckStatus.FAIL:
        return EXIT_FAIL
    return EXIT_PRECISION


def cmd_brute(args) -> int:
    oracle = to_oracle(load_subject(args))
    if args.mode == "mp":
        verdict = quotient.is_measure_preserving_upto(oracle, args.kmax, args.budget)
        lines = [f"preimage-count criterion for {subject_label(args)}",
                 f"p={verdict.p} n={verdict.n} expected fiber {verdict.expected_fiber}"]
        levels = []
        for k, hist in verdict.histograms:
            text = ", ".join(f"{size}x{count}" for size, count in hist)
            lines.append(f"  level {k}: fibers {{{text}}}")
            levels.append({"level": k, "fibers": [list(pair) for pair in hist]})
        lines.append("verdict: pass" if verdict.passed else
                     f"verdict: fail at level {verdict.first_failing_level}")
        emit(args, lines, {
            "command": "brute",
            "mode": "mp",
            "p": verdict.p,
            "n": verdict.n,
            "k_max": verdict.k_max,
            "expected_fiber": verdict.expected_fiber,
            "levels": levels,
            "passed": verdict.passed,
            "first_failing_level": verdict.first_failing_level,
        })
        return EXIT_PASS if verdict.passed else EXIT_FAIL
    verdict = quotient.unique_cycle_upto(oracle, args.kmax, args.budget)
    lines = [f"unique-cycle criterion for {subject_label(args)}",
             f"p={verdict.p} n={verdict.n}"]
    for k, count in verdict.cycle_counts:
        lines.append(f"  level {k}: {count} cycle(s)")
    lines.append("verdict: pass" if verdict.passed else
                 f"verdict: fail at level {verdict.first_failing_level}")
    emit(args, lines, {
        "command": "brute",
        "mode": "cycles",
        "p": verdict.p,
        "n": verdict.n,
        "k_max": verdict.k_max,
        "cycle_counts": [list(pair) for pair in verdict.cycle_counts],
        "passed": verdict.passed,
        "first_failing_level": verdict.first_failing_level,
    })
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def cmd_image(args) -> int:
    subject = load_subject(args)
    m = args.resolution
    oracle = to_oracle(subject)
    if isinstance(subject, Transducer) and oracle.delay == 0:
        points = geometry.family_points(subject, args.depth, args.budget)
        bound = None
    else:
        points = geometry.accumulate_image(oracle, range(1, args.kmax + 1), args.budget)
        bound = Fraction(oracle.p ** oracle.delay, oracle.p ** m)
    report = geometry.cover_fraction(points, m)
    lines = [f"cover report for {subject_label(args)}",
             f"p={report.p} n={report.n} levels={list(report.levels)} m={report.m}",
             f"occupied {report.occupied} of {report.p ** (2 * m)} cells",
             f"fraction {_fraction_str(report.fraction)}"]
    payload = {
        "command": "image",
        "p": report.p,
        "n": report.n,
        "levels": list(report.levels),
        "m": report.m,
        "occupied": report.occupied,
        "fraction": [report.fraction.numerator, report.fraction.denominator],
    }
    if bound is not None:
        lines.append(f"delay bound p^(n-m) = {_fraction_str(bound)}")
        payload["bound"] = [bound.numerator, bound.denominator]
    if args.out:
        geometry.render_pgm(report, m, args.out)
        lines.append(f"raster written to {args.out}")
        payload["out"] = args.out
    emit(args, lines, payload)
    return EXIT_PASS


def cmd_transitivity(args) -> int:
    subject = load_subject(args)
    if not isinstance(subject, Transducer) or to_oracle(subject).delay != 0:
        raise FormatError("transitivity needs a synchronous transducer subject")
    report = family_transitivity(subject, args.resolution, args.depth, args.budget)
    lines = [f"family transitivity for {subject_label(args)}",
             f"word length {report.level}, depth {report.depth}, "
             f"{report.states_examined} state(s)"]
    if report.passed:
        lines.append("verdict: pass (every word pair is connected)")
    else:
        u, v = report.counterexample
        lines.append(f"verdict: fail, no state maps {u} to {v}")
    emit(args, lines, {
        "command": "transitivity",
        "level": report.level,
        "depth": report.depth,
        "states": report.states_examined,
        "passed": report.passed,
        "counterexample": list(report.counterexample) if report.counterexample else None,
    })
    return EXIT_PASS if report.passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if exc.code == 0 else EXIT_INPUT
    try:
        return args.handler(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PrecisionError as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
