"""Command-line driver.

Subjects are either a document file (``--subject``; series and transducer
schemas are described in :mod:`padic_automata.formats`) or a bundled
built-in (``--builtin`` with ``--p`` / ``--n`` / ``--coeffs``).  Every
command also takes ``--budget`` (>= 1) and ``--report-format``, and only these:

``coeffs``        Mahler coefficients: --terms --precision --out (series file)
``check``         coefficient conditions: --which delay|mp|ergodic --terms --precision
``brute``         finite-quotient oracles: --mode mp|cycles --kmax
``image``         geometric image, cover report, PGM: --kmax --resolution --depth --out
``transitivity``  family transitivity: --resolution (word length) --depth

Each subparser row names its command's handler and text template.
:func:`main` loads the subject, and the handler returns a report payload;
:func:`emit` adds the schema and the command, prints the report as JSON or
through the template, and maps it to the exit code.

Exit codes: 0 pass, 1 input error (an unwritable --out too), 2 insufficient
precision, 3 criterion fail, 4 budget exceeded; a closed stdout keeps the
verdict's code and prints nothing.  Machine-readable output
(``--report-format json``) is deterministic: two runs of one job give
identical bytes.

:func:`main` may be called repeatedly in one process.  Every call reuses one
parser, built by :func:`build_parser` on the first call; callers must not
mutate that parser.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted
from pathlib import Path

from . import geometry, mahler, quotient
from .errors import DEFAULT_BUDGET, BudgetExceededError, FormatError, PrecisionError, check_budget
from .formats import parse_document, serialize_series, write_file
from .mahler import MahlerSeries
from .oracle import FunctionOracle
from .padics import valuation
from .subjects import BUILTIN_NAMES, make_builtin
from .transducer import Transducer, function_of

# The exit code of every outcome, one row per code: a report's ``verdict``
# (check) or ``passed`` flag (brute, transitivity; None for coeffs and
# image), or the error that stopped the command, looked up by its nearest class.
EXIT_CODE = {
    "pass": 0, True: 0, None: 0,
    ValueError: 1, OSError: 1,
    "insufficient-precision": 2, PrecisionError: 2,
    "fail": 3, False: 3,
    BudgetExceededError: 4,
}
ERROR_PREFIX = {1: "error", 2: "insufficient precision", 4: "budget exceeded"}

REPORT_SCHEMA = "padic-automata-report-v1"


def positive(text: str) -> int:
    """The argparse type of --budget: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; never mutate it."""
    parser = argparse.ArgumentParser(
        prog="padic-automata",
        description="transducers and Mahler series as p-adic dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--subject", help="series or transducer document")
    common.add_argument("--builtin", choices=BUILTIN_NAMES, help="bundled subject")
    common.add_argument("--p", type=int, default=2, help="prime (built-ins)")
    common.add_argument("--n", type=int, default=1, help="delay parameter (built-ins)")
    common.add_argument("--coeffs", help="comma-separated integers for --builtin polynomial")
    common.add_argument("--budget", type=positive, default=DEFAULT_BUDGET)
    common.add_argument("--report-format", choices=("text", "json"), default="text")

    c = sub.add_parser(
        "coeffs", parents=[common], help="Mahler coefficients by finite differences"
    )
    c.add_argument("--terms", type=int, default=16, help="coefficient count M")
    c.add_argument("--precision", type=int, default=16, help="digits K")
    c.add_argument("--out", help="series document to write")
    c.set_defaults(handler=cmd_coeffs, template=_coeffs_text)

    c = sub.add_parser("check", parents=[common], help="decide the coefficient conditions")
    c.add_argument("--which", choices=_WHICH, required=True)
    c.add_argument("--terms", type=int, default=16, help="M when deriving a series")
    c.add_argument("--precision", type=int, default=16, help="digits K when deriving a series")
    c.set_defaults(handler=cmd_check, template=_check_text)

    c = sub.add_parser("brute", parents=[common], help="finite-quotient oracle checks")
    c.add_argument("--mode", choices=("mp", "cycles"), required=True)
    c.add_argument("--kmax", type=int, default=6)
    c.set_defaults(handler=cmd_brute, template=_brute_text)

    c = sub.add_parser("image", parents=[common], help="geometric image, cover report, PGM")
    c.add_argument("--kmax", type=int, default=6, help="levels 1..K to accumulate")
    c.add_argument("--resolution", type=int, default=3, help="grid exponent m")
    c.add_argument("--depth", type=int, default=6, help="family exploration depth")
    c.add_argument("--out", help="PGM raster to write")
    c.set_defaults(handler=cmd_image, template=_image_text)

    c = sub.add_parser("transitivity", parents=[common], help="family transitivity check")
    c.add_argument("--resolution", type=int, default=1, help="word length m")
    c.add_argument("--depth", type=int, default=4, help="state exploration depth")
    c.set_defaults(handler=cmd_transitivity, template=_transitivity_text)

    return parser


def load_subject(args):
    if bool(args.subject) == bool(args.builtin):
        raise FormatError("give exactly one of --subject FILE or --builtin NAME")
    if args.coeffs is not None and args.builtin != "polynomial":
        raise FormatError("--coeffs is read only by --builtin polynomial")
    if args.builtin:
        try:
            coeffs = [int(tok) for tok in args.coeffs.split(",")] if args.coeffs else None
        except ValueError:
            raise FormatError("--coeffs must be comma-separated integers")
        return make_builtin(args.builtin, args.p, args.n, coeffs)
    path = Path(args.subject)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise FormatError(f"no such subject file: {path}")
    return parse_document(text, name=str(path))


def to_oracle(subject, budget: int) -> FunctionOracle:
    if isinstance(subject, FunctionOracle):
        return subject
    if isinstance(subject, MahlerSeries):
        return mahler.series_oracle(subject)
    return function_of(subject, budget)


def to_series(subject, args) -> MahlerSeries:
    if isinstance(subject, MahlerSeries):
        return subject
    # M values of K + n input digits each are read, and their difference
    # triangle takes M(M+1)/2 subtractions
    oracle, terms = to_oracle(subject, args.budget), args.terms
    check_budget(terms * (args.precision + oracle.delay) + terms * (terms + 1) // 2, args.budget,
                 f"input digits and differences for {terms} terms")
    return mahler.coeffs_from_oracle(oracle, terms, args.precision)


# --- commands: each takes the subject and returns its report payload -----------


def cmd_coeffs(args, subject) -> dict:
    series = to_series(subject, args)
    payload = {
        "p": series.p,
        "n": series.n,
        "precision": series.precision,
        "coefficients": [
            {"index": i, "residue": a, "valuation": valuation(series.p, series.precision, a)}
            for i, a in enumerate(series.coeffs)
        ],
    }
    if args.out:
        write_file(args.out, serialize_series(series).encode())
        payload["out"] = args.out
    return payload


_WHICH = {
    "delay": mahler.check_delay_conditions,
    "mp": mahler.check_measure_preserving_conditions,
    "ergodic": mahler.check_ergodicity_conditions,
}


def cmd_check(args, subject) -> dict:
    series = to_series(subject, args)
    report = _WHICH[args.which](series)
    return {
        "which": report.which,
        "p": series.p,
        "n": series.n,
        "precision": series.precision,
        "checks": [
            {"index": c.index, "label": c.label, "required": c.required,
             "observed": c.observed, "status": c.status.value}
            for c in report.checks
        ],
        "verdict": report.verdict.value,
    }


def cmd_brute(args, subject) -> dict:
    oracle = to_oracle(subject, args.budget)
    if args.mode == "mp":
        verdict = quotient.is_measure_preserving_upto(oracle, args.kmax, args.budget)
        detail = {
            "expected_fiber": oracle.p ** oracle.delay,
            "levels": [{"level": k, "fibers": [list(pair) for pair in hist]}
                       for k, hist in verdict.histograms],
        }
    else:
        verdict = quotient.unique_cycle_upto(oracle, args.kmax, args.budget)
        detail = {"cycle_counts": [list(pair) for pair in verdict.cycle_counts]}
    return {
        "mode": args.mode,
        "p": oracle.p,
        "n": oracle.delay,
        "k_max": args.kmax,
        **detail,
        "passed": verdict.passed,
        "first_failing_level": verdict.first_failing_level,
    }


def cmd_image(args, subject) -> dict:
    m = args.resolution
    oracle = to_oracle(subject, args.budget)
    if args.out:
        check_budget(oracle.p ** (2 * m), args.budget, f"raster pixels ({oracle.p}^{2 * m})")
    family = isinstance(subject, Transducer) and oracle.delay == 0
    if family:
        points = geometry.family_points(subject, args.depth, args.budget)
    else:
        points = geometry.accumulate_image(oracle, range(1, args.kmax + 1), args.budget)
    report = geometry.cover_fraction(points, m)
    payload = {
        "p": report.p,
        "n": oracle.delay,
        "levels": list(range(1, (args.depth if family else args.kmax) + 1)),
        "m": report.m,
        "occupied": report.occupied,
        "fraction": [report.fraction.numerator, report.fraction.denominator],
    }
    if not family:
        bound = Fraction(oracle.p ** oracle.delay, oracle.p ** m)
        payload["bound"] = [bound.numerator, bound.denominator]
    if args.out:
        geometry.render_pgm(report, m, args.out)
        payload["out"] = args.out
    return payload


def cmd_transitivity(args, subject) -> dict:
    if not isinstance(subject, Transducer) or to_oracle(subject, args.budget).delay != 0:
        raise FormatError("transitivity needs a synchronous transducer subject")
    report = geometry.family_transitivity(subject, args.resolution, args.depth, args.budget)
    return {
        "level": args.resolution,
        "depth": args.depth,
        "states": report.states_examined,
        "passed": report.passed,
        "counterexample": list(report.counterexample) if report.counterexample else None,
    }


# --- text templates: each reads the payload and the subject label --------------


def _fraction_text(pair: list[int]) -> str:
    return f"{pair[0]}/{pair[1]} = {float(Fraction(*pair)):.6f}"


def _coeffs_text(r: dict, subject: str) -> list[str]:
    precision = r["precision"]
    lines = [f"mahler coefficients of {subject}",
             f"p={r['p']} n={r['n']} precision={precision} terms={len(r['coefficients'])}"]
    for row in r["coefficients"]:
        shown = f">= {precision}" if row["valuation"] is None else row["valuation"]
        lines.append(f"  a_{row['index']} = {row['residue']}   valuation {shown}")
    if "out" in r:
        lines.append(f"series written to {r['out']}")
    return lines


def _check_text(r: dict, subject: str) -> list[str]:
    lines = [f"{r['which']} conditions for {subject}",
             f"p={r['p']} n={r['n']} precision={r['precision']}"]
    for c in r["checks"]:
        observed = f">={r['precision']}" if c["observed"] is None else c["observed"]
        lines.append(f"  {c['label']}: required valuation {c['required']}, observed {observed}"
                     f" -> {c['status']}")
    return [*lines, f"verdict: {r['verdict']}"]


def _brute_text(r: dict, subject: str) -> list[str]:
    if r["mode"] == "mp":
        lines = [f"preimage-count criterion for {subject}",
                 f"p={r['p']} n={r['n']} expected fiber {r['expected_fiber']}"]
        for level in r["levels"]:
            text = ", ".join(f"{size}x{count}" for size, count in level["fibers"])
            lines.append(f"  level {level['level']}: fibers {{{text}}}")
    else:
        lines = [f"unique-cycle criterion for {subject}", f"p={r['p']} n={r['n']}"]
        lines.extend(f"  level {k}: {count} cycle(s)" for k, count in r["cycle_counts"])
    verdict = "pass" if r["passed"] else f"fail at level {r['first_failing_level']}"
    return [*lines, f"verdict: {verdict}"]


def _image_text(r: dict, subject: str) -> list[str]:
    lines = [f"cover report for {subject}",
             f"p={r['p']} n={r['n']} levels={r['levels']} m={r['m']}",
             f"occupied {r['occupied']} of {r['p'] ** (2 * r['m'])} cells",
             f"fraction {_fraction_text(r['fraction'])}"]
    if "bound" in r:
        lines.append(f"delay bound p^(n-m) = {_fraction_text(r['bound'])}")
    if "out" in r:
        lines.append(f"raster written to {r['out']}")
    return lines


def _transitivity_text(r: dict, subject: str) -> list[str]:
    if r["passed"]:
        verdict = "pass (every word pair is connected)"
    else:
        verdict = "fail, no state maps {} to {}".format(*r["counterexample"])
    return [f"family transitivity for {subject}",
            f"word length {r['level']}, depth {r['depth']}, {r['states']} state(s)",
            f"verdict: {verdict}"]


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it.

    Only report values are written: dicts with str keys, lists, str, int,
    bool and None; anything else raises :class:`TypeError`.  Strings go
    through the C escaper, and ints, the commonest entries, are inlined.
    """
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    kind, inner = type(value), indent + "  "
    if kind is int:
        return repr(value)
    if kind is str:
        return _quoted(value)
    if kind is list:
        items = [repr(v) if type(v) is int else _json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if kind is dict:
        items = [f"{_quoted(k)}: {repr(v) if type(v) is int else _json(v, inner)}"
                 for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"a report cannot hold a {kind.__name__}")


def emit(args, payload: dict) -> int:
    """Print one command's payload in the asked format; return its exit code.

    A reader that closes stdout early (``| head``) does not change the
    code: the rest of the report is dropped, and stdout is pointed at
    ``os.devnull`` so that the flush at interpreter exit prints nothing.
    """
    if args.report_format == "json":
        text = _json({"schema": REPORT_SCHEMA, "command": args.command, **payload})
    else:  # a built-in is named with the report's n (0 if none), not with --n
        subject = (f"built-in {args.builtin} (p={args.p}, n={payload.get('n', 0)})"
                   if args.builtin else f"file {args.subject}")
        text = "\n".join(args.template(payload, subject))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_CODE[payload.get("verdict", payload.get("passed"))]


def main(argv: list[str] | None = None) -> int:
    """Run one CLI job on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    It may be called repeatedly in one process; every call reuses the one
    parser :func:`build_parser` built on the first call, which callers must
    not mutate.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1  # --help, or a usage error (bad input)
    try:
        return emit(args, args.handler(args, load_subject(args)))
    except (ValueError, BudgetExceededError, OSError) as exc:
        code = next(EXIT_CODE[cls] for cls in type(exc).__mro__ if cls in EXIT_CODE)
        print(f"{ERROR_PREFIX[code]}: {exc}", file=sys.stderr)
        return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
