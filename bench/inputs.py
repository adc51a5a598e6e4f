"""Seeded inputs for the three benchmark workloads.

Everything here is plain data (integers, tuples and document text), so the
program under test receives only generated inputs.  The generators are kept
apart from the test suite's factories on purpose: those factories follow the
package's coefficient floors, which are expected to change, and a change
there must not silently shift the workload.  The floors below are frozen at
the statement the benchmark was defined against.

The *structure* of every population (which (p, n) configurations, supports,
levels and document sizes occur, and how often) is fixed; the seed draws the
coefficient values, the machine tables and the job order.  That keeps the
cost of a population nearly independent of the seed, so runs with different
seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRECISION = 16
CONFIGS = ((2, 1), (3, 1), (2, 2), (3, 2))
FAMILIES = ("mp-passing", "mp-failing", "ergodic-passing", "unconstrained")

# Frozen witnesses (README "Known findings"): the first passes the
# measure-preservation conditions at p=2, n=2 but has unbalanced level-2
# fibers; the second passes the ergodicity conditions at p=2, n=1 but splits
# into two cycles at level 2 under the zero-extension lift.
FINDING_1 = (2, 2, (0, 1, 3, 1, 1, 6, 2, 0, 2))
FINDING_3 = (2, 1, (819, 1318, 2441, 1210))


@dataclass(frozen=True)
class SizeTable:
    """Everything about a population that does not depend on the seed."""

    # crosscheck: top level per (p, n) and supports per (config, family)
    crosscheck_top: dict
    crosscheck_supports: int
    # image: resolutions m per (p, n) for series jobs, supports per resolution
    image_resolutions: dict
    image_supports: int
    image_oracles: tuple  # (kind, p, n, m) for shift and delay-echo jobs
    image_families: tuple  # (name, p, depth, m)
    # machines: document count, domain-size range in bits, anchor jobs
    documents: int
    domain_bits: tuple
    coeff_terms: tuple
    anchors: tuple  # (builtin, p, n, mode, kmax)
    transitivity: tuple  # (builtin, p, resolution, depth)


SIZES = {
    "full": SizeTable(
        crosscheck_top={(2, 1): 13, (3, 1): 8, (2, 2): 7, (3, 2): 4},
        crosscheck_supports=5,
        image_resolutions={(2, 1): (3, 4, 5), (3, 1): (2, 3), (2, 2): (2, 3, 4), (3, 2): (1, 2)},
        image_supports=4,
        image_oracles=(
            ("shift", 2, 1, 4), ("shift", 3, 1, 3), ("shift", 2, 2, 3),
            ("delay-echo", 2, 1, 4), ("delay-echo", 3, 1, 2), ("delay-echo", 2, 2, 3),
        ),
        image_families=(
            ("digitwise-add", 2, 6, 4), ("digitwise-add", 3, 3, 3),
            ("identity", 2, 10, 4), ("identity", 3, 6, 3),
            ("odometer", 2, 10, 4), ("odometer", 3, 6, 3),
        ),
        documents=12,
        domain_bits=(7, 12),
        coeff_terms=(12, 32),
        anchors=(
            ("shift", 2, 1, "mp", 16), ("shift", 2, 1, "cycles", 16),
            ("odometer", 2, 1, "mp", 11), ("odometer", 2, 1, "cycles", 11),
            ("zero", 2, 1, "mp", 14), ("zero", 2, 1, "cycles", 14),
        ),
        transitivity=(
            ("digitwise-add", 2, 2, 2), ("digitwise-add", 2, 3, 3),
            ("digitwise-add", 2, 4, 4), ("digitwise-add", 3, 2, 2),
            ("odometer", 2, 1, 4), ("odometer", 2, 2, 4), ("odometer", 2, 3, 4),
        ),
    ),
    # a few milliseconds per job, for the benchmark's own smoke tests
    "tiny": SizeTable(
        crosscheck_top={(2, 1): 5, (3, 1): 3, (2, 2): 3, (3, 2): 2},
        crosscheck_supports=1,
        image_resolutions={(2, 1): (2,), (3, 1): (1,), (2, 2): (1,), (3, 2): (1,)},
        image_supports=1,
        image_oracles=(("shift", 2, 1, 2), ("delay-echo", 2, 1, 2)),
        image_families=(
            ("digitwise-add", 2, 2, 2), ("identity", 2, 3, 2), ("odometer", 3, 2, 1),
        ),
        documents=3,
        domain_bits=(4, 5),
        coeff_terms=(4, 6),
        anchors=(
            ("shift", 2, 1, "mp", 5), ("odometer", 2, 1, "cycles", 4),
            ("zero", 2, 1, "cycles", 4),
        ),
        transitivity=(("digitwise-add", 2, 2, 2), ("odometer", 2, 2, 3)),
    ),
}


def floor_log(base: int, i: int) -> int:
    """Largest e >= 0 with base**e <= i (i >= 1)."""
    e, power = 0, base
    while power <= i:
        e, power = e + 1, power * base
    return e


def spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers evenly spaced from lo to hi, both ends included."""
    if count == 1:
        return [lo]
    return [lo + round(j * (hi - lo) / (count - 1)) for j in range(count)]


# ---------------------------------------------------------------------------
# Mahler series populations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesInput:
    p: int
    n: int
    precision: int
    values: tuple[int, ...]
    family: str


def _tail_floor(p: int, n: int, i: int) -> int:
    return floor_log(p ** n, i)


def _delay_sound_floor(p: int, n: int, i: int) -> int:
    # the delay check's floor, raised to the one that makes x = y mod p^(m+n)
    # force f(x) = f(y) mod p^m through the binomial Lipschitz bound
    return max(floor_log(p ** n, i) - 1, floor_log(p, i) - n, 0)


def _with_floor(rng: random.Random, p: int, precision: int, floor: int) -> int:
    return p ** floor * rng.randrange(p ** (precision - floor))


def _unit(rng: random.Random, p: int, precision: int) -> int:
    while True:
        u = rng.randrange(p ** precision)
        if u % p:
            return u


def _mp_passing(rng, p, n, support, precision):
    q = p ** n
    values = []
    for i in range(support):
        if i == q:
            values.append(_unit(rng, p, precision))
        elif i > q:
            values.append(_with_floor(rng, p, precision, _tail_floor(p, n, i)))
        else:
            values.append(rng.randrange(p ** precision))
    return values


def _mp_failing(rng, p, n, support, precision):
    """An mp-passing draw with exactly one congruence broken."""
    values = _mp_passing(rng, p, n, support, precision)
    q = p ** n
    tail = list(range(q + 1, support))
    if tail and rng.random() < 0.5:
        i = rng.choice(tail)
        floor = _tail_floor(p, n, i)
        values[i] = p ** (floor - 1) * _unit(rng, p, precision - floor + 1)
    else:
        values[q] = p * rng.randrange(p ** (precision - 1))
    return values


def _ergodic_passing(rng, p, n, support, precision):
    q = p ** n
    values = _mp_passing(rng, p, n, support, precision)
    values[q] = 1 + p * rng.randrange(p ** (precision - 1))
    head = sum(values[1:q]) % p
    values[1] = (values[1] - head) % p ** precision
    return values


def _unconstrained(rng, p, n, support, precision):
    return [rng.randrange(p ** precision) for _ in range(support)]


def _delay_sound(rng, p, n, support, precision):
    values = [rng.randrange(p ** precision)]
    for i in range(1, support):
        values.append(_with_floor(rng, p, precision, _delay_sound_floor(p, n, i)))
    return values


_DRAW = {
    "mp-passing": _mp_passing,
    "mp-failing": _mp_failing,
    "ergodic-passing": _ergodic_passing,
    "unconstrained": _unconstrained,
    "delay-sound": _delay_sound,
}


def draw_series(rng: random.Random, family: str, p: int, n: int, support: int) -> SeriesInput:
    values = _DRAW[family](rng, p, n, support, PRECISION)
    return SeriesInput(p, n, PRECISION, tuple(values), family)


def support_range(p: int, n: int) -> tuple[int, int]:
    """Supports that leave room for the unit coefficient a_(p^n)."""
    return p ** n + 1, p ** (2 * n) + 4


def _witness(finding: tuple, family: str) -> SeriesInput:
    p, n, values = finding
    return SeriesInput(p, n, PRECISION, values, family)


# ---------------------------------------------------------------------------
# Workload populations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckSpec:
    series: SeriesInput
    kmax: int


def crosscheck_population(seed: int, size: str) -> tuple[CrosscheckSpec, list[CrosscheckSpec]]:
    """(warm-up job, shuffled population); the warm-up is the Finding 1 witness."""
    table = SIZES[size]
    rng = random.Random(seed)
    jobs = []
    for p, n in CONFIGS:
        lo, hi = support_range(p, n)
        # families take turns along one grid of supports, so that job costs
        # (which grow with the support) spread evenly instead of clustering
        supports = spread(lo, hi, len(FAMILIES) * table.crosscheck_supports)
        for j, support in enumerate(supports):
            family = FAMILIES[j % len(FAMILIES)]
            jobs.append(CrosscheckSpec(draw_series(rng, family, p, n, support),
                                       table.crosscheck_top[(p, n)]))
    warmup = CrosscheckSpec(_witness(FINDING_1, "finding-1"), table.crosscheck_top[(2, 2)])
    jobs.append(warmup)
    jobs.append(CrosscheckSpec(_witness(FINDING_3, "finding-3"), table.crosscheck_top[(2, 1)]))
    rng.shuffle(jobs)
    return warmup, jobs


@dataclass(frozen=True)
class ImageSpec:
    """``kind`` is "series", "shift", "delay-echo" or "family"; ``name`` names
    the family machine; ``depth`` is the family exploration depth."""

    kind: str
    p: int
    n: int
    m: int
    series: SeriesInput | None = None
    name: str = ""
    depth: int = 0


def image_population(seed: int, size: str) -> tuple[ImageSpec, list[ImageSpec]]:
    """(warm-up job, shuffled population); the warm-up is the first shift job."""
    table = SIZES[size]
    rng = random.Random(seed)
    jobs = []
    for (p, n), resolutions in table.image_resolutions.items():
        lo, hi = support_range(p, n)
        for m in resolutions:
            for support in spread(lo, hi, table.image_supports):
                series = draw_series(rng, "delay-sound", p, n, support)
                jobs.append(ImageSpec("series", p, n, m, series=series))
    for kind, p, n, m in table.image_oracles:
        jobs.append(ImageSpec(kind, p, n, m))
    for name, p, depth, m in table.image_families:
        jobs.append(ImageSpec("family", p, 0, m, name=name, depth=depth))
    warmup = next(j for j in jobs if j.kind == "shift")
    rng.shuffle(jobs)
    return warmup, jobs


def transducer_document(rng: random.Random, p: int, n: int, states: int) -> str:
    """A ``padic-transducer-v1`` machine with delay n and ``states`` states.

    n wait states read the first n letters silently (the last one branches
    on the letter into the core); the core states emit one letter per
    letter, so the output runs exactly n letters behind the input.  Delay 0
    documents are synchronous.
    """
    waits = [f"w{i}" for i in range(n)]
    core = [f"s{i}" for i in range(states - n)]
    lines = [
        "schema padic-transducer-v1",
        f"p {p}",
        f"kind {'async' if n else 'sync'}",
        f"initial {(waits or core)[0]}",
    ]
    for i, state in enumerate(waits):
        for a in range(p):
            nxt = waits[i + 1] if i + 1 < n else rng.choice(core)
            lines.append(f"trans {state} {a} {nxt} :")
    for state in core:
        for a in range(p):
            lines.append(f"trans {state} {a} {rng.choice(core)} : {rng.randrange(p)}")
    return "\n".join(lines) + "\n"


def _level_for(p: int, n: int, bits: int) -> int:
    """Largest level whose reduction domain holds at most 2^bits residues."""
    step = max(n, 1)
    k = 2
    while p ** (step * (k + 1)) <= 2 ** bits:
        k += 1
    return k


@dataclass(frozen=True)
class MachineSpec:
    """One ``cli.main`` job: argv without the report-format flag.

    ``kind`` is "document", "anchor" or "transitivity"; ``doc`` names the
    document a job reads (document jobs only).
    """

    kind: str
    argv: tuple[str, ...]
    doc: str = ""


def machines_population(seed: int, size: str) -> tuple[dict, MachineSpec, list[MachineSpec]]:
    """(documents by file name, warm-up job, shuffled population).

    Each document gets ``brute --mode mp``, ``brute --mode cycles``,
    ``coeffs --out X.series`` and, at delay >= 1, ``check --subject X.series``
    for each of the three conditions (the conditions are stated for delay
    n >= 1 only, so a delay-0 series would be an input error).
    """
    table = SIZES[size]
    rng = random.Random(seed)
    docs = {}
    jobs = []
    count = table.documents
    shapes = [(p, n) for p in (2, 3) for n in (0, 1, 2)]
    state_counts = spread(4, 16, count)
    bits = spread(*table.domain_bits, count)
    terms = spread(*table.coeff_terms, count)
    for i in range(count):
        p, n = shapes[i % len(shapes)]
        name = f"d{i:02d}.txt"
        series = f"d{i:02d}.series"
        docs[name] = transducer_document(rng, p, n, state_counts[i])
        kmax = str(_level_for(p, n, bits[i]))
        for mode in ("mp", "cycles"):
            jobs.append(MachineSpec("document", ("brute", "--subject", name, "--mode", mode, "--kmax", kmax), name))
        jobs.append(MachineSpec("document", ("coeffs", "--subject", name, "--terms", str(terms[i]),
                                             "--precision", "12", "--out", series), name))
        if n:
            for which in ("delay", "mp", "ergodic"):
                jobs.append(MachineSpec("document", ("check", "--subject", series, "--which", which), name))
    for builtin, p, n, mode, kmax in table.anchors:
        jobs.append(MachineSpec("anchor", ("brute", "--builtin", builtin, "--p", str(p), "--n", str(n),
                                           "--mode", mode, "--kmax", str(kmax))))
    for builtin, p, resolution, depth in table.transitivity:
        jobs.append(MachineSpec("transitivity", ("transitivity", "--builtin", builtin, "--p", str(p),
                                                 "--resolution", str(resolution), "--depth", str(depth))))
    warmup = next(j for j in jobs if j.kind == "anchor")
    rng.shuffle(jobs)
    _coeffs_before_checks(jobs)
    return docs, warmup, jobs


def _coeffs_before_checks(jobs: list[MachineSpec]) -> None:
    """Move each document's coeffs job ahead of the checks that read its output."""
    for i, job in enumerate(jobs):
        if job.argv[0] != "coeffs":
            continue
        first_check = min(
            (j for j, other in enumerate(jobs[:i]) if other.argv[0] == "check" and other.doc == job.doc),
            default=None,
        )
        if first_check is not None:
            jobs.insert(first_check, jobs.pop(i))
