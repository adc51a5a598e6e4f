"""Acceptance suite.

One test per criterion; each prints a single ``ACCEPTANCE <n> ...`` line
(run with ``pytest -s`` to see them as they pass).

Two checks deserve a note up front:

* Criterion 2 (coefficient conditions vs fiber-count oracle) is exact at
  delay n = 1 and n = 2.  The measure-preservation tail counts digits in
  base p: v(a_i) >= floor_log(p, i) - n + 1 past p^n.  A frozen n = 2
  witness passed the old base-p^n tail (v(a_i) >= floor_log(p^n, i)) yet
  has unbalanced fibers; the n = 2 test keeps it as a regression that the
  corrected conditions reject, confirmed unbalanced through two
  independent evaluation routes.  See README "Known findings".
* Criterion 4 (ergodicity conditions vs unique-cycle oracle) disagrees
  reproducibly under the zero-extension lift; per its own statement the
  counterexample is recorded as a documented finding rather than failing
  the build.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from padic_automata.geometry import (
    PointSet2D,
    cover_fraction,
    family_image,
    image_points,
)
from padic_automata.mahler import (
    CheckStatus,
    MahlerSeries,
    check_delay_conditions,
    check_ergodicity_conditions,
    check_measure_preserving_conditions,
    coeffs_from_oracle,
    series_oracle,
)
from padic_automata.quotient import (
    cycles,
    endomap,
    is_measure_preserving_upto,
    preimage_counts,
    reduce_map,
    unique_cycle_upto,
)
from padic_automata.subjects import (
    delay_echo_transducer,
    digitwise_add_family,
    identity_transducer,
    odometer_oracle,
    odometer_transducer,
    shift_oracle,
    zero_oracle,
)
from padic_automata.transducer import family_transitivity, function_of

import series_factory as sf

REPO_ROOT = Path(__file__).resolve().parent.parent

# Frozen regression witness at p=2, n=2: passed the old base-p^n
# measure-preservation tail (a_8 = 2 met the floor floor_log(4, 8) = 1) yet
# has unbalanced level-2 fibers (8/6/0/2).  The corrected base-p tail
# demands v(a_8) >= floor_log(2, 8) - 2 + 1 = 2 and rejects it.
MP_N2_COUNTEREXAMPLE = (0, 1, 3, 1, 1, 6, 2, 0, 2)

# Frozen counterexample: passes the ergodicity coefficient conditions at
# p=2, n=1 yet splits into two cycles at level 2 under the
# zero-extension lift (the documented lift finding).
ERGODIC_CYCLE_COUNTEREXAMPLE = (819, 1318, 2441, 1210)


def independent_reduction_fibers(series: MahlerSeries, k: int):
    """Fiber counts of the level-k reduction via per-point exact sums.

    Independent of the oracle's prefix-sum bulk route: every point is a
    fresh big-integer evaluation.
    """
    p, n = series.p, series.n
    cod = p ** (n * (k - 1))
    values = series.coefficient_values()
    table = [
        sum(a * math.comb(x, i) for i, a in enumerate(values)) % cod
        for x in range(p ** (n * k))
    ]
    return table, Counter(table)


# --------------------------------------------------------------------------
# 1. shift-map anchor
# --------------------------------------------------------------------------


def test_criterion_1_shift_anchor():
    started = time.perf_counter()
    oracle = shift_oracle(2, 1)
    series = coeffs_from_oracle(oracle, 16, 16)

    values = series.coefficient_values()
    assert values[0] == 0 and values[1] == 0
    for i in range(2, 16):
        assert values[i] == (-2) ** (i - 2) % 2 ** 16, f"a_{i}"

    assert check_delay_conditions(series).passed
    assert check_measure_preserving_conditions(series).passed
    assert check_ergodicity_conditions(series).passed

    mp = is_measure_preserving_upto(oracle, 10)
    assert mp.passed
    for level, hist in mp.histograms:
        assert hist == ((2, 2 ** (level - 1)),), f"level {level}"

    for k in range(1, 11):
        report = cycles(endomap(oracle, k), level=k)
        assert report.cycles == ((0,),), f"level {k}"

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"anchor took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 shift-anchor: PASS ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 2. measure-preservation conditions vs fiber-count oracle
# --------------------------------------------------------------------------


def _criterion_2_population(p, n, seed):
    rng = random.Random(seed)
    passing = [
        sf.mp_passing(rng, p, n, sf.draw_support(rng, p, n)) for _ in range(60)
    ] + [
        sf.ergodic_passing(rng, p, n, sf.draw_support(rng, p, n)) for _ in range(40)
    ]
    failing = [
        sf.mp_failing(rng, p, n, sf.draw_support(rng, p, n)) for _ in range(100)
    ]
    return passing, failing


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_2_mp_conditions_match_oracle_n1(p):
    passing, failing = _criterion_2_population(p, 1, seed=1000 + p)
    for series in passing:
        assert check_measure_preserving_conditions(series).passed
        verdict = is_measure_preserving_upto(series_oracle(series), 4)
        if not verdict.passed:
            table, fibers = independent_reduction_fibers(
                series, verdict.first_failing_level
            )
            oracle_table = reduce_map(
                series_oracle(series), verdict.first_failing_level
            ).table
            assert list(oracle_table) == table, "evaluation routes disagree"
            pytest.fail(
                f"disagreement at p={p}, n=1: coefficients "
                f"{series.coefficient_values()} pass the conditions but have "
                f"fibers {dict(sorted(fibers.items()))} at level "
                f"{verdict.first_failing_level} (confirmed exactly)"
            )
    for series in failing:
        assert not check_measure_preserving_conditions(series).passed
    print(f"ACCEPTANCE 2 mp-conditions-vs-oracle (p={p}, n=1): PASS (200 series)")


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_2_mp_conditions_match_oracle_n2(p):
    """Faithful check over the stated n = 2 grid.

    Frozen witness first: it passed the old base-p^n tail conditions but
    its level-2 fibers are unbalanced, so the corrected base-p conditions
    must reject it, and two independent evaluation routes must agree on
    the unbalanced fibers.  Then the random population: any series that
    passes the conditions but fails the fiber oracle through level 4 is
    confirmed by independent evaluation and fails the test with the full
    analysis.
    """
    if p == 2:
        witness = MahlerSeries.from_ints(2, 2, 12, MP_N2_COUNTEREXAMPLE)
        assert (
            check_measure_preserving_conditions(witness).verdict
            is CheckStatus.FAIL
        )
        verdict = is_measure_preserving_upto(series_oracle(witness), 4)
        assert verdict.first_failing_level == 2
        table, fibers = independent_reduction_fibers(witness, 2)
        assert list(reduce_map(series_oracle(witness), 2).table) == table
        assert dict(fibers) == {0: 8, 1: 6, 3: 2}  # 8/6/0/2, not all 4

    passing, failing = _criterion_2_population(p, 2, seed=2000 + p)
    population = passing[:25]
    for series in failing:
        assert not check_measure_preserving_conditions(series).passed

    disagreements = []
    for series in population:
        assert check_measure_preserving_conditions(series).passed
        verdict = is_measure_preserving_upto(series_oracle(series), 4)
        if not verdict.passed:
            k = verdict.first_failing_level
            table, fibers = independent_reduction_fibers(series, k)
            oracle_table = reduce_map(series_oracle(series), k).table
            assert list(oracle_table) == table, "evaluation routes disagree"
            disagreements.append((series, k, dict(sorted(fibers.items()))))
            break

    for series in passing[25:]:
        assert check_measure_preserving_conditions(series).passed

    if disagreements:
        series, k, fibers = disagreements[0]
        print(
            f"ACCEPTANCE 2 mp-conditions-vs-oracle (p={p}, n=2): FAIL "
            f"(witness {series.coefficient_values()})"
        )
        pytest.fail(
            f"the measure-preservation coefficient conditions are not "
            f"sufficient at p={p}, n=2: series {series.coefficient_values()} "
            f"passes them but its level-{k} fibers are {fibers} instead of "
            f"all {p ** 2}; confirmed by independent exact evaluation."
        )
    print(f"ACCEPTANCE 2 mp-conditions-vs-oracle (p={p}, n=2): PASS")


# --------------------------------------------------------------------------
# 3. ergodicity conditions imply measure-preservation conditions
# --------------------------------------------------------------------------


def test_criterion_3_structural_implication():
    rng = random.Random(33)
    checked = 0
    ergodic_hits = 0
    while checked < 1000:
        p, n = sf.ACCEPTANCE_CONFIGS[rng.randrange(len(sf.ACCEPTANCE_CONFIGS))]
        roll = rng.random()
        if roll < 0.4:
            series = sf.unconstrained(rng, p, n, sf.draw_support(rng, p, n))
        elif roll < 0.7:
            series = sf.mp_passing(rng, p, n, sf.draw_support(rng, p, n))
        else:
            series = sf.ergodic_passing(rng, p, n, sf.draw_support(rng, p, n))
        checked += 1
        if check_ergodicity_conditions(series).passed:
            ergodic_hits += 1
            assert check_measure_preserving_conditions(series).passed
    assert ergodic_hits >= 250, "implication barely exercised"
    print(
        f"ACCEPTANCE 3 structural-implication: PASS "
        f"({ergodic_hits}/1000 ergodic passes, all imply mp)"
    )


# --------------------------------------------------------------------------
# 4. ergodicity conditions vs unique-cycle oracle (documented finding)
# --------------------------------------------------------------------------


def test_criterion_4_ergodic_vs_cycle_oracle():
    # the frozen witness must reproduce exactly
    series = MahlerSeries.from_ints(2, 1, 12, ERGODIC_CYCLE_COUNTEREXAMPLE)
    assert check_ergodicity_conditions(series).passed
    assert check_measure_preserving_conditions(series).passed
    verdict = unique_cycle_upto(series_oracle(series), 4)
    assert not verdict.passed and verdict.first_failing_level == 2
    level2 = cycles(endomap(series_oracle(series), 2), level=2)
    assert len(level2.cycles) == 2

    # sweep the ergodic-passing sub-population; count both outcomes
    rng = random.Random(44)
    agreements = 0
    counterexamples = []
    for p, n, draws in ((2, 1, 25), (3, 1, 25), (2, 2, 25), (3, 2, 5)):
        for _ in range(draws):
            s = sf.ergodic_passing(rng, p, n, sf.draw_support(rng, p, n))
            assert check_ergodicity_conditions(s).passed
            if unique_cycle_upto(series_oracle(s), 4).passed:
                agreements += 1
            else:
                counterexamples.append((p, n, s.coefficient_values()))

    # the finding must be recorded, not silently ignored
    readme = (REPO_ROOT / "README.md").read_text()
    assert "zero-extension lift" in readme and "Known findings" in readme
    print(
        f"ACCEPTANCE 4 ergodic-vs-cycle-oracle: PASS with documented finding "
        f"({len(counterexamples)} lift counterexamples, {agreements} agreements; "
        f"frozen witness {ERGODIC_CYCLE_COUNTEREXAMPLE} reproduces)"
    )


# --------------------------------------------------------------------------
# 5. finite-resolution density bound
# --------------------------------------------------------------------------


def _cover_subjects():
    rng = random.Random(55)
    subjects = [
        ("shift p=2", shift_oracle(2, 1)),
        ("shift p=3", shift_oracle(3, 1)),
        ("shift n=2", shift_oracle(2, 2)),
        ("delay-echo n=1", function_of(delay_echo_transducer(2, 1))),
        ("delay-echo n=2", function_of(delay_echo_transducer(2, 2))),
        ("zero", zero_oracle(2, 1)),
    ]
    counts = {(2, 1): 12, (3, 1): 8, (2, 2): 8, (3, 2): 4}
    for (p, n), how_many in counts.items():
        for idx in range(how_many):
            series = sf.delay_sound(rng, p, n, sf.draw_support(rng, p, n))
            assert check_delay_conditions(series).passed
            subjects.append((f"series#{idx} p={p} n={n}", series_oracle(series)))
    return subjects


def test_criterion_5_cover_bound():
    shift_m4 = None
    for name, oracle in _cover_subjects():
        p, n = oracle.p, oracle.delay
        by_level = {k: image_points(oracle, k) for k in range(2, 8)}
        for m in (2, 3, 4):
            pts = PointSet2D.union([by_level[k] for k in range(m, m + 4)])
            report = cover_fraction(pts, m)
            bound = Fraction(p ** n, p ** m)
            assert report.fraction <= bound, (
                f"{name}: fraction {report.fraction} exceeds p^(n-m) = {bound} "
                f"at m={m}"
            )
            if name == "shift p=2" and m == 4:
                shift_m4 = report.fraction
    assert shift_m4 is not None and shift_m4 <= Fraction(1, 8)
    print(f"ACCEPTANCE 5 cover-bound: PASS (shift m=4 fraction {shift_m4})")


# --------------------------------------------------------------------------
# 6. transitive / intransitive family dichotomy
# --------------------------------------------------------------------------


def test_criterion_6_family_dichotomy():
    full = family_image(digitwise_add_family(2), 8, 4)
    assert full.fraction == 1

    for m in (2, 3, 4):
        diag = family_image(identity_transducer(2), 8, m)
        assert diag.fraction == Fraction(1, 2 ** m)

    odo = odometer_transducer(2)
    assert family_transitivity(odo, 1, 4).passed
    level2 = family_transitivity(odo, 2, 4)
    assert not level2.passed
    assert level2.counterexample == (0, 2)
    print(
        "ACCEPTANCE 6 family-dichotomy: PASS "
        "(add-family 1.0, identity p^-m, odometer fails at (0, 2))"
    )


# --------------------------------------------------------------------------
# 7. classical synchronous anchor
# --------------------------------------------------------------------------


def test_criterion_7_odometer_n0():
    for p in (2, 3):
        oracle = odometer_oracle(p)
        for k in range(1, 9):
            report = cycles(endomap(oracle, k), level=k)
            assert len(report.cycles) == 1
            assert len(report.cycles[0]) == p ** k
            assert report.transient_count == 0
        for k in range(2, 9):
            counts = preimage_counts(reduce_map(oracle, k))
            assert set(counts) == {1}
    print("ACCEPTANCE 7 odometer-anchor: PASS (single p^k-cycle, fibers all 1)")


# --------------------------------------------------------------------------
# 8. byte determinism of CLI reports and rasters
# --------------------------------------------------------------------------


def _run_cli(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "padic_automata.cli", *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    return proc.returncode, proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    check_argv = [
        "check", "--builtin", "shift", "--p", "2", "--n", "1",
        "--which", "ergodic", "--terms", "16", "--precision", "16",
        "--report-format", "json",
    ]
    code1, out1 = _run_cli(check_argv, tmp_path)
    code2, out2 = _run_cli(check_argv, tmp_path)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["verdict"] == "pass"

    pgm_bytes = []
    outs = []
    for name in ("first.pgm", "second.pgm"):
        argv = [
            "image", "--builtin", "shift", "--p", "2", "--n", "1",
            "--kmax", "7", "--resolution", "4",
            "--out", name, "--report-format", "json",
        ]
        code, out = _run_cli(argv, tmp_path)
        assert code == 0
        outs.append(out.replace(name.encode(), b"OUT"))
        pgm_bytes.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    assert pgm_bytes[0] == pgm_bytes[1]
    assert pgm_bytes[0].startswith(b"P5\n16 16\n255\n")
    print("ACCEPTANCE 8 cli-determinism: PASS (byte-identical reports and PGM)")
