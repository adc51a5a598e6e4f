import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from padic_automata import mahler
from padic_automata.cli import _json, build_parser, main
from padic_automata.formats import serialize_series
from padic_automata.mahler import MahlerSeries
from test_quotient import _orbit_cycles

ODD_HEAD_SERIES = MahlerSeries.from_ints(2, 1, 8, [0, 1, 1])
UNDECIDABLE_SERIES = MahlerSeries.from_ints(2, 1, 1, [0] * 9)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_shift_table(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--builtin", "shift", "--p", "2", "--n", "1",
        "--terms", "6", "--precision", "8",
    )
    assert code == 0
    assert "a_5 = 248" in out


def test_coeffs_writes_series_file(capsys, tmp_path):
    path = tmp_path / "shift.series"
    code, out, _ = run(
        capsys, "coeffs", "--builtin", "shift", "--terms", "8",
        "--precision", "10", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "check", "--subject", str(path), "--which", "ergodic")
    assert code == 0
    assert "verdict: pass" in out


def test_check_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.series"
    good.write_text(serialize_series(MahlerSeries.from_ints(2, 1, 8, [0, 0, 1])))
    assert run(capsys, "check", "--subject", str(good), "--which", "ergodic")[0] == 0

    bad = tmp_path / "bad.series"
    bad.write_text(serialize_series(ODD_HEAD_SERIES))
    code, out, _ = run(capsys, "check", "--subject", str(bad), "--which", "ergodic")
    assert code == 3
    assert "verdict: fail" in out

    undecidable = tmp_path / "thin.series"
    undecidable.write_text(serialize_series(UNDECIDABLE_SERIES))
    code, out, _ = run(
        capsys, "check", "--subject", str(undecidable), "--which", "delay"
    )
    assert code == 2
    assert "insufficient" in out


def test_check_derives_series_from_builtin(capsys):
    code, out, _ = run(
        capsys, "check", "--builtin", "shift", "--which", "mp",
        "--terms", "12", "--precision", "12",
    )
    assert code == 0


@pytest.mark.parametrize("which", ["delay", "mp", "ergodic"])
def test_check_refuses_a_synchronous_builtin(capsys, which):
    """The coefficient conditions are stated for n >= 1, so the odometer's
    derived series (n = 0) is an input error for each of the three."""
    code, out, err = run(capsys, "check", "--builtin", "odometer", "--which", which)
    assert (code, out) == (1, "")
    assert "stated for delay n >= 1; this series declares n = 0" in err


def test_brute_mp(capsys):
    code, out, _ = run(
        capsys, "brute", "--builtin", "shift", "--mode", "mp", "--kmax", "8"
    )
    assert code == 0
    assert "verdict: pass" in out

    code, out, _ = run(
        capsys, "brute", "--builtin", "zero", "--mode", "mp", "--kmax", "4"
    )
    assert code == 3
    assert "fail at level 2" in out


@pytest.mark.parametrize("argv, code", [
    ("brute --builtin zero --n 0 --mode mp --kmax 4", 3),
    ("brute --builtin delay-echo --n 2 --mode cycles --kmax 5", 0),
])
def test_brute_builtins_at_delays_0_and_2(capsys, argv, code):
    assert run(capsys, *argv.split())[0] == code


@pytest.mark.parametrize(
    "coeffs, lower, first_fail",
    [
        # folding level 4's counts would read {2x2} and {2x4} at levels 2 and
        # 3 for both series, and so fail at level 4 and never at 2 or 3
        ([0, 0, 0, 0, 1], {2: [[0, 1], [4, 1]], 3: [[0, 1], [2, 2], [4, 1]]}, 2),
        ([0, 1, 0, 0, 1], {2: [[2, 2]], 3: [[1, 2], [3, 2]]}, 3),
    ],
    ids=["binomial-4", "x-plus-binomial-4"],
)
def test_brute_mp_counts_a_delay_unsound_series_at_every_level(capsys, tmp_path, coeffs,
                                                               lower, first_fail):
    """C(x, 4) at p = 2, n = 1 breaks the delay floor at a_4, so a lower
    level's fibers are not read off the level above: each level is
    counted on its own prefix of the table."""
    series = MahlerSeries.from_ints(2, 1, 12, coeffs)
    assert mahler.check_delay_conditions(series).verdict is mahler.CheckStatus.FAIL
    path = tmp_path / "c4.series"
    path.write_text(serialize_series(series))
    code, out, _ = run(capsys, "brute", "--subject", str(path), "--mode", "mp", "--kmax", "4",
                       "--report-format", "json")
    report = json.loads(out)
    levels = {level["level"]: level["fibers"] for level in report["levels"]}
    assert {k: levels[k] for k in lower} == lower
    f = [sum(a * math.comb(x, i) for i, a in enumerate(coeffs)) for x in range(2 ** 4)]
    for k in (2, 3, 4):  # x < 2^k -> f(x) mod 2^(k-1), point by point
        fibers = Counter(v % 2 ** (k - 1) for v in f[:2 ** k])
        assert levels[k] == sorted(map(list, Counter(fibers[y] for y in range(2 ** (k - 1))).items()))
    assert (code, report["passed"], report["first_failing_level"]) == (3, False, first_fail)


def test_brute_cycles(capsys):
    code, out, _ = run(
        capsys, "brute", "--builtin", "shift", "--mode", "cycles", "--kmax", "8"
    )
    assert code == 0
    assert out.count("1 cycle(s)") == 8


def test_brute_mp_shift_through_level_16(capsys):
    code, out, _ = run(capsys, "brute", "--builtin", "shift", "--mode", "mp",
                       "--kmax", "16", "--report-format", "json")
    assert code == 0
    assert json.loads(out)["levels"] == [
        {"level": k, "fibers": [[2, 2 ** (k - 1)]]} for k in range(2, 17)
    ]


def test_brute_cycles_shift_through_level_12(capsys):
    code, out, _ = run(capsys, "brute", "--builtin", "shift", "--mode", "cycles",
                       "--kmax", "12", "--report-format", "json")
    assert code == 0
    assert json.loads(out)["cycle_counts"] == [[k, 1] for k in range(1, 13)]


def test_brute_budget_exceeded(capsys):
    code, _, err = run(
        capsys, "brute", "--builtin", "shift", "--mode", "mp", "--kmax", "12",
        "--budget", "64",
    )
    assert code == 4
    assert "budget" in err


def test_image_writes_pgm_and_bound(capsys, tmp_path):
    path = tmp_path / "shift.pgm"
    code, out, _ = run(
        capsys, "image", "--builtin", "shift", "--kmax", "6",
        "--resolution", "3", "--out", str(path),
    )
    assert code == 0
    assert "fraction 1/4" in out
    assert "occupied 16 of 64" in out
    assert "bound" in out
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 8\n255\n")


@pytest.mark.parametrize("subject", [("--builtin", "shift"), ("--builtin", "identity")])
def test_image_out_gates_raster_pixels(capsys, tmp_path, subject):
    """--out needs a 2^6 x 2^6 raster at m = 6: 4096 pixels against --budget."""
    path = tmp_path / "x.pgm"
    argv = ["image", *subject, "--kmax", "3", "--depth", "3", "--resolution", "6",
            "--out", str(path)]
    code, out, err = run(capsys, *argv, "--budget", "4095")
    assert (code, out) == (4, "")
    assert err == "budget exceeded: 4096 raster pixels (2^12) exceed the budget 4095\n"
    assert not path.exists()
    assert run(capsys, *argv, "--budget", "4096")[0] == 0
    assert path.read_bytes().startswith(b"P5\n64 64\n255\n")


def test_image_family_identity(capsys):
    code, out, _ = run(
        capsys, "image", "--builtin", "identity", "--depth", "6",
        "--resolution", "4",
    )
    assert code == 0
    assert "fraction 1/16" in out


def test_image_family_digitwise_add(capsys):
    code, out, _ = run(
        capsys, "image", "--builtin", "digitwise-add", "--depth", "8",
        "--resolution", "4",
    )
    assert code == 0
    assert "fraction 1/1" in out
    assert "occupied 256 of 256" in out


def test_transitivity_verdicts(capsys):
    code, out, _ = run(
        capsys, "transitivity", "--builtin", "identity", "--resolution", "1"
    )
    assert code == 3
    assert "no state maps 0 to 1" in out

    code, out, _ = run(
        capsys, "transitivity", "--builtin", "digitwise-add",
        "--resolution", "3", "--depth", "3",
    )
    assert code == 0

    code, out, _ = run(
        capsys, "transitivity", "--builtin", "odometer",
        "--resolution", "2", "--depth", "4",
    )
    assert code == 3
    assert "no state maps 0 to 2" in out


def test_transitivity_budget_exceeded(capsys):
    # 2^12 states x (2 + ... + 2^12) walked nodes is over the default budget 2^24
    code, _, err = run(
        capsys, "transitivity", "--builtin", "digitwise-add",
        "--resolution", "12", "--depth", "12",
    )
    assert code == 4
    assert "budget" in err


def test_transitivity_budget_checked_before_listing_states(capsys):
    # 2^40 states are counted, not listed, before the budget stops the run
    code, _, err = run(
        capsys, "transitivity", "--builtin", "digitwise-add",
        "--resolution", "1", "--depth", "40", "--budget", "1000",
    )
    assert code == 4
    assert "budget" in err


@pytest.mark.parametrize("command", ["transitivity", "image"])
def test_family_budget_counts_states_past_sys_maxsize(capsys, command):
    # 3^40 states do not fit a C ssize_t, so len() of the family overflows
    code, out, err = run(
        capsys, command, "--builtin", "digitwise-add", "--p", "3",
        "--resolution", "1", "--depth", "40", "--budget", "1000",
    )
    assert (code, out) == (4, "")
    assert "budget" in err


def test_image_empty_level_range(capsys):
    code, out, err = run(capsys, "image", "--builtin", "shift", "--kmax", "0")
    assert (code, out) == (1, "")
    assert err == "error: empty level range: an image needs a level k >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--builtin", "shift", "--terms", "3", "--out"],
        ["image", "--builtin", "shift", "--kmax", "2", "--out"],
    ],
    ids=["coeffs", "image"],
)
def test_out_into_missing_directory_is_an_input_error(capsys, tmp_path, argv):
    target = tmp_path / "missing-dir" / "x.out"
    code, out, err = run(capsys, *argv, str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "missing-dir" in err
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--builtin", "shift", "--terms", "3", "--out"],
        ["image", "--builtin", "shift", "--kmax", "3", "--resolution", "2", "--out"],
    ],
    ids=["coeffs", "image"],
)
def test_out_to_a_device_is_written_untruncated(capsys, tmp_path, argv):
    target = str(tmp_path / "x.out")
    code, out, err = run(capsys, *argv, target)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, os.devnull) == (0, out.replace(target, os.devnull), "")


def test_out_over_a_longer_file_is_trimmed(capsys, tmp_path):
    """A 4 x 4 raster written over an 8 x 8 one leaves only its own 27 bytes."""
    path = tmp_path / "y.pgm"
    argv = ["image", "--builtin", "shift", "--kmax", "3", "--out", str(path), "--resolution"]
    assert run(capsys, *argv, "3")[0] == 0
    assert run(capsys, *argv, "2")[0] == 0
    data = path.read_bytes()
    assert data.startswith(b"P5\n4 4\n255\n") and len(data) == 27


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["check", "--builtin", "shift", "--which", "mp"],
    ["brute", "--builtin", "shift", "--mode", "mp"],
    ["transitivity", "--builtin", "identity"],
])
def test_budget_below_one_is_a_usage_error(capsys, command, budget):
    code, out, err = run(capsys, *command, "--budget", budget)
    assert (code, out) == (1, "")
    assert f"argument --budget: must be at least 1, got {budget}" in err
    assert run(capsys, *command, "--budget", "1")[0] == 4  # accepted, then spent


COMMON_FLAGS = {
    "-h", "--help", "--subject", "--builtin", "--p", "--n", "--coeffs",
    "--budget", "--report-format",
}
COMMAND_FLAGS = {
    "coeffs": {"--terms", "--precision", "--out"},
    "check": {"--which", "--terms", "--precision"},
    "brute": {"--mode", "--kmax"},
    "image": {"--kmax", "--resolution", "--depth", "--out"},
    "transitivity": {"--resolution", "--depth"},
}


def test_each_command_accepts_only_the_flags_it_reads(capsys, tmp_path):
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    flags = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        for name, sub in commands.items()
    }
    assert flags == {name: COMMON_FLAGS | own for name, own in COMMAND_FLAGS.items()}
    out_path = str(tmp_path / "never-written")
    for argv in (
        ["brute", "--builtin", "shift", "--mode", "mp", "--precision", "8"],
        ["image", "--builtin", "shift", "--precision", "8"],
        ["transitivity", "--builtin", "identity", "--precision", "8"],
        ["check", "--builtin", "shift", "--which", "mp", "--out", out_path],
        ["brute", "--builtin", "shift", "--mode", "mp", "--out", out_path],
        ["transitivity", "--builtin", "identity", "--out", out_path],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


def test_transitivity_needs_sync_subject(capsys, tmp_path):
    path = tmp_path / "echo.transducer"
    path.write_text(ECHO_DOC)
    for subject in (
        ("--builtin", "shift"),
        ("--builtin", "delay-echo", "--n", "2"),
        ("--subject", str(path)),
    ):
        code, out, err = run(capsys, "transitivity", *subject, "--resolution", "1")
        assert (code, out) == (1, "")
        assert err == "error: transitivity needs a synchronous transducer subject\n"


def test_budget_bounds_series_derivation(capsys, tmp_path):
    """M terms take M(M+1)/2 differences; over --budget, nothing is evaluated."""
    code, out, err = run(
        capsys, "coeffs", "--builtin", "shift", "--terms", "4000", "--budget", "16"
    )
    assert (code, out) == (4, "")
    assert "budget" in err
    argv = ["check", "--builtin", "shift", "--which", "mp", "--terms", "6"]
    assert run(capsys, *argv, "--budget", "20")[0] == 4
    assert run(capsys, *argv, "--budget", "21")[0] == 0
    # a series document is read, not derived
    path = tmp_path / "good.series"
    path.write_text(serialize_series(MahlerSeries.from_ints(2, 1, 8, [0, 0, 1])))
    assert run(capsys, "check", "--subject", str(path), "--which", "mp", "--budget", "1")[0] == 0


def _series_file(tmp_path, support):
    path = tmp_path / "wide.series"
    path.write_text(serialize_series(MahlerSeries.from_ints(2, 1, 16, range(1, support + 1))))
    return str(path)


@pytest.mark.parametrize(
    "command",
    [
        ("brute", "--mode", "mp", "--kmax", "6"),
        ("brute", "--mode", "cycles", "--kmax", "6"),
        ("image", "--kmax", "5", "--resolution", "2"),
    ],
)
def test_budget_counts_series_table_additions(capsys, tmp_path, command):
    """Each of the 2^6 table entries of a 30-term series takes 30 additions."""
    argv = [command[0], "--subject", _series_file(tmp_path, 30), *command[1:]]
    code, out, err = run(capsys, *argv, "--budget", "1919")
    assert (code, out) == (4, "")
    assert "1920 additions for 64" in err
    assert run(capsys, *argv, "--budget", "1920")[0] in (0, 3)


def test_budget_stops_a_wide_series_before_its_table(capsys, tmp_path, monkeypatch):
    """2^14 entries fit the budget, 2^14 x 3000 additions do not."""
    path = _series_file(tmp_path, 3000)

    def packed(*args, **kwargs):
        raise AssertionError("a series table was built before the budget gate")

    monkeypatch.setattr("padic_automata.mahler._packed", packed)
    code, out, err = run(
        capsys, "brute", "--subject", path, "--mode", "mp", "--kmax", "14", "--budget", "300000"
    )
    assert (code, out) == (4, "")
    assert "at 3000 terms each exceed the budget 300000" in err


def test_deep_precision_builds_at_the_level_modulus(capsys, tmp_path, monkeypatch):
    """A precision-4000 series checked through level 12 packs no slot wider
    than the 2^12 modulus needs, and its cycle counts are those of the
    Mahler sum."""
    coeffs = [(2 ** 4000 - 1 - 7919 ** 3 * i) % 2 ** 4000 for i in range(20)]
    path = tmp_path / "deep.series"
    path.write_text(serialize_series(MahlerSeries(2, 1, 4000, tuple(coeffs))))
    widths = []

    def packed(values, width):
        widths.append(width)
        return real(values, width)

    real = mahler._packed
    monkeypatch.setattr(mahler, "_packed", packed)
    code, out, _ = run(capsys, "brute", "--subject", str(path), "--mode", "cycles",
                       "--kmax", "12", "--report-format", "json")
    assert code == 3
    assert widths and max(widths) <= -(-(21 * (2 ** 12 - 1) ** 2).bit_length() // 8)
    f = [sum(a * math.comb(x, i) for i, a in enumerate(coeffs)) for x in range(2 ** 12)]
    assert json.loads(out)["cycle_counts"] == [
        [k, _orbit_cycles([v % 2 ** k for v in f[: 2 ** k]])] for k in range(1, 13)
    ]


def _mahler_values(coeffs, count, q):
    """f(0), ..., f(count - 1) mod q for f = sum a_i C(x, i), by forward
    differences: (a_0, a_1, ...) are the differences of f at 0, and those at
    x + 1 are d_j + d_(j+1)."""
    values, d = [], [a % q for a in coeffs]
    for _ in range(count):
        values.append(d[0])
        d = [(u + v) % q for u, v in zip(d, d[1:] + [0])]
    return values


@pytest.mark.parametrize("shift, delay", [
    pytest.param(lambda i: 0, mahler.CheckStatus.FAIL, id="blocks"),
    # a_i a multiple of 2^(floor_log(2, i) - 1): delay-sound, so the lower
    # levels are folded out of the top table's counts
    pytest.param(lambda i: max(i.bit_length() - 2, 0), mahler.CheckStatus.PASS, id="sound"),
])
def test_brute_mp_levels_of_a_table_built_in_blocks(capsys, tmp_path, shift, delay):
    """A 20-term series checked through level 13, so its 2^13-entry table
    is built in several blocks: each level's fibers are those of the Mahler
    sum, point by point."""
    coeffs = [(2 ** 40 - 1 - 7919 ** 3 * i << shift(i)) % 2 ** 40 for i in range(20)]
    series = MahlerSeries.from_ints(2, 1, 40, coeffs)
    assert mahler.check_delay_conditions(series).verdict is delay
    path = tmp_path / "blocks.series"
    path.write_text(serialize_series(series))
    code, out, _ = run(capsys, "brute", "--subject", str(path), "--mode", "mp", "--kmax", "13",
                       "--report-format", "json")
    assert code == 3
    f = _mahler_values(coeffs, 2 ** 13, 2 ** 12)
    want = []
    for k in range(2, 14):
        fibers = Counter(v % 2 ** (k - 1) for v in f[: 2 ** k])
        counts = Counter(fibers[y] for y in range(2 ** (k - 1)))
        want.append({"level": k, "fibers": sorted(map(list, counts.items()))})
    assert json.loads(out)["levels"] == want


def test_brute_cycles_of_an_85_term_series_at_p_3_n_2(capsys, tmp_path):
    coeffs = [(3 ** 16 - 1 - 7919 ** 3 * i) % 3 ** 16 for i in range(85)]
    path = tmp_path / "wide3.series"
    path.write_text(serialize_series(MahlerSeries.from_ints(3, 2, 16, coeffs)))
    code, out, _ = run(capsys, "brute", "--subject", str(path), "--mode", "cycles",
                       "--kmax", "4", "--report-format", "json")
    assert code == 3
    f = _mahler_values(coeffs, 3 ** 8, 3 ** 8)
    assert json.loads(out)["cycle_counts"] == [
        [k, _orbit_cycles([v % 3 ** (2 * k) for v in f[: 3 ** (2 * k)]])] for k in range(1, 5)
    ]


def test_malformed_subject_file(capsys, tmp_path):
    path = tmp_path / "junk.series"
    path.write_text("schema padic-mahler-series-v1\np 2\nn 1\n")
    code, _, err = run(capsys, "check", "--subject", str(path), "--which", "mp")
    assert code == 1
    assert "error" in err


def test_missing_subject(capsys):
    code, _, err = run(capsys, "check", "--which", "mp")
    assert code == 1


def test_subject_is_read_from_a_pipe(capsys, tmp_path):
    """--subject reads any readable file: a document piped into /dev/stdin
    gives the report that the same document gives from a regular file."""
    document = serialize_series(ODD_HEAD_SERIES)
    path = tmp_path / "odd.series"
    path.write_text(document)
    argv = ["check", "--which", "mp", "--report-format", "json", "--subject"]
    code, out, _ = run(capsys, *argv, str(path))
    env = {**os.environ, "PYTHONPATH": str(Path(mahler.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "padic_automata.cli", *argv, "/dev/stdin"],
                          input=document, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_directory_subject_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--subject", str(tmp_path), "--which", "mp")
    assert code == 1
    assert err.startswith("error: ") and "Is a directory" in err


def test_closed_stdout_keeps_the_verdict_quietly():
    """A reader that closes stdout before the report is written is not an
    input error: the job exits with its verdict's code and stderr is empty,
    with no broken-pipe line at interpreter exit either."""
    env = {**os.environ, "PYTHONPATH": str(Path(mahler.__file__).resolve().parents[1])}
    argv = ["brute", "--builtin", "shift", "--mode", "mp", "--kmax", "12"]
    proc = subprocess.Popen([sys.executable, "-m", "padic_automata.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_usage_error_maps_to_input_error(capsys):
    assert main(["check", "--builtin", "nonsense", "--which", "mp"]) == 1
    capsys.readouterr()


ECHO_DOC = """\
schema padic-transducer-v1
p 2
kind async
initial wait
trans wait 0 echo :
trans wait 1 echo :
trans echo 0 echo : 0
trans echo 1 echo : 1
"""


def test_transducer_file_subject_full_path(capsys, tmp_path):
    """A letter-to-word document drives check and brute end to end."""
    path = tmp_path / "echo.transducer"
    path.write_text(ECHO_DOC)
    code, out, _ = run(
        capsys, "check", "--subject", str(path), "--which", "delay",
        "--terms", "8", "--precision", "10",
    )
    assert code == 0
    assert "verdict: pass" in out
    code, out, _ = run(
        capsys, "brute", "--subject", str(path), "--mode", "mp", "--kmax", "5"
    )
    assert code == 0


@pytest.mark.parametrize("head,document,argv", [
    pytest.param("# a comment", serialize_series(MahlerSeries.from_ints(2, 1, 8, [0, 0, 1])),
                 ["check", "--which", "ergodic"], id="series"),
    pytest.param("# copied from a mahler-series note", ECHO_DOC,
                 ["brute", "--mode", "mp", "--kmax", "5"], id="transducer"),
])
def test_document_kind_is_read_past_leading_comments(capsys, tmp_path, head, document, argv):
    """A leading comment neither hides nor fakes the schema line: the
    document reports as it does without the comment."""
    path = tmp_path / "subject.txt"
    path.write_text(document)
    bare = run(capsys, argv[0], "--subject", str(path), *argv[1:])
    path.write_text(f"{head}\n\n{document}")
    assert run(capsys, argv[0], "--subject", str(path), *argv[1:]) == bare
    assert bare[0] == 0


def test_document_machine_is_named_by_its_file(capsys, tmp_path, monkeypatch):
    """A rejected document machine is reported under the path it was read
    from; nothing reaches stdout."""
    monkeypatch.chdir(tmp_path)
    Path("double.transducer").write_text(
        "schema padic-transducer-v1\np 2\nkind async\ninitial s\n"
        "trans s 0 s : 0 0\ntrans s 1 s : 1 1\n"
    )
    code, out, err = run(capsys, "brute", "--subject", "double.transducer", "--mode", "mp")
    assert (code, out) == (1, "")
    assert err.startswith("error: transducer 'double.transducer' writes (0, 0)")


def test_brute_decides_delays_past_8(capsys):
    code, out, _ = run(capsys, "brute", "--builtin", "delay-echo", "--n", "8",
                       "--mode", "mp", "--kmax", "2")
    assert code == 0
    assert "level 2: fibers {256x256}" in out


def test_document_phase_break_at_step_10_is_refused(capsys, tmp_path):
    """Nine one-letter steps, then a state that writes two letters: the
    delay probe reads on until the break, wherever it lies."""
    lines = ["schema padic-transducer-v1", "p 2", "kind async", "initial c0"]
    lines += [f"trans c{i} {a} c{min(i + 1, 9)} : " + " ".join([str(a)] * (1 + (i == 9)))
              for i in range(10) for a in range(2)]
    path = tmp_path / "late.transducer"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "brute", "--subject", str(path), "--mode", "mp", "--kmax", "2")
    assert (code, out) == (1, "")
    assert "step 10 must write one letter" in err


def test_delay_probe_honours_the_budget(capsys, tmp_path):
    """A chain of 3000 states that echoes each letter, the last one looping
    to itself: the probe reads one state per length, 3001 in all."""
    lines = ["schema padic-transducer-v1", "p 2", "kind sync", "initial c0"]
    lines += [f"trans c{i} {a} c{min(i + 1, 2999)} : {a}" for i in range(3000) for a in range(2)]
    path = tmp_path / "chain.transducer"
    path.write_text("\n".join(lines) + "\n")
    argv = ["brute", "--subject", str(path), "--mode", "mp", "--kmax", "2"]
    code, out, err = run(capsys, *argv, "--budget", "4")
    assert (code, out) == (4, "")
    assert err == "budget exceeded: 5 delay probe states exceed the budget 4\n"
    assert run(capsys, *argv)[0] == 0


# a delay-1 machine: w reads one letter silently, then a, b and c write one
FOUR_STATES = {("w", 0): ("a", ()), ("w", 1): ("c", ()),
               ("a", 0): ("b", (1,)), ("a", 1): ("a", (0,)),
               ("b", 0): ("c", (0,)), ("b", 1): ("a", (1,)),
               ("c", 0): ("a", (1,)), ("c", 1): ("b", (1,))}


def _four_states_value(x, letters):
    """The machine's output for the first ``letters`` letters of x, read
    letter by letter off the table, without the package's walk."""
    state, out = "w", []
    for j in range(letters):
        state, word = FOUR_STATES[state, x >> j & 1]
        out += word
    return sum(b << i for i, b in enumerate(out))


def test_four_state_document_coefficients_and_cycles(capsys, tmp_path):
    lines = ["schema padic-transducer-v1", "p 2", "kind async", "initial w"]
    lines += [f"trans {s} {a} {t} : " + " ".join(map(str, word))
              for (s, a), (t, word) in FOUR_STATES.items()]
    path = tmp_path / "four.transducer"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "coeffs", "--subject", str(path), "--terms", "16",
                       "--precision", "10", "--report-format", "json")
    assert code == 0
    values = [_four_states_value(x, 11) for x in range(16)]
    want = [sum((-1) ** (i - k) * math.comb(i, k) * values[k] for k in range(i + 1)) % 2 ** 10
            for i in range(16)]
    assert [c["residue"] for c in json.loads(out)["coefficients"]] == want
    code, out, _ = run(capsys, "brute", "--subject", str(path), "--mode", "cycles",
                       "--kmax", "6", "--report-format", "json")
    assert code == 3
    assert json.loads(out)["cycle_counts"] == [
        [k, _orbit_cycles([_four_states_value(x, k + 1) for x in range(2 ** k)])]
        for k in range(1, 7)
    ]


@pytest.mark.parametrize("p", [4, 1, 0, -2])
@pytest.mark.parametrize("command", [
    ["brute", "--mode", "mp"],
    ["brute", "--mode", "cycles"],
    ["image"],
    ["transitivity"],
])
def test_transducer_document_needs_a_prime_p(capsys, tmp_path, p, command):
    path = tmp_path / "composite.transducer"
    trans = "".join(f"trans a {x} a : {x}\n" for x in range(p))
    path.write_text(f"schema padic-transducer-v1\np {p}\nkind sync\ninitial a\n{trans}")
    code, out, err = run(capsys, command[0], "--subject", str(path), *command[1:])
    assert (code, out) == (1, "")
    assert "prime" in err


@pytest.mark.parametrize("mode", ["mp", "cycles"])
def test_large_prime_p_reaches_the_budget_gate_at_once(capsys, mode):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "brute", "--builtin", "shift", "--p", "1000000000000000003",
        "--kmax", "2", "--mode", mode,
    )
    assert (code, out) == (4, "")
    assert "budget" in err
    assert time.perf_counter() - start < 5  # trial division took over a minute


def test_p_past_the_primality_bound_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "huge.transducer"
    path.write_text(f"schema padic-transducer-v1\np {10**25}\nkind sync\ninitial a\n")
    for argv in (["--builtin", "shift", "--p", str(10**25)], ["--subject", str(path)]):
        code, out, err = run(capsys, "brute", *argv, "--mode", "mp")
        assert (code, out) == (1, "")
        assert "cannot decide whether" in err


SERIES_3_2 = MahlerSeries.from_ints(3, 2, 8, [7919 ** 3 * i for i in range(12)])


@pytest.mark.parametrize("argv,fields", [
    ("brute --subject SERIES --mode mp --kmax 2",
     {"p": 3, "n": 2, "k_max": 2, "expected_fiber": 9}),
    ("brute --subject SERIES --mode cycles --kmax 3", {"p": 3, "n": 2, "k_max": 3}),
    ("check --subject SERIES --which mp", {"p": 3, "n": 2, "precision": 8}),
    ("image --subject SERIES --kmax 2 --resolution 2",
     {"p": 3, "n": 2, "levels": [1, 2], "m": 2}),
    ("brute --builtin polynomial --p 5 --coeffs 1,2 --mode mp --kmax 3",
     {"p": 5, "n": 0, "k_max": 3, "expected_fiber": 1}),
    ("brute --builtin polynomial --p 5 --coeffs 1,2 --mode cycles --kmax 2",
     {"p": 5, "n": 0, "k_max": 2}),
    ("image --builtin polynomial --p 5 --coeffs 1,2 --kmax 3 --resolution 1",
     {"p": 5, "n": 0, "levels": [1, 2, 3], "m": 1}),
    ("brute --builtin delay-echo --p 3 --n 2 --mode mp --kmax 2",
     {"p": 3, "n": 2, "k_max": 2, "expected_fiber": 9}),
    ("brute --builtin delay-echo --p 3 --n 2 --mode cycles --kmax 2",
     {"p": 3, "n": 2, "k_max": 2}),
    ("check --builtin delay-echo --p 3 --n 2 --which delay --terms 10 --precision 3",
     {"p": 3, "n": 2, "precision": 3}),
    ("image --builtin delay-echo --p 3 --n 2 --kmax 2 --resolution 1",
     {"p": 3, "n": 2, "levels": [1, 2], "m": 1}),
    ("image --builtin digitwise-add --p 5 --depth 2 --resolution 1",
     {"p": 5, "n": 0, "levels": [1, 2], "m": 1}),
    ("transitivity --builtin digitwise-add --p 5 --resolution 1 --depth 2",
     {"level": 1, "depth": 2}),
])
def test_payload_fields_repeat_the_subject_and_the_flags(capsys, tmp_path, argv, fields):
    """The p, n, precision, level and depth fields of a report come from the
    subject and the flags, not from the result records."""
    path = tmp_path / "wide.series"
    path.write_text(serialize_series(SERIES_3_2))
    argv = [str(path) if token == "SERIES" else token for token in argv.split()]
    code, out, err = run(capsys, *argv, "--report-format", "json")
    assert code in (0, 3) and err == ""
    report = json.loads(out)
    assert {key: report[key] for key in fields} == fields


def test_polynomial_builtin(capsys):
    code, out, _ = run(
        capsys, "brute", "--builtin", "polynomial", "--coeffs", "1,1",
        "--mode", "cycles", "--kmax", "6",
    )
    assert code == 0  # x + 1 is the classical single-cycle subject


def test_polynomial_builtin_needs_coefficients(capsys):
    code, out, err = run(capsys, "brute", "--builtin", "polynomial", "--mode", "mp")
    assert (code, out, err) == (1, "", "error: polynomial needs at least one coefficient\n")


@pytest.mark.parametrize(
    "argv, n",
    [
        ("brute --builtin polynomial --p 2 --coeffs 1,2 --mode cycles --kmax 3", 0),
        ("coeffs --builtin odometer --p 3 --n 3 --terms 4 --precision 4", 0),
        ("image --builtin identity --depth 2 --resolution 1", 0),
        ("transitivity --builtin digitwise-add --n 2", 0),
        ("brute --builtin delay-echo --p 3 --n 2 --mode mp --kmax 2", 2),
        ("check --builtin shift --which delay", 1),
    ],
)
def test_text_label_gives_the_subjects_delay(capsys, argv, n):
    """A built-in's label reads n off the subject, not the --n flag that a
    synchronous built-in ignores, and agrees with the n the report prints."""
    _, out, _ = run(capsys, *argv.split())
    words = argv.split()
    p = words[words.index("--p") + 1] if "--p" in words else "2"
    first, second = out.splitlines()[:2]
    assert first.endswith(f" built-in {words[2]} (p={p}, n={n})")
    if words[0] != "transitivity":  # the one text report without a p=/n= line
        assert f"n={n}" in second.split()


def test_json_reports_are_deterministic(capsys):
    argv = [
        "check", "--builtin", "shift", "--which", "ergodic",
        "--report-format", "json", "--terms", "10", "--precision", "10",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "padic-automata-report-v1"
    assert payload["verdict"] == "pass"


@pytest.mark.parametrize("value", [
    {}, [], {"a": {}}, [[]], [{}], {"b": {"c": {}}, "a": []},
    None, True, False, [None, True, False], {"t": True, "f": False, "n": None},
    0, -7, 2 ** 64 + 1, -(2 ** 70), {"n": [-1, 2 ** 65]},
    'q"uote', "back\\slash", "\x00\x1f\n\t\x7f", "é ☃ 𝄞", {"é\"k": ["\\", "\x01"]},
    {"b": 1, "a": [1, "2", [3, {"z": None}]]},
])
def test_report_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), [0.0], {"a": (1,)}])
def test_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


def test_json_report_needs_no_json_dumps(capsys, tmp_path, monkeypatch):
    """A report with an odd --out path, written without ``json.dumps``,
    is its own sorted, indented round trip."""
    dumps = json.dumps
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(json, "dumps", None)
    code, out, _ = run(capsys, "coeffs", "--builtin", "shift", "--terms", "3",
                       "--out", 'we"ird,[x]é.series', "--report-format", "json")
    assert code == 0
    assert out == dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert json.loads(out)["out"] == 'we"ird,[x]é.series'


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_leaks_no_state(capsys, tmp_path, monkeypatch):
    """A usage error, --help, a job with --out and the same job without it,
    run in that order in one process, give the exit codes, output and files
    of a parser built afresh for every call."""
    out_path = tmp_path / "x.series"
    coeffs = ["coeffs", "--builtin", "shift", "--terms", "4", "--precision", "4"]
    sequence = [
        ["brute", "--builtin", "shift", "--mode", "nope"],
        ["--help"],
        [*coeffs, "--out", str(out_path), "--report-format", "json"],
        [*coeffs, "--report-format", "json"],
    ]

    def run_sequence():
        results = []
        for argv in sequence:
            results.append((*run(capsys, *argv), out_path.exists()))
            out_path.unlink(missing_ok=True)
        return results

    reused = run_sequence()
    assert [code for code, *_ in reused] == [1, 0, 0, 0]
    assert [written for *_, written in reused] == [False, False, True, False]
    assert json.loads(reused[2][1])["out"] == str(out_path)
    assert "out" not in json.loads(reused[3][1])

    monkeypatch.setattr("padic_automata.cli.build_parser", build_parser.__wrapped__)
    assert run_sequence() == reused


# --- golden reports -----------------------------------------------------------

SYNC_DOC = """\
schema padic-transducer-v1
p 2
kind sync
initial carry
trans carry 0 settled : 1
trans carry 1 carry : 0
trans settled 0 settled : 0
trans settled 1 settled : 1
"""

GOLDEN_FILES = {
    "sync.transducer": SYNC_DOC,
    "async.transducer": ECHO_DOC,
    "n1.series": serialize_series(MahlerSeries.from_ints(2, 1, 8, [3, 1, 1, 6, 2, 0, 2])),
    "n2.series": serialize_series(MahlerSeries.from_ints(2, 2, 16, [0] * 16 + [2])),
    "thin.series": serialize_series(UNDECIDABLE_SERIES),
    # series tables whose products need two 64-bit words per slot
    "p5.series": serialize_series(MahlerSeries.from_ints(5, 1, 16, [-1, -2, 7, -3, 4, -1, -5, 10, -25])),
    "wide.series": serialize_series(MahlerSeries.from_ints(2, 1, 40, [-1, -3, -1, -2, -4, 4, -12, -8])),
}

_GOLDEN_BASE = [
    "coeffs --builtin shift --terms 8 --precision 10",
    "coeffs --builtin shift --p 3 --n 2 --terms 12 --precision 6",
    "coeffs --builtin odometer --p 3 --terms 6 --precision 5",
    "coeffs --builtin identity --terms 5 --precision 4",
    "coeffs --builtin delay-echo --n 2 --terms 10 --precision 8",
    "coeffs --builtin digitwise-add --terms 6 --precision 6",
    "coeffs --builtin zero --terms 4 --precision 4",
    "coeffs --builtin polynomial --p 3 --coeffs 1,2,3 --terms 6 --precision 5",
    "coeffs --subject sync.transducer --terms 8 --precision 8",
    "coeffs --subject async.transducer --terms 8 --precision 8 --out copy.series",
    "coeffs --subject n2.series",
    *(
        f"check {subject} --which {which}"
        for subject in (
            "--builtin shift --terms 12 --precision 12",
            "--builtin shift --n 2 --terms 20 --precision 12",
            "--builtin delay-echo --p 3 --n 2 --terms 12 --precision 8",
            "--builtin zero --terms 6 --precision 6",
            "--builtin polynomial --coeffs 0,1",
            "--subject async.transducer --terms 8 --precision 10",
            "--subject n1.series",
            "--subject n2.series",
            "--subject thin.series",
        )
        for which in ("delay", "mp", "ergodic")
    ),
    *(
        f"brute {subject} --mode {mode}"
        for subject in (
            "--builtin shift --kmax 6",
            "--builtin shift --p 3 --n 2 --kmax 3",
            "--builtin odometer --kmax 6",
            "--builtin identity --p 3 --kmax 4",
            "--builtin zero --kmax 4",
            "--builtin delay-echo --n 2 --kmax 4",
            "--builtin polynomial --p 3 --coeffs 1,1 --kmax 4",
            "--builtin digitwise-add --kmax 5",
            "--subject sync.transducer --kmax 6",
            "--subject async.transducer --kmax 6",
            "--subject n1.series --kmax 5",
            "--subject n2.series --kmax 3",
            "--subject p5.series --kmax 4",
            "--subject wide.series --kmax 10",
        )
        for mode in ("mp", "cycles")
    ),
    "check --subject p5.series --which mp",
    "check --subject wide.series --which mp",
    "brute --builtin shift --mode mp --kmax 12 --budget 64",
    *(
        f"image {subject} --out img.pgm"
        for subject in (
            "--builtin shift --kmax 6 --resolution 3",
            "--builtin shift --p 3 --n 2 --kmax 4 --resolution 2",
            "--builtin identity --depth 5 --resolution 3",
            "--builtin odometer --p 3 --depth 4 --resolution 2",
            "--builtin digitwise-add --depth 6 --resolution 3",
            "--builtin delay-echo --n 2 --kmax 5 --resolution 3",
            "--builtin polynomial --coeffs 0,0,1 --kmax 5 --resolution 3",
            "--builtin zero --kmax 5 --resolution 2",
            "--subject sync.transducer --depth 5 --resolution 3",
            "--subject async.transducer --kmax 6 --resolution 3",
            "--subject n1.series --kmax 5 --resolution 3",
        )
    ),
    "transitivity --builtin identity --resolution 1",
    "transitivity --builtin odometer --resolution 2 --depth 4",
    "transitivity --builtin digitwise-add --p 3 --resolution 2 --depth 2",
    "transitivity --subject sync.transducer --resolution 2 --depth 3",
    "transitivity --subject async.transducer --resolution 1",
    "transitivity --builtin shift --resolution 1",
]

GOLDEN_COMMANDS = [
    cmd + fmt for cmd in _GOLDEN_BASE for fmt in ("", " --report-format json")
]

# command -> (exit code, SHA-256 of stdout followed by the --out file's bytes)
GOLDEN = {
    "coeffs --builtin shift --terms 8 --precision 10":
        (0, "5ad9b22939d0c74ab8fb30158e888e496519e2cc35c0a4c6af44fc0f178b5cdc"),
    "coeffs --builtin shift --terms 8 --precision 10 --report-format json":
        (0, "601c7a7e8fb6c41fa06888ede6ff645da4caca055de3a51c3c9b5f10b2073489"),
    "coeffs --builtin shift --p 3 --n 2 --terms 12 --precision 6":
        (0, "d90e8fcf9ab68c968e3a184bd3a686b257f2082a407700cb955c951a79f47683"),
    "coeffs --builtin shift --p 3 --n 2 --terms 12 --precision 6 --report-format json":
        (0, "76ea49f9eed578edcb3e0a5f4878d967304be97bad5d917efb926961b0113c2d"),
    "coeffs --builtin odometer --p 3 --terms 6 --precision 5":
        (0, "f6a79331db111ccf502e55ae54902fe229bc781a0923e737ff8dc489b477cfed"),
    "coeffs --builtin odometer --p 3 --terms 6 --precision 5 --report-format json":
        (0, "5e51ab0a81bebb5ae3f2d89b94d4a10229f67ea5c546dafad8625de924ce6cff"),
    "coeffs --builtin identity --terms 5 --precision 4":
        (0, "7f2a94daa8bb363ee19b2fe4963c782494c74968abb25ef6e091d388ce43674a"),
    "coeffs --builtin identity --terms 5 --precision 4 --report-format json":
        (0, "fd0520476a4c6da198301bb5be90ceb209dda59bd07ac9b4601a6d37744d2c56"),
    "coeffs --builtin delay-echo --n 2 --terms 10 --precision 8":
        (0, "530175b9e6754f30dfed9d461a3f384d7dda2207c0c2ea84edd70b1b9aae6cce"),
    "coeffs --builtin delay-echo --n 2 --terms 10 --precision 8 --report-format json":
        (0, "c3a4e2ff7a964eebf235b3d0ce7858c38f6233473a752d76beeeb075b9907584"),
    "coeffs --builtin digitwise-add --terms 6 --precision 6":
        (0, "97edb28f29e3b1bf6e915805878953c8a207660a14374d5e8a123d373d8b69a7"),
    "coeffs --builtin digitwise-add --terms 6 --precision 6 --report-format json":
        (0, "da41dd5ffa2e119c013ec6f759bc6c59adf2c8ce5aafabd854517c99c8240006"),
    "coeffs --builtin zero --terms 4 --precision 4":
        (0, "a2767429339df75aa3507e04a398883ed588c0dc13fd5d9cd5ac4e12337f287f"),
    "coeffs --builtin zero --terms 4 --precision 4 --report-format json":
        (0, "a564e5565cd39f71fd74b3e7a6f381c8b446efa89bac59f050972469fd5dfbbf"),
    "coeffs --builtin polynomial --p 3 --coeffs 1,2,3 --terms 6 --precision 5":
        (0, "859f9f5467f1644501d8aaa48fba698312ace619bdf865b7f67524cb6c753fda"),
    "coeffs --builtin polynomial --p 3 --coeffs 1,2,3 --terms 6 --precision 5 --report-format json":
        (0, "783ff0b5ceff6215dc70c19a5f711807ab116ca72509efe4d4ef96ea98106d6e"),
    "coeffs --subject sync.transducer --terms 8 --precision 8":
        (0, "a4cbe6df986884d1c19082958b3e37046f683919719c07dec2d4d7381d9a935e"),
    "coeffs --subject sync.transducer --terms 8 --precision 8 --report-format json":
        (0, "f079eab632a6d843c44b4dbb894032ec2707a6431d3fbd3b66bd849f0e28009f"),
    "coeffs --subject async.transducer --terms 8 --precision 8 --out copy.series":
        (0, "cfd8b219046574db35604141992f98a88cae99d9167cc5d910b1c54411adb94a"),
    "coeffs --subject async.transducer --terms 8 --precision 8 --out copy.series --report-format json":
        (0, "9171ef9a132d18af85937823fffe8b27c7025d239162e16c9a99e66c31097a34"),
    "coeffs --subject n2.series":
        (0, "ae497ccaa7d4dbb0d0a51b1dcddf1be31eaa61c6bf0301f660bb0ebd0c364a5a"),
    "coeffs --subject n2.series --report-format json":
        (0, "f15142ea5e9fc917136c72b88bdc0a1f282726d29a2f3a60462d552c5829c09f"),
    "check --builtin shift --terms 12 --precision 12 --which delay":
        (0, "03b0fc62a6b648360c90c09841b95ff4da8058a6f149a7888035aef14ba06ffa"),
    "check --builtin shift --terms 12 --precision 12 --which delay --report-format json":
        (0, "cf39780c2803795ba07b8adee0454f56fab5d5658161e23b7101a86b82f87f7b"),
    "check --builtin shift --terms 12 --precision 12 --which mp":
        (0, "7820a5643524f780172deb45e0ed4e702356022261ec983f6ef0c864a066fa37"),
    "check --builtin shift --terms 12 --precision 12 --which mp --report-format json":
        (0, "70dc5e0a7d97cfcb1214d1bac2edd4be5d1cf906e5ef2b95aa4bef2f185fbb56"),
    "check --builtin shift --terms 12 --precision 12 --which ergodic":
        (0, "9a07a36edf95412c0e997f1280f34248fa8adfd8e2730b5c1ebf1df6ac082e30"),
    "check --builtin shift --terms 12 --precision 12 --which ergodic --report-format json":
        (0, "56be8652f88bcd3fe0cc8a91d04be29bc190a0c3e93e985f9609cbcb806e8900"),
    "check --builtin shift --n 2 --terms 20 --precision 12 --which delay":
        (0, "cc890aca282bc67b06177500407323575214276628e9d28e1f6c6b5303d3d614"),
    "check --builtin shift --n 2 --terms 20 --precision 12 --which delay --report-format json":
        (0, "bd433dad5018dcd73583a64f7c2ee0eec73902947e45f4dc7d82ea49a02f4529"),
    "check --builtin shift --n 2 --terms 20 --precision 12 --which mp":
        (0, "708c17fbeb0c4fcdbe628434024603196ae806c2f4d9ecfb7c957d166f7eb290"),
    "check --builtin shift --n 2 --terms 20 --precision 12 --which mp --report-format json":
        (0, "72ec12ccfd8b9926f2cd8bcf533742ff96060a339b08f1a7a9d019be2e33ecba"),
    "check --builtin shift --n 2 --terms 20 --precision 12 --which ergodic":
        (0, "586a92e5f4ca0c7e9a39c3ec96d8223e8abe1339137124a6bf0b26131ba741b1"),
    "check --builtin shift --n 2 --terms 20 --precision 12 --which ergodic --report-format json":
        (0, "9a91a078cc859bfc18e5b132b275d136fed3ca7b378f856679f0e8eebedb6f8f"),
    "check --builtin delay-echo --p 3 --n 2 --terms 12 --precision 8 --which delay":
        (0, "ae426f09cbf957e75a4ee52c2ab4b0adfa5e35c74e87ed8b29dddef46887d579"),
    "check --builtin delay-echo --p 3 --n 2 --terms 12 --precision 8 --which delay --report-format json":
        (0, "82e0e3042e0ae03c4693737daab5c9f2e0c0d63b7ebbac8dcffc90cf6d713eaf"),
    "check --builtin delay-echo --p 3 --n 2 --terms 12 --precision 8 --which mp":
        (0, "e6c99f274bb9df80c5f542c9ed7284eefb89863a0b0057f76987f703aee42cd6"),
    "check --builtin delay-echo --p 3 --n 2 --terms 12 --precision 8 --which mp --report-format json":
        (0, "1b2b5ad97043df702364e95fecdf9b1f04f12e2537e6d8a5edc73eb4efd8a611"),
    "check --builtin delay-echo --p 3 --n 2 --terms 12 --precision 8 --which ergodic":
        (0, "029929974a8bb88bedf9f4ddcdfa63e55f5078bd122bef6c7b7962f15f4d28a5"),
    "check --builtin delay-echo --p 3 --n 2 --terms 12 --precision 8 --which ergodic --report-format json":
        (0, "a1efd2396a4120c9265ad212be6c0c454a75cb5931338208fad805968752e746"),
    "check --builtin zero --terms 6 --precision 6 --which delay":
        (0, "a9fcedc57fd86702a15ba81cb1a87615e0a39ad7111e231260e81d08c18d2a40"),
    "check --builtin zero --terms 6 --precision 6 --which delay --report-format json":
        (0, "d0b25848e8357d902ace87b1722cd54280ec52a7401dfa5c29cc3582a9c06251"),
    "check --builtin zero --terms 6 --precision 6 --which mp":
        (3, "e40347088009ee3c0369b4fc098b6a72771c04b6c9c196f2ebe558bac3fe8c5d"),
    "check --builtin zero --terms 6 --precision 6 --which mp --report-format json":
        (3, "6d2273ec32f9cd1538f966711fc6bb2fb8eadd623522f53ce89078520f40cdf1"),
    "check --builtin zero --terms 6 --precision 6 --which ergodic":
        (3, "2bb2419f2935d21fc1a2776c8a8165a6df76ce6a1e9656735a344a9ea12bb8a2"),
    "check --builtin zero --terms 6 --precision 6 --which ergodic --report-format json":
        (3, "068c6c8a97f6a1e3216ec1e8f6f421cc71de3413c7bf41172958c225edbfe7e3"),
    "check --builtin polynomial --coeffs 0,1 --which delay":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --builtin polynomial --coeffs 0,1 --which delay --report-format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --builtin polynomial --coeffs 0,1 --which mp":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --builtin polynomial --coeffs 0,1 --which mp --report-format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --builtin polynomial --coeffs 0,1 --which ergodic":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --builtin polynomial --coeffs 0,1 --which ergodic --report-format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --subject async.transducer --terms 8 --precision 10 --which delay":
        (0, "47f90c03fe8fcfb222f7b3f5d58e532008f12391f8c8dceae6695dca97b8929d"),
    "check --subject async.transducer --terms 8 --precision 10 --which delay --report-format json":
        (0, "da02aee72f7ed448f9463edf5795e878f11afab21dbcc364f2a99e9af7917002"),
    "check --subject async.transducer --terms 8 --precision 10 --which mp":
        (0, "2c2541d747a4bf3ebf639b95ba51112f98fee02bf22c317857380722525a0392"),
    "check --subject async.transducer --terms 8 --precision 10 --which mp --report-format json":
        (0, "6fa30c42dbfbaf94a55886e79e6f81bda5babecf07fb19142e8a6c23855bed16"),
    "check --subject async.transducer --terms 8 --precision 10 --which ergodic":
        (0, "dc2e542c5a08b5eae745ce039d8b77e70c9aaf51f7d7dd234d86c1709605792f"),
    "check --subject async.transducer --terms 8 --precision 10 --which ergodic --report-format json":
        (0, "0faeb9baed71ec52cc5a16754cd715abdb0308b980661efb8cdbc3e5eef51a81"),
    "check --subject n1.series --which delay":
        (0, "afe5dd34e1915aef8a07222d8e412b04addae5f96951a9f68abc14352f062fbd"),
    "check --subject n1.series --which delay --report-format json":
        (0, "1dcc8b45f8f4f91871c049968d2423479b80013f15e26aec1bd8f4e4a5b4227e"),
    "check --subject n1.series --which mp":
        (3, "0a6118f5fa66db62b86b5ace43af04c02b440e10733f9f740318eaa8cef1e42b"),
    "check --subject n1.series --which mp --report-format json":
        (3, "421db23ed15ebf647b439e0ddd9475480cb219e9362755e27e653d311e2c25cf"),
    "check --subject n1.series --which ergodic":
        (3, "1f9e1435baf2c5e3db6486dcd2b6e46a7a9ba93508d5d474d4e7a6de2d3f8ed6"),
    "check --subject n1.series --which ergodic --report-format json":
        (3, "29f7d17870f4fe2aa8c530c814288ff36981663595e0bdf1b8df107385d09f4f"),
    "check --subject n2.series --which delay":
        (3, "b61fe05f933564c26ccb1b0d3fbbd93e2da9a3e3bfdfd97d760e1c7757b0cecf"),
    "check --subject n2.series --which delay --report-format json":
        (3, "b9f8cf6d199b8a5aa4eb3a7cdcd88e3e807e4f27c5eb8806efd81199aee10691"),
    "check --subject n2.series --which mp":
        (3, "f4c613b473b0345efb1b34e95719f8962ab2da799c6912657acce252fd224840"),
    "check --subject n2.series --which mp --report-format json":
        (3, "97bde980ad9e09f51d6a336735154e1f946b65631c81c428899bad386ec0587f"),
    "check --subject n2.series --which ergodic":
        (3, "9a228f2ee1bde2a747e3b94e0a052b9a919f17633f0d5d1ecf79214afe00f118"),
    "check --subject n2.series --which ergodic --report-format json":
        (3, "42336093f94f79aae4b010b916783a86130dc3fde2fefc61549e6d492bf4fc3d"),
    "check --subject thin.series --which delay":
        (2, "9a96adcaf524f69233f338e0f9fdb42eb7d9c9021bd518d27ac85b89664def4e"),
    "check --subject thin.series --which delay --report-format json":
        (2, "7d8e5b50e9ae6ac439c0b3b5d7593a1d93629ea593ae57b9f7e08fc39e7af6b3"),
    "check --subject thin.series --which mp":
        (3, "f1d89f2132edcd63e02b17ced1b4715bf8c2f0bf1e99921331ecd69dac276a38"),
    "check --subject thin.series --which mp --report-format json":
        (3, "18372b854163069c4a330b2a7907ea93828ee58986b7f4ed590a1449123fb873"),
    "check --subject thin.series --which ergodic":
        (3, "2b8c15894b24abbf443eff6c19f601be49619b175291777e3bbb1f8c84398db5"),
    "check --subject thin.series --which ergodic --report-format json":
        (3, "b819619d453603ae407f668a95996cd8ee2f2b4277d50544db32b11a10446540"),
    "brute --builtin shift --kmax 6 --mode mp":
        (0, "3ee0cd23c3441a7aa91241a6021a5ca7a81582a86173fe6d46c93c8a9cfc8c3b"),
    "brute --builtin shift --kmax 6 --mode mp --report-format json":
        (0, "87998c46ace2d578d37258cf5f50b0de7ebb6f05c3edbcde1b8d527bffb9e067"),
    "brute --builtin shift --kmax 6 --mode cycles":
        (0, "7d5b399a26cf19fa91c3e5d8dc0b8dd0fa892dfd063f1315acfaf641f34680e0"),
    "brute --builtin shift --kmax 6 --mode cycles --report-format json":
        (0, "6fda527244d1ed1aaeffff2dd0123fcbe277bffd1cb37d0642f4534a9de99460"),
    "brute --builtin shift --p 3 --n 2 --kmax 3 --mode mp":
        (0, "1da1d10f73f0aa5a02fc3e1e28acd12aa734de1f2d155de0874440d8110ee7bf"),
    "brute --builtin shift --p 3 --n 2 --kmax 3 --mode mp --report-format json":
        (0, "1500c487d4c01c0d6063aea96fa329394cb22ee6c8a31818fbb2c8676295829d"),
    "brute --builtin shift --p 3 --n 2 --kmax 3 --mode cycles":
        (0, "83e95e46d27a7897225b8841c7c80cf73efcf2ea4a39a220671d99f6d522ebe7"),
    "brute --builtin shift --p 3 --n 2 --kmax 3 --mode cycles --report-format json":
        (0, "a590346d75853cbeb4454a55eb1772da1e79966d74d43c0e09f19d64729e5982"),
    "brute --builtin odometer --kmax 6 --mode mp":
        (0, "8c94cedd3fa0deb0e1df7504f20daeeb36564768e2a6ff87c69c4e38e59f10c4"),
    "brute --builtin odometer --kmax 6 --mode mp --report-format json":
        (0, "26d6f220066d64369405fe781d7adec01d15d8a265c52328ee7762ed4ab54337"),
    "brute --builtin odometer --kmax 6 --mode cycles":
        (0, "4d6e47aa071071f3eaa7b0a47b563635a8f2ed7297a9b4f991116bc826dc351b"),
    "brute --builtin odometer --kmax 6 --mode cycles --report-format json":
        (0, "eb2f0765e280b6d331fd4eff65a2e00e3d54f8a4f928f0ceb26c884d06bae6e1"),
    "brute --builtin identity --p 3 --kmax 4 --mode mp":
        (0, "4a8dc974e26c1a3a0211e33d9883549096b00916c55c0682db026ea99ddf4c4e"),
    "brute --builtin identity --p 3 --kmax 4 --mode mp --report-format json":
        (0, "124254ed499ab229fef27124a35f285b37e0d80f118610441067ffa9988c841f"),
    "brute --builtin identity --p 3 --kmax 4 --mode cycles":
        (3, "017edb7f58f51767c151b4e0f6dc244d6f9abbea0159b2fb437c905b62a1d4c2"),
    "brute --builtin identity --p 3 --kmax 4 --mode cycles --report-format json":
        (3, "abed2891a7c65f1d82f34c92c56e59f678d1be2cfb5347fe39c20645798d42a0"),
    "brute --builtin zero --kmax 4 --mode mp":
        (3, "abd096ab33d6450c5f5ec7deeb487a007c8a87852af5821997e3e4bd4450ba8c"),
    "brute --builtin zero --kmax 4 --mode mp --report-format json":
        (3, "2b1fc7d2c478b1df459fdab4f7d1bb40f5ed1711de4fa6b3b5e9aac0d8d7b8d1"),
    "brute --builtin zero --kmax 4 --mode cycles":
        (0, "6efabcfd2c2638b02df3d7e5e00777132f58e2de85dbbe5232365220a95e1521"),
    "brute --builtin zero --kmax 4 --mode cycles --report-format json":
        (0, "c62016d89975d94d406e0465dabbb6bf64cbce33896448b09ca6fc218359de6c"),
    "brute --builtin delay-echo --n 2 --kmax 4 --mode mp":
        (0, "4f8cc49e8efcb1e7025bb6fdc218cb5ecc2052f8122134f36904de10b2c4b133"),
    "brute --builtin delay-echo --n 2 --kmax 4 --mode mp --report-format json":
        (0, "c30bba5592432ea47486fd1ef1e8f0f25f3fb7f7b8feabf141dc2303df2487b1"),
    "brute --builtin delay-echo --n 2 --kmax 4 --mode cycles":
        (0, "5f0b332c5fa73369499d1e5aa494532178e3360fe7cca1f74aee3d9d14ab90a1"),
    "brute --builtin delay-echo --n 2 --kmax 4 --mode cycles --report-format json":
        (0, "65d4ef501f33a2931860cf2f7fbd41fa80045e8e533aa881e03d69390008f77b"),
    "brute --builtin polynomial --p 3 --coeffs 1,1 --kmax 4 --mode mp":
        (0, "aaa0d452967eaadc9cccd08b4d00eb3a49865e982a6ce8d05cb677a9dc668077"),
    "brute --builtin polynomial --p 3 --coeffs 1,1 --kmax 4 --mode mp --report-format json":
        (0, "124254ed499ab229fef27124a35f285b37e0d80f118610441067ffa9988c841f"),
    "brute --builtin polynomial --p 3 --coeffs 1,1 --kmax 4 --mode cycles":
        (0, "87aebde1b78f79ebf59253d1b1901697a4e19e6b446b5d9fda43cc969e1d726a"),
    "brute --builtin polynomial --p 3 --coeffs 1,1 --kmax 4 --mode cycles --report-format json":
        (0, "67cf152e569ffcd239b48fbe0c23c47021eaa0f82144516a7494f5f3f82dce5e"),
    "brute --builtin digitwise-add --kmax 5 --mode mp":
        (0, "872873845161054d700b8515cd76631c03bb86078f73e20461ce1811228d54ab"),
    "brute --builtin digitwise-add --kmax 5 --mode mp --report-format json":
        (0, "70c6b3fc3c78977897a2134d1a574b61c72afca0ee3439e50874670b5a679251"),
    "brute --builtin digitwise-add --kmax 5 --mode cycles":
        (3, "ca943b8d201a99abbd3592f7d1178f230d5feee641aad17d6c969c5059d7ab45"),
    "brute --builtin digitwise-add --kmax 5 --mode cycles --report-format json":
        (3, "b9b716fc7b24b965f1dfb55a1c16d863301e1bbfa40b8bb19cb63c1acbce03b0"),
    "brute --subject sync.transducer --kmax 6 --mode mp":
        (0, "b52ebf1c444046442433a80ca2d5e799896ab25b79728e8da38ba70fe86c0986"),
    "brute --subject sync.transducer --kmax 6 --mode mp --report-format json":
        (0, "26d6f220066d64369405fe781d7adec01d15d8a265c52328ee7762ed4ab54337"),
    "brute --subject sync.transducer --kmax 6 --mode cycles":
        (0, "464f7ea4b81f7a2dedd3c193e8ea56f2550f2865d2e97d8280e416ca0a4adbc9"),
    "brute --subject sync.transducer --kmax 6 --mode cycles --report-format json":
        (0, "eb2f0765e280b6d331fd4eff65a2e00e3d54f8a4f928f0ceb26c884d06bae6e1"),
    "brute --subject async.transducer --kmax 6 --mode mp":
        (0, "cc2d9b826d3d4d033910f60eaa551cefd3f38475c850c0cc7722b65d0a48a5b1"),
    "brute --subject async.transducer --kmax 6 --mode mp --report-format json":
        (0, "87998c46ace2d578d37258cf5f50b0de7ebb6f05c3edbcde1b8d527bffb9e067"),
    "brute --subject async.transducer --kmax 6 --mode cycles":
        (0, "7d3bebb6a3c03ddeba2abe58a698b572e84a5e168a484a1b899b760f324b160e"),
    "brute --subject async.transducer --kmax 6 --mode cycles --report-format json":
        (0, "6fda527244d1ed1aaeffff2dd0123fcbe277bffd1cb37d0642f4534a9de99460"),
    "brute --subject n1.series --kmax 5 --mode mp":
        (3, "c33089b56da9d314426a81ee9774d11b1072b07b0b93d735b6d33cfa6210037c"),
    "brute --subject n1.series --kmax 5 --mode mp --report-format json":
        (3, "1aea6594b0370a0b3ad58d3e5ab7bb2e047f673e04f05821ae6922574ea9024c"),
    "brute --subject n1.series --kmax 5 --mode cycles":
        (3, "a3219022832cd8787dd231fc65c988d683bb9b09eade2bf80b3daacd494aac9f"),
    "brute --subject n1.series --kmax 5 --mode cycles --report-format json":
        (3, "670b4260318308661b7c17b95acabe54157fe635d36e0d50db18627004f7e081"),
    "brute --subject n2.series --kmax 3 --mode mp":
        (3, "30b2b7aa745d8f63cd2aada3c966533b974996061d7e378baa2a1d121bc1a918"),
    "brute --subject n2.series --kmax 3 --mode mp --report-format json":
        (3, "ed34c13b0b4b65e955344f08f0800c7a4c4dc0574404d8d8bb1d1d8e53b5573b"),
    "brute --subject n2.series --kmax 3 --mode cycles":
        (3, "f502732569af95d2f2058fbd07ec189ef0fa4ea7dc6f42d1556487b8b2f90918"),
    "brute --subject n2.series --kmax 3 --mode cycles --report-format json":
        (3, "5ec3bc761cbc5ef5f8a4bed36aa30e8ffe61cfce89c198da7000f2e55c8d1723"),
    "brute --subject p5.series --kmax 4 --mode mp":
        (0, "db8b3d896b9e259094818710643024c9821b7596b8c5aa3961e1dd8b1cc6fefe"),
    "brute --subject p5.series --kmax 4 --mode mp --report-format json":
        (0, "f13a511503d0396cc3ab2f5ffd2c062d6c37c2b39a41b2c88be24e1d18d660d8"),
    "brute --subject p5.series --kmax 4 --mode cycles":
        (3, "e52a723adc75bffb5a5685fc71ce406677dfa35d6d0b335faa331a8b5a0defef"),
    "brute --subject p5.series --kmax 4 --mode cycles --report-format json":
        (3, "dba1757346a75ccc11ef2c42233c00929ea2e7452d06e8c2934f2ac948219390"),
    "brute --subject wide.series --kmax 10 --mode mp":
        (0, "8c12c5017d887c59d8255d89f859277081d2026bb2cc4e307d1f5887c50b9738"),
    "brute --subject wide.series --kmax 10 --mode mp --report-format json":
        (0, "251dc2b5a6819f85fe4a1740ef1b83d08cb38d20afdf81cede226cd122ab5668"),
    "brute --subject wide.series --kmax 10 --mode cycles":
        (3, "56501cb71a020737059091b47a24fd4bd36338fc74419473451d42e78d749d19"),
    "brute --subject wide.series --kmax 10 --mode cycles --report-format json":
        (3, "2970cd6daa259871cbc2438cfc888d7dcda857f84a7e1d661e5213e2ae930cea"),
    "check --subject p5.series --which mp":
        (0, "950956a365d9cf1d016ef1de5c171a3cb6b4aa7529dbeed2e5c621d2ffa623a5"),
    "check --subject p5.series --which mp --report-format json":
        (0, "cd8e594be62a02efce5e9ec9ebee176a9b98afbcb6987790b1ccc87bb04a76ad"),
    "check --subject wide.series --which mp":
        (0, "363ed21929129191084a8e814817b91baf4775021a83ac877b3447626ca036a2"),
    "check --subject wide.series --which mp --report-format json":
        (0, "7afe6ece263172635b7220b47c94ca406cf1d589025dd1a812823e85b3ed06c7"),
    "brute --builtin shift --mode mp --kmax 12 --budget 64":
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "brute --builtin shift --mode mp --kmax 12 --budget 64 --report-format json":
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "image --builtin shift --kmax 6 --resolution 3 --out img.pgm":
        (0, "ba6fc52467c236d30c7de6efbaa07ccda0dba4bbbfb8af0a94a478396c7dad50"),
    "image --builtin shift --kmax 6 --resolution 3 --out img.pgm --report-format json":
        (0, "745c3818baa35c1213b743e30be54d58beb9fc831da0e0be11f1fb5b76d89483"),
    "image --builtin shift --p 3 --n 2 --kmax 4 --resolution 2 --out img.pgm":
        (0, "106e4072205a8e6f92f1c3b9750dad09c1ef797db61d8d479d098720b6295294"),
    "image --builtin shift --p 3 --n 2 --kmax 4 --resolution 2 --out img.pgm --report-format json":
        (0, "e41ecd1045910aedc71e09ce806f8b5bee19e0fb302cad0846e818159eadb1cc"),
    "image --builtin identity --depth 5 --resolution 3 --out img.pgm":
        (0, "3edd73a48e390234d617e2d2868c7fc59a3dbad06d79049725a9dc80816d892d"),
    "image --builtin identity --depth 5 --resolution 3 --out img.pgm --report-format json":
        (0, "518617ad21f6e53be8dd1d059bdbaf1187dad4c35ddd6da542ccc9254c6d5a5f"),
    "image --builtin odometer --p 3 --depth 4 --resolution 2 --out img.pgm":
        (0, "eda3f343f82c5ede152098294af24088ac8f4c3552e62810ae5b8990e2f1b90f"),
    "image --builtin odometer --p 3 --depth 4 --resolution 2 --out img.pgm --report-format json":
        (0, "4934fc0224054bf799306839e21f0789ab256787086db184d655bb1a5a049e3c"),
    "image --builtin digitwise-add --depth 6 --resolution 3 --out img.pgm":
        (0, "06fdd6a3632f15d4f3efd7884129cf4c0dbfd888f15d530886a6b9b13b2ea5d2"),
    "image --builtin digitwise-add --depth 6 --resolution 3 --out img.pgm --report-format json":
        (0, "4b2673e456dc1e1b387922c5beeab827d386ca0ac5486e241940ea73efe46c68"),
    "image --builtin delay-echo --n 2 --kmax 5 --resolution 3 --out img.pgm":
        (0, "857e5986a8f9becb5c6cd8f3ca10d905b8b0d3fe15814e256e2777f3824f4029"),
    "image --builtin delay-echo --n 2 --kmax 5 --resolution 3 --out img.pgm --report-format json":
        (0, "762e0d41fd2a650323686ac1ec5e1bc31cdaa25fb33725bed5924d90aadfa74b"),
    "image --builtin polynomial --coeffs 0,0,1 --kmax 5 --resolution 3 --out img.pgm":
        (0, "96e73262a8c667cb697ed6cfdbed7c767d8cbf4fa85fa9ada5052faed7da66fc"),
    "image --builtin polynomial --coeffs 0,0,1 --kmax 5 --resolution 3 --out img.pgm --report-format json":
        (0, "88eb0e200231436d957ba5582beda39a62d9bca123bd539a4a5d42d9e5e8f7fc"),
    "image --builtin zero --kmax 5 --resolution 2 --out img.pgm":
        (0, "c425cc803d1120e60882d46fe6b2aa8d9d2c0dcaf22eac19e6cd5841402163a9"),
    "image --builtin zero --kmax 5 --resolution 2 --out img.pgm --report-format json":
        (0, "0b91af2a3ba60c301ab5b80a28900a218ab6b92a686472c8318c6d46fa2a5fcb"),
    "image --subject sync.transducer --depth 5 --resolution 3 --out img.pgm":
        (0, "539abeb1b0b126269e94661c94e1977c0ec95691df561e00cfafc2135e2f42ed"),
    "image --subject sync.transducer --depth 5 --resolution 3 --out img.pgm --report-format json":
        (0, "56b0ab7420d38b53754d3faedd7b075bf544148cc0b1f1b7a152814859a44252"),
    "image --subject async.transducer --kmax 6 --resolution 3 --out img.pgm":
        (0, "9d8205b2b82d0f8db5ef6d5e6e2eac0140babd1e71af591a13d986e73e03e6aa"),
    "image --subject async.transducer --kmax 6 --resolution 3 --out img.pgm --report-format json":
        (0, "745c3818baa35c1213b743e30be54d58beb9fc831da0e0be11f1fb5b76d89483"),
    "image --subject n1.series --kmax 5 --resolution 3 --out img.pgm":
        (0, "ae829ea44cb1eeb5d247450b99ccfdcbf9c446490ef3e99467d38edbb29f0482"),
    "image --subject n1.series --kmax 5 --resolution 3 --out img.pgm --report-format json":
        (0, "f3d5117bf25de735092d25a1c235a48643a902acdec86612a780324982d96e92"),
    "transitivity --builtin identity --resolution 1":
        (3, "d5f03c97b21389e74bc28fc12f1ff056b06a37fc24e5da3973774e415efd0c0b"),
    "transitivity --builtin identity --resolution 1 --report-format json":
        (3, "15397418f0bd7fb27883f4817b5a35310408b4170e38f44409677d96fb170cbd"),
    "transitivity --builtin odometer --resolution 2 --depth 4":
        (3, "5e25a76271af8eafd2b03fb525de5ce92e50deb2812e9e58eedc95992bc66eeb"),
    "transitivity --builtin odometer --resolution 2 --depth 4 --report-format json":
        (3, "8b6504ad2647831c822c8a7ede3d7e4a3088ab2b7ba012088b290102a6280994"),
    "transitivity --builtin digitwise-add --p 3 --resolution 2 --depth 2":
        (0, "0e86fc93b69d7de9d3e11b02e742881f189f9d23598ff860f408f6cf2889b971"),
    "transitivity --builtin digitwise-add --p 3 --resolution 2 --depth 2 --report-format json":
        (0, "1616fdd19914ebc2f522169f738f2070b258a63b1f9777f8205f5641c1306e8b"),
    "transitivity --subject sync.transducer --resolution 2 --depth 3":
        (3, "6bef38b9608ec141ba9952eaa13ee9064a340472338d065f2b4df000f236b910"),
    "transitivity --subject sync.transducer --resolution 2 --depth 3 --report-format json":
        (3, "966ed21b1552ca47268e4d80fefe84e7d18bf640a55b7f89d3960fecad8e56aa"),
    "transitivity --subject async.transducer --resolution 1":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "transitivity --subject async.transducer --resolution 1 --report-format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "transitivity --builtin shift --resolution 1":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "transitivity --builtin shift --resolution 1 --report-format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def golden_digest(capsys, command):
    argv = command.split()
    code = main(argv)
    data = capsys.readouterr().out.encode()
    if "--out" in argv:
        data += Path(argv[argv.index("--out") + 1]).read_bytes()
    return code, hashlib.sha256(data).hexdigest()


def test_golden_reports(capsys, tmp_path, monkeypatch):
    """Exit codes, report bytes and written files of a fixed command set,
    run from one directory so that relative paths print the same."""
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_FILES.items():
        Path(name).write_text(text)
    got = {cmd: golden_digest(capsys, cmd) for cmd in GOLDEN_COMMANDS}
    assert {c: d for c, d in got.items() if GOLDEN.get(c) != d} == {}
    assert set(GOLDEN) == set(GOLDEN_COMMANDS)


def _twin_reports(capsys, tmp_path, argv):
    """Reports of ``argv`` on SYNC_DOC and on its ``kind async`` twin, each
    read from a file of the same name."""
    reports = []
    for kind in ("sync", "async"):
        folder = tmp_path / kind
        folder.mkdir(exist_ok=True)
        (folder / "m.transducer").write_text(SYNC_DOC.replace("kind sync", f"kind {kind}"))
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(folder)
            reports.append(run(capsys, *argv.split(), "--subject", "m.transducer"))
    return reports


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        "brute --mode mp --kmax 6",
        "brute --mode cycles --kmax 6",
        "coeffs --terms 8 --precision 8",
        "check --which mp --terms 8",
        "image --depth 5 --resolution 3",
        "transitivity --resolution 2 --depth 3",
    ],
)
def test_sync_document_and_async_twin_agree(capsys, tmp_path, argv, fmt):
    sync, twin = _twin_reports(capsys, tmp_path, f"{argv} --report-format {fmt}")
    assert sync == twin


def test_single_letter_async_document_is_synchronous(capsys, tmp_path):
    """A ``kind async`` document that emits one letter per step has delay 0,
    so image takes the family path and transitivity accepts it."""
    (_, sync_image, _), (code, image, _) = _twin_reports(
        capsys, tmp_path, "image --depth 5 --resolution 3 --report-format json"
    )
    assert code == 0
    assert image == sync_image
    assert "bound" not in json.loads(image)
    _, (code, out, _) = _twin_reports(capsys, tmp_path, "transitivity --resolution 2 --depth 3")
    assert code == 3
    assert out.startswith("family transitivity for file m.transducer\n")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """The console script pays for every module the package imports; the
    records are named tuples, so neither module is among them.  Modules a
    site hook loaded before the import do not count.  The package is its
    modules and re-exports none of them: importing it loads no submodule,
    and importing the oracle module loads only what that module imports."""
    src = str(Path(mahler.__file__).resolve().parents[1])
    script = ("import sys; before = set(sys.modules)\n"
              "ours = lambda: sorted(m for m in sys.modules if m.startswith('padic_automata'))\n"
              "import padic_automata; print(ours())\n"
              "import padic_automata.oracle; print(ours())\n"
              "import padic_automata.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "['padic_automata']",
        "['padic_automata', 'padic_automata.errors', 'padic_automata.oracle']",
        "[]",
    ]
