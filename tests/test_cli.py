import json

from padic_automata.cli import main
from padic_automata.formats import serialize_series
from padic_automata.mahler import MahlerSeries

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


def test_brute_cycles(capsys):
    code, out, _ = run(
        capsys, "brute", "--builtin", "shift", "--mode", "cycles", "--kmax", "8"
    )
    assert code == 0
    assert out.count("1 cycle(s)") == 8


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
    # 2^12 states x 2^12 words x 12 letters is over the default budget 2^24
    code, _, err = run(
        capsys, "transitivity", "--builtin", "digitwise-add",
        "--resolution", "12", "--depth", "12",
    )
    assert code == 4
    assert "budget" in err


def test_transitivity_needs_sync_subject(capsys):
    code, _, err = run(
        capsys, "transitivity", "--builtin", "shift", "--resolution", "1"
    )
    assert code == 1
    assert "synchronous" in err


def test_malformed_subject_file(capsys, tmp_path):
    path = tmp_path / "junk.series"
    path.write_text("schema padic-mahler-series-v1\np 2\nn 1\n")
    code, _, err = run(capsys, "check", "--subject", str(path), "--which", "mp")
    assert code == 1
    assert "error" in err


def test_missing_subject(capsys):
    code, _, err = run(capsys, "check", "--which", "mp")
    assert code == 1


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


def test_polynomial_builtin(capsys):
    code, out, _ = run(
        capsys, "brute", "--builtin", "polynomial", "--coeffs", "1,1",
        "--mode", "cycles", "--kmax", "6",
    )
    assert code == 0  # x + 1 is the classical single-cycle subject


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
