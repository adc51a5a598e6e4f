"""The input rules that no other test reaches: one case per refusal, each
asserting the exception type and its whole message, and, where the command
line can reach the rule, the exit code and the error line it prints."""

import pytest

from padic_automata.cli import build_parser, load_subject, main
from padic_automata.errors import FormatError
from padic_automata.formats import parse_document
from padic_automata.geometry import (
    PointSet2D,
    accumulate_image,
    cover_fraction,
    family_points,
    family_transitivity,
)
from padic_automata.mahler import coeffs_from_oracle
from padic_automata.quotient import is_measure_preserving_upto, unique_cycle_upto
from padic_automata.subjects import BUILTIN_NAMES, identity_transducer, make_builtin, shift_oracle
from padic_automata.transducer import reachable_states

SERIES_HEAD = "schema padic-mahler-series-v1\np 2\nn 1\nprecision 4\n"
MACHINE_HEAD = "schema padic-transducer-v1\np 2\nkind sync\ninitial s\n"


@pytest.mark.parametrize("document, message", [
    pytest.param(SERIES_HEAD.replace("n 1", "delay 1"), "expected 'n <integer>', got 'delay 1'",
                 id="header-line"),
    pytest.param(SERIES_HEAD.replace("precision 4", "precision four"),
                 "bad integer in 'precision' line: 'four'", id="header-integer"),
    pytest.param(SERIES_HEAD + "coeff 0\n", "expected 'coeff <index> <value>', got 'coeff 0'",
                 id="coeff-malformed"),
    pytest.param(SERIES_HEAD + "coeff 0 x\n", "bad coeff line: 'coeff 0 x'",
                 id="coeff-non-integer"),
    pytest.param(SERIES_HEAD, "a series needs at least one coefficient", id="series-empty"),
    pytest.param(MACHINE_HEAD.replace("-v1", "-v2"),
                 "transducer document must start with 'schema padic-transducer-v1'",
                 id="machine-schema"),
    pytest.param("schema padic-transducer-v1\np 2\nkind sync\n",
                 "transducer document is missing its header lines", id="machine-header"),
    pytest.param(MACHINE_HEAD + "trans s 0 s 0\n",
                 "expected 'trans <state> <letter> <next> : <letters...>', got 'trans s 0 s 0'",
                 id="trans-no-colon"),
    pytest.param(MACHINE_HEAD + "trans s 0 : s 0\n", "malformed trans line: 'trans s 0 : s 0'",
                 id="trans-colon-misplaced"),
    pytest.param(MACHINE_HEAD + "trans s x s : 0\n", "non-integer letter in: 'trans s x s : 0'",
                 id="trans-letter-non-integer"),
])
def test_document_rules(capsys, tmp_path, document, message):
    with pytest.raises(FormatError) as raised:
        parse_document(document)
    assert str(raised.value) == message
    path = tmp_path / "subject"
    path.write_text(document)
    assert main(["coeffs", "--subject", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _loaded(*argv):
    return lambda: load_subject(build_parser().parse_args(["coeffs", *argv]))


IDENTITY, SHIFT = ("--builtin", "identity"), ("--builtin", "shift")


@pytest.mark.parametrize("call, error, message, argv", [
    pytest.param(_loaded("--builtin", "polynomial", "--coeffs", "1,x"), FormatError,
                 "--coeffs must be comma-separated integers",
                 ["coeffs", "--builtin", "polynomial", "--coeffs", "1,x"], id="cli-coeffs"),
    pytest.param(_loaded("--subject", "any.series", "--coeffs", "9,9"), FormatError,
                 "--coeffs is read only by --builtin polynomial",
                 ["check", *SHIFT, "--coeffs", "9,9", "--which", "mp"], id="cli-coeffs-unread"),
    pytest.param(_loaded("--subject", "missing.series"), FormatError,
                 "no such subject file: missing.series",
                 ["coeffs", "--subject", "missing.series"], id="cli-subject-file"),
    pytest.param(lambda: accumulate_image(shift_oracle(2), [0, 1]), ValueError,
                 "level must be >= 1, got 0", None, id="image-level"),
    pytest.param(lambda: cover_fraction(accumulate_image(shift_oracle(2), [1]), 0), ValueError,
                 "resolution must be >= 1, got 0", ["image", *SHIFT, "--resolution", "0"],
                 id="cover-resolution"),
    pytest.param(lambda: family_points(identity_transducer(2), 0), ValueError,
                 "depth must be >= 1, got 0", ["image", *IDENTITY, "--depth", "0"],
                 id="family-depth"),
    pytest.param(lambda: family_transitivity(identity_transducer(2), 0, 1), ValueError,
                 "level must be >= 1, got 0", ["transitivity", *IDENTITY, "--resolution", "0"],
                 id="transitivity-level"),
    pytest.param(lambda: PointSet2D(p=2, length=-1, codes=()), ValueError,
                 "point sets need p >= 2 and length >= 0, got p = 2, length = -1", None,
                 id="point-set-length"),
    pytest.param(lambda: PointSet2D(p=1, length=2, codes=()), ValueError,
                 "point sets need p >= 2 and length >= 0, got p = 1, length = 2", None,
                 id="point-set-prime-below-2"),
    pytest.param(lambda: PointSet2D.union([]), ValueError, "cannot union zero point sets",
                 None, id="union-of-none"),
    pytest.param(lambda: coeffs_from_oracle(shift_oracle(2), 0, 4), ValueError,
                 "coefficient count must be >= 1, got 0", ["coeffs", *SHIFT, "--terms", "0"],
                 id="coefficient-count"),
    pytest.param(lambda: shift_oracle(2).values(0, 1), ValueError,
                 "output precision must be >= 1, got 0", ["coeffs", *SHIFT, "--precision", "0"],
                 id="values-precision"),
    pytest.param(lambda: shift_oracle(2).values(2, 9), ValueError,
                 "count 9 exceeds the residue domain p^(m+delay)", None, id="values-count"),
    pytest.param(lambda: is_measure_preserving_upto(shift_oracle(2), 1), ValueError,
                 "k_max must be >= 2, got 1", ["brute", *SHIFT, "--mode", "mp", "--kmax", "1"],
                 id="mp-kmax"),
    pytest.param(lambda: unique_cycle_upto(shift_oracle(2), 0), ValueError,
                 "k_max must be >= 1, got 0",
                 ["brute", *SHIFT, "--mode", "cycles", "--kmax", "0"], id="cycles-kmax"),
    pytest.param(lambda: identity_transducer(4), ValueError, "p must be prime, got 4",
                 ["brute", *IDENTITY, "--p", "4", "--mode", "mp"], id="builtin-prime"),
    pytest.param(lambda: make_builtin("nonsense", 2), ValueError,
                 f"unknown built-in 'nonsense'; choose from {BUILTIN_NAMES}", None,
                 id="builtin-name"),
    pytest.param(lambda: reachable_states(identity_transducer(2), -1), ValueError,
                 "depth must be >= 0, got -1", ["transitivity", *IDENTITY, "--depth", "-1"],
                 id="reachable-depth"),
])
def test_input_rules(capsys, monkeypatch, tmp_path, call, error, message, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)
    if argv is not None:
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
