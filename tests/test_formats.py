import pytest

from padic_automata.errors import FormatError
from padic_automata.formats import (
    parse_series,
    parse_transducer,
    serialize_series,
)
from padic_automata.mahler import MahlerSeries
from padic_automata.transducer import Transducer, delay_profile

import series_factory as sf

SERIES_DOC = """\
schema padic-mahler-series-v1
p 2
n 1
precision 8
coeff 0 0
coeff 1 0
coeff 2 1
coeff 3 254
"""

ASYNC_DOC = """\
schema padic-transducer-v1
p 2
kind async
initial wait
# swallow the first letter, then echo
trans wait 0 echo :
trans wait 1 echo :
trans echo 0 echo : 0
trans echo 1 echo : 1
"""

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


def test_series_round_trip():
    series = parse_series(SERIES_DOC)
    assert series.p == 2 and series.n == 1 and series.precision == 8
    assert series.coeffs == (0, 0, 1, 254)
    assert parse_series(serialize_series(series)) == series


def test_series_serialization_is_stable():
    series = MahlerSeries.from_ints(3, 2, 6, [1, -1, 5])
    text = serialize_series(series)
    assert "coeff 1 728" in text  # -1 canonicalized mod 3^6
    assert parse_series(text) == series


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("schema padic-mahler-series-v1", "schema nonsense"),
        lambda t: t.replace("p 2", "p four"),
        lambda t: t.replace("coeff 1 0", "coeff 7 0"),
        lambda t: t.replace("coeff 0 0\n", ""),
        lambda t: t.replace("p 2", "p 4"),  # not prime
        lambda t: "\n".join(t.splitlines()[:3]),
    ],
)
def test_series_malformed_documents(mutation):
    with pytest.raises(FormatError):
        parse_series(mutation(SERIES_DOC))


def test_async_transducer_parses_and_runs():
    t = parse_transducer(ASYNC_DOC)
    assert isinstance(t, Transducer)
    assert sf.simulate(t, (1, 0, 1)) == (0, 1)
    assert delay_profile(t) == 1


def test_sync_transducer_parses_and_runs():
    t = parse_transducer(SYNC_DOC)
    assert isinstance(t, Transducer)
    assert t.step("carry", 0) == ("settled", (1,))
    assert sf.simulate(t, (1, 1, 0)) == (0, 0, 1)  # odometer on 3
    assert delay_profile(t) == 0


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("kind async", "kind mealy"),
        lambda t: t.replace("trans wait 0 echo :\n", ""),  # missing transition
        lambda t: t.replace("trans echo 1 echo : 1", "trans echo 1 echo : 2"),
        lambda t: t.replace("trans wait 1 echo :", "trans wait 9 echo :"),
        lambda t: t + "trans echo 0 echo : 1\n",  # duplicate
        lambda t: t.replace("initial wait", "initial-state wait"),
    ],
)
def test_transducer_malformed_documents(mutation):
    with pytest.raises(FormatError):
        parse_transducer(mutation(ASYNC_DOC))


def test_missing_transitions_are_named_in_first_seen_order():
    """Of several gaps, the first state the document names comes first:
    the initial state ``wait`` before ``echo``, though ``echo`` sorts first."""
    doc = ASYNC_DOC.replace("trans wait 1 echo :\n", "").replace("trans echo 1 echo : 1\n", "")
    with pytest.raises(FormatError, match="^state 'wait' has no transition on letter 1$"):
        parse_transducer(doc)


def test_sync_document_must_emit_single_letters():
    bad = SYNC_DOC.replace("trans carry 0 settled : 1", "trans carry 0 settled : 1 0")
    with pytest.raises(FormatError):
        parse_transducer(bad)
    # the letter count is read before the tables are checked, so it is the
    # error reported when a transition is missing too
    with pytest.raises(FormatError, match="state 'carry' letter 0 emits 2$"):
        parse_transducer(bad.replace("trans settled 1 settled : 1\n", ""))
    bad = SYNC_DOC.replace("trans carry 0 settled : 1", "trans carry 0 settled :")
    with pytest.raises(FormatError):
        parse_transducer(bad)
