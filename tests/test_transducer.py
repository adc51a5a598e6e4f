import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_automata.errors import BudgetExceededError
from padic_automata.subjects import (
    delay_echo_transducer,
    digitwise_add_family,
    identity_transducer,
    odometer_transducer,
    shift_oracle,
)
from padic_automata.transducer import (
    AsyncTransducer,
    SyncTransducer,
    TransitivityReport,
    as_async,
    delay_profile,
    family_transitivity,
    function_of,
    reachable_states,
    residual_map,
    run_async,
    run_sync,
    word_of,
    word_value,
)

import series_factory as sf


def negation_transducer():
    return SyncTransducer(
        p=2, initial="s", delta=lambda s, a: "s", output=lambda s, a: 1 - a,
        name="negate",
    )


def test_word_round_trip():
    assert word_of(13, 4, 2) == (1, 0, 1, 1)
    assert word_value((1, 0, 1, 1), 2) == 13
    assert word_of(5, 2, 3) == (2, 1)


def test_run_sync_identity():
    t = identity_transducer(2)
    assert run_sync(t, (0, 1, 1)) == (0, 1, 1)


def test_run_sync_odometer_carries():
    t = odometer_transducer(2)
    assert run_sync(t, (1, 1, 0)) == (0, 0, 1)  # 3 + 1 = 4


def test_run_sync_negation():
    assert run_sync(negation_transducer(), (1, 0, 1)) == (0, 1, 0)


def test_run_sync_rejects_bad_letter():
    with pytest.raises(ValueError):
        run_sync(identity_transducer(2), (0, 2))


def test_run_async_echo_drops_first_letter():
    t = delay_echo_transducer(2, 1)
    assert run_async(t, (1, 0, 1)) == (0, 1)


def test_run_async_two_delay_short_word_is_empty():
    t = delay_echo_transducer(2, 2)
    assert run_async(t, (1, 1)) == ()


@settings(max_examples=60)
@given(word=st.lists(st.integers(0, 1), max_size=10))
def test_sync_as_async_agrees(word):
    t = odometer_transducer(2)
    assert run_async(as_async(t), word) == run_sync(t, word)


def test_delay_profile_echo():
    assert delay_profile(delay_echo_transducer(2, 1), 8).n == 1
    assert delay_profile(delay_echo_transducer(3, 2), 8).n == 2


def test_delay_profile_synchronous_is_zero():
    assert delay_profile(as_async(identity_transducer(2)), 8).n == 0


def test_delay_profile_double_emitter_not_constant():
    t = AsyncTransducer(
        p=2, initial="s", delta=lambda s, a: "s", output=lambda s, a: (a, a),
        name="double",
    )
    profile = delay_profile(t, 8)
    assert not profile.constant
    assert len(profile.witness) == 1


def test_delay_profile_silent_machine_unwitnessed():
    profile = delay_profile(delay_echo_transducer(2, 5), 4)
    assert not profile.constant
    assert "no output" in profile.reason


def test_delay_profile_branch_dependent_not_constant():
    # emits only while reading 1s: output length depends on the word read
    t = AsyncTransducer(
        p=2, initial="s", delta=lambda s, a: "s",
        output=lambda s, a: (a,) if a == 1 else (),
        name="ones-only",
    )
    profile = delay_profile(t, 6)
    assert not profile.constant
    assert profile.witness is not None


def test_function_of_beyond_probe_depth():
    # the probe certifies depth 4; queries then run far longer words
    oracle = function_of(delay_echo_transducer(2, 1), probe_depth=4)
    for x in (0, 1, 1023, 2 ** 11 - 5):
        assert oracle.value(x, 10) == (x % 2 ** 11) // 2 % 2 ** 10


def test_function_of_shift_matches_builtin():
    oracle = function_of(delay_echo_transducer(2, 1))
    builtin = shift_oracle(2, 1)
    assert oracle.delay == 1
    for m in range(1, 6):
        for x in range(2 ** (m + 1)):
            assert oracle.value(x, m) == builtin.value(x, m)


def test_function_of_examples():
    assert function_of(delay_echo_transducer(2, 1)).value(6, 2) == 3
    assert function_of(odometer_transducer(2)).value(3, 3) == 4
    ident = function_of(identity_transducer(3))
    assert ident.value(17, 3) == 17 % 27


def test_function_of_rejects_irregular_machine():
    t = AsyncTransducer(
        p=2, initial="s", delta=lambda s, a: "s", output=lambda s, a: (a, a),
    )
    with pytest.raises(ValueError):
        function_of(t)


def test_reachable_states_odometer():
    assert set(reachable_states(odometer_transducer(2), 3)) == {0, 1}


def test_reachable_states_identity():
    assert reachable_states(identity_transducer(2), 5) == ["s0"]


def test_reachable_states_family_enumerates_addends():
    assert reachable_states(digitwise_add_family(2), 2) == [0, 1, 2, 3]


def test_residual_maps():
    ident = identity_transducer(3)
    assert residual_map(ident, "s0") == (0, 1, 2)
    odo = odometer_transducer(2)
    assert residual_map(odo, 1) == (1, 0)  # carry state flips
    assert residual_map(odo, 0) == (0, 1)  # settled state echoes


def test_family_transitivity_identity_fails():
    report = family_transitivity(identity_transducer(2), 1, 3)
    assert not report.passed
    assert report.counterexample == (0, 1)


def test_family_transitivity_odometer_level1_passes():
    assert family_transitivity(odometer_transducer(2), 1, 2).passed


def test_family_transitivity_odometer_level2_fails_with_witness():
    report = family_transitivity(odometer_transducer(2), 2, 2)
    assert not report.passed
    # the family is {x, x+1} on Z/4: nothing maps 0 to 2
    assert report.counterexample == (0, 2)


def test_family_transitivity_digitwise_add_passes():
    assert family_transitivity(digitwise_add_family(2), 3, 3).passed


def _reference_transitivity(t, level, depth):
    """Every word of every family state run from scratch with ``run_sync``."""
    states = reachable_states(t, depth)
    size = t.p ** level
    covered = {
        (u, word_value(run_sync(t, word_of(u, level, t.p), start=s), t.p))
        for s in states
        for u in range(size)
    }
    for u in range(size):
        for v in range(size):
            if (u, v) not in covered:
                return TransitivityReport(False, level, depth, len(states), (u, v))
    return TransitivityReport(True, level, depth, len(states))


@pytest.mark.parametrize(
    "t",
    [
        digitwise_add_family(2),
        digitwise_add_family(3),
        identity_transducer(2),
        identity_transducer(3),
        odometer_transducer(2),
        odometer_transducer(3),
        sf.table_machine(5, 2, 5),
        sf.table_machine(6, 3, 4),
        # writes letters past p - 1, whose pairs fall off the u, v grid
        SyncTransducer(p=2, initial=0, delta=lambda s, a: s, output=lambda s, a: s + a,
                       family=lambda depth: range(2 ** depth), name="off-grid"),
    ],
    ids=lambda t: f"{t.name}-p{t.p}",
)
def test_family_transitivity_trie_walk_matches_word_runs(t):
    for level in range(1, 6 if t.p == 2 else 4):
        for depth in range(0, 5 if t.p == 2 else 3):
            assert family_transitivity(t, level, depth) == _reference_transitivity(
                t, level, depth
            ), (level, depth)


def test_delay_profile_budget_bounds_the_frontier():
    # the state counts the 1s read, so length-k words reach k + 1 states
    counter = AsyncTransducer(
        p=2, initial=0, delta=lambda s, a: s + a, output=lambda s, a: (a,),
        name="counter",
    )
    assert delay_profile(counter, 8, budget=9).n == 0
    with pytest.raises(BudgetExceededError):
        delay_profile(counter, 8, budget=8)


@settings(max_examples=60)
@given(
    data=st.data(),
    m=st.integers(1, 5),
)
def test_synchronous_runs_are_1_lipschitz(data, m):
    """Words agreeing on their first m letters give outputs agreeing there."""
    t = odometer_transducer(2)
    prefix = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    tail1 = data.draw(st.lists(st.integers(0, 1), max_size=4))
    tail2 = data.draw(st.lists(st.integers(0, 1), max_size=4))
    out1 = run_sync(t, prefix + tail1)
    out2 = run_sync(t, prefix + tail2)
    assert out1[:m] == out2[:m]


def test_delay_dependence_of_echo_runs():
    """m+n input letters pin m output letters for the n-delay echo."""
    rng = random.Random(3)
    t = delay_echo_transducer(2, 2)
    for _ in range(50):
        m = rng.randrange(1, 5)
        shared = [rng.randrange(2) for _ in range(m + 2)]
        w1 = shared + [rng.randrange(2) for _ in range(3)]
        w2 = shared + [rng.randrange(2) for _ in range(3)]
        assert run_async(t, w1)[:m] == run_async(t, w2)[:m]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: function_of(identity_transducer(2)),
        lambda: function_of(odometer_transducer(2)),
        lambda: function_of(delay_echo_transducer(2, 1)),
        lambda: shift_oracle(3, 1),
    ],
)
def test_oracle_prefix_consistency(factory):
    oracle = factory()
    p, n = oracle.p, oracle.delay
    for m in range(1, 5):
        for x in range(p ** (m + 1 + n)):
            assert oracle.value(x, m + 1) % p ** m == oracle.value(x, m)
