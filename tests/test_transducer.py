import random
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_automata.errors import BudgetExceededError, check_budget, family_size
from padic_automata.geometry import TransitivityReport, family_points, family_transitivity
from padic_automata.subjects import (
    delay_echo_transducer,
    digitwise_add_family,
    identity_transducer,
    odometer_transducer,
    shift_oracle,
)
from padic_automata.transducer import (
    Transducer,
    delay_profile,
    function_of,
    reachable_states,
    walk,
)

import series_factory as sf


def negation_transducer():
    return Transducer(
        p=2, initial="s", step=lambda s, a: ("s", (1 - a,)), name="negate",
    )


def test_word_round_trip():
    """The reference words: first-read digit least significant."""
    assert sf.ref_word(13, 4, 2) == (1, 0, 1, 1)
    assert sf.ref_value((1, 0, 1, 1), 2) == 13
    assert sf.ref_word(5, 2, 3) == (2, 1)


def oracle_word(t, word):
    """The word ``t`` writes on ``word``, read off its oracle: the value of
    the word at precision m = len(word) - delay, as an m-letter word."""
    f = function_of(t)
    m = len(word) - f.delay
    return sf.ref_word(f.value(sf.ref_value(word, t.p), m), m, t.p)


def test_run_sync_identity():
    t = identity_transducer(2)
    assert oracle_word(t, (0, 1, 1)) == (0, 1, 1)


def test_run_sync_odometer_carries():
    t = odometer_transducer(2)
    assert oracle_word(t, (1, 1, 0)) == (0, 0, 1)  # 3 + 1 = 4


def test_run_sync_negation():
    assert oracle_word(negation_transducer(), (1, 0, 1)) == (0, 1, 0)


def test_run_sync_rejects_bad_letter():
    t = identity_transducer(2)
    with pytest.raises(ValueError):
        list(walk(t, [t.initial], 0, [range(1), range(2, 3)]))


def test_run_async_echo_drops_first_letter():
    t = delay_echo_transducer(2, 1)
    assert oracle_word(t, (1, 0, 1)) == (0, 1)


def test_run_async_two_delay_short_word_is_empty():
    # no output letter is below the oracle's precision floor m >= 1, so read
    # the walk under it, which fails on a silent step that writes anything
    t = delay_echo_transducer(2, 2)
    *_, last = walk(t, [t.initial], 2, [range(1, 2)] * 2)
    assert last == ([0], [0])


def _interleaving_cases():
    """(machine, starts, walk delay, letters) at p = 2, 3, 5 and n = 0, 1, 2.

    A delay-n table machine's core is synchronous, so it is walked at
    delay 0 from core states; at n >= 1 it is also walked at delay 1 from
    the silent states that read letter n - 1, whose row is still silent.
    Starts repeat, so one state stands for several entries."""
    cases = []
    for p in (2, 3, 5):
        for n in (0, 1, 2):
            t = sf.table_machine(40 + 3 * p + n, p, 5, n)
            spans = [range(p), range(1, p), range(p), range(1), range(p - 1, p), range(p)]
            cases.append(pytest.param(t, [3, 0, 3, 4, 1], 0, spans, id=f"p{p}-n{n}-core"))
            if n:
                lags = [("lag", n - 1, r) for r in range(p ** (n - 1))]
                cases.append(pytest.param(t, [*lags, lags[0]], 1, spans, id=f"p{p}-n{n}-silent"))
    return cases


@pytest.mark.parametrize("t, starts, n, letters", _interleaving_cases())
def test_walk_from_several_starts_interleaves_single_walks(t, starts, n, letters):
    """Entry i of a walk from S starts is entry i // S of the walk from
    start i % S, at every position, for states and residues alike."""
    size = len(starts)
    singles = [list(walk(t, [s], n, letters)) for s in starts]
    for j, (states, residues) in enumerate(walk(t, starts, n, letters)):
        assert len(states) == len(residues) == size * len(singles[0][j][0])
        for i, (state, residue) in enumerate(zip(states, residues)):
            single_states, single_residues = singles[i % size][j]
            assert (state, residue) == (single_states[i // size], single_residues[i // size])


def _two_bad_rows():
    """States x and y write two letters per step, the others one; c reads
    0 into y and 1 into x, d the other way round, a reads 0 into y and 1
    into w, b reads 0 into z and 1 into x."""
    nexts = {("c", 0): "y", ("c", 1): "x", ("d", 0): "x", ("d", 1): "y",
             ("a", 0): "y", ("a", 1): "w", ("b", 0): "z", ("b", 1): "x"}
    nexts.update({(s, a): s for s in "wxyz" for a in (0, 1)})
    return Transducer(p=2, initial="c",
                      step=lambda s, a: (nexts[s, a], (a, a) if s in "xy" else (a,)),
                      name="two-bad")


def test_walk_raises_the_error_of_the_first_bad_state_in_the_frontier():
    """Rows are built in the order the states first appear in the
    frontier, so of two bad rows at one step the first one's error is
    raised: not the first in state order, nor in start-by-start order."""
    t = _two_bad_rows()
    # from c the frontier after one letter is y, x
    with pytest.raises(ValueError, match="from state 'y' on letter 0; step 2"):
        list(walk(t, ["c"], 0, [range(2)] * 2))
    # from b, a it is z, y, x, w: letter 0's words first
    with pytest.raises(ValueError, match="from state 'y' on letter 0; step 2"):
        list(walk(t, ["b", "a"], 0, [range(2)] * 2))
    # from c, d it is y, x, x, y: a state's first entry counts, not its last
    with pytest.raises(ValueError, match="from state 'y' on letter 0; step 2"):
        list(walk(t, ["c", "d"], 0, [range(2)] * 2))


def test_delay_profile_echo():
    assert delay_profile(delay_echo_transducer(2, 1)) == 1
    assert delay_profile(delay_echo_transducer(3, 2)) == 2


def test_delay_profile_synchronous_is_zero():
    assert delay_profile(identity_transducer(2)) == 0
    assert function_of(odometer_transducer(3)).delay == 0


def test_delay_profile_double_emitter_not_constant():
    t = Transducer(p=2, initial="s", step=lambda s, a: ("s", (a, a)), name="double")
    with pytest.raises(ValueError, match=r"writes \(0, 0\) .* step 1 must write one letter"):
        delay_profile(t)


def test_delay_profile_silent_machine_unwitnessed():
    # no depth cap: a machine that is silent for 5 letters has delay 5
    assert delay_profile(delay_echo_transducer(2, 5)) == 5
    # one state, silent on every letter: the probe closes at length 1
    mute = Transducer(p=3, initial="s", step=lambda s, a: ("s", ()), name="mute")
    with pytest.raises(ValueError, match="writes nothing on any word"):
        delay_profile(mute)


def test_delay_profile_branch_dependent_not_constant():
    # emits only while reading 1s: output length depends on the word read
    t = Transducer(
        p=2, initial="s", step=lambda s, a: ("s", (a,) if a == 1 else ()), name="ones-only",
    )
    with pytest.raises(ValueError, match=r"\(1,\) .* on letter 1; step 1 must write nothing"):
        delay_profile(t)


def late_break_machine():
    """A chain c0 .. c9 of one-letter steps; c9 loops to itself writing two
    letters, so step 10 breaks the synchronous phase of the nine before."""
    chain = [f"c{i}" for i in range(10)]
    table = {(s, a): (chain[min(i + 1, 9)], (a,) * (1 + (i == 9)))
             for i, s in enumerate(chain) for a in range(2)}
    return Transducer.from_table(2, "c0", table, name="late-break")


def test_function_of_refuses_a_phase_break_past_depth_8():
    with pytest.raises(ValueError, match="from state 'c9' on letter 0; step 10 must write one letter"):
        function_of(late_break_machine())


def test_delay_profile_closes_on_alternating_state_sets():
    """Lengths 1, 2, 3 ... reach {1, 3}, {2, 0}, {3, 1} ...: no two lengths
    in a row reach the same states, yet at length 3 every state has its row,
    so the probe stops after reading 1 + 2 + 2 + 2 states."""
    t = Transducer(p=2, initial=0, step=lambda s, a: ((s + 1 + 2 * a) % 4, (a,)),
                   name="alternating")
    assert delay_profile(t, budget=7) == 0
    with pytest.raises(BudgetExceededError):
        delay_profile(t, budget=6)


def _reference_delay(t, letters):
    """The delay n that every word of ``letters`` letters shows when run
    letter by letter (steps before n write nothing, the others one letter),
    or None when some step breaks it or no step writes."""
    widths = [set() for _ in range(letters)]  # output lengths seen at each step

    def run(s, j):
        if j < letters:
            for a in range(t.p):
                nxt, out = t.step(s, a)
                widths[j].add(len(out))
                run(nxt, j + 1)

    run(t.initial, 0)
    n = next((j for j, seen in enumerate(widths) if seen != {0}), None)
    return n if n is not None and all(seen == {1} for seen in widths[n:]) else None


def _small_machine(rng, p, size):
    """A table machine on states 0..size-1 whose first d states are silent
    and the rest write one letter.  Half of them are silent chains into the
    writing states (delay d), the others have random transitions; half carry
    a planted phase break, one output of a state reached at a random depth
    given the wrong length."""
    d = rng.randrange(size)
    chained = rng.random() < 0.5
    table = {}
    for s in range(size):
        for a in range(p):
            if chained:
                nxt = s + 1 if s + 1 < d else rng.randrange(d, size)
            else:
                nxt = rng.randrange(size)
            table[s, a] = nxt, () if s < d else (rng.randrange(p),)
    if rng.random() < 0.5:
        reached = {0}
        for _ in range(rng.randrange(2 * size + 1)):
            reached = {table[s, a][0] for s in reached for a in range(p)}
        s, a = rng.choice(sorted(reached)), rng.randrange(p)
        table[s, a] = table[s, a][0], (a,) if s < d else rng.choice([(), (a, a)])
    return Transducer.from_table(p, 0, table, name="small")


@pytest.mark.parametrize("p, most", [(2, 4), (3, 3)])
def test_function_of_agrees_with_word_by_word_runs(p, most):
    """function_of succeeds exactly when every word of up to 2|S| + 1
    letters, run letter by letter, shows one constant delay, and returns
    that delay; its tables are the words' outputs."""
    rng, outcomes = random.Random(p), Counter()
    for _ in range(200):
        size = rng.randrange(1, most + 1)
        t = _small_machine(rng, p, size)
        want = _reference_delay(t, 2 * size + 1)
        outcomes[want] += 1
        try:
            f = function_of(t)
        except ValueError:
            assert want is None, (p, size)
            continue
        assert f.delay == want, (p, size)
        assert f.values(2, p ** (2 + want)) == [
            sf.simulate_value(t, x, 2, want) for x in range(p ** (2 + want))
        ]
    assert all(outcomes[n] for n in (None, 0, 1, 2)), outcomes


def burst_transducer():
    """Silent for two steps, then two letters at once, then one per step."""
    outputs = {0: lambda a: (), 1: lambda a: (), 2: lambda a: (a, a), 3: lambda a: (a,)}
    return Transducer(p=2, initial=0, step=lambda s, a: (min(s + 1, 3), outputs[s](a)),
                      name="burst")


def test_function_of_rejects_a_burst_after_silence():
    """The probe applies the walk's row rule: a step that writes two
    letters fails where it happens, and no delay is inferred from the
    output lengths."""
    with pytest.raises(ValueError, match=r"writes \(0, 0\) from state 2 on letter 0; step 3"):
        function_of(burst_transducer())


def test_function_of_beyond_probe_depth():
    # the probe reads words up to length 8; the table then runs 11-letter words
    oracle = function_of(delay_echo_transducer(2, 1))
    assert oracle.values(10, 2 ** 11) == [x // 2 for x in range(2 ** 11)]


def test_function_of_shift_matches_builtin():
    oracle = function_of(delay_echo_transducer(2, 1))
    builtin = shift_oracle(2, 1)
    assert oracle.delay == 1
    for m in range(1, 6):
        expected = [x // 2 for x in range(2 ** (m + 1))]
        assert oracle.values(m, 2 ** (m + 1)) == builtin.values(m, 2 ** (m + 1)) == expected


def test_function_of_examples():
    assert function_of(delay_echo_transducer(2, 1)).value(6, 2) == 3
    assert function_of(odometer_transducer(2)).value(3, 3) == 4
    ident = function_of(identity_transducer(3))
    assert ident.value(17, 3) == 17 % 27


def test_function_of_rejects_irregular_machine():
    t = Transducer(p=2, initial="s", step=lambda s, a: ("s", (a, a)))
    with pytest.raises(ValueError):
        function_of(t)


def test_reachable_states_odometer():
    assert set(reachable_states(odometer_transducer(2), 3)) == {0, 1}


def _mixed_table():
    """State 0 goes to ("t", a) on letter a, and both go back to 0, each
    step writing the letter read: int and tuple states side by side, which
    no ordering of states can sort."""
    table = {(0, a): (("t", a), (a,)) for a in range(2)}
    table.update({(("t", b), a): (0, (a,)) for b in range(2) for a in range(2)})
    return table


@pytest.mark.parametrize("key", [(0, 0), (0, 1), (("t", 0), 1), (("t", 1), 0)],
                         ids=["0-0", "0-1", "t0-1", "t1-0"])
def test_from_tables_refuses_a_missing_transition(key):
    table = _mixed_table()
    del table[key]
    with pytest.raises(ValueError) as raised:
        Transducer.from_table(2, 0, table)
    assert str(raised.value) == f"state {key[0]!r} has no transition on letter {key[1]}"


def test_from_tables_names_the_first_gap_in_first_seen_order():
    """States are visited as the table first names them (the initial state,
    then each source and target), so of two gaps the one of ("t", 0) is
    named, and states that do not sort are no obstacle."""
    table = _mixed_table()
    for key in ((("t", 1), 0), (("t", 0), 1)):
        del table[key]
    with pytest.raises(ValueError, match=r"^state \('t', 0\) has no transition on letter 1$"):
        Transducer.from_table(2, 0, table)
    # a state named only as the initial one, or only as a target
    with pytest.raises(ValueError, match="^state 'lost' has no transition on letter 0$"):
        Transducer.from_table(2, "lost", _mixed_table())
    table = _mixed_table()
    table[0, 1] = "new", (1,)
    with pytest.raises(ValueError, match="^state 'new' has no transition on letter 0$"):
        Transducer.from_table(2, 0, table)


def test_reachable_states_identity():
    assert reachable_states(identity_transducer(2), 5) == ["s0"]


def test_reachable_states_family_enumerates_addends():
    assert list(reachable_states(digitwise_add_family(2), 2)) == [0, 1, 2, 3]


class _Unlistable(Sequence):
    """A state family whose length is known but which must not be listed."""

    def __len__(self):
        return 2 ** 20

    def __getitem__(self, i):
        raise AssertionError("family enumerated before the budget check")


def test_family_budget_checked_before_enumeration():
    t = Transducer(p=2, initial=0, step=lambda s, a: (s, (a,)),
                   family=lambda depth: _Unlistable(), name="lazy")
    with pytest.raises(BudgetExceededError):
        family_points(t, 3, budget=1000)
    with pytest.raises(BudgetExceededError):
        family_transitivity(t, 1, 3, budget=1000)


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
    """Every word of every family state simulated from scratch."""
    states = reachable_states(t, depth)
    size = t.p ** level
    covered = {
        (u, sf.ref_value(sf.simulate(t, sf.ref_word(u, level, t.p), start=s), t.p))
        for s in states
        for u in range(size)
    }
    for u in range(size):
        for v in range(size):
            if (u, v) not in covered:
                return TransitivityReport(False, len(states), (u, v))
    return TransitivityReport(True, len(states))


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
        pytest.param(sf.table_machine(8, 5, 6), id="table-p5-6states"),
        # passes at level 1 from depth 2 on, and misses (0, 1) at depth 1
        pytest.param(sf.table_machine(199, 5, 12), id="table-p5-12states"),
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
    # the state counts the 1s read, so length-k words reach k + 1 new states
    # and the probe never closes: the states it reads, 1 + 2 + 3 + ..., pass
    # the budget at length 3
    counter = Transducer(p=2, initial=0, step=lambda s, a: (s + a, (a,)), name="counter")
    with pytest.raises(BudgetExceededError, match="10 delay probe states exceed the budget 9"):
        delay_profile(counter, budget=9)
    # a finite machine closes under the same budget
    assert delay_profile(delay_echo_transducer(2, 2), budget=9) == 2



def test_budget_gate_counts_families_past_sys_maxsize():
    """len() of these ranges overflows; the gate still counts them exactly."""
    assert family_size(["a", "b", "c"]) == 3
    assert family_size(range(3 ** 40)) == 3 ** 40
    assert family_size(range(5, 2 ** 70, 7)) == (2 ** 70 - 5 + 6) // 7
    assert family_size(range(2 ** 80, -1, -3)) == 2 ** 80 // 3 + 1
    check_budget(10, 10, "runs")
    with pytest.raises(BudgetExceededError, match="11 runs exceed the budget 10"):
        check_budget(11, 10, "runs")

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
    out1 = sf.simulate(t, prefix + tail1)
    out2 = sf.simulate(t, prefix + tail2)
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
        assert sf.simulate(t, w1)[:m] == sf.simulate(t, w2)[:m]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: (function_of(identity_transducer(2)), lambda x: x),
        lambda: (function_of(odometer_transducer(2)), lambda x: x + 1),
        lambda: (function_of(delay_echo_transducer(2, 1)), lambda x: x // 2),
        lambda: (shift_oracle(3, 1), lambda x: x // 3),
    ],
)
def test_oracle_prefix_consistency(factory):
    """Each table matches the map's closed form, and the m-digit table is
    the (m+1)-digit one reduced mod p^m, read at x mod p^(m+n)."""
    oracle, reference = factory()
    p, n = oracle.p, oracle.delay
    for m in range(1, 5):
        lower, upper = oracle.values(m, p ** (m + n)), oracle.values(m + 1, p ** (m + 1 + n))
        assert lower == [reference(x) % p ** m for x in range(p ** (m + n))]
        assert [v % p ** m for v in upper] == [lower[x % p ** (m + n)] for x in range(len(upper))]


# --------------------------------------------------------------------------
# the walk-backed oracle against the letter-by-letter reference simulator
# --------------------------------------------------------------------------

ORACLE_MACHINES = {
    **{f"table-p{p}-n{n}-{seed}": sf.table_machine(seed, p, states, n)
       for seed, p, states, n in ((11, 2, 5, 0), (12, 3, 4, 0), (13, 2, 6, 1), (14, 3, 3, 1),
                                  (15, 2, 4, 2), (16, 3, 3, 2), (17, 5, 8, 2))},
    "identity-p3": identity_transducer(3),
    "odometer-p2": odometer_transducer(2),
    "odometer-p3": odometer_transducer(3),
    "negate-p2": negation_transducer(),
    "delay-echo-p2-n1": delay_echo_transducer(2, 1),
    "delay-echo-p3-n2": delay_echo_transducer(3, 2),
    "digitwise-add-p2": digitwise_add_family(2),
}


@pytest.mark.parametrize("t", ORACLE_MACHINES.values(), ids=ORACLE_MACHINES.keys())
def test_walk_backed_oracle_matches_reference_simulator(t):
    """``values`` agrees with the simulator on whole domains, on counts
    that are and are not powers of p, and on the prefix counts
    p^e < p^(e+n) that the self-map tables ask for at delay n >= 1;
    ``value`` reads the last entry at a larger and a negative representative."""
    f = function_of(t)
    p, n = t.p, f.delay
    for m in range(1, 5 if p == 2 else 3):
        domain = p ** (m + n)
        expected = [sf.simulate_value(t, x, m, n) for x in range(domain)]
        counts = {1, 2, p + 1, p ** m - 1, domain - 1, domain, *(p ** e for e in range(m + n + 1))}
        for count in sorted(c for c in counts if c <= domain):
            assert f.values(m, count) == expected[:count], (m, count)
        assert f.value(4 * domain - 1, m) == f.value(-1, m) == expected[-1], m


@pytest.mark.parametrize("n", [0, 1, 2])
def test_values_builds_each_state_row_once_per_phase(n):
    """The delay probe and one ``values`` call together ask ``step`` at
    most 2p times per state they reach, and later tables of the same
    oracle ask no more."""
    base = sf.table_machine(21 + n, 3, 6, n)
    calls = Counter()

    def step(s, a):
        calls[s] += 1
        return base.step(s, a)

    t = Transducer(p=3, initial=base.initial, step=step)
    f = function_of(t)
    m = 4
    table = f.values(m, 3 ** (m + n))
    assert table == [sf.simulate_value(base, x, m, n) for x in range(3 ** (m + n))]
    reached = {t.initial}
    frontier = {t.initial}
    for _ in range(m + n - 1):
        frontier = {base.step(s, a)[0] for s in frontier for a in range(3)}
        reached |= frontier
    assert set(calls) <= reached
    assert max(calls.values()) <= 2 * 3
    for level, count in ((m, 3 ** (m + n)), (m - 1, 3 ** (m - 1 + n)), (m, 5)):
        expected = [sf.simulate_value(base, x, level, n) for x in range(count)]
        assert f.values(level, count) == expected
    assert set(calls) <= reached
    assert max(calls.values()) <= 2 * 3
