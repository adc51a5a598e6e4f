"""Transducers over the alphabet {0..p-1}.

Words are digit sequences consumed least-significant-digit first, so a
word prefix of length k is exactly a residue mod p^k.  A machine is one
step: a letter read in a state gives the next state and a finite
(possibly empty) output word.  A machine whose output is always exactly
n letters behind its input realizes an n-unit delay map, exposed through
:class:`~padic_automata.oracle.FunctionOracle`; a synchronous machine is
the case n = 0, one letter per step.

Every traversal of a machine is one :func:`walk` over all the words of
a letter range at once; oracle tables and the family images of
:mod:`~padic_automata.geometry`, transitivity among them, read its
frontiers.  The delay n of an oracle comes from the delay probe on the
walk's rows: it builds and checks each state's row with the walk's own
rule, on the states that the words of each length reach, until a length
reaches no state without a row, which decides n on all words.

State spaces may be infinite: a machine can carry a ``family`` callable
that enumerates the states belonging to exploration depth D, and every
whole-family query (reachability here, family images and transitivity
in ``geometry``) is qualified by the D it was run at.  A delay probe that
reaches infinitely many states ends at its budget.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, count, product
from operator import add
from typing import Callable, Hashable, Iterator, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, check_budget
from .oracle import FunctionOracle

__all__ = ["Transducer", "delay_profile", "function_of", "reachable_states", "walk"]

State = Hashable


class Transducer(NamedTuple):
    """Letter-to-word machine: step(s, a) -> (next state, output word).

    ``family``, if given, enumerates the states of exploration depth D.
    """

    p: int
    initial: State
    step: Callable[[State, int], tuple[State, tuple[int, ...]]]
    family: Callable[[int], Sequence[State]] | None = None
    name: str = "transducer"

    @classmethod
    def from_table(
        cls,
        p: int,
        initial: State,
        table: dict[tuple[State, int], tuple[State, tuple[int, ...]]],
        name: str = "transducer",
    ) -> "Transducer":
        """The machine of a table from (state, letter) to (next state, word), with a
        transition from each state it names on every letter, checked in first-seen order."""
        named = chain([initial], *((s, t) for (s, _), (t, _) in table.items()))
        for s, a in product(dict.fromkeys(named), range(p)):
            if (s, a) not in table:
                raise ValueError(f"state {s!r} has no transition on letter {a}")
        return cls(p=p, initial=initial, step=lambda s, a: table[s, a], name=name)


def _row(t: Transducer, s: State, j: int, silent: bool, rows: tuple) -> None:
    """Build and check state s's row for step j + 1 into ``rows[silent]``.

    ``rows[silent]`` holds two dicts of lists by state, next states and
    letters written by letter read.  A silent step must write nothing and a
    writing step one letter of 0..p-1; :class:`ValueError` is raised on a
    row that breaks its step's phase."""
    p, nexts, outs = t.p, [], []
    for a in range(p):
        nxt, out = t.step(s, a)
        out = tuple(out)
        if out != () if silent else len(out) != 1 or not 0 <= out[0] < p:
            need = "nothing" if silent else f"one letter of 0..{p - 1}"
            raise ValueError(f"transducer {t.name!r} writes {out} from state {s!r} "
                             f"on letter {a}; step {j + 1} must write {need}")
        outs.append(out[0] if out else 0)
        nexts.append(nxt)
    rows[silent][0][s], rows[silent][1][s] = nexts, outs


def walk(
    t: Transducer, starts: Sequence[State], n: int, letters: Sequence[range], rows: tuple = ()
) -> Iterator[tuple[list[State], list[int]]]:
    """Read every word whose letter j lies in ``letters[j]``, from each of ``starts``.

    After each position j this yields the frontier, (states, residues
    written): entry i is start i % len(starts) after the (i // len(starts))-th
    word in ascending value (the letter just read is the most significant
    digit).  The first n steps must write nothing and every later step one
    letter of 0..p-1.  Each (state, phase) row is built and checked once, in
    the order the states first appear in the frontier; :class:`ValueError`
    is raised on a row that breaks this, or on a letter outside the alphabet.
    Walks of one machine and its delay probe can share ``rows``."""
    rows = rows or (({}, {}), ({}, {}))
    states, residues = list(starts), [0] * len(starts)
    distinct = dict.fromkeys(states)  # each state once, in order of first appearance
    for j, span in enumerate(letters):
        if span and not 0 <= span[0] <= span[-1] < t.p:
            raise ValueError(f"letters {span} outside the alphabet 0..{t.p - 1}")
        silent = j < n
        (nexts, writes), scale = rows[silent], 0 if silent else t.p ** (j - n)
        for s in distinct:
            if s not in nexts:
                _row(t, s, j, silent, rows)
        after, wrote, reached = [], [], {}
        for a in span:
            moves, shifted = {}, {}
            for s in distinct:
                moves[s] = nxt = nexts[s][a]
                reached[nxt] = None
                shifted[s] = writes[s][a] * scale
            after += map(moves.__getitem__, states)
            wrote += residues if silent else map(add, residues, map(shifted.__getitem__, states))
        states, residues, distinct = after, wrote, reached
        yield states, residues


def delay_profile(t: Transducer, *, budget: int = DEFAULT_BUDGET, rows: tuple = ()) -> int:
    """The constant delay n of ``t``, decided on all words.

    n is the first step at which some state reached by the words read so
    far writes anything: every row of the steps before must write nothing
    and every row from there on one letter, as :func:`walk` demands.  While
    n is open, a length's phase is that of its first state's output on
    letter 0.  The probe stops at the first length whose states all have a
    row in its phase: each was built at an earlier length, whose next states
    were read then, so no longer word meets an unchecked row, and a machine
    with |S| states is decided within 2|S| + 1 lengths.  :class:`ValueError`
    is raised on a row that breaks its phase or when no word writes anything,
    and :class:`BudgetExceededError` before the states read, summed over the
    lengths, would number more than ``budget``, so a machine with infinitely
    many reachable states fails there.  It builds its rows into ``rows``,
    given empty, for walks to share."""
    rows = rows or (({}, {}), ({}, {}))
    states, n, read = {t.initial: None}, None, 0
    for j in count():
        read += len(states)
        check_budget(read, budget, "delay probe states")
        if n is None and t.step(next(iter(states)), 0)[1]:
            n = j
        silent = n is None
        nexts = rows[silent][0]
        fresh = [s for s in states if s not in nexts]
        if not fresh:
            break
        for s in fresh:
            _row(t, s, j, silent, rows)
        states = dict.fromkeys(chain.from_iterable(map(nexts.__getitem__, states)))
    if n is None:
        raise ValueError(f"transducer {t.name!r} writes nothing on any word; "
                         f"no delay is witnessed")
    return n


def function_of(t: Transducer, budget: int = DEFAULT_BUDGET) -> FunctionOracle:
    """The map realized by ``t`` from its initial state, as an oracle.

    The constant delay n is decided by :func:`delay_profile` first, within
    ``budget`` (a synchronous machine comes out at n = 0), so every table it
    answers is one of a genuine delay-n map (``lipschitz``); each table is
    one :func:`walk` over the probe's rows.  A table of f(x), x < count,
    reads letter j from 0..p-1 while p^j < count, else 0."""
    rows = ({}, {}), ({}, {})  # shared by the probe and every walk of this oracle
    n, p = delay_profile(t, budget=budget, rows=rows), t.p

    def table(m: int, count: int) -> list[int]:
        letters = [range(p if p ** j < count else 1) for j in range(m + n)]
        *_, (_, last) = walk(t, [t.initial], n, letters, rows)
        return last[:count]

    return FunctionOracle(p=p, delay=n, source="transducer", table=table,
                          lipschitz=True)


def reachable_states(t: Transducer, depth: int) -> Sequence[State]:
    """States known at exploration depth ``depth``, in deterministic order.

    For a table machine this is breadth-first closure from the initial
    state over all letters (discovery order).  A parametric family
    supplies its own depth-indexed enumeration instead, since its states
    need not be reachable from one another by transitions; its sequence
    is returned as it is, so callers can check ``len`` against a budget
    before any state is enumerated.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if t.family is not None:
        return t.family(depth)
    seen: dict[State, None] = {t.initial: None}
    queue = deque([(t.initial, 0)])
    while queue:
        s, d = queue.popleft()
        if d == depth:
            continue
        for a in range(t.p):
            nxt, _ = t.step(s, a)
            if nxt not in seen:
                seen[nxt] = None
                queue.append((nxt, d + 1))
    return list(seen)
