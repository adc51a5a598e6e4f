"""Transducers over the alphabet {0..p-1}.

Words are digit sequences consumed least-significant-digit first, so a
word prefix of length k is exactly a residue mod p^k.  A machine emits a
finite (possibly empty) word per letter read.  A machine whose output is
always exactly n letters behind its input realizes an n-unit delay map,
exposed through :class:`~padic_automata.oracle.FunctionOracle`; a
synchronous machine is the case n = 0, one letter per step.

Every traversal of a machine is one :func:`walk` over all the words of
a letter range at once; oracle tables, family images and family
transitivity read its frontiers.

State spaces may be infinite: a machine can carry a ``family`` callable
that enumerates the states belonging to exploration depth D, and every
whole-family query (reachability, transitivity, family images) is
qualified by the D it was run at.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, Sequence

from .errors import DEFAULT_BUDGET, check_budget, family_size
from .oracle import FunctionOracle

__all__ = [
    "DelayProfile",
    "Transducer",
    "TransitivityReport",
    "delay_profile",
    "family_transitivity",
    "function_of",
    "reachable_states",
    "walk",
]

State = Hashable


def _lookup(table: dict, what: str) -> Callable[[State, int], object]:
    """(state, letter) -> table entry, failing loudly on a missing key."""

    def fn(s: State, a: int) -> object:
        try:
            return table[(s, a)]
        except KeyError:
            raise ValueError(f"no {what} from state {s!r} on letter {a}")

    return fn


@dataclass(frozen=True)
class Transducer:
    """Letter-to-word machine: delta(s, a) -> state, output(s, a) -> word.

    ``family``, if given, enumerates the states of exploration depth D.
    """

    p: int
    initial: State
    delta: Callable[[State, int], State] = field(compare=False)
    output: Callable[[State, int], tuple[int, ...]] = field(compare=False)
    family: Callable[[int], Sequence[State]] | None = field(
        default=None, compare=False
    )
    name: str = "transducer"

    @classmethod
    def from_tables(
        cls,
        p: int,
        initial: State,
        transitions: dict[tuple[State, int], State],
        outputs: dict[tuple[State, int], tuple[int, ...]],
        name: str = "transducer",
    ) -> "Transducer":
        return cls(p=p, initial=initial, delta=_lookup(transitions, "transition"),
                   output=_lookup(outputs, "output"), name=name)


def walk(
    t: Transducer, start: State, n: int, letters: Sequence[range], rows: tuple | None = None
) -> Iterator[list[tuple[State, int]]]:
    """Read every word whose letter j lies in ``letters[j]``, from ``start``.

    After each position j this yields the frontier: one (state, written
    residue) pair per word read so far, in ascending word value (the
    letter just read is the most significant digit).  The first n steps
    must write nothing and every later step exactly one letter of
    0..p-1.  Each (state, phase) row of (letter written, next state) is
    built and checked once; :class:`ValueError` is raised on a row that
    breaks this, or on a letter outside the alphabet.  Walks of one
    machine can share their ``rows``, a pair of dicts.
    """
    p = t.p
    rows = rows or ({}, {})  # by phase: writing, silent
    frontier = [(start, 0)]
    for j, span in enumerate(letters):
        if span and not 0 <= span[0] <= span[-1] < p:
            raise ValueError(f"letters {span} outside the alphabet 0..{p - 1}")
        silent = j < n
        known, scale = rows[silent], 0 if silent else p ** (j - n)
        for s in dict(frontier):  # each state once, in order of first appearance
            if s not in known:
                known[s] = row = []
                for a in range(p):
                    out = tuple(t.output(s, a))
                    if out != () if silent else len(out) != 1 or not 0 <= out[0] < p:
                        need = "nothing" if silent else f"one letter of 0..{p - 1}"
                        raise ValueError(f"transducer {t.name!r} writes {out} from state {s!r} "
                                         f"on letter {a}; step {j + 1} must write {need}")
                    row.append((out[0] if out else 0, t.delta(s, a)))
        frontier = [(nxt, v + b * scale)
                    for a in span for s, v in frontier for b, nxt in [known[s][a]]]
        yield frontier


@dataclass(frozen=True)
class DelayProfile:
    """Outcome of probing output lengths on all words up to a depth.

    ``constant`` means every word of length k <= depth produced exactly
    max(k - n, 0) output letters.  A machine that stayed silent through
    the whole probe is reported non-constant (no delay is witnessed), and
    a violating word is returned otherwise.
    """

    constant: bool
    depth: int
    n: int | None = None
    witness: tuple[int, ...] | None = None
    reason: str = ""


def delay_profile(t: Transducer, depth: int, budget: int = DEFAULT_BUDGET) -> DelayProfile:
    """Determine the constant output delay of ``t``, if it has one.

    Explores (state, emitted-length) pairs breadth-first, which covers
    every word of length <= depth without enumerating p^depth words.
    :class:`BudgetExceededError` is raised before a frontier would hold
    more than ``budget`` pairs.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    # frontier: (state, output length) -> witness word reaching it
    frontier: dict[tuple[State, int], tuple[int, ...]] = {(t.initial, 0): ()}
    candidate: int | None = None
    for k in range(1, depth + 1):
        nxt: dict[tuple[State, int], tuple[int, ...]] = {}
        for (s, produced), wit in frontier.items():
            for a in range(t.p):
                key = (t.delta(s, a), produced + len(t.output(s, a)))
                if key not in nxt:
                    check_budget(len(nxt) + 1, budget, f"delay probe frontier pairs at length {k}")
                    nxt[key] = wit + (a,)
        lengths = {produced for (_, produced) in nxt}
        if len(lengths) > 1:
            short = min(lengths)
            bad = next(w for (s, l), w in nxt.items() if l != short)
            return DelayProfile(
                constant=False,
                depth=depth,
                witness=bad,
                reason=f"words of length {k} produce output lengths {sorted(lengths)}",
            )
        (length,) = lengths
        if length > 0:
            # lengths are monotone along extensions, so once positive the
            # inferred delay must stay the same at every later depth
            n_here = k - length
            if n_here < 0 or (candidate is not None and n_here != candidate):
                bad = next(iter(nxt.values()))
                return DelayProfile(
                    constant=False,
                    depth=depth,
                    witness=bad,
                    reason=f"output length {length} at input length {k} "
                    f"fits no constant delay",
                )
            candidate = n_here
        frontier = nxt
    if candidate is None:
        return DelayProfile(
            constant=False,
            depth=depth,
            reason=f"no output through depth {depth}; delay not witnessed",
        )
    return DelayProfile(constant=True, depth=depth, n=candidate)


def function_of(t: Transducer, probe_depth: int = 8) -> FunctionOracle:
    """The map realized by ``t`` from its initial state, as an oracle.

    The constant delay n is established by :func:`delay_profile` up to
    ``probe_depth`` first (a synchronous machine comes out at n = 0); each
    table is one :func:`walk`, which re-checks every step, so a delay
    violation beyond the probed depth fails loudly.  A table of f(x),
    x < count, reads letter j from 0..p-1 while p^j < count, else 0.
    """
    profile = delay_profile(t, probe_depth)
    if not profile.constant:
        raise ValueError(
            f"transducer {t.name!r} has no constant delay "
            f"within depth {probe_depth}: {profile.reason}"
        )
    n, p = profile.n, t.p
    rows = ({}, {})  # shared by every walk of this oracle

    def table(m: int, count: int) -> list[int]:
        letters = [range(p if p ** j < count else 1) for j in range(m + n)]
        *_, last = walk(t, t.initial, n, letters, rows)
        return [v for _, v in last[:count]]

    return FunctionOracle(p=p, delay=n, source="transducer", _table=table)


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
            nxt = t.delta(s, a)
            if nxt not in seen:
                seen[nxt] = None
                queue.append((nxt, d + 1))
    return list(seen)


@dataclass(frozen=True)
class TransitivityReport:
    """Depth-qualified verdict: can the state family map any u to any v?

    ``passed`` is relative to ``depth`` (more states may exist beyond it);
    on failure ``counterexample`` holds the lexicographically first pair
    of residues (u, v) no examined state connects.
    """

    passed: bool
    level: int
    depth: int
    states_examined: int
    counterexample: tuple[int, int] | None = None


def family_transitivity(
    t: Transducer, level: int, depth: int, budget: int = DEFAULT_BUDGET
) -> TransitivityReport:
    """Check that for all words u, v of length ``level`` some state s of
    the synchronous family maps u to v.

    Words are identified with residues mod p^level, first letter least
    significant.  The search covers every state found within ``depth``;
    each state's words are one :func:`walk`, whose last frontier lists
    the v of every u in order.  The budget bounds the nodes walked,
    len(states) * (p + ... + p^level); :class:`BudgetExceededError` is
    raised before any walk when that exceeds ``budget``.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    p = t.p
    states = reachable_states(t, depth)
    nodes = family_size(states) * sum(p ** j for j in range(1, level + 1))
    check_budget(nodes, budget, "family transitivity nodes")
    size = p ** level
    covered: set[tuple[int, int]] = set()
    rows = ({}, {})
    for s in states:
        *_, last = walk(t, s, 0, [range(p)] * level, rows)
        covered.update(enumerate(v for _, v in last))
    missing = None
    if len(covered) < size * size:
        missing = next((u, v) for u in range(size) for v in range(size) if (u, v) not in covered)
    return TransitivityReport(
        passed=missing is None,
        level=level,
        depth=depth,
        states_examined=len(states),
        counterexample=missing,
    )
