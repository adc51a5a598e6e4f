import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_automata import geometry
from padic_automata.errors import BudgetExceededError
from padic_automata.geometry import (
    PointSet2D,
    accumulate_image,
    cover_fraction,
    family_points,
    family_transitivity,
    render_pgm,
)
from padic_automata.mahler import series_oracle
from padic_automata.oracle import FunctionOracle
from padic_automata.subjects import (
    delay_echo_transducer,
    digitwise_add_family,
    identity_transducer,
    odometer_transducer,
    polynomial_oracle,
    shift_oracle,
    zero_oracle,
)
from padic_automata.transducer import (
    Transducer,
    function_of,
    reachable_states,
)

import series_factory as sf


def F(a, b):
    return Fraction(a, b)


def mirror_fraction(value, length, p):
    """The reference embedding of the length-``length`` word of ``value``
    into [0, 1): its first-read (least significant) digit becomes the most
    significant fractional digit."""
    word = sf.ref_word(value, length, p)
    return F(sf.ref_value(word[::-1], p), p ** length)


def test_mirror_fraction_first_letter_most_significant():
    # value 1 as a 2-letter word is (1, 0): embeds as 0.10 in base 2
    assert mirror_fraction(1, 2, 2) == F(1, 2)
    assert mirror_fraction(2, 2, 2) == F(1, 4)
    assert mirror_fraction(5, 2, 3) == F(2 * 3 + 1, 9)  # word (2, 1)


def test_image_points_shift_level1():
    pts = accumulate_image(shift_oracle(2, 1), (1,))
    assert set(pts.points) == {
        (F(0, 1), F(0, 1)),
        (F(1, 2), F(0, 1)),
        (F(1, 4), F(1, 2)),
        (F(3, 4), F(1, 2)),
    }


def test_image_points_identity_diagonal():
    pts = accumulate_image(polynomial_oracle(2, [0, 1]), (1,))
    assert set(pts.points) == {(F(0, 1), F(0, 1)), (F(1, 2), F(1, 2))}


def test_image_points_zero_on_axis():
    pts = accumulate_image(zero_oracle(2, 1), (3,))
    assert all(y == 0 for _, y in pts.points)


def test_cover_identity_exactly_diagonal():
    oracle = polynomial_oracle(2, [0, 1])
    for m in (1, 2, 3):
        pts = accumulate_image(oracle, range(1, 7))
        report = cover_fraction(pts, m)
        assert report.fraction == F(1, 2 ** m)
        assert all(i == j for i, j in report.cells)


def test_cover_single_point():
    # residues (6, 3) over 2^3: words (0, 1, 1) and (1, 1, 0), the point (3/8, 6/8)
    pts = PointSet2D(p=2, n=0, levels=(3,), den=8, codes=(6 * 8 + 3,))
    assert pts.coords == ((3, 6),)
    for m in range(1, 6):  # m > 3 pads both words with zeros
        report = cover_fraction(pts, m)
        assert report.fraction == F(1, 2 ** (2 * m))
        assert report.cells == ((3 * 2 ** m // 8, 6 * 2 ** m // 8),)


def test_cover_shift_quarter_at_m3():
    pts = accumulate_image(shift_oracle(2, 1), range(1, 7))
    report = cover_fraction(pts, 3)
    assert report.fraction == F(1, 4)
    assert report.occupied == 16


def test_cover_monotone_in_levels():
    oracle = shift_oracle(2, 1)
    last = Fraction(0)
    for top in range(1, 7):
        report = cover_fraction(accumulate_image(oracle, range(1, top + 1)), 3)
        assert report.fraction >= last
        last = report.fraction


def test_delay_bound_for_builtins_and_sound_series():
    """Cells at resolution m from levels >= m stay within p^(m+n):
    m output letters are pinned by m+n input letters."""
    rng = random.Random(31)
    subjects = [
        shift_oracle(2, 1),
        shift_oracle(2, 2),
        shift_oracle(3, 1),
        zero_oracle(2, 1),
        function_of(delay_echo_transducer(2, 1)),
        series_oracle(sf.delay_sound(rng, 2, 1, 8)),
        series_oracle(sf.delay_sound(rng, 3, 1, 12)),
        series_oracle(sf.delay_sound(rng, 2, 2, 14)),
    ]
    for oracle in subjects:
        p, n = oracle.p, oracle.delay
        for m in (2, 3):
            pts = accumulate_image(oracle, range(m, m + 3))
            report = cover_fraction(pts, m)
            assert report.fraction <= F(p ** n, p ** m), (oracle.source, p, n, m)


def test_family_image_identity():
    report = cover_fraction(family_points(identity_transducer(2), 6), 3)
    assert report.fraction == F(1, 8)


def test_family_image_digitwise_add_covers_everything():
    report = cover_fraction(family_points(digitwise_add_family(2), 6), 3)
    assert report.fraction == 1


def test_family_image_constant_output_row():
    t = Transducer(p=2, initial="s", step=lambda s, a: ("s", (0,)), name="constant")
    report = cover_fraction(family_points(t, 6), 3)
    assert report.fraction == F(1, 8)
    assert all(j == 0 for _, j in report.cells)


@pytest.mark.parametrize("word", [(), (0, 1), "off-grid"])
def test_family_walks_reject_words_of_other_lengths(word):
    """Family images, transitivity and the machine's oracle read one letter
    of 0..p-1 per step.  Each machine writes ``word`` on every letter; the
    off-grid one writes s + a instead, so 2 from state 1 on letter 1."""
    output = (lambda s, a: (s + a,)) if word == "off-grid" else (lambda s, a: word)
    t = Transducer(p=2, initial=1, step=lambda s, a: (s, output(s, a)),
                   family=lambda depth: range(2 ** depth))
    for query in (
        lambda: family_points(t, 2),
        lambda: family_transitivity(t, 1, 1),
        lambda: function_of(t).value(3, 2),
        lambda: function_of(t).values(2, 4),
    ):
        with pytest.raises(ValueError):
            query()


def _pgm_parts(data: bytes):
    header, rest = data.split(b"255\n", 1)
    assert header.startswith(b"P5\n")
    dims = header.split(b"\n")[1].split()
    return int(dims[0]), int(dims[1]), rest


def test_render_pgm_empty_all_white(tmp_path):
    pts = PointSet2D(p=2, n=0, levels=(), den=1, codes=())
    data = render_pgm(cover_fraction(pts, 2), 2, tmp_path / "empty.pgm")
    w, h, pixels = _pgm_parts(data)
    assert (w, h) == (4, 4)
    assert pixels == b"\xff" * 16


def test_render_pgm_identity_diagonal(tmp_path):
    pts = accumulate_image(polynomial_oracle(2, [0, 1]), range(1, 5))
    data = render_pgm(cover_fraction(pts, 3), 3, tmp_path / "diag.pgm")
    w, h, pixels = _pgm_parts(data)
    assert (w, h) == (8, 8)
    assert pixels.count(0) == 8
    # origin lower-left: cell (0, 0) is the first pixel of the last row
    assert pixels[7 * 8 + 0] == 0
    assert pixels[0 * 8 + 7] == 0


def test_render_pgm_shift_bound(tmp_path):
    pts = accumulate_image(shift_oracle(2, 1), range(1, 7))
    data = render_pgm(cover_fraction(pts, 3), 3, tmp_path / "shift.pgm")
    _, _, pixels = _pgm_parts(data)
    assert pixels.count(0) <= 16


def test_render_pgm_deterministic(tmp_path):
    pts = accumulate_image(shift_oracle(2, 1), range(1, 6))
    report = cover_fraction(pts, 3)
    a = render_pgm(report, 3, tmp_path / "a.pgm")
    b = render_pgm(report, 3, tmp_path / "b.pgm")
    assert a == b
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
    smaller = render_pgm(cover_fraction(pts, 2), 2, tmp_path / "a.pgm")  # rewritten in place
    assert len(smaller) < len(a)
    assert (tmp_path / "a.pgm").read_bytes() == smaller


def test_render_pgm_resolution_mismatch(tmp_path):
    report = cover_fraction(accumulate_image(shift_oracle(2, 1), (3,)), 2)
    with pytest.raises(ValueError):
        render_pgm(report, 3, tmp_path / "x.pgm")


def test_image_budget():
    with pytest.raises(BudgetExceededError):
        accumulate_image(shift_oracle(2, 1), (10,), budget=100)
    with pytest.raises(BudgetExceededError):
        family_points(digitwise_add_family(2), 8, budget=1000)


def test_union_rejects_mixed_primes():
    a = accumulate_image(shift_oracle(2, 1), (1,))
    b = accumulate_image(shift_oracle(3, 1), (1,))
    with pytest.raises(ValueError):
        PointSet2D.union([a, b])


def test_points_outside_unit_square_rejected():
    """Codes X * 4 + Y over den 4 lie in [0, 16) and strictly increase."""
    PointSet2D(p=2, n=0, levels=(1,), den=4, codes=(0, 15))
    for codes in ((-1,), (16,), (0, 16), (5, 3), (3, 3)):
        with pytest.raises(ValueError):
            PointSet2D(p=2, n=0, levels=(1,), den=4, codes=codes)


def test_family_rejects_letters_outside_alphabet():
    t = Transducer(p=2, initial="s", step=lambda s, a: ("s", (2,)))
    with pytest.raises(ValueError):
        family_points(t, 1)


# --------------------------------------------------------------------------
# reference: exact Fraction points and Fraction cell indexing
# --------------------------------------------------------------------------


def _ref_image(oracle, levels):
    """Mirrored (input, output) pairs per level, each evaluated on its own."""
    p, n = oracle.p, oracle.delay
    pts = set()
    for k in levels:
        outs = oracle.values(k, p ** (n + k))
        pts.update(
            (mirror_fraction(x, n + k, p), mirror_fraction(outs[x], k, p))
            for x in range(p ** (n + k))
        )
    return pts


def _ref_family(t, depth):
    """Every word from every state, simulated letter by letter from scratch."""
    p = t.p
    pts = set()
    for s in reachable_states(t, depth):
        for j in range(1, depth + 1):
            for u in range(p ** j):
                out = sf.simulate(t, sf.ref_word(u, j, p), start=s)
                num = 0
                for d in out:
                    num = num * p + d
                pts.add((mirror_fraction(u, j, p), F(num, p ** j)))
    return pts


def _ref_graph(t, depth):
    """The mirrored (input, output) pairs of the words read from the
    initial state."""
    p = t.p
    pts = set()
    for j in range(1, depth + 1):
        for u in range(p ** j):
            out = sf.simulate(t, sf.ref_word(u, j, p))
            pts.add((mirror_fraction(u, j, p), mirror_fraction(sf.ref_value(out, p), j, p)))
    return pts


def _ref_cells(points, grid):
    cell = {c: int(c * grid) for c in {c for pair in points for c in pair}}
    return sorted({(cell[x], cell[y]) for x, y in points})


def _ref_pgm(cells, grid):
    occupied = set(cells)
    rows = bytes(
        0 if (col, row) in occupied else 255
        for row in range(grid - 1, -1, -1)
        for col in range(grid)
    )
    return b"P5\n%d %d\n255\n" % (grid, grid) + rows


def _assert_matches_reference(pts, ref, m, tmp_path):
    """``ref`` is the set of exact points; the point view is built from
    ``coords``, so sorted duplicate-free coords give the sorted points."""
    assert set(pts.points) == ref
    assert list(pts.coords) == sorted(set(pts.coords))
    grid = pts.p ** m
    cells = _ref_cells(ref, grid)
    report = cover_fraction(pts, m)
    assert report.cells == tuple(cells)
    assert report.occupied == len(cells)
    assert report.fraction == F(len(cells), grid * grid)
    assert render_pgm(report, m, tmp_path / "ref.pgm") == _ref_pgm(cells, grid)


def _reference_oracles():
    rng = random.Random(47)
    oracles = [
        series_oracle(sf.delay_sound(rng, p, n, sf.support_range(p, n)[0]))
        for p, n in ((2, 1), (3, 1), (2, 2), (3, 2))
    ]
    return oracles + [
        polynomial_oracle(3, [1, 2, 3]),
        function_of(odometer_transducer(2)),
        shift_oracle(2, 1),
        shift_oracle(3, 1),
        function_of(delay_echo_transducer(2, 1)),
        function_of(delay_echo_transducer(2, 2)),
    ]


@pytest.mark.parametrize(
    "levels",
    [pytest.param(range(m, m + 4), id=str(m)) for m in (1, 2, 3, 4)]
    + [pytest.param((6, 1, 3, 3), id="6-1-3-3"), pytest.param((2, 5), id="2-5")],
)
def test_image_matches_fraction_reference(levels, tmp_path):
    """Delays 0, 1 and 2, gridded at the lowest level.  The gapped,
    unordered and repeated level sets give levels k whose inputs lie
    p^(top-k) > p apart in the mirrored order."""
    m = min(levels)
    for oracle in _reference_oracles():
        pts = accumulate_image(oracle, levels)
        assert pts.levels == tuple(sorted(set(levels)))
        _assert_matches_reference(pts, _ref_image(oracle, levels), m, tmp_path)


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
    ],
    ids=lambda t: f"{t.name}-p{t.p}",
)
def test_family_and_graph_match_fraction_reference(t, tmp_path):
    """The family image matches its reference and contains the graph of
    the machine's own function, the words read from the initial state."""
    for depth in range(1, 7 if t.p == 2 else 5):
        pts = family_points(t, depth)
        ref = _ref_family(t, depth)
        for m in range(1, depth + 1):
            _assert_matches_reference(pts, ref, m, tmp_path)
        assert _ref_graph(t, depth) <= ref


def test_cover_square_edges_match_fraction_reference(tmp_path):
    # points on the lower edges of [0, 1)^2 and just below the upper ones:
    # (0, 0), (0, 26), (13, 1), (26, 0) and (26, 26) over 27, the residues
    # 0 and 26 mirroring to themselves, 13 to 13 and 9 to 1
    pairs = ((0, 0), (0, 26), (13, 9), (26, 0), (26, 26))
    pts = PointSet2D(p=3, n=0, levels=(3,), den=27, codes=tuple(u * 27 + v for u, v in pairs))
    assert pts.coords == ((0, 0), (0, 26), (13, 1), (26, 0), (26, 26))
    ref = {(mirror_fraction(u, 3, 3), mirror_fraction(v, 3, 3)) for u, v in pairs}
    for m in range(1, 6):
        _assert_matches_reference(pts, ref, m, tmp_path)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_codes_match_pair_reference(data, tmp_path_factory):
    """Random residue pairs over den = p^L, L = 0..3, gridded at m = 1..L+2
    (so also where the words are shorter than m), against the mirrored pair
    references; the union of two denominators against the union of their
    points."""
    p = data.draw(st.sampled_from([2, 3]))

    def draw_set():
        length = data.draw(st.integers(0, 3))
        den = p ** length
        pairs = data.draw(st.sets(st.tuples(st.integers(0, den - 1), st.integers(0, den - 1)),
                                  max_size=40))
        codes = tuple(sorted(u * den + v for u, v in pairs))
        ref = {(mirror_fraction(u, length, p), mirror_fraction(v, length, p)) for u, v in pairs}
        return PointSet2D(p=p, n=0, levels=(1,), den=den, codes=codes), length, ref

    a, length, ref = draw_set()
    assert a.coords == tuple(sorted((x * a.den, y * a.den) for x, y in ref))
    assert a.points == tuple(sorted(ref))
    m = data.draw(st.integers(1, length + 2))
    grid = p ** m
    cells = _ref_cells(ref, grid)
    report = cover_fraction(a, m)
    assert report.cells == tuple(cells)
    assert report.occupied == len(cells)
    assert report.fraction == F(len(cells), grid * grid)
    path = tmp_path_factory.mktemp("pgm") / "ref.pgm"
    assert render_pgm(report, m, path) == _ref_pgm(cells, grid)
    b, _, ref_b = draw_set()
    union = PointSet2D.union([a, b])
    assert union.den == max(a.den, b.den)
    assert union.points == tuple(sorted(ref | ref_b))


def test_cover_and_coords_build_no_table_of_the_denominator():
    """One point over den = 2^20, gridded at m = 20: mirroring only the
    values reported keeps the calls' memory far below a table of 2^20
    entries."""
    u, v = 0b1011, 0b110  # mirror over 20 digits: 0b1101 << 16 and 0b011 << 17
    pts = PointSet2D(p=2, n=0, levels=(20,), den=2 ** 20, codes=(u * 2 ** 20 + v,))
    pair = (mirror_fraction(u, 20, 2) * 2 ** 20, mirror_fraction(v, 20, 2) * 2 ** 20)
    tracemalloc.start()
    try:
        report = cover_fraction(pts, 20)
        coords = pts.coords
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.cells == coords == (pair,)
    assert peak < 64 * 1024


def test_accumulate_image_evaluates_one_table():
    calls = []

    def bulk(m, count):
        calls.append((m, count))
        return [x // 2 for x in range(count)]

    oracle = FunctionOracle(p=2, delay=1, source="built-in", table=bulk)
    levels = range(2, 6)
    pts = accumulate_image(oracle, levels)
    assert calls == [(5, 2 ** 6)]
    assert pts == PointSet2D.union([accumulate_image(oracle, (k,)) for k in levels])


def test_hot_path_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built on the hot path")

    monkeypatch.setattr(geometry, "Fraction", no_fraction)
    pts = accumulate_image(shift_oracle(3, 1), range(1, 5))
    union = PointSet2D.union([pts, accumulate_image(shift_oracle(3, 1), (2,))])
    family = family_points(odometer_transducer(2), 6)
    assert union.coords == pts.coords
    assert len(family.coords) > 0
