import random
from fractions import Fraction

import pytest

from padic_automata import geometry
from padic_automata.errors import BudgetExceededError
from padic_automata.geometry import (
    PointSet2D,
    accumulate_image,
    automaton_graph,
    cover_fraction,
    family_image,
    family_points,
    image_points,
    mirror_fraction,
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
    SyncTransducer,
    function_of,
    reachable_states,
    run_sync,
    word_of,
)

import series_factory as sf


def F(a, b):
    return Fraction(a, b)


def test_mirror_fraction_first_letter_most_significant():
    # value 1 as a 2-letter word is (1, 0): embeds as 0.10 in base 2
    assert mirror_fraction(1, 2, 2) == F(1, 2)
    assert mirror_fraction(2, 2, 2) == F(1, 4)
    assert mirror_fraction(5, 2, 3) == F(2 * 3 + 1, 9)  # word (2, 1)


def test_image_points_shift_level1():
    pts = image_points(shift_oracle(2, 1), 1)
    assert set(pts.points) == {
        (F(0, 1), F(0, 1)),
        (F(1, 2), F(0, 1)),
        (F(1, 4), F(1, 2)),
        (F(3, 4), F(1, 2)),
    }


def test_image_points_identity_diagonal():
    pts = image_points(polynomial_oracle(2, [0, 1]), 1)
    assert set(pts.points) == {(F(0, 1), F(0, 1)), (F(1, 2), F(1, 2))}


def test_image_points_zero_on_axis():
    pts = image_points(zero_oracle(2, 1), 3)
    assert all(y == 0 for _, y in pts.points)


def test_cover_identity_exactly_diagonal():
    oracle = polynomial_oracle(2, [0, 1])
    for m in (1, 2, 3):
        pts = accumulate_image(oracle, range(1, 7))
        report = cover_fraction(pts, m)
        assert report.fraction == F(1, 2 ** m)
        assert all(i == j for i, j in report.cells)


def test_cover_single_point():
    pts = PointSet2D(p=2, n=0, levels=(1,), square=(0, 1),
                     den=21, coords=((7, 3),))
    for m in (1, 2, 3):
        assert cover_fraction(pts, m).fraction == F(1, 2 ** (2 * m))


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
    report = family_image(identity_transducer(2), 6, 3)
    assert report.fraction == F(1, 8)


def test_family_image_digitwise_add_covers_everything():
    report = family_image(digitwise_add_family(2), 6, 3)
    assert report.fraction == 1


def test_family_image_constant_output_row():
    t = SyncTransducer(
        p=2, initial="s", delta=lambda s, a: "s", output=lambda s, a: 0,
        name="constant",
    )
    report = family_image(t, 6, 3)
    assert report.fraction == F(1, 8)
    assert all(j == 0 for _, j in report.cells)


def test_automaton_graph_arrow_values():
    pts = automaton_graph(identity_transducer(2), 2)
    coords = {x for x, _ in pts.points}
    # word (0) -> 1, word (1) -> 2, word (1,0) -> 2 + 1/3 = 7/3
    assert F(1, 1) in coords
    assert F(2, 1) in coords
    assert F(7, 3) in coords
    assert all(x == y for x, y in pts.points)  # identity stays diagonal
    lo, hi = pts.square
    assert (lo, hi) == (1, 3)


def test_automaton_graph_inside_square():
    pts = automaton_graph(odometer_transducer(3), 3)
    assert all(1 <= x <= 4 and 1 <= y <= 4 for x, y in pts.points)


def _pgm_parts(data: bytes):
    header, rest = data.split(b"255\n", 1)
    assert header.startswith(b"P5\n")
    dims = header.split(b"\n")[1].split()
    return int(dims[0]), int(dims[1]), rest


def test_render_pgm_empty_all_white(tmp_path):
    pts = PointSet2D(p=2, n=0, levels=(), square=(0, 1), den=1, coords=())
    data = render_pgm(pts, 2, tmp_path / "empty.pgm")
    w, h, pixels = _pgm_parts(data)
    assert (w, h) == (4, 4)
    assert pixels == b"\xff" * 16


def test_render_pgm_identity_diagonal(tmp_path):
    pts = accumulate_image(polynomial_oracle(2, [0, 1]), range(1, 5))
    data = render_pgm(pts, 3, tmp_path / "diag.pgm")
    w, h, pixels = _pgm_parts(data)
    assert (w, h) == (8, 8)
    assert pixels.count(0) == 8
    # origin lower-left: cell (0, 0) is the first pixel of the last row
    assert pixels[7 * 8 + 0] == 0
    assert pixels[0 * 8 + 7] == 0


def test_render_pgm_shift_bound(tmp_path):
    pts = accumulate_image(shift_oracle(2, 1), range(1, 7))
    data = render_pgm(pts, 3, tmp_path / "shift.pgm")
    _, _, pixels = _pgm_parts(data)
    assert pixels.count(0) <= 16


def test_render_pgm_deterministic(tmp_path):
    pts = accumulate_image(shift_oracle(2, 1), range(1, 6))
    a = render_pgm(pts, 3, tmp_path / "a.pgm")
    b = render_pgm(pts, 3, tmp_path / "b.pgm")
    assert a == b
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_render_pgm_resolution_mismatch(tmp_path):
    report = cover_fraction(image_points(shift_oracle(2, 1), 3), 2)
    with pytest.raises(ValueError):
        render_pgm(report, 3, tmp_path / "x.pgm")


def test_image_budget():
    with pytest.raises(BudgetExceededError):
        image_points(shift_oracle(2, 1), 10, budget=100)
    with pytest.raises(BudgetExceededError):
        family_points(digitwise_add_family(2), 8, budget=1000)


def test_union_rejects_mixed_squares():
    a = automaton_graph(identity_transducer(2), 1)
    b = image_points(shift_oracle(2, 1), 1)
    with pytest.raises(ValueError):
        PointSet2D.union([a, b])


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
    """Every word from every state, run letter by letter from scratch."""
    p = t.p
    pts = set()
    for s in reachable_states(t, depth):
        for j in range(1, depth + 1):
            for u in range(p ** j):
                out = run_sync(t, word_of(u, j, p), start=s)
                num = 0
                for d in out:
                    num = num * p + d
                pts.add((mirror_fraction(u, j, p), F(num, p ** j)))
    return pts


def _ref_graph(t, depth):
    base = t.p + 1

    def arrow(word):
        return sum(F(d + 1, base ** i) for i, d in enumerate(word))

    pts = set()
    for j in range(1, depth + 1):
        for u in range(t.p ** j):
            word = word_of(u, j, t.p)
            pts.add((arrow(word), arrow(run_sync(t, word))))
    return pts


def _ref_cells(points, lo, hi, grid):
    cell = {
        c: min(int((c - lo) * grid / (hi - lo)), grid - 1)
        for c in {c for pair in points for c in pair}
    }
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
    cells = _ref_cells(ref, *pts.square, grid)
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
        shift_oracle(2, 1),
        shift_oracle(3, 1),
        function_of(delay_echo_transducer(2, 1)),
        function_of(delay_echo_transducer(2, 2)),
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_image_matches_fraction_reference(m, tmp_path):
    for oracle in _reference_oracles():
        levels = range(m, m + 4)
        pts = accumulate_image(oracle, levels)
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
    for depth in range(1, 7 if t.p == 2 else 5):
        pts = family_points(t, depth)
        ref = _ref_family(t, depth)
        for m in range(1, depth + 1):
            _assert_matches_reference(pts, ref, m, tmp_path)
        graph = automaton_graph(t, depth)
        _assert_matches_reference(graph, _ref_graph(t, depth), 2, tmp_path)


def test_cover_square_edges_match_fraction_reference(tmp_path):
    # points on the lower and upper edges of [1, 4]^2; the upper edge
    # belongs to the last cell
    coords = ((6, 6), (6, 24), (15, 7), (24, 24))
    pts = PointSet2D(p=3, n=0, levels=(1,), square=(1, 4), den=6, coords=coords)
    for m in (1, 2):
        ref = {(F(x, 6), F(y, 6)) for x, y in coords}
        _assert_matches_reference(pts, ref, m, tmp_path)


def test_accumulate_image_evaluates_one_table():
    calls = []

    def bulk(m, count):
        calls.append((m, count))
        return [x // 2 for x in range(count)]

    oracle = FunctionOracle(p=2, delay=1, source="built-in",
                            _fn=lambda x, m: x // 2, _bulk=bulk)
    levels = range(2, 6)
    pts = accumulate_image(oracle, levels)
    assert calls == [(5, 2 ** 6)]
    assert pts == PointSet2D.union([image_points(oracle, k) for k in levels])


def test_hot_path_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built on the hot path")

    monkeypatch.setattr(geometry, "Fraction", no_fraction)
    pts = accumulate_image(shift_oracle(3, 1), range(1, 5))
    union = PointSet2D.union([pts, image_points(shift_oracle(3, 1), 2)])
    family = family_points(odometer_transducer(2), 6)
    graph = automaton_graph(odometer_transducer(2), 6)
    assert union.coords == pts.coords
    assert len(family.coords) > len(graph.coords) > 0
