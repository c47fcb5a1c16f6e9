"""Exact-predicate properties: orientation, CCW sorting, crossing parity."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from cpa2relu.geometry import (
    DEGENERATE, Direction, Line, Point, Ray, Segment, ccw_sort_directions,
    cross, dr, in_ccw_sector, int_line, on_edge, orientation, pt,
    rat_from_json, rat_to_json, same_direction, sector_midpoint_direction,
    shrink_to_disk,
)
from cpa2relu.errors import DuplicateDirectionError, SchemaError
from cpa2relu.model import _parity_between, _path_parity

rats = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
points = st.builds(pt, rats, rats)
int_dirs = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda t: t != (0, 0)).map(lambda t: dr(*t))


@given(points, points, points)
def test_orientation_antisymmetry(p, q, r):
    assert orientation(p, q, r) == -orientation(p, r, q)
    assert orientation(p, q, r) == orientation(q, r, p)


@given(points, points, points, rats, rats)
def test_orientation_translation_invariance(p, q, r, tx, ty):
    def shift(z):
        return pt(z.x + tx, z.y + ty)

    assert orientation(p, q, r) == orientation(shift(p), shift(q), shift(r))


@given(points, points, points, st.integers(1, 7))
def test_orientation_scale_invariance(p, q, r, k):
    def scale(z):
        return pt(k * z.x, k * z.y)

    assert orientation(p, q, r) == orientation(scale(p), scale(q), scale(r))


def _angle(d: Direction) -> float:
    a = math.atan2(d.dy, d.dx)
    return a if a >= 0 else a + 2 * math.pi


@given(st.lists(int_dirs, min_size=2, max_size=8))
def test_ccw_sort_matches_atan2(dirs):
    distinct = []
    for d in dirs:
        if not any(same_direction(d, e) for e in distinct):
            distinct.append(d)
    if len(distinct) < 2:
        return
    order = ccw_sort_directions(pt(0, 0), distinct)
    assert sorted(order) == list(range(len(distinct)))
    # grid directions with |coord| <= 9 are far enough apart for atan2
    angles = [_angle(distinct[i]) for i in order]
    assert angles == sorted(angles)


def test_ccw_sort_rejects_positive_multiples():
    with pytest.raises(DuplicateDirectionError):
        ccw_sort_directions(pt(0, 0), [dr(1, 2), dr(-1, 0), dr(2, 4)])


@given(int_dirs, int_dirs)
def test_sector_midpoint_lies_in_sector(start, end):
    if same_direction(start, end):
        return
    mid = sector_midpoint_direction(start, end)
    assert in_ccw_sector(start, end, mid)
    # and the complementary sector does not contain it
    assert not in_ccw_sector(end, start, mid)


@given(st.lists(points, min_size=3, max_size=6, unique=True), points, int_dirs)
def test_closed_loop_crosses_line_evenly(loop, base, d):
    line = Line(base, d)
    # parity is defined for endpoints off the edge, and a line is its hull
    assume(not on_edge(loop[0], line))
    par = _path_parity([(int_line(line), line)], loop + [loop[0]])
    assert par is DEGENERATE or par == 0


def test_path_parity_tolerates_endpoints_on_hulls():
    seg = Segment(pt(0, 0), pt(2, 0))
    ray = Ray(pt(0, 0), dr(1, 0))
    for edge, touch in ((seg, pt(5, 0)), (seg, pt(-3, 0)), (ray, pt(-2, 0))):
        lines = [(int_line(edge), edge)]
        assert _path_parity(lines, [touch, pt(1, 1)]) == 0
        assert _path_parity(lines, [touch, pt(1, 1), pt(1, -1)]) == 1
        assert _path_parity(lines, [pt(1, 1), touch, pt(1, -1)]) is DEGENERATE
    # both endpoints on the hull: the straight path runs along it, and
    # only a detour, which keeps the endpoints, gives the parity
    lines = [(int_line(seg), seg)]
    assert _path_parity(lines, [pt(5, 0), pt(-3, 0)]) is DEGENERATE
    box = (Fraction(-4), Fraction(-4), Fraction(6), Fraction(4))
    assert _parity_between(lines, pt(5, 0), pt(-3, 0), box) == 0


@given(int_dirs, st.integers(1, 400))
def test_shrink_to_disk_preserves_direction(d, cap_num):
    cap = Fraction(cap_num, 7)
    s = shrink_to_disk(d, cap)
    assert same_direction(s, d)
    assert s.dx * s.dx + s.dy * s.dy <= cap


def test_on_edge_each_kind():
    seg = Segment(pt(0, 0), pt(2, 2))
    assert on_edge(pt(1, 1), seg)
    assert not on_edge(pt(3, 3), seg)  # past the endpoint
    assert not on_edge(pt(1, 0), seg)

    ray = Ray(pt(0, 0), dr(1, 1))
    assert on_edge(pt(3, 3), ray)
    assert not on_edge(pt(-1, -1), ray)

    line = Line(pt(0, 0), dr(1, 1))
    assert on_edge(pt(-1, -1), line)
    assert not on_edge(pt(0, 1), line)


@given(rats)
def test_rat_json_round_trip(r):
    assert rat_from_json(rat_to_json(r)) == r


def test_rat_json_integer_stays_integer():
    assert rat_to_json(Fraction(4, 2)) == 2
    assert rat_to_json(Fraction(-3, 2)) == "-3/2"


@pytest.mark.parametrize("bad", [1.5, True, False, "1/0", "x/y", "1/2/3", None])
def test_rat_json_rejects_non_rationals(bad):
    with pytest.raises(SchemaError):
        rat_from_json(bad)
