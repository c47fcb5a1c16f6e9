"""Exact-predicate properties: orientation, CCW sorting and sectors,
homogeneous points, integer hull lines, crossing parity, points on edges
and clean edge intersections."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cpa2relu.geometry import (
    Direction, Line, Ray, Segment, ccw_angle_cmp, ccw_sort_directions, cross,
    dot, dr, edge_base, edge_direction, homogeneous, indented_json,
    int_direction, int_line, line_sign, orientation, pt, rat_from_json,
    rat_to_json, same_direction, sector_index, sub, translate,
)
from cpa2relu.errors import DuplicateDirectionError, SchemaError
from cpa2relu.model import (
    GENERIC, CPAInstance, EdgeRec, _edges_intersect_cleanly, _parity,
    edges_at,
)

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


def _in_ccw_sector(start, end, u):
    """The Fraction sector predicate sector_index replaced: u strictly
    inside the sector swept CCW from start to end."""
    c = cross(start, end)
    if c > 0:
        return cross(start, u) > 0 and cross(u, end) > 0
    if c < 0:
        return not (cross(end, u) >= 0 and cross(u, start) >= 0)
    return cross(start, u) > 0


def _fraction_sector(rays, u):
    """The first ray that u lies along or whose sector holds u."""
    k = len(rays)
    for i in range(k):
        if same_direction(rays[i], u):
            return i, True
        if _in_ccw_sector(rays[i], rays[(i + 1) % k], u):
            return i, False
    raise AssertionError("no sector holds u")


positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


@given(st.lists(int_dirs, min_size=1, max_size=7), st.booleans(),
       st.integers(0, 7), st.integers(0, 7), st.one_of(int_dirs, st.none()),
       positive)
def test_sector_index_matches_the_fraction_scan(dirs, opposite, shift, along,
                                                probe, scale):
    # opposite rays, reflex sectors (few rays) and lists starting past
    # +x (shift) all occur; probe None puts u along a ray
    distinct = []
    for d in dirs + ([-dirs[0]] if opposite else []):
        if not any(same_direction(d, e) for e in distinct):
            distinct.append(d)
    assume(len(distinct) >= 2)
    order = ccw_sort_directions(pt(0, 0), distinct)
    rays = [distinct[order[(i + shift) % len(order)]]
            for i in range(len(order))]
    u = rays[along % len(rays)] if probe is None else probe
    u = Direction(u.dx * scale, u.dy * scale)
    ints, iu = tuple(int_direction(d) for d in rays), int_direction(u)
    i = sector_index(ints, iu)
    # on_ray as sides._cone_contains computes it
    assert (i, ccw_angle_cmp(ints[0], ints[i], iu) == 0) == \
        _fraction_sector(rays, u)


@given(points)
def test_homogeneous_round_trips(p):
    X, Y, W = homogeneous(p)
    assert W > 0
    assert (Fraction(X, W), Fraction(Y, W)) == (p.x, p.y)


def _fraction_int_line(e):
    """The hull line on Fractions: (-dy, dx, dy*x - dx*y) at the edge's
    base, cleared of denominators, then divided by its gcd when that
    exceeds 1."""
    p, d = edge_base(e), edge_direction(e)
    rs = (-d.dy, d.dx, d.dy * p.x - d.dx * p.y)
    den = math.prod(r.denominator for r in rs)
    a, b, c = (r.numerator * (den // r.denominator) for r in rs)
    g = math.gcd(a, b, c)
    return (a // g, b // g, c // g) if g > 1 else (a, b, c)


rat_dirs = st.builds(dr, rats, rats)
hull_edges = st.one_of(st.builds(Segment, points, points),
                       st.builds(Ray, points, rat_dirs),
                       st.builds(Line, points, rat_dirs))


@given(hull_edges, st.integers(1, 10 ** 6))
@example(Segment(pt("-1/3", 2), pt("-1/3", 2)), 1)
@example(Line(pt(0, 0), dr(0, 0)), 1)
@example(Ray(pt("-7/2", "5/3"), dr("-2/9", "4/3")), 10 ** 6)
def test_int_line_matches_the_fraction_formula(e, k):
    line = int_line(e)
    assert line == _fraction_int_line(e)
    d = edge_direction(e)
    if d.dx == d.dy == 0:
        assert line == (0, 0, 0)
        return
    assert math.gcd(*line) == 1
    mid = translate(edge_base(e), d, Fraction(1, 2))
    left = translate(mid, Direction(-d.dy, d.dx), Fraction(1, k))
    assert line_sign(*line, *homogeneous(mid)) == 0
    assert line_sign(*line, *homogeneous(left)) == 1


@given(st.lists(points, min_size=3, max_size=6), points, int_dirs)
def test_closed_loop_crosses_line_evenly(loop, base, d):
    # each loop vertex moves by the same nudge in both of its segments,
    # so the moved loop is closed and meets the line an even number of
    # times, wherever the vertices lie
    lines = _recs([Line(base, d)])
    closed = loop + [loop[0]]
    assert sum(_parity_at(lines, p, q) for p, q in zip(closed, closed[1:])) % 2 == 0


SQUARE = [Segment(pt(0, 0), pt(2, 0)), Segment(pt(2, 0), pt(2, 2)),
          Segment(pt(2, 2), pt(0, 2)), Segment(pt(0, 2), pt(0, 0))]
QUADRANT = [Ray(pt(0, 0), dr(1, 0)), Ray(pt(0, 0), dr(0, 1))]


def _recs(edges):
    """The edges as EdgeRecs, the form _parity and the pair check take;
    pieces and vertex ids play no part in either."""
    return [EdgeRec(f"e{i}", g, ("P", "Q"), ()) for i, g in enumerate(edges)]


def _parity_at(recs, x, w, nudge=GENERIC):
    """_parity on the points' homogeneous forms, x's scaled by 3 so that
    a form other than the one homogeneous builds is exercised too."""
    X, Y, W = homogeneous(x)
    return _parity(recs, (3 * X, 3 * Y, 3 * W), homogeneous(w), nudge)


def test_parity_settles_paths_that_needed_detours():
    seg = _recs(SQUARE[:1])
    # both endpoints on the hull of a segment, or of a ray, off the edge
    assert _parity_at(seg, pt(5, 0), pt(-3, 0)) == 0
    assert _parity_at(_recs(QUADRANT[:1]), pt(-2, 0), pt(-5, 0)) == 0
    # a path through a corner of the square: in, and past it outside
    square = _recs(SQUARE)
    assert _parity_at(square, pt(-1, -1), pt(1, 1)) == 1
    assert _parity_at(square, pt(-1, 1), pt(1, -1)) == 0
    assert _parity_at(square, pt(3, 3), pt(1, 1)) == 1
    # a path through the apex of two rays: into the quadrant, and past it
    quadrant = _recs(QUADRANT)
    assert _parity_at(quadrant, pt(-1, -1), pt(1, 1)) == 1
    assert _parity_at(quadrant, pt(-1, 1), pt(1, -1)) == 0
    # a path along a side of the square, through two corners
    assert _parity_at(square, pt(-1, 0), pt(3, 0)) == 0
    # and along a line
    line = _recs([Line(pt(0, 1), dr(1, 0))])
    assert _parity_at(line, pt(-4, 1), pt(7, 1)) == 0


T = Fraction(1, 10**9)


def _crossings_moved(edges, x, w, nudge):
    """Crossings of x-w translated by T*n1 + T**2*n2 with the edges,
    counted with Fraction orientations; rays are cut far beyond the
    small grid.  Every orientation must be nonzero."""
    (u1, v1), (u2, v2) = nudge
    move = Direction(T * u1 + T * T * u2, T * v1 + T * T * v2)
    x, w = translate(x, move), translate(w, move)
    count = 0
    for g in edges:
        if isinstance(g, Segment):
            p, q = g.a, g.b
        else:
            p = g.v if isinstance(g, Ray) else g.p
            q = translate(p, g.d, 1000)
            if isinstance(g, Line):
                p = translate(p, g.d, -1000)
        sx, sw = orientation(p, q, x), orientation(p, q, w)
        sp, sq = orientation(x, w, p), orientation(x, w, q)
        assert 0 not in (sx, sw, sp, sq)
        count += sx != sw and sp != sq
    return count


# rational grid points, so homogeneous forms have W > 1
grid_coords = st.integers(1, 4).flatmap(
    lambda d: st.builds(Fraction, st.integers(-3 * d, 3 * d), st.just(d)))
grid = st.builds(pt, grid_coords, grid_coords)
small_dirs = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda t: t != (0, 0))
edges_st = st.one_of(
    st.tuples(grid, grid).filter(lambda t: t[0] != t[1]).map(
        lambda t: Segment(*t)),
    st.builds(Ray, grid, small_dirs.map(lambda t: dr(*t))),
    st.builds(Line, grid, small_dirs.map(lambda t: dr(*t))),
)
nudges = st.one_of(st.just(GENERIC), st.tuples(small_dirs, small_dirs).filter(
    lambda n: n[0][0] * n[1][1] != n[0][1] * n[1][0]))


@given(st.lists(edges_st, max_size=6), grid, grid, nudges)
def test_parity_matches_a_moved_fraction_count(edges, x, w, nudge):
    assume(x != w)
    assert _parity_at(_recs(edges), x, w, nudge) == \
        _crossings_moved(edges, x, w, nudge) % 2


def test_edges_at_each_kind():
    o = pt(0, 0)
    inst = CPAInstance({"o": o, "t": pt(2, 2)}, {
        "seg": EdgeRec("seg", Segment(o, pt(2, 2)), ("P", "Q"), ("o", "t")),
        "ray": EdgeRec("ray", Ray(o, dr(1, 1)), ("P", "Q"), ("o",)),
        "line": EdgeRec("line", Line(o, dr(1, 1)), ("P", "Q"), ()),
    }, {})

    def on(x, eid):
        X, Y, W = homogeneous(x)
        return edges_at(inst, (2 * X, 2 * Y, 2 * W), [eid]) == [eid]

    assert on(pt(1, 1), "seg")
    assert not on(pt(3, 3), "seg")  # past the endpoint
    assert not on(pt(1, 0), "seg")

    assert on(pt(3, 3), "ray")
    assert not on(pt(-1, -1), "ray")

    assert on(pt(-1, -1), "line")
    assert not on(pt(0, 1), "line")


def _fraction_on_edge(x, g):
    p, d = edge_base(g), edge_direction(g)
    if orientation(p, translate(p, d), x) != 0:
        return False
    if isinstance(g, Line):
        return True
    if isinstance(g, Ray):
        return dot(sub(x, p), d) >= 0
    return 0 <= dot(sub(x, p), d) <= dot(d, d)


def _fraction_interval(g, base, d):
    if isinstance(g, Segment):
        ta, tb = dot(sub(g.a, base), d), dot(sub(g.b, base), d)
        return (min(ta, tb), max(ta, tb))
    if isinstance(g, Ray):
        tv = dot(sub(g.v, base), d)
        return (tv, None) if dot(g.d, d) > 0 else (None, tv)
    return (None, None)


def _fraction_clean(g1, g2, allowed):
    """The Fraction pair check the integer one replaced: the point where
    the lines meet, or the overlap of parameter intervals along g1."""
    d1, d2 = edge_direction(g1), edge_direction(g2)
    p1, p2 = edge_base(g1), edge_base(g2)
    c = cross(d1, d2)
    if c != 0:
        z = translate(p1, d1, cross(sub(p2, p1), d2) / c)
        if _fraction_on_edge(z, g1) and _fraction_on_edge(z, g2) \
                and z not in allowed:
            return f"edges cross at {z}"
        return None
    if orientation(p1, translate(p1, d1), p2) != 0:
        return None
    lo1, hi1 = _fraction_interval(g1, p1, d1)
    lo2, hi2 = _fraction_interval(g2, p1, d1)
    lo = lo1 if lo2 is None else lo2 if lo1 is None else max(lo1, lo2)
    hi = hi1 if hi2 is None else hi2 if hi1 is None else min(hi1, hi2)
    if lo is None or hi is None or lo < hi:
        return "edges overlap along a common line"
    if lo > hi:
        return None
    z = translate(p1, d1, lo / dot(d1, d1))
    if z not in allowed:
        return f"collinear edges touch at non-vertex {z}"
    return None


def _ends(g):
    if isinstance(g, Segment):
        return {g.a, g.b}
    return {g.v} if isinstance(g, Ray) else set()


@given(edges_st, edges_st, st.booleans())
# one hull line, two opposite orientations: an overlap, and a touch
@example(Segment(pt(0, 0), pt(2, 0)), Segment(pt(3, 0), pt(1, 0)), False)
@example(Ray(pt(0, 0), dr(1, 0)), Ray(pt(0, 0), dr(-1, 0)), False)
def test_clean_intersection_matches_the_fraction_check(g1, g2, shared):
    # allowed is what validate passes: the vertices the edges share,
    # or none when coinciding ends belong to different vertices
    allowed = _ends(g1) & _ends(g2) if shared else set()
    r1, r2 = _recs([g1, g2])
    got = _edges_intersect_cleanly(r1, r2, allowed)
    assert got == _fraction_clean(g1, g2, allowed)


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


json_texts = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600')))
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10 ** 400, 10 ** 400), st.floats(), json_texts,
    st.sampled_from([-0.0, 1e-7, 1e300, math.nan, math.inf, -math.inf]))
flat_rows = st.one_of(st.lists(json_scalars, min_size=1, max_size=4),
                      st.tuples(json_scalars, json_scalars))


@st.composite
def row_lists(draw, values):
    """A list of flat scalar rows (an exported network's triplets), at
    times with one empty or nested row among them."""
    rows = draw(st.lists(flat_rows, min_size=1, max_size=6))
    odd = draw(st.one_of(st.none(), st.sampled_from([[], (), ["x", []]]),
                         st.lists(values, min_size=1, max_size=3)))
    if odd is not None:
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


json_values = st.recursive(
    json_scalars,
    lambda values: st.one_of(
        st.lists(values, max_size=4),
        st.lists(values, max_size=4).map(tuple),
        st.dictionaries(json_texts, values, max_size=4),
        row_lists(values)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example([[], [[]], {}, {"": {}}, ()])
@example({"triplets": [[0, 1, "1/2"], [1, True, None]], "x": [1, [2]]})
def test_indented_json_is_the_stdlib_text(v):
    assert indented_json(v) == json.dumps(v, indent=1, sort_keys=True)


@pytest.mark.parametrize("bad", [{1, 2}, object(), [[1, {2}]], {"a": [object()]}])
def test_indented_json_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=1, sort_keys=True)
    with pytest.raises(TypeError):
        indented_json(bad)
