"""Reduction of fans and edge pairs to nested-max terms.

The frozen expectations were derived by hand and cross-checked
by exact evaluation; they double as regression pins for the sign
conventions.
"""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cpa2relu import model
from cpa2relu.decompose import EdgePair, Fan, eval_fan
from cpa2relu.errors import NotCrossCaseError
from cpa2relu.geometry import cross, dr, pt, same_direction
from cpa2relu.maxform import (
    MaxTerm, TermList, edge_to_max, fan_to_cpl, merge_step,
    split_cross_case, three_piece_to_max, two_sector_to_max,
)
from cpa2relu.model import AffineFunc
from cpa2relu.verify import sample_general_position


def aff(a, b, c) -> AffineFunc:
    return AffineFunc(Fraction(a), Fraction(b), Fraction(c))


ZERO = aff(0, 0, 0)
X = aff(1, 0, 0)
Y = aff(0, 1, 0)

rats = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))
points = st.builds(pt, rats, rats)
affines = st.builds(aff, rats, rats, rats)
signs = st.sampled_from([-1, 1])
terms = st.builds(MaxTerm, signs, affines, signs, affines, affines)

PROBES = [pt(0, 0), pt(1, 0), pt(0, 1), pt(-1, -1), pt(3, -2),
          pt(Fraction(-5, 2), Fraction(1, 3)), pt(7, 11), pt(-9, 4)]


# ---------------------------------------------------------------------------
# frozen three-sector conversions

def test_min_of_zero_x_y():
    fan = Fan(pt(0, 0), (dr(1, 0), dr(0, 1), dr(-1, -1)), (ZERO, X, Y))
    term = three_piece_to_max(fan)
    assert term == MaxTerm(-1, ZERO, 1, -X, -Y)
    for q in PROBES:
        assert term(q) == min(0, q.x, q.y)


def test_max_of_zero_min_x_y():
    fan = Fan(pt(0, 0), (dr(1, 0), dr(1, 1), dr(0, 1)), (Y, X, ZERO))
    term = three_piece_to_max(fan)
    assert term == MaxTerm(1, ZERO, -1, -Y, -X)
    for q in PROBES:
        assert term(q) == max(0, min(q.x, q.y))


@given(points)
def test_three_piece_reflex_center_shift(q):
    """The same wedge moved off the origin still converts exactly."""
    v = pt(2, -3)
    rays = (dr(1, 0), dr(1, 1), dr(0, 1))
    base = Fan(pt(0, 0), rays, (Y, X, ZERO))
    shifted = Fan(v, rays, tuple(
        AffineFunc(g.a, g.b, g.c - g.a * v.x - g.b * v.y + 5)
        for g in (Y, X, ZERO)))
    term = three_piece_to_max(shifted)
    assert term(q) == eval_fan(base, pt(q.x - v.x, q.y - v.y)) + 5


# ---------------------------------------------------------------------------
# merge step

FIVE = Fan(pt(0, 0),
           (dr(1, 0), dr(1, 1), dr(-1, 1), dr(-1, -1), dr(1, -1)),
           (X, Y, -X, -Y, X))


def test_merge_step_five_sector():
    extracted, rest = merge_step(FIVE)
    assert extracted.rays == (dr(1, 0), dr(1, 1), dr(-1, 1))
    assert extracted.sector_affines == (X, Y, aff(1, 2, 0))
    assert rest.rays == (dr(1, 0), dr(-1, 1), dr(-1, -1), dr(1, -1))
    assert rest.sector_affines == (ZERO, aff(-2, -2, 0), aff(-1, -3, 0),
                                   aff(0, -2, 0))
    for q in PROBES:
        assert eval_fan(FIVE, q) == eval_fan(extracted, q) + eval_fan(rest, q)


def test_merge_step_four_sector():
    fan = Fan(pt(0, 0), (dr(1, 0), dr(1, 1), dr(0, 1), dr(0, -1)),
              (aff(1, 2, 0), aff(3, 0, 0), ZERO, X))
    extracted, rest = merge_step(fan)
    assert extracted.sector_affines[2] == X  # the interpolated plane
    for q in PROBES:
        assert eval_fan(fan, q) == eval_fan(extracted, q) + eval_fan(rest, q)


# ---------------------------------------------------------------------------
# cross case

CROSS_FAN = Fan(pt(0, 0), (dr(1, 0), dr(0, 1), dr(-1, 0), dr(0, -1)),
                (aff(1, 1, 0), aff(-1, 1, 0), aff(-1, -1, 0), aff(1, -1, 0)))


def test_split_cross_case():
    part1, part2 = split_cross_case(CROSS_FAN)
    assert part1.rays == (dr(0, 1), dr(0, -1))
    assert part1.sector_affines == (aff(-1, 1, 0), aff(1, 1, 0))
    assert part2.rays == (dr(1, 0), dr(-1, 0))
    assert part2.sector_affines == (ZERO, aff(0, -2, 0))
    for q in PROBES:
        assert (eval_fan(part1, q) + eval_fan(part2, q)
                == abs(q.x) + abs(q.y))


def test_split_cross_case_rejects_proper_fans():
    with pytest.raises(NotCrossCaseError):
        split_cross_case(FIVE)
    with pytest.raises(NotCrossCaseError):
        split_cross_case(Fan(pt(0, 0),
                             (dr(1, 0), dr(1, 1), dr(0, 1), dr(0, -1)),
                             (aff(1, 2, 0), aff(3, 0, 0), ZERO, X)))


def test_two_sector_handles_unequal_antipodal_rays():
    # the probe direction must stay off the shared boundary line
    fan = Fan(pt(0, 0), (dr(0, 2), dr(0, -3)), (-X, X))
    term = two_sector_to_max(fan)
    for q in PROBES:
        assert term(q) == abs(q.x)


def test_cross_corpus_terms_are_frozen(compiled):
    _, _, _, tl, _ = compiled["cross"]
    t1, t2 = tl.terms
    assert t1 == MaxTerm(1, aff(1, -1, 0), 1, aff(-1, -1, 0), aff(-1, -1, 0))
    assert t2 == MaxTerm(1, ZERO, 1, aff(0, 2, 0), aff(0, 2, 0))


def test_half_plane_term_is_frozen(compiled):
    _, _, _, tl, _ = compiled["half_plane"]
    assert tl.terms == (MaxTerm(1, ZERO, 1, X, X),)


def test_max_zero_xy_term_is_frozen(compiled):
    _, _, _, tl, _ = compiled["max_zero_xy"]
    assert tl.terms == (MaxTerm(1, ZERO, 1, X, Y),)


# ---------------------------------------------------------------------------
# random three-sector fans

int_dirs = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda t: t != (0, 0)).map(lambda t: dr(*t))


@given(st.tuples(int_dirs, int_dirs, int_dirs), points, affines,
       rats.filter(lambda r: r != 0), points)
def test_random_three_fan_round_trip(dirs3, center, g1, lam1, q):
    from cpa2relu.geometry import ccw_sort_directions
    ds = []
    for d in dirs3:
        if not any(same_direction(d, e) for e in ds):
            ds.append(d)
    if len(ds) != 3:
        return
    order = ccw_sort_directions(pt(0, 0), ds)
    r1, r2, r3 = (ds[i] for i in order)
    if cross(r3, r1) == 0:
        return  # wrap seam parallel to the first ray, not constructible
    def vanishing_on(d):
        return AffineFunc(-d.dy, d.dx, d.dy * center.x - d.dx * center.y)

    g2 = g1 + vanishing_on(r2).scale(lam1)
    lam2 = -lam1 * cross(r2, r1) / cross(r3, r1)
    g3 = g2 + vanishing_on(r3).scale(lam2)
    fan = Fan(center, (r1, r2, r3), (g1, g2, g3))
    term = three_piece_to_max(fan)
    assert term(q) == eval_fan(fan, q)
    assert term(center) == g1(center)


# ---------------------------------------------------------------------------
# term algebra

@given(terms, points)
def test_outer_sign_flip_negates(t, q):
    flipped = MaxTerm(-t.sigma1, t.f1, t.sigma2, t.f2, t.f3)
    assert flipped(q) == -t(q)


@given(terms, affines, points)
def test_shift_law(t, h, q):
    assert t.shift(h)(q) == t(q) + h(q)


@given(terms, points, points)
def test_reflect_law(t, v, q):
    assert t.reflect_through(v)(q) == t(pt(v.x - q.x, v.y - q.y))


@given(terms, points, points)
def test_translate_law(t, v, q):
    assert t.translate_by(v)(q) == t(pt(q.x - v.x, q.y - v.y))


def test_bad_signs_rejected():
    doc = MaxTerm(1, ZERO, 1, X, Y).to_json()
    doc["sigma1"] = 2
    with pytest.raises(ValueError):
        MaxTerm.from_json(doc)


# ---------------------------------------------------------------------------
# edge pairs and whole-corpus identities

def test_edge_to_max_half_plane():
    pair = EdgePair(aff(-1, 0, 0), ZERO, X, 1)
    assert edge_to_max(pair) == MaxTerm(1, ZERO, 1, X, X)


def test_edge_to_max_segment_sign_flip():
    pair = EdgePair(aff(-1, 0, 0), ZERO, X, -1)
    term = edge_to_max(pair)
    assert term.sigma1 == -1
    for q in PROBES:
        assert term(q) == -max(Fraction(0), q.x)


def test_term_count_matches_structure(compiled):
    from cpa2relu.geometry import Line, Ray, Segment
    expected_counts = {
        "cross": 2, "disconnected_cone": 13, "half_plane": 1, "hat": 14,
        "max_zero_xy": 1, "ring_bump": 27, "single_piece": 1,
        "square_hole": 1, "strip": 2,
    }
    for name, (_, slim, _, tl, _) in compiled.items():
        n = sum(len(eids) - 2 for eids in slim.vertex_edges.values())
        n += sum(1 for rec in slim.edges.values()
                 if isinstance(rec.geom, (Segment, Line)))
        assert len(tl.terms) == max(1, n), name
        if name in expected_counts:
            assert len(tl.terms) == expected_counts[name], name


def test_term_sum_matches_instance(compiled):
    for name, (_, slim, _, tl, _) in compiled.items():
        for x in sample_general_position(slim, 29, 40):
            assert tl(x) == model.eval_cpa(slim, x), name


def test_kernel_encoding_matches_terms(compiled):
    """The kernel-backed term sum against the Fraction MaxTerm reference."""
    for name, (_, slim, _, tl, _) in compiled.items():
        for x in sample_general_position(slim, 31, 20) + PROBES:
            assert tl(x) == sum(t(x) for t in tl.terms), name


@given(st.lists(terms, max_size=4), st.builds(pt, rats, rats))
def test_term_list_matches_max_terms(ts, x):
    """Rational coefficients survive the integer encoding."""
    assert TermList(tuple(ts), 1)(x) == sum(t(x) for t in ts)


def test_fan_to_cpl_inverse(compiled):
    _, slim, dec, _, _ = compiled["hat"]
    for fan in dec.fans:
        lin, rec = fan_to_cpl(fan)
        assert lin.center == pt(0, 0)
        assert all(g.c == 0 for g in lin.sector_affines)
        for q in PROBES:
            want = eval_fan(fan, pt(rec.v.x - q.x, rec.v.y - q.y))
            assert lin.sector_affines and (
                eval_fan(lin, q) == want - rec.f_of_v)
