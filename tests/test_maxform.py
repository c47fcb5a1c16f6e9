"""Reduction of fans and edge pairs to nested-max terms.

The frozen expectations were derived by hand and cross-checked
by exact evaluation; they double as regression pins for the sign
conventions.
"""
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cpa2relu import maxform, model, network
from cpa2relu.decompose import (Decomposition, EdgePair, Fan,
                                eval_decomposition)
from cpa2relu.errors import ContinuityError
from cpa2relu.geometry import (
    ccw_sort_directions, cross, dr, homogeneous, pt, same_direction,
)
from cpa2relu.maxform import (
    MaxTerm, TermList, edge_to_max, fan_to_terms, reduce,
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


def fan_sum(fan: Fan, x) -> Fraction:
    return sum(t(x) for t in fan_to_terms(fan))


def fan_value(fan: Fan, x) -> Fraction:
    """The fan alone at x: a one-fan eval_decomposition."""
    return eval_decomposition(Decomposition((fan,), (), ZERO), x)


# ---------------------------------------------------------------------------
# frozen three-sector conversions

def test_min_of_zero_x_y():
    fan = Fan(pt(0, 0), (dr(1, 0), dr(0, 1), dr(-1, -1)), (ZERO, X, Y))
    (term,) = fan_to_terms(fan)
    assert term == MaxTerm(-1, -Y, 1, ZERO, -X)
    for q in PROBES:
        assert term(q) == min(0, q.x, q.y)


def test_max_of_zero_min_x_y():
    fan = Fan(pt(0, 0), (dr(1, 0), dr(1, 1), dr(0, 1)), (Y, X, ZERO))
    (term,) = fan_to_terms(fan)
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
    (term,) = fan_to_terms(shifted)
    assert term(q) == fan_value(base, pt(q.x - v.x, q.y - v.y)) + 5


# ---------------------------------------------------------------------------
# merge steps

FIVE = Fan(pt(0, 0),
           (dr(1, 0), dr(1, 1), dr(-1, 1), dr(-1, -1), dr(1, -1)),
           (X, Y, -X, -Y, X))


def test_merge_step_five_sector():
    """Two merge steps on the linearization, whose rays start at (1, 1),
    then the last three sectors."""
    assert fan_to_terms(FIVE) == [
        MaxTerm(-1, aff(-1, 2, 0), -1, -Y, X),
        MaxTerm(-1, aff(0, -4, 0), -1, aff(0, 2, 0), aff(-1, 3, 0)),
        MaxTerm(1, aff(0, -4, 0), 1, ZERO, aff(-2, -2, 0)),
    ]
    for q in PROBES:
        assert fan_sum(FIVE, q) == fan_value(FIVE, q)


def test_merge_step_four_sector():
    fan = Fan(pt(0, 0), (dr(1, 0), dr(1, 1), dr(0, 1), dr(0, -1)),
              (aff(1, 2, 0), aff(3, 0, 0), ZERO, X))
    assert fan_to_terms(fan) == [
        MaxTerm(-1, aff(-3, 0, 0), -1, X, aff(1, 2, 0)),
        MaxTerm(1, aff(-3, 0, 0), -1, ZERO, ZERO),
    ]
    for q in PROBES:
        assert fan_sum(fan, q) == fan_value(fan, q)


# ---------------------------------------------------------------------------
# cross case

CROSS_FAN = Fan(pt(0, 0), (dr(1, 0), dr(0, 1), dr(-1, 0), dr(0, -1)),
                (aff(1, 1, 0), aff(-1, 1, 0), aff(-1, -1, 0), aff(1, -1, 0)))


def test_broken_sector_raises_from_reduce():
    torn_five = Fan(FIVE.center, FIVE.rays, (X, Y, -X + Y, -Y, X))
    # torn along +x only; two crossing lines take no peeling step, so
    # nothing but fan_to_terms' own validation looks at the sectors
    torn_cross = Fan(CROSS_FAN.center, CROSS_FAN.rays,
                     CROSS_FAN.sector_affines[:3] + (aff(2, -1, 0),))
    for broken in (torn_five, torn_cross):
        with pytest.raises(ContinuityError):
            reduce(Decomposition((broken,), (), ZERO))


def test_split_cross_case():
    """No sector pair encloses less than pi: one two-sector term across
    each line."""
    assert fan_to_terms(CROSS_FAN) == [
        MaxTerm(1, aff(1, -1, 0), 1, aff(-1, -1, 0), aff(-1, -1, 0)),
        MaxTerm(1, ZERO, 1, aff(0, 2, 0), aff(0, 2, 0)),
    ]
    for q in PROBES:
        assert fan_sum(CROSS_FAN, q) == abs(q.x) + abs(q.y)


def test_two_sector_handles_unequal_antipodal_rays():
    # the probe direction must stay off the shared boundary line
    fan = Fan(pt(0, 0), (dr(0, 2), dr(0, -3)), (-X, X))
    (term,) = fan_to_terms(fan)
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


def _distinct(ds):
    out = []
    for d in ds:
        if not any(same_direction(d, e) for e in out):
            out.append(d)
    return out


def vanishing_on(d, center) -> AffineFunc:
    """The linear function cross(d, x - center)."""
    return AffineFunc(-d.dy, d.dx, d.dy * center.x - d.dx * center.y)


@given(st.tuples(int_dirs, int_dirs, int_dirs), points, affines,
       rats.filter(lambda r: r != 0), points)
def test_random_three_fan_round_trip(dirs3, center, g1, lam1, q):
    ds = _distinct(dirs3)
    if len(ds) != 3:
        return
    order = ccw_sort_directions(pt(0, 0), ds)
    r1, r2, r3 = (ds[i] for i in order)
    if cross(r3, r1) == 0:
        return  # wrap seam parallel to the first ray, not constructible
    g2 = g1 + vanishing_on(r2, center).scale(lam1)
    lam2 = -lam1 * cross(r2, r1) / cross(r3, r1)
    g3 = g2 + vanishing_on(r3, center).scale(lam2)
    fan = Fan(center, (r1, r2, r3), (g1, g2, g3))
    (term,) = fan_to_terms(fan)
    assert term(q) == fan_value(fan, q)
    assert term(center) == g1(center)


cross_lines = st.tuples(int_dirs, int_dirs, st.integers(1, 3)).filter(
    lambda t: cross(t[0], t[1]) != 0).map(
    lambda t: [t[0], t[1], dr(-t[2] * t[0].dx, -t[2] * t[0].dy), -t[1]])
fan_rays = st.one_of(st.lists(int_dirs, min_size=2, max_size=10).map(_distinct),
                     cross_lines).filter(lambda ds: len(ds) >= 2)


@st.composite
def continuous_fans(draw):
    """A continuous fan at a random centre: sector i adds lam_i times
    the function vanishing on ray i, and the last ray off the line of
    rays[0] takes the multiple that closes the fan up on rays[0]."""
    ds = draw(fan_rays)
    rays = [ds[i] for i in ccw_sort_directions(pt(0, 0), ds)]
    s = draw(st.integers(0, len(rays) - 1))
    rays = rays[s:] + rays[:s]
    center = draw(points)
    lams = draw(st.lists(rats, min_size=len(rays), max_size=len(rays)))
    lams[0] = Fraction(0)
    free = [i for i in range(1, len(rays)) if cross(rays[i], rays[0]) != 0]
    if free:
        i = free[-1]
        lams[i] = 0
        lams[i] = -sum(lam * cross(r, rays[0])
                       for lam, r in zip(lams, rays)) / cross(rays[i], rays[0])
    affs = [draw(affines)]
    for lam, r in zip(lams[1:], rays[1:]):
        affs.append(affs[-1] + vanishing_on(r, center).scale(lam))
    return Fan(center, tuple(rays), tuple(affs))


@example(CROSS_FAN, pt(3, -2))
@given(continuous_fans(), points)
def test_fan_terms_sum_to_the_fan(fan, q):
    ts = fan_to_terms(fan)
    assert len(ts) == max(1, len(fan.rays) - 2)
    probes = PROBES + [q, fan.center] + [
        pt(fan.center.x + d.dx, fan.center.y + d.dy) for d in fan.rays]
    for x in probes:
        assert sum(t(x) for t in ts) == fan_value(fan, x)


# ---------------------------------------------------------------------------
# term algebra

@given(terms, points)
def test_outer_sign_flip_negates(t, q):
    flipped = MaxTerm(-t.sigma1, t.f1, t.sigma2, t.f2, t.f3)
    assert flipped(q) == -t(q)


@given(terms, affines, points)
def test_shift_law(t, h, q):
    assert t.shift(h)(q) == t(q) + h(q)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 30),
       points, points, st.integers(-50, 50), st.integers(1, 30))
def test_reflect_law(a, b, D, v, q, e, E):
    """fan_to_terms reflects each linear term f = (a*x + b*y)/D back
    through the centre v, the first one shifted by e/(E*W)."""
    X, Y, W = homogeneous(v)
    f = maxform._reflected((a, b), D, X, Y, W, e, E)
    assert f(q) == (a * (v.x - q.x) + b * (v.y - q.y)) / D + Fraction(e, E * W)


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



def test_term_forms_are_lazy_and_invisible(compiled):
    """reduce builds no cached form and build_network only block_rows;
    once a sample builds the integer forms, equality, hashing and the
    JSON bytes are unchanged, and a term rebuilt by dataclasses.replace
    (as a seeded mutation does) does not inherit the form of the term it
    came from."""
    _, slim, dec, built, _ = compiled["ring_bump"]
    terms = reduce(dec, slim.p)
    net = network.build_network(terms)
    assert "kernel_form" not in vars(terms)
    assert not any("int_form" in vars(t) for t in terms.terms)
    assert "kernel_form" not in vars(net)
    assert all("block_rows" in vars(t) for t in terms.terms)
    twin = reduce(dec, slim.p)
    assert not any("block_rows" in vars(t) for t in twin.terms)
    before = json.dumps(terms.to_json(), sort_keys=True)
    x = sample_general_position(slim, 1, 1)[0]
    assert terms(x) == model.eval_cpa(slim, x) == network.eval_network(net, x)
    assert "kernel_form" in vars(terms)
    assert all("int_form" in vars(t) for t in terms.terms)
    assert "kernel_form" not in vars(twin)
    assert terms == twin == built
    assert hash(terms) == hash(twin)
    assert json.dumps(terms.to_json(), sort_keys=True) == before
    t0 = terms.terms[0]
    flipped = replace(t0, sigma2=-t0.sigma2)
    assert "int_form" not in vars(flipped)
    mutated = TermList((flipped,) + terms.terms[1:], terms.source_p)
    assert mutated(x) == flipped(x) + sum(t(x) for t in terms.terms[1:])
