"""Vertex fans, edge pairs and the sum-form of an instance."""
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cpa2relu import corpus, maxform, model
from cpa2relu.decompose import (
    EdgePair, Fan, build_edge_function, build_vertex_function, decompose,
    Decomposition, decomposition_to_json, eval_decomposition, validate_fan,
)
from cpa2relu.errors import ContinuityError, InvalidInputError
from cpa2relu.geometry import Line, Ray, Segment, dr, pt
from cpa2relu.model import AffineFunc
from cpa2relu.verify import sample_general_position


def aff(a, b, c) -> AffineFunc:
    return AffineFunc(Fraction(a), Fraction(b), Fraction(c))


def fan_value(fan: Fan, x) -> Fraction:
    """The fan alone at x: a one-fan eval_decomposition."""
    return eval_decomposition(Decomposition((fan,), (), aff(0, 0, 0)), x)


def test_max_zero_xy_fan_is_frozen(compiled):
    _, slim, dec, _, _ = compiled["max_zero_xy"]
    assert len(dec.fans) == 1 and not dec.edge_pairs
    (fan,) = dec.fans
    assert fan.center == pt(0, 0)
    assert [(r.dx, r.dy) for r in fan.rays] == [(1, 1), (-1, 0), (0, -1)]
    assert fan.sector_affines == (aff(0, 1, 0), aff(0, 0, 0), aff(1, 0, 0))
    assert dec.tail == aff(0, 0, 0)


def test_strip_pairs_are_frozen(compiled):
    _, slim, dec, _, _ = compiled["strip"]
    assert not dec.fans and len(dec.edge_pairs) == 2
    p0, p1 = dec.edge_pairs
    assert (p0.boundary, p0.plus_side_affine, p0.minus_side_affine,
            p0.sign) == (aff(-1, 0, 0), aff(0, 0, 0), aff(1, 0, 0), 1)
    assert (p1.boundary, p1.plus_side_affine, p1.minus_side_affine,
            p1.sign) == (aff(-1, 0, 1), aff(1, 0, 0), aff(0, 0, 1), 1)
    # tail = sum of c(P) * g_P picks up -x from the middle band
    assert dec.tail == aff(-1, 0, 0)


def test_half_plane_pair_sign_is_line(compiled):
    _, _, dec, _, _ = compiled["half_plane"]
    (pair,) = dec.edge_pairs
    assert pair.sign == 1
    assert pair.plus_side_affine == aff(0, 0, 0)
    assert pair.minus_side_affine == aff(1, 0, 0)


def test_segment_pairs_carry_negative_sign(compiled):
    _, slim, dec, _, _ = compiled["hat"]
    assert len(dec.fans) == 5
    assert len(dec.edge_pairs) == 8
    assert all(p.sign == -1 for p in dec.edge_pairs)


def test_fan_per_vertex_and_pair_per_nonray_edge(compiled):
    for name, (_, slim, dec, _, _) in compiled.items():
        assert len(dec.fans) == len(slim.vertices), name
        n_pairs = sum(1 for rec in slim.edges.values()
                      if not isinstance(rec.geom, Ray))
        assert len(dec.edge_pairs) == n_pairs, name
        for fan in dec.fans:
            validate_fan(fan)


def test_decomposition_matches_instance(compiled):
    for name, (_, slim, dec, _, _) in compiled.items():
        for x in sample_general_position(slim, 23, 60):
            assert eval_decomposition(dec, x) == model.eval_cpa(slim, x), name


def test_fan_ray_count_is_vertex_degree(compiled):
    _, slim, dec, _, _ = compiled["ring_bump"]
    by_center = {f.center: f for f in dec.fans}
    for vid, v in slim.vertices.items():
        assert len(by_center[v].rays) == len(slim.vertex_edges[vid])


def test_eval_fan_is_continuous_across_rays(compiled):
    _, _, dec, _, _ = compiled["cross"]
    (fan,) = dec.fans
    # points on the rays themselves still evaluate consistently
    assert fan_value(fan, pt(2, 0)) == 2
    assert fan_value(fan, pt(0, -3)) == 3
    assert fan_value(fan, pt(0, 0)) == 0


def test_eval_fan_puts_a_point_on_ray_i_in_sector_i():
    # constant sectors make the choice visible; the second list starts
    # past +x and wraps round it
    c = pt(1, 1)
    rays = (dr(1, 0), dr(0, 1), dr(-1, -1))
    for shift in (0, 1, 2):
        fan = Fan(c, rays[shift:] + rays[:shift],
                  tuple(aff(0, 0, k) for k in range(3)))
        assert fan_value(fan, c) == 0
        for i, d in enumerate(fan.rays):
            x = pt(c.x + Fraction(d.dx, 3), c.y + Fraction(d.dy, 3))
            assert fan_value(fan, x) == i
        assert fan_value(fan, pt(2, 2)) == (0 - shift) % 3


def test_eval_edge_pair_takes_the_plus_side_on_the_boundary():
    # boundary x/2 - y/3 + 1/6 vanishes on y = 3x/2 + 1/2
    pair = EdgePair(aff(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6)),
                    aff(0, 0, 1), aff(0, 0, 2), 1)
    dec = Decomposition((), (pair,), aff(0, 0, 0))
    for x in (pt(1, 2), pt(Fraction(-1, 3), 0), pt(-1, -1)):
        assert pair.boundary(x) == 0
        assert eval_decomposition(dec, x) == 1
    assert eval_decomposition(dec, pt(0, 0)) == 1
    assert eval_decomposition(dec, pt(0, 1)) == 2


def test_build_edge_function_rejects_rays(corpus_insts):
    inst = corpus_insts["max_zero_xy"]
    slim = model.sparsify(inst)
    eid = next(iter(slim.edges))
    with pytest.raises(InvalidInputError):
        build_edge_function(slim, eid)


def test_decompose_rejects_unsparsified_degree(corpus_docs):
    import copy
    doc = {
        "vertices": {"o": [0, 0]},
        "edges": {
            "r_up": {"kind": "ray", "v": "o", "d": [0, 1],
                     "pieces": ["L", "R"]},
            "r_dn": {"kind": "ray", "v": "o", "d": [0, -1],
                     "pieces": ["L", "R"]},
        },
        "pieces": {
            "L": {"affine": [0, 0, 0], "witness": [-1, "1/3"],
                  "boundary": [{"kind": "arc", "edges": ["r_up", "r_dn"]}]},
            "R": {"affine": [1, 0, 0], "witness": [1, "1/2"],
                  "boundary": [{"kind": "arc", "edges": ["r_up", "r_dn"]}]},
        },
    }
    inst = model.parse_instance(doc)
    with pytest.raises(InvalidInputError):
        decompose(inst)


def test_decompose_rejects_phantom_crease(corpus_insts):
    with pytest.raises(InvalidInputError):
        decompose(corpus_insts["square_hole"])


def test_discontinuous_fan_is_rejected():
    from cpa2relu.decompose import Fan
    with pytest.raises(ContinuityError):
        validate_fan(Fan(pt(0, 0), (dr(1, 0), dr(0, 1)),
                         (aff(1, 0, 0), aff(0, 1, 0))))


def test_decomposition_json_shape(compiled):
    _, _, dec, _, _ = compiled["strip"]
    doc = decomposition_to_json(dec)
    assert doc["tail"] == [-1, 0, 0]
    assert len(doc["edge_pairs"]) == 2
    assert doc["fans"] == []


def test_decompose_rejects_sector_chains_that_do_not_close():
    # sp_e declares NW where SE lies below it: at the apex the sector
    # from sp_s to sp_e starts in SE but would end in NW
    doc = corpus.hat()
    doc["edges"]["sp_e"]["pieces"] = ["NE", "NW"]
    with pytest.raises(InvalidInputError):
        decompose(model.parse_instance(doc))


def test_decompose_probes_each_edge_twice(compiled, monkeypatch):
    _, slim, _, _, _ = compiled["random_tri_7"]
    fresh = model.parse_instance(model.serialize_instance(slim))
    calls = []
    core = model._member_core
    monkeypatch.setattr(model, "_member_core",
                        lambda *a: calls.append(a) or core(*a))
    decompose(fresh)
    assert len(calls) == 2 * len(fresh.edges)


# ---------------------------------------------------------------------------
# eval_decomposition against an independent Fraction re-statement

def _diamond(dx: Fraction, dy: Fraction) -> Fraction:
    """A pseudo-angle in [0, 4) that grows with the CCW angle from +x."""
    if dy >= 0:
        return dy / (dx + dy) if dx >= 0 else 1 - dx / (dy - dx)
    return 2 - dy / (-dx - dy) if dx < 0 else 3 + dx / (dx - dy)


def _blocks_reference(dec):
    """The block sum at x, restated in plain Fractions.  A fan's sector is
    the one of the last ray whose pseudo-angle from the first ray does
    not pass that of x - center; the center takes sector 0.  A pair takes
    its plus side where its boundary is >= 0."""
    fans = []
    for fan in dec.fans:
        base = _diamond(fan.rays[0].dx, fan.rays[0].dy)
        fans.append((fan, base, [(_diamond(d.dx, d.dy) - base) % 4
                                 for d in fan.rays]))

    def value(x) -> Fraction:
        total = dec.tail(x)
        for fan, base, turn in fans:
            c, i = fan.center, 0
            if x != c:
                at = (_diamond(x.x - c.x, x.y - c.y) - base) % 4
                i = max(j for j, t in enumerate(turn) if t <= at)
            total += fan.sector_affines[i](x)
        for pair in dec.edge_pairs:
            side = (pair.plus_side_affine if pair.boundary(x) >= 0
                    else pair.minus_side_affine)
            total += pair.sign * side(x)
        return total

    return value


def _special_points(dec):
    """Fan centers, points on every ray, and points on every pair's
    boundary line."""
    third = Fraction(1, 3)
    out = []
    for fan in dec.fans:
        c = fan.center
        out.append(c)
        out.extend(pt(c.x + third * d.dx, c.y + third * d.dy)
                   for d in fan.rays)
    for pair in dec.edge_pairs:
        a, b, c = pair.boundary.a, pair.boundary.b, pair.boundary.c
        t = Fraction(7, 3)
        out.append(pt(t, -(a * t + c) / b) if b else pt(-c / a, t))
    return out


def test_decomposition_matches_block_reference_on_corpus(compiled):
    for name, (_, slim, dec, _, _) in compiled.items():
        ref = _blocks_reference(dec)
        for x in sample_general_position(slim, 5, 20) + _special_points(dec):
            assert eval_decomposition(dec, x) == ref(x), (name, x)


@pytest.mark.parametrize("n_points", [10, 20, 40])
def test_decomposition_matches_block_reference_on_random(n_points):
    slim = model.sparsify(model.parse_instance(
        corpus.random_instance(3, n_points=n_points)))
    dec = decompose(slim)
    ref = _blocks_reference(dec)
    # every other special point keeps n_points=40 inside the time budget
    for x in sample_general_position(slim, 9, 10) + _special_points(dec)[::2]:
        assert eval_decomposition(dec, x) == ref(x), x


rats = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
affines = st.builds(AffineFunc, rats, rats, rats)
small_dirs = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda t: t != (0, 0))


@st.composite
def fans(draw):
    """A fan with 2-5 distinct rays in CCW order from a random start,
    arbitrary sector affines (the kernel does not ask for continuity)
    and a rational center."""
    raw = draw(st.lists(small_dirs, min_size=2, max_size=5))
    rays = {}
    for dx, dy in raw:
        d = dr(dx, dy)
        rays.setdefault(_diamond(d.dx, d.dy), d)
    assume(len(rays) >= 2)
    ordered = [rays[k] for k in sorted(rays)]
    s = draw(st.integers(0, len(ordered) - 1))
    ordered = ordered[s:] + ordered[:s]
    return Fan(pt(draw(rats), draw(rats)), tuple(ordered),
               tuple(draw(affines) for _ in ordered))


edge_pairs = st.builds(
    EdgePair, affines.filter(lambda g: g.a or g.b), affines, affines,
    st.sampled_from([-1, 1]))


@settings(max_examples=50, deadline=None)
@given(st.lists(fans(), max_size=3), st.lists(edge_pairs, max_size=3),
       affines, st.lists(st.tuples(rats, rats), max_size=4))
def test_random_blocks_match_block_reference(fs, ps, tail, coords):
    dec = Decomposition(tuple(fs), tuple(ps), tail)
    ref = _blocks_reference(dec)
    for x in [pt(*c) for c in coords] + _special_points(dec):
        assert eval_decomposition(dec, x) == ref(x), x


def test_kernel_form_is_lazy_and_invisible(compiled):
    _, slim, built, terms, _ = compiled["ring_bump"]
    dec = decompose(slim)
    maxform.reduce(dec, slim.p)
    assert "kernel_form" not in vars(dec)
    twin = decompose(slim)
    before = json.dumps(decomposition_to_json(dec), sort_keys=True)
    x = sample_general_position(slim, 1, 1)[0]
    assert eval_decomposition(dec, x) == model.eval_cpa(slim, x)
    assert "kernel_form" in vars(dec) and "kernel_form" not in vars(twin)
    assert dec == twin == built
    assert hash(dec) == hash(twin)
    assert json.dumps(decomposition_to_json(dec), sort_keys=True) == before
