"""Vertex fans, edge pairs and the sum-form of an instance."""
from fractions import Fraction

import pytest

from cpa2relu import corpus, model
from cpa2relu.decompose import (
    EdgePair, Fan, build_edge_function, build_vertex_function, decompose,
    decomposition_to_json, eval_decomposition, eval_edge_pair, eval_fan,
    validate_fan,
)
from cpa2relu.errors import ContinuityError, InvalidInputError
from cpa2relu.geometry import Line, Ray, Segment, dr, pt
from cpa2relu.model import AffineFunc
from cpa2relu.verify import sample_general_position


def aff(a, b, c) -> AffineFunc:
    return AffineFunc(Fraction(a), Fraction(b), Fraction(c))


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
    assert eval_fan(fan, pt(2, 0)) == 2
    assert eval_fan(fan, pt(0, -3)) == 3
    assert eval_fan(fan, pt(0, 0)) == 0


def test_eval_fan_puts_a_point_on_ray_i_in_sector_i():
    # constant sectors make the choice visible; the second list starts
    # past +x and wraps round it
    c = pt(1, 1)
    rays = (dr(1, 0), dr(0, 1), dr(-1, -1))
    for shift in (0, 1, 2):
        fan = Fan(c, rays[shift:] + rays[:shift],
                  tuple(aff(0, 0, k) for k in range(3)))
        assert eval_fan(fan, c) == 0
        for i, d in enumerate(fan.rays):
            x = pt(c.x + Fraction(d.dx, 3), c.y + Fraction(d.dy, 3))
            assert eval_fan(fan, x) == i
        assert eval_fan(fan, pt(2, 2)) == (0 - shift) % 3


def test_eval_edge_pair_takes_the_plus_side_on_the_boundary():
    # boundary x/2 - y/3 + 1/6 vanishes on y = 3x/2 + 1/2
    pair = EdgePair(aff(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6)),
                    aff(0, 0, 1), aff(0, 0, 2), 1)
    for x in (pt(1, 2), pt(Fraction(-1, 3), 0), pt(-1, -1)):
        assert pair.boundary(x) == 0
        assert eval_edge_pair(pair, x) == 1
    assert eval_edge_pair(pair, pt(0, 0)) == 1
    assert eval_edge_pair(pair, pt(0, 1)) == 2


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
