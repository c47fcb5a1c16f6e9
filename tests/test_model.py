"""Instance parsing, validation, evaluation and sparsification."""
import copy
import itertools
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cpa2relu import corpus, maxform, model, network
from cpa2relu.decompose import decompose
from cpa2relu.errors import (
    ContinuityError, DanglingRefError, DuplicateDirectionError,
    InvalidInputError, NoPieceFoundError, SchemaError,
)
from cpa2relu.geometry import Line, Segment, homogeneous, pt, rat_to_json
from cpa2relu.verify import (
    sample_general_position, verify_equivalence, verify_lemma_suite,
)


# ---------------------------------------------------------------------------
# parsing and serialization

def test_round_trip_is_canonical(corpus_docs):
    for name, doc in corpus_docs.items():
        once = model.serialize_instance(model.parse_instance(doc))
        twice = model.serialize_instance(model.parse_instance(once))
        assert once == twice, name
        # canonical form survives a JSON encode/decode cycle too
        assert json.loads(json.dumps(once)) == once


def _half_plane_doc(corpus_docs):
    return copy.deepcopy(corpus_docs["half_plane"])


def test_parse_rejects_float_literals(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["pieces"]["R"]["witness"] = [1.0, 0.5]
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


def test_parse_rejects_bool_literals(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["pieces"]["R"]["affine"] = [True, 0, 0]
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


def test_parse_rejects_zero_denominator(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["pieces"]["L"]["witness"] = ["-1/0", "1/3"]
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


def test_parse_rejects_unknown_edge_kind(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["edges"]["l"]["kind"] = "parabola"
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


def test_parse_rejects_one_sided_edge(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["edges"]["l"]["pieces"] = ["L"]
    with pytest.raises(SchemaError):
        model.parse_instance(doc)
    doc["edges"]["l"]["pieces"] = ["L", "L"]
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


def test_parse_rejects_dangling_piece_ref(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["edges"]["l"]["pieces"] = ["L", "Z"]
    with pytest.raises(DanglingRefError):
        model.parse_instance(doc)


def test_parse_rejects_dangling_edge_ref(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["pieces"]["L"]["boundary"][0]["edges"] = ["nope"]
    with pytest.raises(DanglingRefError):
        model.parse_instance(doc)


def test_parse_rejects_coincident_segment_endpoints(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["edges"]["sp_e"]["b"] = "a"
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


def test_parse_rejects_zero_direction(corpus_docs):
    doc = _half_plane_doc(corpus_docs)
    doc["edges"]["l"]["d"] = [0, 0]
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


@pytest.mark.parametrize("boundary", [
    7, None, True,
    [{"kind": "arc", "edges": 7}],
    [{"kind": "arc", "edges": None}],
    [{"kind": "arc", "edges": False}],
])
def test_parse_rejects_non_list_boundaries(boundary):
    doc = {"vertices": {}, "edges": {},
           "pieces": {"P": {"affine": [1, 2, 3], "boundary": boundary,
                            "witness": [0, 0]}}}
    with pytest.raises(SchemaError):
        model.parse_instance(doc)


# ---------------------------------------------------------------------------
# validation

def test_corpus_validates(corpus_insts):
    for name, inst in corpus_insts.items():
        report = model.validate(inst)
        assert report.ok, (name, report.to_json())


def test_validate_check_names(corpus_insts):
    report = model.validate(corpus_insts["hat"])
    assert [c.name for c in report.checks] == [
        "continuity", "edge_pieces", "vertex_consistency",
        "boundary_components", "witness_separation", "cover"]


def _failing_checks(doc) -> set:
    report = model.validate(model.parse_instance(doc))
    return {c.name for c in report.checks if not c.passed}


def test_validate_flags_torn_continuity(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["pieces"]["NE"]["affine"] = [-1, -1, 2]
    assert "continuity" in _failing_checks(doc)


def test_validate_flags_witness_on_hull(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["pieces"]["NE"]["witness"] = ["1/2", "1/2"]
    assert "boundary_components" in _failing_checks(doc)


def test_validate_flags_wrong_side_assignment(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["edges"]["sp_e"]["pieces"] = ["NE", "OUT"]
    fails = _failing_checks(doc)
    assert fails & {"continuity", "edge_pieces"}


def test_validate_flags_unused_vertex(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["vertices"]["ghost"] = [5, 5]
    assert _failing_checks(doc) == {"vertex_consistency"}


def test_validate_flags_coincident_vertices(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["vertices"]["w"] = [1, 0]  # now sits on top of "e"
    assert "vertex_consistency" in _failing_checks(doc)


def test_validate_flags_broken_chain(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["pieces"]["OUT"]["boundary"][0]["edges"] = ["sd_en", "sd_nw", "sd_ws"]
    assert "boundary_components" in _failing_checks(doc)


def test_validate_rejects_swapped_strip_witnesses(corpus_docs):
    doc = copy.deepcopy(corpus_docs["strip"])
    pieces = doc["pieces"]
    pieces["L"]["witness"], pieces["R"]["witness"] = (
        pieces["R"]["witness"], pieces["L"]["witness"])
    fails = _failing_checks(doc)
    assert fails and fails <= {"cover", "witness_separation"}


def test_validate_rejects_a_witness_in_the_wrong_piece(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["pieces"]["NE"]["witness"] = ["-1/3", "5/13"]
    fails = _failing_checks(doc)
    assert fails and fails <= {"cover", "witness_separation"}


def _seg(a, b):
    return {"kind": "segment", "a": a, "b": b}


def _ray(v, d):
    return {"kind": "ray", "v": v, "d": d}


def _line(p, d):
    return {"kind": "line", "p": p, "d": d}


X = "Point(x=Fraction(1, 1), y=Fraction(0, 1))"


@pytest.mark.parametrize("vertices, ab, cd, expected", [
    ({"a": [0, 0], "b": [2, 2], "c": [0, 2], "d": [2, 0]},
     _seg("a", "b"), _seg("c", "d"),
     ["ab vs cd: edges cross at Point(x=Fraction(1, 1), y=Fraction(1, 1))"]),
    ({"a": [0, 0], "b": [2, 0], "c": [1, 0], "d": [1, 2]},
     _seg("a", "b"), _seg("c", "d"), [f"ab vs cd: edges cross at {X}"]),
    ({"a": [0, 0], "b": [2, 0], "c": [1, 0], "d": [3, 0]},
     _seg("a", "b"), _seg("c", "d"),
     ["ab vs cd: edges overlap along a common line"]),
    ({"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [2, 0]},
     _seg("a", "b"), _seg("c", "d"),
     [f"ab vs cd: collinear edges touch at non-vertex {X}"]),
    ({"a": [0, 0], "c": [3, 0], "d": [0, 3]},
     _ray("a", [1, 1]), _seg("c", "d"),
     ["ab vs cd: edges cross at Point(x=Fraction(3, 2), y=Fraction(3, 2))"]),
    ({"a": [0, 0], "c": [3, 0], "d": [0, 3]},
     _ray("a", [-1, -1]), _seg("c", "d"), []),
    ({"c": [0, 0]}, _line([5, 5], [2, 2]), _ray("c", [-1, -1]),
     ["ab vs cd: edges overlap along a common line"]),
    ({}, _line([0, 0], [1, 2]), _line([1, 0], [-2, -4]), []),
    ({"a": [0, 0], "b": [2, 0], "c": [0, 2]}, _seg("a", "b"), _seg("a", "c"),
     []),
    ({"a": [0, 0], "b": [1, 0], "c": [2, 0]}, _seg("a", "b"), _seg("b", "c"),
     []),
], ids=["cross", "t_junction", "overlap", "touch", "ray_cross", "ray_away",
        "line_over_ray", "parallel_lines", "shared_vertex",
        "collinear_shared_vertex"])
def test_validate_reports_edges_that_meet_off_shared_vertices(
        vertices, ab, cd, expected):
    doc = {"vertices": vertices,
           "edges": {"ab": dict(ab, pieces=["P", "Q"]),
                     "cd": dict(cd, pieces=["P", "Q"])},
           "pieces": {"P": {"affine": [0, 0, 0], "witness": [-7, 19]},
                      "Q": {"affine": [0, 0, 0], "witness": [17, -5]}}}
    (check,) = [c for c in model.validate(model.parse_instance(doc)).checks
                if c.name == "boundary_components"]
    assert [f for f in check.failures if " vs " in f] == expected


def _all_pairs_failures(inst) -> list[str]:
    """The edge-pair failures of the O(|E|^2) loop over every pair, the
    oracle for validate's pruned pair check."""
    recs = list(inst.edges.items())
    fails = []
    for i, (e1, r1) in enumerate(recs):
        for e2, r2 in recs[i + 1:]:
            shared = [inst.vertices[v] for v in r1.vertex_ids
                      if v in r2.vertex_ids]
            msg = model._edges_intersect_cleanly(r1, r2, shared)
            if msg is not None:
                fails.append(f"{e1} vs {e2}: {msg}")
    return fails


def _all_pairs_report(inst) -> dict:
    """validate's report with the pair check run over every pair."""
    def every_pair(recs):
        return list(itertools.combinations(range(len(recs)), 2))
    with mock.patch.object(model, "_pairs_that_can_meet", every_pair):
        return model.validate(inst).to_json()


def _pair_failures(report: dict) -> list[str]:
    (check,) = [c for c in report["checks"]
                if c["name"] == "boundary_components"]
    return [f for f in check["failures"] if " vs " in f]


# small coordinates, some fractional, so that segments cross, overlap
# along a line, touch at ends and have boxes that only touch
_coords = st.one_of(st.integers(-3, 3),
                    st.builds(lambda n, d: rat_to_json(Fraction(n, d)),
                              st.integers(-9, 9), st.integers(1, 3)))
_dirs = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda d: d != (0, 0)).map(list)


@st.composite
def _edge_soup(draw):
    """An instance document of 2-9 segments, rays and lines between
    random vertices, every edge between pieces P and Q."""
    pts = draw(st.lists(st.tuples(_coords, _coords), min_size=2,
                        max_size=7, unique_by=lambda q: tuple(
                            Fraction(c) for c in q)))
    vertices = {f"v{i}": list(q) for i, q in enumerate(pts)}
    edges = {}
    for k in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(["segment"] * 4 + ["ray", "line"]))
        if kind == "segment":
            a, b = draw(st.lists(st.sampled_from(sorted(vertices)),
                                 min_size=2, max_size=2, unique=True))
            e = _seg(a, b)
        elif kind == "ray":
            e = _ray(draw(st.sampled_from(sorted(vertices))), draw(_dirs))
        else:
            e = _line([draw(_coords), draw(_coords)], draw(_dirs))
        edges[f"e{k}"] = dict(e, pieces=["P", "Q"])
    return {"vertices": vertices, "edges": edges,
            "pieces": {"P": {"affine": [0, 0, 0], "witness": ["1/7", "2/11"]},
                       "Q": {"affine": [0, 0, 0], "witness": [17, -5]}}}


@settings(max_examples=300, deadline=None)
@given(_edge_soup())
def test_pruned_pair_check_matches_all_pairs(doc):
    inst = model.parse_instance(doc)
    got = model.validate(inst).to_json()
    assert got == _all_pairs_report(model.parse_instance(doc))
    assert _pair_failures(got) == _all_pairs_failures(inst)


def _far_apart_doc(extra: dict, extra_vertices: dict) -> dict:
    """A long segment "a0" from (0, 0) to (100, 0), eighteen short
    vertical segments above it that meet nothing, and the extra edges,
    which sort after all of them."""
    vertices = {"p0": [0, 0], "p1": [100, 0]}
    edges = {"a0": dict(_seg("p0", "p1"), pieces=["P", "Q"])}
    for i in range(18):
        vertices[f"s{i}"], vertices[f"t{i}"] = [5 * i + 3, 1], [5 * i + 3, 2]
        edges[f"b{i:02}"] = dict(_seg(f"s{i}", f"t{i}"), pieces=["P", "Q"])
    vertices.update(extra_vertices)
    edges.update({k: dict(e, pieces=["P", "Q"]) for k, e in extra.items()})
    return {"vertices": vertices, "edges": edges,
            "pieces": {"P": {"affine": [0, 0, 0], "witness": ["1/7", "-1/3"]},
                       "Q": {"affine": [0, 0, 0], "witness": ["1/7", -5]}}}


@pytest.mark.parametrize("extra, extra_vertices, expected", [
    # a crossing between the first edge and the last, far apart in both
    # id order and the sweep's order of left box sides
    ({"z": _seg("z0", "z1")}, {"z0": [97, -1], "z1": [97, 1]},
     ["a0 vs z: edges cross at Point(x=Fraction(97, 1), y=Fraction(0, 1))"]),
    # a ray from far left crossing a segment far to the right
    ({"r": _ray("r0", [1, 0]), "w": _seg("w0", "w1")},
     {"r0": [-1000, 11], "w0": [1000, 10], "w1": [1000, 12]},
     ["r vs w: edges cross at Point(x=Fraction(1000, 1), "
      "y=Fraction(11, 1))"]),
    # collinear segments touching at a point that is a vertex of only
    # one of them; with fractional ends the boxes still touch
    ({"c": _seg("c0", "c1")}, {"c0": [100, 0], "c1": ["301/3", 0]},
     ["a0 vs c: collinear edges touch at non-vertex "
      "Point(x=Fraction(100, 1), y=Fraction(0, 1))"]),
    # boxes that meet only at a corner
    ({"k": _seg("k0", "k1")}, {"k0": [100, 0], "k1": ["201/2", -3]},
     ["a0 vs k: edges cross at Point(x=Fraction(100, 1), "
      "y=Fraction(0, 1))"]),
], ids=["far_cross", "ray_cross", "collinear_touch", "corner_touch"])
def test_pruned_pair_check_keeps_distant_meetings(extra, extra_vertices,
                                                  expected):
    doc = _far_apart_doc(extra, extra_vertices)
    got = model.validate(model.parse_instance(doc)).to_json()
    assert _pair_failures(got) == expected
    assert got == _all_pairs_report(model.parse_instance(doc))


@pytest.mark.parametrize("n_points, kept", [(40, 527), (80, 2029),
                                            (160, 8911)])
def test_pair_check_tests_few_pairs(n_points, kept):
    """12%, 14% and 19% of the pairs at |E| = 96, 170 and 306."""
    inst = model.parse_instance(corpus.random_instance(3, n_points))
    recs = list(inst.edges.values())
    assert len(model._pairs_that_can_meet(recs)) == kept


def test_validate_probes_each_edge_twice_and_one_witness(monkeypatch):
    inst = model.parse_instance(corpus.random_instance(3, n_points=40))
    calls = []
    core = model._member_core
    monkeypatch.setattr(model, "_member_core",
                        lambda *a: calls.append(a) or core(*a))
    assert model.validate(inst).ok
    assert len(calls) == (inst.p - 1) + 2 * len(inst.edges) == 252


# ---------------------------------------------------------------------------
# evaluation

def test_witness_forms_are_cached_outside_equality(corpus_docs):
    doc = corpus_docs["ring_bump"]
    used, fresh = model.parse_instance(doc), model.parse_instance(doc)
    model.eval_cpa(used, pt(Fraction(1, 3), Fraction(-2, 7)))
    for pid, piece in used.pieces.items():
        assert "int_witness" in vars(piece)
        assert "int_witness" not in vars(fresh.pieces[pid])
        assert piece == fresh.pieces[pid]
        assert hash(piece) == hash(fresh.pieces[pid])


def test_eval_on_edge_uses_shared_value(corpus_insts):
    ring = corpus_insts["ring_bump"]
    # on the radial between the outer-left and outer-right pieces
    assert model.eval_cpa(ring, pt(0, 8)) == 2
    # on a vertex of the middle triangle
    assert model.eval_cpa(ring, pt(0, 6)) == 4
    hat = corpus_insts["hat"]
    assert model.eval_cpa(hat, pt(0, 0)) == 1
    assert model.eval_cpa(hat, pt(Fraction(1, 2), Fraction(1, 2))) == 0


def test_eval_interior_points(corpus_insts):
    hat = corpus_insts["hat"]
    assert model.eval_cpa(hat, pt(Fraction(1, 4), Fraction(1, 8))) == Fraction(5, 8)
    assert model.eval_cpa(hat, pt(7, 7)) == 0
    strip = corpus_insts["strip"]
    assert model.eval_cpa(strip, pt(Fraction(1, 3), 9)) == Fraction(1, 3)
    assert model.eval_cpa(strip, pt(-5, 0)) == 0
    assert model.eval_cpa(strip, pt(17, -2)) == 1


def test_eval_detects_torn_instances(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["pieces"]["NE"]["affine"] = [-1, -1, 2]
    broken = model.parse_instance(doc)
    with pytest.raises(ContinuityError):
        model.eval_cpa(broken, pt(Fraction(1, 2), Fraction(1, 2)))


def test_broken_cover_raises_no_piece_found(corpus_docs):
    # NE's witness moved into NW: a point of NE now lies in no piece, and
    # a point of NW in both NW and NE
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["pieces"]["NE"]["witness"] = doc["pieces"]["NW"]["witness"]
    broken = model.parse_instance(doc)
    with pytest.raises(NoPieceFoundError, match="lies in 0 pieces"):
        model.eval_cpa(broken, pt(Fraction(1, 3), Fraction(1, 5)))
    with pytest.raises(NoPieceFoundError, match="lies in 2 pieces"):
        model.eval_cpa(broken, pt(Fraction(-1, 4), Fraction(1, 4)))


def _full_scan(inst, x):
    """eval_cpa without the box prune: the on-edge path, then every piece
    through _member_core."""
    hx = homogeneous(x)
    touching = model._pieces_at(inst, x, hx)
    if touching:
        vals = set(touching.values())
        if len(vals) != 1:
            raise ContinuityError("incident pieces disagree")
        return vals.pop()
    matches = [pid for pid in inst.pieces if model._member_core(inst, pid, hx)]
    if len(matches) != 1:
        raise NoPieceFoundError("the cover is broken")
    return inst.pieces[matches[0]].affine(x)


def _outcome(f, inst, x):
    try:
        return f(inst, x)
    except (ContinuityError, NoPieceFoundError) as exc:
        return type(exc)


def _probe_points(inst):
    """Sampled points, far points, the vertices, and for every piece box
    two opposite corners, the side midpoints and points just outside
    each side."""
    pts = sample_general_position(inst, 0, 40)
    big = 10 ** 6
    pts += [pt(a * big + Fraction(1, 3), b * big - Fraction(2, 7))
            for a in (-1, 0, 1) for b in (-1, 0, 1)]
    pts += [pt(big, big), pt(-big, 7), pt(5, -big)]
    pts += list(inst.vertices.values())
    for _, box in model._piece_boxes(inst):
        if box is None:
            continue
        xlo, ylo, xhi, yhi = box
        xm, ym = Fraction(xlo + xhi, 2), Fraction(ylo + yhi, 2)
        h = Fraction(1, 3)
        pts += [pt(xlo, ylo), pt(xhi, yhi), pt(xlo, ym), pt(xhi, ym),
                pt(xm, ylo), pt(xm, yhi), pt(xlo - h, ym), pt(xhi + h, ym),
                pt(xm, ylo - h), pt(xm, yhi + h)]
    return pts


def _with_dangling_segment(doc):
    """A copy whose piece t0 lists one more segment, from one of its
    vertices far out to a new vertex: t0's boundary is no longer closed,
    and a point past that segment, seen from t0's witness, has even
    parity to the witness although it lies far outside t0."""
    doc = copy.deepcopy(doc)
    t0 = doc["pieces"]["t0"]
    v = doc["edges"][t0["boundary"][0]["edges"][0]]["a"]
    vx, vy = (Fraction(c) for c in doc["vertices"][v])
    doc["vertices"]["vd"] = [rat_to_json(vx - 997), rat_to_json(vy - 1009)]
    doc["edges"]["dangling"] = {"kind": "segment", "a": v, "b": "vd",
                                "pieces": ["t0", "out"]}
    t0["boundary"].append({"kind": "cycle", "edges": ["dangling"]})
    wx, wy = (Fraction(c) for c in t0["witness"])
    mx, my = vx - Fraction(997, 2), vy - Fraction(1009, 2)
    shadow = pt(wx + 10 * (mx - wx), wy + 10 * (my - wy))
    return doc, shadow


def _with_moved_witness(doc):
    """A copy whose piece t0 takes the witness of a neighbour."""
    doc = copy.deepcopy(doc)
    e = doc["edges"][doc["pieces"]["t0"]["boundary"][0]["edges"][0]]
    other = e["pieces"][1] if e["pieces"][0] == "t0" else e["pieces"][0]
    doc["pieces"]["t0"]["witness"] = doc["pieces"][other]["witness"]
    return doc


def _box_prune_cases(corpus_docs):
    for name, doc in sorted(corpus_docs.items()):
        inst = model.parse_instance(doc)
        yield name, inst, []
        yield name + "/sparsified", model.sparsify(inst), []
    for s in (3, 5, 9):
        for n in (10, 20, 40):
            doc = corpus.random_instance(s, n)
            yield f"random({s}, {n})", model.parse_instance(doc), []
            dangling, shadow = _with_dangling_segment(doc)
            yield (f"random({s}, {n})/dangling", model.parse_instance(dangling),
                   [shadow])
            yield (f"random({s}, {n})/moved witness",
                   model.parse_instance(_with_moved_witness(doc)), [])


def test_box_prune_changes_no_answer(corpus_docs):
    """eval_cpa skips the pieces whose box misses the point; a full scan
    of every piece gives the same value or raises the same error, on
    valid instances and on broken ones."""
    boxed = 0
    for name, inst, extra in _box_prune_cases(corpus_docs):
        boxed += sum(box is not None for _, box in model._piece_boxes(inst))
        for x in _probe_points(inst) + extra:
            assert (_outcome(model.eval_cpa, inst, x)
                    == _outcome(_full_scan, inst, x)), (name, x)
    assert boxed > 300


def test_piece_boxes_need_a_closed_boundary_without_the_far_point(
        corpus_insts):
    boxes = dict(model._piece_boxes(corpus_insts["square_hole"]))
    # the outer piece has only segments, but holds every far point
    assert boxes["O"] is None and boxes["S"] == (0, 0, 1, 1)
    hat = dict(model._piece_boxes(corpus_insts["hat"]))
    assert hat["NE"] == (0, 0, 1, 1) and hat["OUT"] is None
    assert all(box is None for _, box
               in model._piece_boxes(corpus_insts["strip"]))
    doc, _ = _with_dangling_segment(corpus.random_instance(3, 10))
    assert dict(model._piece_boxes(model.parse_instance(doc)))["t0"] is None


def test_sampler_stays_off_hulls(corpus_insts):
    inst = corpus_insts["ring_bump"]
    pts = sample_general_position(inst, 3, 64)
    assert len(pts) == 64
    for x in pts:
        for eid in inst.edges:
            a, b, c = inst.edges[eid].line
            assert a * x.x + b * x.y + c != 0


def test_sampler_stays_in_a_box_narrower_than_one():
    # every coordinate lies in [1/500, 1/400], so the box is
    # [7/4000, 11/4000] on both axes: for most denominators below 1000
    # no multiple of 1/den lies in it
    doc = {"vertices": {},
           "edges": {"l": dict(_line(["9/4000", "9/4000"], [0, 1]),
                               pieces=["L", "R"])},
           "pieces": {
               "L": {"affine": [0, 0, 0], "witness": ["1/500", "1/400"],
                     "boundary": [{"kind": "arc", "edges": ["l"]}]},
               "R": {"affine": [1, 0, "-9/4000"], "witness": ["1/400", "1/500"],
                     "boundary": [{"kind": "arc", "edges": ["l"]}]}}}
    inst = model.parse_instance(doc)
    assert model.validate(inst).ok
    xmin, ymin, xmax, ymax = inst.bbox()
    assert (xmin, xmax) == (Fraction(7, 4000), Fraction(11, 4000))
    for x in sample_general_position(inst, 0, 1000):
        assert xmin <= x.x <= xmax and ymin <= x.y <= ymax


# ---------------------------------------------------------------------------
# sparsification

SPLIT_LINE_DOC = {
    "vertices": {"o": [0, 0]},
    "edges": {
        "r_up": {"kind": "ray", "v": "o", "d": [0, 1], "pieces": ["L", "R"]},
        "r_dn": {"kind": "ray", "v": "o", "d": [0, -1], "pieces": ["L", "R"]},
    },
    "pieces": {
        "L": {"affine": [0, 0, 0], "witness": [-1, "1/3"],
              "boundary": [{"kind": "arc", "edges": ["r_up", "r_dn"]}]},
        "R": {"affine": [1, 0, 0], "witness": [1, "1/2"],
              "boundary": [{"kind": "arc", "edges": ["r_up", "r_dn"]}]},
    },
}


def test_sparsify_merges_opposite_rays_into_line():
    inst = model.parse_instance(SPLIT_LINE_DOC)
    assert model.validate(inst).ok
    slim = model.sparsify(inst)
    assert len(slim.vertices) == 0
    assert len(slim.edges) == 1
    (rec,) = slim.edges.values()
    assert isinstance(rec.geom, Line)
    for x in sample_general_position(inst, 5, 100):
        assert model.eval_cpa(slim, x) == model.eval_cpa(inst, x)


def _subdivided_hat(corpus_docs) -> dict:
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["vertices"]["h"] = ["1/2", "-1/2"]
    del doc["edges"]["sd_se"]
    doc["edges"]["sd_se1"] = {"kind": "segment", "a": "s", "b": "h",
                              "pieces": ["SE", "OUT"]}
    doc["edges"]["sd_se2"] = {"kind": "segment", "a": "h", "b": "e",
                              "pieces": ["SE", "OUT"]}
    for pid in ("SE", "OUT"):
        edges = doc["pieces"][pid]["boundary"][0]["edges"]
        i = edges.index("sd_se")
        edges[i:i + 1] = ["sd_se1", "sd_se2"]
    return doc


def test_sparsify_merges_collinear_segments(corpus_docs):
    inst = model.parse_instance(_subdivided_hat(corpus_docs))
    assert model.validate(inst).ok
    slim = model.sparsify(inst)
    assert len(slim.vertices) == 5
    assert len(slim.edges) == 8
    assert all(isinstance(rec.geom, Segment) for rec in slim.edges.values())
    hat = model.parse_instance(corpus_docs["hat"])
    for x in sample_general_position(inst, 6, 100):
        assert model.eval_cpa(slim, x) == model.eval_cpa(hat, x)


def test_sparsify_contracts_a_chain_with_a_reversed_middle_segment(
        corpus_docs):
    # hat with its rim sd_se cut into three, the middle part stored
    # from h2 back to h1.  The sweep contracts h1 (sd1 + sd2 -> m0),
    # then h2 (m0 + sd3 -> m1); SE and OUT are retraced around m1.
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["vertices"].update({"h1": ["1/3", "-2/3"], "h2": ["2/3", "-1/3"]})
    del doc["edges"]["sd_se"]
    doc["edges"].update({
        "sd1": dict(_seg("s", "h1"), pieces=["SE", "OUT"]),
        "sd2": dict(_seg("h2", "h1"), pieces=["SE", "OUT"]),
        "sd3": dict(_seg("h2", "e"), pieces=["SE", "OUT"])})
    for pid in ("SE", "OUT"):
        edges = doc["pieces"][pid]["boundary"][0]["edges"]
        i = edges.index("sd_se")
        edges[i:i + 1] = ["sd1", "sd2", "sd3"]
    inst = model.parse_instance(doc)
    assert model.validate(inst).ok
    slim = model.sparsify(inst)
    assert [e for e in slim.edges if e not in inst.edges] == ["m1"]
    assert slim.edges["m1"].geom == Segment(pt(0, -1), pt(1, 0))
    assert slim.edges["m1"].vertex_ids == ("s", "e")
    assert slim.pieces["SE"].boundary == (
        model.BoundaryComponent("cycle", ("m1", "sp_e", "sp_s")),)
    assert slim.pieces["OUT"].boundary == (
        model.BoundaryComponent("cycle", ("m1", "sd_ws", "sd_nw", "sd_en")),)
    assert slim.pieces["NE"].boundary == inst.pieces["NE"].boundary
    assert model.validate(slim).ok
    for x in sample_general_position(inst, 4, 60):
        assert model.eval_cpa(slim, x) == model.eval_cpa(inst, x)
    dec = decompose(slim)
    terms = maxform.reduce(dec, slim.p)
    net = network.build_network(terms)
    assert verify_equivalence(slim, dec, terms, net, n=60).certified


def _split_hat(corpus_docs) -> dict:
    """hat with NE cut by a phantom segment from the middle m of spoke
    sp_e to n.  Pieces NE1 and NE2 carry NE's affine; sp_e becomes ea
    (m to the apex) and eb (m to e)."""
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["vertices"]["m"] = ["1/2", 0]
    del doc["edges"]["sp_e"]
    doc["edges"].update({
        "ea": {"kind": "segment", "a": "m", "b": "a", "pieces": ["NE1", "SE"]},
        "eb": {"kind": "segment", "a": "m", "b": "e", "pieces": ["NE2", "SE"]},
        "ph": {"kind": "segment", "a": "m", "b": "n", "pieces": ["NE1", "NE2"]},
    })
    doc["edges"]["sp_n"]["pieces"] = ["NW", "NE1"]
    doc["edges"]["sd_en"]["pieces"] = ["NE2", "OUT"]
    ne = doc["pieces"].pop("NE")
    doc["pieces"]["NE1"] = dict(ne, boundary=[
        {"kind": "cycle", "edges": ["ea", "ph", "sp_n"]}])
    doc["pieces"]["NE2"] = dict(ne, witness=["1/2", "1/3"], boundary=[
        {"kind": "cycle", "edges": ["eb", "sd_en", "ph"]}])
    doc["pieces"]["SE"]["boundary"] = [
        {"kind": "cycle", "edges": ["sp_s", "sd_se", "eb", "ea"]}]
    return doc


def test_sparsify_orients_merged_edges_in_retraced_pieces(corpus_docs):
    # NE1 and NE2 merge, so NE1 is retraced.  m is then a straight
    # degree-2 vertex, and ea + eb join into m0 = Segment(a, e), which
    # runs against ea: the retrace must flip ea's orientation.
    inst = model.parse_instance(_split_hat(corpus_docs))
    assert model.validate(inst).ok
    slim = model.sparsify(inst)
    assert slim.edges["m0"].geom == Segment(pt(0, 0), pt(1, 0))
    assert slim.pieces["NE1"].boundary == (
        model.BoundaryComponent("cycle", ("m0", "sd_en", "sp_n")),)
    assert model.validate(slim).ok
    hat = model.parse_instance(corpus_docs["hat"])
    for x in sample_general_position(inst, 8, 60):
        assert model.eval_cpa(slim, x) == model.eval_cpa(hat, x)


def test_boundary_retrace_turns_clockwise_at_a_shared_vertex():
    # two triangles touching at o, each walked counterclockwise: arriving
    # at o, each walk leaves on its own triangle's edge, the first
    # outgoing edge clockwise of the way back
    o, p, q, r, s = pt(0, 0), pt(2, 1), pt(1, 2), pt(-2, -1), pt(-1, -2)
    edges = {"a1": (Segment(p, q), ("p", "q")),
             "a2": (Segment(q, o), ("q", "o")),
             "a3": (Segment(o, p), ("o", "p")),
             "b1": (Segment(r, s), ("r", "s")),
             "b2": (Segment(s, o), ("s", "o")),
             "b3": (Segment(o, r), ("o", "r"))}
    assert model._trace_components(edges, dict.fromkeys(edges, True)) == [
        model.BoundaryComponent("cycle", ("a1", "a2", "a3")),
        model.BoundaryComponent("cycle", ("b1", "b2", "b3"))]


def test_boundary_retrace_walks_on_through_its_start_vertex():
    # the same two triangles with the piece outside both: one closed walk
    # goes round each triangle clockwise and passes o between them.  It
    # starts at o along e1, so its first return to o is not its end.
    o, p, q, r, s = pt(0, 0), pt(2, 1), pt(1, 2), pt(-2, -1), pt(-1, -2)
    edges = {"e1": (Segment(q, o), ("q", "o")),
             "e2": (Segment(p, q), ("p", "q")),
             "e3": (Segment(o, p), ("o", "p")),
             "f1": (Segment(r, s), ("r", "s")),
             "f2": (Segment(s, o), ("s", "o")),
             "f3": (Segment(o, r), ("o", "r"))}
    assert model._trace_components(edges, dict.fromkeys(edges, False)) == [
        model.BoundaryComponent("cycle", ("e1", "e2", "e3")),
        model.BoundaryComponent("cycle", ("f2", "f1", "f3"))]


def _outer_heights_doc(seed, n_points, prob, rng_seed):
    """random_instance with each interior vertex's height put back on the
    outer piece's plane with probability prob, and every triangle's
    affine refitted: neighbouring triangles then share affines and
    sparsify merges them into pieces that can touch themselves."""
    doc = corpus.random_instance(seed, n_points=n_points)
    inst = model.parse_instance(doc)
    outer = inst.pieces["out"].affine
    on_outer = set(inst.piece_vertices["out"])
    height = {vid: model.eval_cpa(inst, v) for vid, v in inst.vertices.items()}
    rng = random.Random(rng_seed)
    for vid in sorted(set(inst.vertices) - on_outer):
        if rng.random() < prob:
            height[vid] = outer(inst.vertices[vid])
    for pid in inst.pieces:
        if pid != "out":
            args = []
            for vid in inst.piece_vertices[pid]:
                v = inst.vertices[vid]
                args += [(v.x, v.y), height[vid]]
            doc["pieces"][pid]["affine"] = [
                rat_to_json(c) for c in corpus._plane_through(*args)]
    return doc


def test_sparsify_retraces_a_piece_that_touches_itself():
    inst = model.parse_instance(_outer_heights_doc(1013, 20, 0.6, 13))
    slim = model.sparsify(inst)
    assert model.validate(slim).ok
    dec = decompose(slim)
    terms = maxform.reduce(dec, slim.p)
    net = network.build_network(terms)
    assert verify_equivalence(slim, dec, terms, net, n=60).certified
    assert verify_lemma_suite(slim, n=20).certified


@pytest.mark.parametrize("args", [(1001, 20, 0.3, 1), (1002, 20, 0.6, 2),
                                  (1003, 20, 0.9, 3), (1005, 40, 0.6, 5)])
def test_sparsify_on_merge_heavy_draws(args):
    inst = model.parse_instance(_outer_heights_doc(*args))
    slim = model.sparsify(inst)
    assert slim.p < inst.p
    assert model.validate(slim).ok
    dec = decompose(slim)
    terms = maxform.reduce(dec, slim.p)
    net = network.build_network(terms)
    assert verify_equivalence(slim, dec, terms, net, n=20).certified


def test_boundary_retrace_rejects_edges_leaving_a_vertex_together():
    # triangle q -> o -> p -> q with the piece on the left, plus e4 from
    # o along e2: at o the walk has no strict clockwise order to follow
    o, p, q, r = pt(0, 0), pt(2, 0), pt(0, 2), pt(1, 0)
    edges = {"e1": (Segment(q, o), ("q", "o")),
             "e2": (Segment(o, p), ("o", "p")),
             "e3": (Segment(p, q), ("p", "q")),
             "e4": (Segment(o, r), ("o", "r"))}
    with pytest.raises(DuplicateDirectionError):
        model._trace_components(edges, dict.fromkeys(edges, True))


def test_edge_sides_and_vertex_star(corpus_insts):
    inst = corpus_insts["hat"]
    # sp_e runs from a to e: NE lies to its left, SE to its right
    assert model.edge_sides(inst, "sp_e") == ("NE", "SE")
    # sd_en runs from e to n: the rim's outside is on its right
    assert model.edge_sides(inst, "sd_en") == ("NE", "OUT")
    star = model.vertex_star(inst, "a")
    assert [(d.dx, d.dy) for d, _, _ in star] == [
        (1, 0), (0, 1), (-1, 0), (0, -1)]
    assert [(ccw, cw) for _, ccw, cw in star] == [
        ("NE", "SE"), ("NW", "NE"), ("SW", "NW"), ("SE", "SW")]
    # at n, sp_n and sd_en arrive at their end b, so their left pieces
    # are clockwise; sd_nw leaves n along its own direction
    assert [(ccw, cw) for _, ccw, cw in model.vertex_star(inst, "n")] == [
        ("NW", "OUT"), ("NE", "NW"), ("OUT", "NE")]


def test_edge_sides_rejects_a_piece_that_does_not_flip(corpus_docs):
    doc = copy.deepcopy(corpus_docs["hat"])
    doc["edges"]["sp_e"]["pieces"] = ["NW", "SE"]
    with pytest.raises(InvalidInputError):
        model.edge_sides(model.parse_instance(doc), "sp_e")


def test_sparsify_removes_phantom_creases(corpus_docs):
    inst = model.parse_instance(corpus_docs["square_hole"])
    slim = model.sparsify(inst)
    assert slim.p == 1
    assert len(slim.edges) == 0 and len(slim.vertices) == 0
    (piece,) = slim.pieces.values()
    assert piece.affine == model.AffineFunc(Fraction(1), Fraction(-2),
                                            Fraction(3))


def test_sparsify_is_stable_on_minimal_instances(compiled):
    for name, (inst, slim, _, _, _) in compiled.items():
        again = model.sparsify(slim, skip_validation=True)
        assert len(again.edges) == len(slim.edges), name
        assert len(again.vertices) == len(slim.vertices), name
        assert again.p == slim.p, name


def test_sparsify_contract_on_corpus(compiled):
    for name, (inst, slim, _, _, _) in compiled.items():
        degree = {vid: 0 for vid in slim.vertices}
        for rec in slim.edges.values():
            for vid in rec.vertex_ids:
                degree[vid] += 1
        assert all(d >= 3 for d in degree.values()), (name, degree)
        assert len(slim.edges) <= 3 * slim.p, name


def test_sparsify_retraces_pieces_whose_probes_touch_hulls():
    """The boundary retrace tolerates probe points on another edge's hull.

    In this draw, probes next to a merged piece's edges land on hulls of
    edges that rerouting cannot avoid, because rerouting never moves the
    path's endpoints.
    """
    inst = model.parse_instance(corpus.random_instance(16, n_points=40))
    # random_instance returns only documents that validate
    slim = model.sparsify(inst, skip_validation=True)
    net = network.build_network(maxform.reduce(decompose(slim), slim.p))
    for x in sample_general_position(inst, 0, 40):
        assert network.eval_network(net, x) == model.eval_cpa(inst, x)
