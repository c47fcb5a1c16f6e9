"""Cone/half-plane side predicates and the piece-indicator identity.

The expected constants below are worked out by hand from the corpus
geometry; the identity tests then confirm that code and hand agree.
"""
from fractions import Fraction

import pytest

from cpa2relu import sides
from cpa2relu.errors import GeneralPositionError, OnBoundaryError
from cpa2relu.geometry import pt
from cpa2relu.sides import ConicCoeff
from cpa2relu.verify import sample_general_position


def _cc(corpus_insts, name, pid):
    return sides.conic_coeff(corpus_insts[name], pid)


def test_conic_coeff_square_hole(corpus_insts):
    assert _cc(corpus_insts, "square_hole", "S") == ConicCoeff(0, 0, 0, 1)
    # the unbounded piece sees the square as a hole
    assert _cc(corpus_insts, "square_hole", "O") == ConicCoeff(0, 1, 0, 0)


def test_conic_coeff_strip(corpus_insts):
    # two boundary lines, each its own arc component
    assert _cc(corpus_insts, "strip", "M") == ConicCoeff(0, 0, 2, -1)
    assert _cc(corpus_insts, "strip", "L") == ConicCoeff(0, 0, 1, 0)
    assert _cc(corpus_insts, "strip", "R") == ConicCoeff(0, 0, 1, 0)


def test_conic_coeff_disconnected_cone(corpus_insts):
    # B touches v through four of its edges: d = 4/2 - 1 = 1
    assert _cc(corpus_insts, "disconnected_cone", "B") == ConicCoeff(1, 1, 1, 0)
    assert _cc(corpus_insts, "disconnected_cone", "C1") == ConicCoeff(0, 0, 1, 0)
    assert _cc(corpus_insts, "disconnected_cone", "T1") == ConicCoeff(0, 0, 0, 1)


def test_conic_coeff_simple_shapes(corpus_insts):
    assert _cc(corpus_insts, "single_piece", "P") == ConicCoeff(0, 0, 0, 1)
    assert _cc(corpus_insts, "half_plane", "L") == ConicCoeff(0, 0, 1, 0)
    assert _cc(corpus_insts, "max_zero_xy", "Z") == ConicCoeff(0, 0, 1, 0)
    assert _cc(corpus_insts, "hat", "NE") == ConicCoeff(0, 0, 0, 1)
    assert _cc(corpus_insts, "hat", "OUT") == ConicCoeff(0, 1, 0, 0)


def test_point_in_cycle(corpus_insts):
    inst = corpus_insts["square_hole"]
    (comp,) = inst.pieces["S"].boundary
    assert sides.point_in_cycle(inst, comp.edges, pt(Fraction(1, 3), Fraction(1, 2)))
    assert not sides.point_in_cycle(inst, comp.edges, pt(2, Fraction(1, 3)))
    assert not sides.point_in_cycle(inst, comp.edges, pt(-7, 55))


def test_identity_hand_numbers_square_hole(corpus_insts):
    inst = corpus_insts["square_hole"]
    outside = pt(2, Fraction(1, 3))
    inside = pt(Fraction(1, 3), Fraction(1, 2))
    assert sides.indicator_identity_check(inst, "S", outside) == {
        "lhs": 0, "rhs": 0, "ok": True}
    assert sides.indicator_identity_check(inst, "S", inside) == {
        "lhs": 1, "rhs": 1, "ok": True}
    assert sides.indicator_identity_check(inst, "O", outside) == {
        "lhs": 1, "rhs": 1, "ok": True}
    assert sides.indicator_identity_check(inst, "O", inside) == {
        "lhs": 0, "rhs": 0, "ok": True}


def test_identity_on_sampled_points(corpus_insts):
    for name in ("strip", "disconnected_cone", "hat"):
        inst = corpus_insts[name]
        pts = sample_general_position(inst, 17, 40)
        for pid in inst.pieces:
            for x in pts:
                r = sides.indicator_identity_check(inst, pid, x)
                assert r["ok"], (name, pid, x, r)


def test_membership_of_witnesses(corpus_insts):
    inst = corpus_insts["hat"]
    for pid, piece in inst.pieces.items():
        for qid in inst.pieces:
            assert sides.member(inst, qid, piece.witness) == (qid == pid)


def test_membership_refuses_boundary_points(corpus_insts):
    inst = corpus_insts["hat"]
    for pid in ("NE", "SE"):
        with pytest.raises(OnBoundaryError, match="sp_e"):
            sides.member(inst, pid, pt(Fraction(1, 2), 0))
    with pytest.raises(OnBoundaryError):
        sides.member(inst, "NE", pt(0, 0))
    # on sp_e's hull, past its end at (1, 0)
    assert not sides.member(inst, "NE", pt(2, 0))
    assert sides.member(inst, "OUT", pt(2, 0))


def test_vertex_cone_contains(corpus_insts):
    inst = corpus_insts["square_hole"]
    # S's cone at the origin corner is the first quadrant
    assert sides.vertex_cone_contains(inst, "S", "c00", pt(5, 3))
    assert not sides.vertex_cone_contains(inst, "S", "c00", pt(-5, 3))
    # O gets the reflex complement
    assert not sides.vertex_cone_contains(inst, "O", "c00", pt(5, 3))
    assert sides.vertex_cone_contains(inst, "O", "c00", pt(-5, 3))


def test_cone_query_on_ray_is_rejected(corpus_insts):
    inst = corpus_insts["square_hole"]
    with pytest.raises(GeneralPositionError):
        sides.vertex_cone_contains(inst, "S", "c00", pt(3, 0))


def test_halfplane_query_on_hull_is_rejected(corpus_insts):
    inst = corpus_insts["half_plane"]
    with pytest.raises(GeneralPositionError):
        sides.edge_halfplane_contains(inst, "L", "l", pt(0, 44))
