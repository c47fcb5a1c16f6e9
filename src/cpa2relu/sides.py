"""P-sides of vertices and edges, the membership oracle, and the
coefficients tying them together.

For a piece P, the cone of P at a vertex v is the union of the sectors
of v's star that P holds; the side of P at an edge is the closed
half-plane that locally agrees with P.  Both come from the orientation
of the edges (model.edge_sides: which declared piece lies on each side
of each edge), with no membership probe of their own, and both are
decided on integers: a cone query finds its sector of the star with
geometry.sector_index, which orders directions by the one CCW
comparator geometry.ccw_angle_cmp, and a half-plane query takes the
sign of the edge's line (model.EdgeRec.line) at the point's
homogeneous (X, Y, W) with kernels.line_sign.  Summing their indicators
(lines positive, segments negative) plus the correction constant c(P)
reproduces the indicator of P at every general-position point;
indicator_identity_check tests exactly that.  It converts the point to
(X, Y, W) once and hands that form to every cone, half-plane and
membership test; the public tests below take a Point and convert it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import GeneralPositionError, InvalidInputError, OnBoundaryError
from .geometry import (
    Line,
    Point,
    Rat,
    Ray,
    from_homogeneous,
    homogeneous,
    int_direction,
    sector_index,
)
from .model import (
    CPAInstance,
    _member_core,
    _parity,
    edge_sides,
    edges_at,
    vertex_star,
)


def member(inst: CPAInstance, piece_id: str, x: Point) -> bool:
    """True iff x belongs to the (closed) piece, decided by crossing
    parity of the segment from x to the piece's witness.

    Boundary points are refused with OnBoundaryError; use eval_cpa for
    function values there.
    """
    return _member(inst, piece_id, homogeneous(x))


def _member(inst: CPAInstance, piece_id: str, hx: tuple) -> bool:
    on = edges_at(inst, hx, inst.piece_edges[piece_id])
    if on:
        raise OnBoundaryError(f"{from_homogeneous(hx)} lies on edge {on[0]} "
                              f"of piece {piece_id}")
    return _member_core(inst, piece_id, hx)


# ---------------------------------------------------------------------------
# Vertex cones

def _star(inst: CPAInstance, vertex_id: str) -> tuple[tuple, list, tuple]:
    """(rays, star, hv): model.vertex_star with its directions as integer
    pairs, the form sector_index takes, and the vertex in homogeneous
    form.  Cached per vertex."""
    cached = inst._stars.get(vertex_id)
    if cached is None:
        star = vertex_star(inst, vertex_id)
        cached = (tuple(int_direction(d) for d, _, _ in star), star,
                  homogeneous(inst.vertices[vertex_id]))
        inst._stars[vertex_id] = cached
    return cached


def vertex_cone_contains(inst: CPAInstance, piece_id: str, vertex_id: str,
                         x: Point) -> bool:
    """Whether x lies in the piece's cone at the vertex: whether the
    sector of the vertex's full star (model.vertex_star) that holds
    x - v belongs to the piece.

    x at the vertex, or along one of the piece's own edges there (the
    boundary of its cone), raises GeneralPositionError; x along another
    piece's edge lies outside the cone, since both sides of that edge
    belong to other pieces.
    """
    return _cone_contains(inst, piece_id, vertex_id, homogeneous(x))


def _cone_contains(inst: CPAInstance, piece_id: str, vertex_id: str,
                   hx: tuple) -> bool:
    if vertex_id not in inst.piece_vertices[piece_id]:
        raise InvalidInputError(
            f"vertex {vertex_id} is not on the boundary of piece {piece_id}")
    rays, star, (vX, vY, vW) = _star(inst, vertex_id)
    X, Y, W = hx
    u = (X * vW - vX * W, Y * vW - vY * W)  # a positive multiple of x - v
    if u == (0, 0):
        raise GeneralPositionError(
            f"{from_homogeneous(hx)} coincides with vertex {vertex_id}")
    i, on_ray = sector_index(rays, u)
    _, ccw, cw = star[i]
    if on_ray and piece_id in (ccw, cw):
        raise GeneralPositionError(f"{from_homogeneous(hx)} is aligned with "
                                   f"an edge at vertex {vertex_id}")
    return ccw == piece_id


# ---------------------------------------------------------------------------
# Edge half-planes

def edge_halfplane_contains(inst: CPAInstance, piece_id: str, edge_id: str,
                            x: Point) -> bool:
    """Whether x lies on the piece's side of the edge's affine hull."""
    return _halfplane_contains(inst, piece_id, edge_id, homogeneous(x))


def _halfplane_contains(inst: CPAInstance, piece_id: str, edge_id: str,
                        hx: tuple) -> bool:
    left, right = edge_sides(inst, edge_id)
    if piece_id not in (left, right):
        raise InvalidInputError(f"edge {edge_id} does not bound piece {piece_id}")
    s = kernels.line_sign(*inst.edges[edge_id].line, *hx)
    if s == 0:
        raise GeneralPositionError(
            f"{from_homogeneous(hx)} lies on the affine hull of edge {edge_id}")
    return (s > 0) == (piece_id == left)


# ---------------------------------------------------------------------------
# The correction constant c(P)

@dataclass(frozen=True)
class ConicCoeff:
    d: Rat
    n_h: int
    n_a: int
    c: int


def point_in_cycle(inst: CPAInstance, cycle_edges, x: Point) -> bool:
    """Whether x lies inside the closed region bounded by a single cycle
    of segment edges (crossing parity against that cycle alone, on the
    segment to a point outside the instance's bounding box)."""
    box = inst.bbox()
    far = Point(box[2] + 1, box[3] + 2)
    return _parity([inst.edges[eid] for eid in cycle_edges], homogeneous(x),
                   homogeneous(far)) == 1


def conic_coeff(inst: CPAInstance, piece_id: str) -> ConicCoeff:
    """Counts d(P), holes, arcs and the constant c(P) = 1 + d - n_h - n_a.
    Cached per piece."""
    cached = inst._conic_coeffs.get(piece_id)
    if cached is not None:
        return cached
    piece = inst.pieces[piece_id]
    pedges = set(inst.piece_edges[piece_id])
    d = Fraction(0)
    for vid in inst.piece_vertices[piece_id]:
        deg = sum(1 for eid in inst.vertex_edges[vid] if eid in pedges)
        d += Fraction(deg, 2) - 1
    n_a = sum(1 for comp in piece.boundary if comp.kind == "arc")
    n_h = 0
    for comp in piece.boundary:
        if comp.kind == "cycle" and not point_in_cycle(inst, comp.edges,
                                                       piece.witness):
            n_h += 1
    c = 1 + d - n_h - n_a
    if c.denominator != 1:
        raise InvalidInputError(
            f"piece {piece_id} has non-integer correction constant {c}")
    cc = ConicCoeff(d, n_h, n_a, int(c))
    inst._conic_coeffs[piece_id] = cc
    return cc


# ---------------------------------------------------------------------------
# The conic decomposition identity

def indicator_identity_check(inst: CPAInstance, piece_id: str,
                             x: Point) -> dict:
    """Evaluate both sides of the piece-indicator identity at x.

    lhs counts vertex cones plus line half-planes minus segment
    half-planes plus c(P); rhs is the membership indicator.  Rays are
    deliberately absent: their contribution lives in the vertex cones.
    x is converted to homogeneous form once, for every test below.
    """
    hx = homogeneous(x)
    lhs = conic_coeff(inst, piece_id).c
    for vid in inst.piece_vertices[piece_id]:
        if _cone_contains(inst, piece_id, vid, hx):
            lhs += 1
    for eid in inst.piece_edges[piece_id]:
        g = inst.edges[eid].geom
        if isinstance(g, Ray):
            continue
        inside = _halfplane_contains(inst, piece_id, eid, hx)
        if isinstance(g, Line):
            lhs += 1 if inside else 0
        else:
            lhs -= 1 if inside else 0
    rhs = 1 if _member(inst, piece_id, hx) else 0
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}
