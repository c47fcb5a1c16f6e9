"""P-sides of vertices and edges, the membership oracle, and the
coefficients tying them together.

For a piece P, the cone of P at a vertex v is the union of the sectors
of P between consecutive incident edge directions; the side of P at an
edge is the closed half-plane that locally agrees with P.  Both come
from the orientation of P's edges (model.edge_sides: which declared
piece lies on each side of each edge), with no membership probe of
their own.  Summing their indicators (lines positive, segments
negative) plus the correction constant c(P) reproduces the indicator of
P at every general-position point; indicator_identity_check tests
exactly that.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import GeneralPositionError, InvalidInputError, OnBoundaryError
from .geometry import (
    Direction,
    Line,
    Point,
    Rat,
    Ray,
    in_ccw_sector,
    int_point,
    same_direction,
    sub,
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
    on = edges_at(inst, x, inst.piece_edges[piece_id])
    if on:
        raise OnBoundaryError(f"{x} lies on edge {on[0]} of piece {piece_id}")
    return _member_core(inst, piece_id, x)


# ---------------------------------------------------------------------------
# Vertex cones

def vertex_sectors(inst: CPAInstance, piece_id: str,
                   vertex_id: str) -> list[tuple[Direction, Direction, bool]]:
    """All sectors between consecutive piece edges at a vertex with their
    inside/outside status, CCW starting from the smallest angle.  A
    sector lies in the piece when the piece is counterclockwise of the
    edge the sector starts at."""
    key = (piece_id, vertex_id)
    cached = inst.cone_cache.get(key)
    if cached is not None:
        return cached
    star = vertex_star(inst, vertex_id, set(inst.piece_edges[piece_id]))
    if len(star) < 2:
        raise InvalidInputError(
            f"vertex {vertex_id} has degree {len(star)} in piece {piece_id}")
    sectors = [(start, star[(i + 1) % len(star)][0], ccw == piece_id)
               for i, (start, ccw, _) in enumerate(star)]
    inst.cone_cache[key] = sectors
    return sectors


def vertex_cone_contains(inst: CPAInstance, piece_id: str, vertex_id: str,
                         x: Point) -> bool:
    """Whether x lies in the piece's cone at the vertex.

    x must not sit in the direction of an incident edge (that is exactly
    the boundary of the cone structure); such x raise
    GeneralPositionError.
    """
    v = inst.vertices[vertex_id]
    if x == v:
        raise GeneralPositionError(f"{x} coincides with vertex {vertex_id}")
    u = sub(x, v)
    sectors = vertex_sectors(inst, piece_id, vertex_id)
    for start, _, _ in sectors:
        if same_direction(start, u):
            raise GeneralPositionError(
                f"{x} is aligned with an edge at vertex {vertex_id}")
    hits = [inside for start, end, inside in sectors
            if in_ccw_sector(start, end, u)]
    if len(hits) != 1:
        raise GeneralPositionError(
            f"{x} is not strictly inside a unique sector at {vertex_id}")
    return hits[0]


# ---------------------------------------------------------------------------
# Edge half-planes

def edge_halfplane_contains(inst: CPAInstance, piece_id: str, edge_id: str,
                            x: Point) -> bool:
    """Whether x lies on the piece's side of the edge's affine hull."""
    left, right = edge_sides(inst, edge_id)
    if piece_id not in (left, right):
        raise InvalidInputError(f"edge {edge_id} does not bound piece {piece_id}")
    A, B, C = inst.int_line(edge_id)
    s = kernels.line_sign(A, B, C, *int_point(x))
    if s == 0:
        raise GeneralPositionError(
            f"{x} lies on the affine hull of edge {edge_id}")
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
    return _parity(inst.edge_lines(cycle_edges), x, far) == 1


def conic_coeff(inst: CPAInstance, piece_id: str) -> ConicCoeff:
    """Counts d(P), holes, arcs and the constant c(P) = 1 + d - n_h - n_a."""
    key = ("cc", piece_id)
    cached = inst.cone_cache.get(key)
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
    inst.cone_cache[key] = cc
    return cc


# ---------------------------------------------------------------------------
# The conic decomposition identity

def indicator_identity_check(inst: CPAInstance, piece_id: str,
                             x: Point) -> dict:
    """Evaluate both sides of the piece-indicator identity at x.

    lhs counts vertex cones plus line half-planes minus segment
    half-planes plus c(P); rhs is the membership indicator.  Rays are
    deliberately absent: their contribution lives in the vertex cones.
    """
    lhs = conic_coeff(inst, piece_id).c
    for vid in inst.piece_vertices[piece_id]:
        if vertex_cone_contains(inst, piece_id, vid, x):
            lhs += 1
    for eid in inst.piece_edges[piece_id]:
        g = inst.edges[eid].geom
        if isinstance(g, Ray):
            continue
        inside = edge_halfplane_contains(inst, piece_id, eid, x)
        if isinstance(g, Line):
            lhs += 1 if inside else 0
        else:
            lhs -= 1 if inside else 0
    rhs = 1 if member(inst, piece_id, x) else 0
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}
