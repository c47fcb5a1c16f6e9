"""P-sides of vertices and edges, the membership oracle, and the
coefficients tying them together.

For a piece P, the cone of P at a vertex v is the union of the sectors
of P between consecutive incident edge directions; the side of P at an
edge is the closed half-plane that locally agrees with P.  Summing their
indicators (lines positive, segments negative) plus the correction
constant c(P) reproduces the indicator of P at every general-position
point; indicator_identity_check tests exactly that.
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
    Segment,
    ccw_sort_directions,
    dist_sq_point_edge,
    dot,
    edge_base,
    edge_direction,
    in_ccw_sector,
    int_point,
    on_edge,
    same_direction,
    sector_midpoint_direction,
    shrink_to_disk,
    sub,
    translate,
)
from .model import AffineFunc, CPAInstance, _member_core, _parity_between


def member(inst: CPAInstance, piece_id: str, x: Point, seed: int = 0) -> bool:
    """True iff x belongs to the (closed) piece, decided by crossing
    parity of a generic path from x to the piece's witness.

    Boundary points are refused with OnBoundaryError; use eval_cpa for
    function values there.
    """
    ip = int_point(x)
    for eid in inst.piece_edges[piece_id]:
        A, B, C = inst.int_line(eid)
        if kernels.line_sign(A, B, C, *ip) == 0 and on_edge(x, inst.edges[eid].geom):
            raise OnBoundaryError(
                f"{x} lies on edge {eid} of piece {piece_id}")
    return _member_core(inst, piece_id, x, seed=seed)


# ---------------------------------------------------------------------------
# Clearances and probe points

def vertex_clearance_sq(inst: CPAInstance, vertex_id: str) -> Rat:
    """Squared distance from the vertex to everything not incident to it."""
    key = ("v", vertex_id)
    r = inst.clearance_cache.get(key)
    if r is not None:
        return r
    v = inst.vertices[vertex_id]
    incident = set(inst.vertex_edges[vertex_id])
    best = None
    for eid, e in inst.edges.items():
        if eid in incident:
            continue
        d2 = dist_sq_point_edge(v, e.geom)
        best = d2 if best is None else min(best, d2)
    for uid, u in inst.vertices.items():
        if uid == vertex_id:
            continue
        d2 = sub(v, u).dx ** 2 + sub(v, u).dy ** 2
        best = d2 if best is None else min(best, d2)
    if best is None:
        best = Fraction(1)
    inst.clearance_cache[key] = best
    return best


def _edge_interior_point(e) -> Point:
    if isinstance(e, Segment):
        return Point((e.a.x + e.b.x) / 2, (e.a.y + e.b.y) / 2)
    return translate(edge_base(e), e.d)


def edge_clearance_sq(inst: CPAInstance, edge_id: str) -> Rat:
    """Squared distance from the edge's probe point m to every other
    edge and every vertex."""
    key = ("e", edge_id)
    r = inst.clearance_cache.get(key)
    if r is not None:
        return r
    m = _edge_interior_point(inst.edges[edge_id].geom)
    best = None
    for eid, e in inst.edges.items():
        if eid == edge_id:
            continue
        d2 = dist_sq_point_edge(m, e.geom)
        best = d2 if best is None else min(best, d2)
    for u in inst.vertices.values():
        d2 = sub(m, u).dx ** 2 + sub(m, u).dy ** 2
        if d2 > 0:
            best = d2 if best is None else min(best, d2)
    if best is None:
        best = Fraction(1)
    inst.clearance_cache[key] = best
    return best


# ---------------------------------------------------------------------------
# Vertex cones

def vertex_sectors(inst: CPAInstance, piece_id: str, vertex_id: str,
                   seed: int = 0) -> list[tuple[Direction, Direction, bool]]:
    """All sectors between consecutive piece edges at a vertex with their
    inside/outside status, CCW starting from the smallest angle."""
    key = (piece_id, vertex_id)
    cached = inst.cone_cache.get(key)
    if cached is not None:
        return cached
    v = inst.vertices[vertex_id]
    pedges = set(inst.piece_edges[piece_id])
    dirs = []
    for eid in inst.vertex_edges[vertex_id]:
        if eid not in pedges:
            continue
        g = inst.edges[eid].geom
        if isinstance(g, Segment):
            other = g.b if g.a == v else g.a
            dirs.append(sub(other, v))
        else:
            dirs.append(g.d)
    if len(dirs) < 2:
        raise InvalidInputError(
            f"vertex {vertex_id} has degree {len(dirs)} in piece {piece_id}")
    order = ccw_sort_directions(v, dirs)
    dirs = [dirs[i] for i in order]
    r2 = vertex_clearance_sq(inst, vertex_id)
    sectors = []
    for i, start in enumerate(dirs):
        end = dirs[(i + 1) % len(dirs)]
        mid = sector_midpoint_direction(start, end)
        off = shrink_to_disk(mid, r2 / 4)
        probe = Point(v.x + off.dx, v.y + off.dy)
        sectors.append((start, end, _member_core(inst, piece_id, probe, seed=seed)))
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

@dataclass(frozen=True)
class HalfPlaneSide:
    """The closed half-plane {x : side * g(x) >= 0} agreeing with a
    piece along one of its edges."""

    boundary: AffineFunc
    side: int


def edge_halfplane(inst: CPAInstance, piece_id: str, edge_id: str,
                   seed: int = 0) -> HalfPlaneSide:
    key = (piece_id, edge_id)
    cached = inst.halfplane_cache.get(key)
    if cached is not None:
        return cached
    e = inst.edges[edge_id]
    if piece_id not in e.pieces:
        raise InvalidInputError(f"edge {edge_id} does not bound piece {piece_id}")
    A, B, C = inst.int_line(edge_id)
    g = AffineFunc(Fraction(A), Fraction(B), Fraction(C))
    m = _edge_interior_point(e.geom)
    r2 = edge_clearance_sq(inst, edge_id)
    # int_line is the left normal form, so g > 0 on the +perp side
    off = shrink_to_disk(Direction(Fraction(A), Fraction(B)), r2 / 4)
    plus = Point(m.x + off.dx, m.y + off.dy)
    minus = Point(m.x - off.dx, m.y - off.dy)
    in_plus = _member_core(inst, piece_id, plus, seed=seed)
    in_minus = _member_core(inst, piece_id, minus, seed=seed)
    if in_plus == in_minus:
        raise InvalidInputError(
            f"piece {piece_id} does not flip across edge {edge_id}")
    hp = HalfPlaneSide(g, 1 if in_plus else -1)
    inst.halfplane_cache[key] = hp
    return hp


def edge_halfplane_contains(inst: CPAInstance, piece_id: str, edge_id: str,
                            x: Point) -> bool:
    hp = edge_halfplane(inst, piece_id, edge_id)
    val = hp.boundary(x)
    if val == 0:
        raise GeneralPositionError(
            f"{x} lies on the affine hull of edge {edge_id}")
    return (val > 0) == (hp.side > 0)


# ---------------------------------------------------------------------------
# The correction constant c(P)

@dataclass(frozen=True)
class ConicCoeff:
    d: Rat
    n_h: int
    n_a: int
    c: int


def point_in_cycle(inst: CPAInstance, cycle_edges, x: Point,
                   seed: int = 0) -> bool:
    """Whether x lies inside the closed region bounded by a single cycle
    of segment edges (crossing parity against that cycle alone, on a
    path to a point outside the instance's bounding box)."""
    box = inst.bbox()
    far = Point(box[2] + 1, box[3] + 2)
    return _parity_between(inst.edge_lines(cycle_edges), x, far, box,
                           seed) == 1


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
