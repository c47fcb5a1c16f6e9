"""Decomposition of a piecewise-affine function into local building
blocks: one angular fan per vertex, one half-plane pair per segment or
line edge, and an affine tail.

The signed sum of these blocks reproduces the function exactly:

    f = sum of fans + sum over line edges - sum over segment edges + tail

where the tail collects c(P) * f_P over all pieces.  Ray edges carry no
block of their own; their contribution is absorbed by the vertex fans.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContinuityError, InvalidInputError
from .geometry import (
    Direction,
    Line,
    Point,
    Rat,
    Ray,
    in_ccw_sector,
    rat_to_json,
    same_direction,
    sub,
    translate,
)
from .model import AffineFunc, CPAInstance, edge_sides, vertex_star
from .sides import conic_coeff


@dataclass(frozen=True)
class Fan:
    """A function that is affine on each angular sector around a center.

    rays are in strict CCW order; sector i spans rays[i] to
    rays[(i+1) % k] and carries sector_affines[i].
    """

    center: Point
    rays: tuple[Direction, ...]
    sector_affines: tuple[AffineFunc, ...]

    def __post_init__(self):
        if len(self.rays) != len(self.sector_affines):
            raise InvalidInputError("fan needs one affine per sector")
        if len(self.rays) < 2:
            raise InvalidInputError("fan needs at least two rays")


def validate_fan(fan: Fan) -> None:
    """Adjacent sector affines must agree along their shared ray."""
    k = len(fan.rays)
    for i in range(k):
        d = fan.rays[i]
        prev = fan.sector_affines[i - 1]
        cur = fan.sector_affines[i]
        for q in (fan.center, translate(fan.center, d)):
            if prev(q) != cur(q):
                raise ContinuityError(
                    f"fan sectors {i - 1} and {i} disagree at {q}")


def eval_fan(fan: Fan, x: Point) -> Rat:
    """Value of the fan at x; points on rays take the first CCW sector
    touching them (continuity makes the choice irrelevant)."""
    u = sub(x, fan.center)
    if u.dx == 0 and u.dy == 0:
        return fan.sector_affines[0](x)
    k = len(fan.rays)
    for i in range(k):
        if same_direction(fan.rays[i], u) or \
                in_ccw_sector(fan.rays[i], fan.rays[(i + 1) % k], u):
            return fan.sector_affines[i](x)
    raise InvalidInputError(f"no sector of fan at {fan.center} contains {x}")


@dataclass(frozen=True)
class EdgePair:
    """A two-piece function split by a line: plus_side_affine on
    {boundary >= 0}, minus_side_affine on the other closed half-plane.
    sign is +1 when the source edge was a full line, -1 for a segment."""

    boundary: AffineFunc
    plus_side_affine: AffineFunc
    minus_side_affine: AffineFunc
    sign: int


def eval_edge_pair(pair: EdgePair, x: Point) -> Rat:
    if pair.boundary(x) >= 0:
        return pair.plus_side_affine(x)
    return pair.minus_side_affine(x)


@dataclass(frozen=True)
class Decomposition:
    fans: tuple[Fan, ...]
    edge_pairs: tuple[EdgePair, ...]
    tail: AffineFunc


def build_vertex_function(inst: CPAInstance, vertex_id: str) -> Fan:
    """The fan agreeing with the instance on a small disk around the
    vertex: one ray per incident edge, and sector i carries the piece
    counterclockwise of ray i (model.vertex_star).  That piece must be
    the one clockwise of ray i + 1; a chain of sectors that does not
    close up this way raises InvalidInputError."""
    star = vertex_star(inst, vertex_id)
    affines = []
    for i, (_, ccw, _) in enumerate(star):
        cw_next = star[(i + 1) % len(star)][2]
        if ccw != cw_next:
            raise InvalidInputError(
                f"sector {i} at vertex {vertex_id} starts in piece {ccw} "
                f"but ends in piece {cw_next}")
        affines.append(inst.pieces[ccw].affine)
    fan = Fan(inst.vertices[vertex_id], tuple(d for d, _, _ in star),
              tuple(affines))
    validate_fan(fan)
    return fan


def build_edge_function(inst: CPAInstance, edge_id: str) -> EdgePair:
    """The two-affine function agreeing with the instance across an
    edge: its plus side is the left piece of the edge's int_line.  Only
    segments and lines qualify."""
    e = inst.edges[edge_id]
    if isinstance(e.geom, Ray):
        raise InvalidInputError(
            f"edge {edge_id} is a ray; rays have no edge function")
    left, right = edge_sides(inst, edge_id)
    return EdgePair(
        boundary=AffineFunc(*(Fraction(c) for c in inst.int_line(edge_id))),
        plus_side_affine=inst.pieces[left].affine,
        minus_side_affine=inst.pieces[right].affine,
        sign=1 if isinstance(e.geom, Line) else -1,
    )


def _check_sparsified(inst: CPAInstance) -> None:
    for eid, e in inst.edges.items():
        a, b = e.pieces
        if inst.pieces[a].affine == inst.pieces[b].affine:
            raise InvalidInputError(
                f"edge {eid} separates equal affines; sparsify first")
    for vid, eids in inst.vertex_edges.items():
        if len(eids) < 3:
            raise InvalidInputError(
                f"vertex {vid} has degree {len(eids)}; sparsify first")


def decompose(inst: CPAInstance) -> Decomposition:
    """Assemble fans, edge pairs and the affine tail for an instance.

    The instance must already be sparsified; redundant vertices or
    edges would duplicate contributions.
    """
    _check_sparsified(inst)
    fans = tuple(build_vertex_function(inst, vid)
                 for vid in sorted(inst.vertices))
    pairs = tuple(build_edge_function(inst, eid)
                  for eid in sorted(inst.edges)
                  if not isinstance(inst.edges[eid].geom, Ray))
    tail = AffineFunc(Fraction(0), Fraction(0), Fraction(0))
    for pid in sorted(inst.pieces):
        c = conic_coeff(inst, pid).c
        if c:
            tail = tail + inst.pieces[pid].affine.scale(Fraction(c))
    return Decomposition(fans, pairs, tail)


def eval_decomposition(dec: Decomposition, x: Point) -> Rat:
    total = dec.tail(x)
    for fan in dec.fans:
        total += eval_fan(fan, x)
    for pair in dec.edge_pairs:
        total += pair.sign * eval_edge_pair(pair, x)
    return total


# ---------------------------------------------------------------------------
# JSON dump (CLI inspection format)

def _affine_json(f: AffineFunc) -> list:
    return f.to_json()


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "fans": [
            {
                "center": [rat_to_json(f.center.x), rat_to_json(f.center.y)],
                "rays": [[rat_to_json(d.dx), rat_to_json(d.dy)] for d in f.rays],
                "sector_affines": [_affine_json(a) for a in f.sector_affines],
            }
            for f in dec.fans
        ],
        "edge_pairs": [
            {
                "boundary": _affine_json(p.boundary),
                "plus": _affine_json(p.plus_side_affine),
                "minus": _affine_json(p.minus_side_affine),
                "sign": p.sign,
            }
            for p in dec.edge_pairs
        ],
        "tail": _affine_json(dec.tail),
    }
