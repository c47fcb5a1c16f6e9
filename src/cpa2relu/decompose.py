"""Decomposition of a piecewise-affine function into local building
blocks: one angular fan per vertex, one half-plane pair per segment or
line edge, and an affine tail.

The signed sum of these blocks reproduces the function exactly:

    f = sum of fans + sum over line edges - sum over segment edges + tail

where the tail collects c(P) * f_P over all pieces.  Ray edges carry no
block of their own; their contribution is absorbed by the vertex fans.

eval_decomposition runs on integers: on first evaluation a Decomposition
builds its kernel_form, every affine as an integer triple over one
common denominator L, and eval_blocks selects each block's triple at the
sample's homogeneous (X, Y, W), sums them and applies the sum once; the
only Fraction is the quotient N/(L*W).  decompose() does not build that
form, so compiling never pays for it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import ContinuityError, InvalidInputError
from .geometry import (
    Direction,
    Line,
    Point,
    Rat,
    Ray,
    homogeneous,
    int_direction,
    rat_to_json,
    sector_index,
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

    @cached_property
    def int_rays(self) -> tuple[tuple[int, int], ...]:
        """The rays as integer pairs, the form sector_index takes."""
        return tuple(int_direction(d) for d in self.rays)

    @cached_property
    def int_form(self) -> tuple[tuple[int, int, int], int,
                                tuple[tuple[int, int, int], ...]]:
        """(centre, L, sectors): the centre in homogeneous (X, Y, W) and
        every sector affine as an integer triple (a, b, c) over the
        common denominator L > 0, standing for (a*x + b*y + c)/L; the
        form validate_fan and maxform.fan_to_terms read.  Not a field,
        so equality, hashing and the JSON dump never see it."""
        forms = [g.int_form() for g in self.sector_affines]
        L = lcm(*(D for _, _, _, D in forms))
        return homogeneous(self.center), L, tuple(
            (A * (L // D), B * (L // D), C * (L // D)) for A, B, C, D in forms)


def validate_fan(fan: Fan) -> None:
    """Adjacent sector affines must agree along their shared ray: at the
    centre, and one ray step from it.

    On the integer form: the two sectors' difference must vanish at the
    centre's (X, Y, W), and its slope part along the ray's integer pair.
    The failing point is built only for the message."""
    (cX, cY, cW), _, sectors = fan.int_form
    for i, (dx, dy) in enumerate(fan.int_rays):
        (a0, b0, c0), (a1, b1, c1) = sectors[i - 1], sectors[i]
        da, db = a0 - a1, b0 - b1
        if da * cX + db * cY + (c0 - c1) * cW:
            q = fan.center
        elif da * dx + db * dy:
            q = translate(fan.center, fan.rays[i])
        else:
            continue
        raise ContinuityError(f"fan sectors {i - 1} and {i} disagree at {q}")


@dataclass(frozen=True)
class EdgePair:
    """A two-piece function split by a line: plus_side_affine on
    {boundary >= 0}, minus_side_affine on the other closed half-plane.
    sign is +1 when the source edge was a full line, -1 for a segment."""

    boundary: AffineFunc
    plus_side_affine: AffineFunc
    minus_side_affine: AffineFunc
    sign: int


@dataclass(frozen=True)
class Decomposition:
    fans: tuple[Fan, ...]
    edge_pairs: tuple[EdgePair, ...]
    tail: AffineFunc

    @cached_property
    def kernel_form(self) -> tuple[int, tuple, tuple, tuple[int, int, int]]:
        """(L, fans, pairs, tail) for eval_blocks, built on first
        evaluation.  Every affine is an integer triple (a, b, c) over the
        common denominator L, standing for (a*x + b*y + c)/L.  fans holds
        (cX, cY, cW, rays, sectors) per fan: its centre in homogeneous
        form, its int_rays in strict CCW order and one triple per
        sector.  pairs holds (A, B, C, plus, minus) per edge pair: its
        boundary as integers and the triple on each side, the pair's
        sign folded into both.  tail is one triple.  Not a field, so
        equality, hashing and the JSON dump never see it."""
        affines = [self.tail]
        for f in self.fans:
            affines.extend(f.sector_affines)
        for p in self.edge_pairs:
            affines += (p.plus_side_affine, p.minus_side_affine)
        forms = {g: g.int_form() for g in affines}
        L = lcm(*(D for _, _, _, D in forms.values()))

        def triple(g: AffineFunc, s: int = 1) -> tuple[int, int, int]:
            A, B, C, D = forms[g]
            k = s * (L // D)
            return (A * k, B * k, C * k)

        fans = tuple((*homogeneous(f.center), f.int_rays,
                      tuple(triple(g) for g in f.sector_affines))
                     for f in self.fans)
        pairs = tuple((*p.boundary.int_form()[:3],
                       triple(p.plus_side_affine, p.sign),
                       triple(p.minus_side_affine, p.sign))
                      for p in self.edge_pairs)
        return L, fans, pairs, triple(self.tail)


def build_vertex_function(inst: CPAInstance, vertex_id: str) -> Fan:
    """The fan agreeing with the instance on a small disk around the
    vertex: one ray per incident edge, and sector i carries the piece
    counterclockwise of ray i (model.vertex_star).  That piece must be
    the one clockwise of ray i + 1; a chain of sectors that does not
    close up this way raises InvalidInputError.  Continuity across the
    rays is not checked here: validate's continuity check implies it
    for a validated instance, and maxform.fan_to_terms checks every fan
    it reduces (validate_fan)."""
    star = vertex_star(inst, vertex_id)
    affines = []
    for i, (_, ccw, _) in enumerate(star):
        cw_next = star[(i + 1) % len(star)][2]
        if ccw != cw_next:
            raise InvalidInputError(
                f"sector {i} at vertex {vertex_id} starts in piece {ccw} "
                f"but ends in piece {cw_next}")
        affines.append(inst.pieces[ccw].affine)
    return Fan(inst.vertices[vertex_id], tuple(d for d, _, _ in star),
               tuple(affines))


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
        boundary=AffineFunc(*(Fraction(c) for c in e.line)),
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


def eval_blocks(fans, pairs, tail, X, Y, W):
    """W*L times the value of a decomposition at the point (X/W, Y/W),
    W > 0, from the parts of its kernel_form (see there).

    The offset (X*cW - cX*W, Y*cW - cY*W) is a positive multiple of
    x - centre, so sector_index finds its sector: a point on ray i takes
    sector i, and the centre takes sector 0.  A point with
    A*X + B*Y + C*W >= 0 takes a pair's plus triple, the line included.
    The selected triples are summed, then applied once.
    """
    a, b, c = tail
    for cX, cY, cW, rays, sectors in fans:
        u = (X * cW - cX * W, Y * cW - cY * W)
        sa, sb, sc = sectors[sector_index(rays, u) if u != (0, 0) else 0]
        a += sa
        b += sb
        c += sc
    for A, B, C, plus, minus in pairs:
        sa, sb, sc = plus if A * X + B * Y + C * W >= 0 else minus
        a += sa
        b += sb
        c += sc
    return a * X + b * Y + c * W


def eval_decomposition(dec: Decomposition, x: Point) -> Rat:
    """Exact value of the decomposition at x: x is converted to (X, Y, W)
    once, and eval_blocks picks and sums every block's triple."""
    X, Y, W = homogeneous(x)
    L, fans, pairs, tail = dec.kernel_form
    return Fraction(eval_blocks(fans, pairs, tail, X, Y, W), L * W)


# ---------------------------------------------------------------------------
# JSON dump (CLI inspection format)

def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "fans": [
            {
                "center": [rat_to_json(f.center.x), rat_to_json(f.center.y)],
                "rays": [[rat_to_json(d.dx), rat_to_json(d.dy)] for d in f.rays],
                "sector_affines": [a.to_json() for a in f.sector_affines],
            }
            for f in dec.fans
        ],
        "edge_pairs": [
            {
                "boundary": p.boundary.to_json(),
                "plus": p.plus_side_affine.to_json(),
                "minus": p.minus_side_affine.to_json(),
                "sign": p.sign,
            }
            for p in dec.edge_pairs
        ],
        "tail": dec.tail.to_json(),
    }
