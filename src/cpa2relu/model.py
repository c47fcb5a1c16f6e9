"""Piecewise-affine instances: data model, file format, validation,
sparsification and exact evaluation.

An instance is a subdivision of the plane into closed polygonal pieces
(possibly unbounded, possibly with holes) with one affine function per
piece.  Membership of a point in a piece is decided by the crossing
parity of the segment to the piece's interior witness point, with every
degenerate position resolved by symbolic perturbation (_parity).

Each EdgeRec builds its integer form once: the int_line (A, B, C) of its
hull and its two ends in homogeneous (X, Y, W), W = 0 for an end at
infinity.  Each Piece builds its witness's (X, Y, W) once.  One
predicate, _straddles, asks whether those ends lie on opposite sides of
a line; it decides the crossings in _parity and the edge-pair check in
validate.  _parity, _member_core and edges_at take points in that
homogeneous form, so eval_cpa converts its sample once for every edge
and every piece.

eval_cpa asks _member_core only of the pieces that can hold its sample.
_piece_boxes gives a piece an integer bounding box when its boundary is
closed, made of segments alone, and keeps the far point out; such a
piece holds no point outside its box, so a sample outside it is skipped
exactly.  A piece without a box is always asked.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .errors import (
    ContinuityError,
    DanglingRefError,
    InvalidInputError,
    NoPieceFoundError,
    SchemaError,
)
from .geometry import (
    Direction,
    EdgeGeom,
    Line,
    Point,
    Rat,
    Ray,
    Segment,
    away_direction,
    ccw_sort_directions,
    cross,
    dot,
    edge_base,
    edge_direction,
    homogeneous,
    hull_points,
    int_line,
    line_sign,
    rat_from_json,
    rat_to_json,
    same_direction,
    sign,
    sub,
    translate,
)

@dataclass(frozen=True)
class AffineFunc:
    """f(x, y) = a*x + b*y + c with rational coefficients."""

    a: Rat
    b: Rat
    c: Rat

    def __call__(self, p: Point) -> Rat:
        return self.a * p.x + self.b * p.y + self.c

    def __add__(self, other: "AffineFunc") -> "AffineFunc":
        return AffineFunc(self.a + other.a, self.b + other.b, self.c + other.c)

    def __neg__(self) -> "AffineFunc":
        return AffineFunc(-self.a, -self.b, -self.c)

    def scale(self, t: Rat) -> "AffineFunc":
        return AffineFunc(self.a * t, self.b * t, self.c * t)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def int_form(self) -> tuple[int, int, int, int]:
        """(A, B, C, D) with f = (A*x + B*y + C)/D, D > 0 the lcm of the
        coefficients' denominators: the one such form with
        gcd(A, B, C, D) = 1."""
        (an, ad), (bn, bd), (cn, cd) = (self.a.as_integer_ratio(),
                                        self.b.as_integer_ratio(),
                                        self.c.as_integer_ratio())
        D = math.lcm(ad, bd, cd)
        return (an * (D // ad), bn * (D // bd), cn * (D // cd), D)

    def to_json(self) -> list:
        return [rat_to_json(self.a), rat_to_json(self.b), rat_to_json(self.c)]

    @classmethod
    def from_json(cls, triple) -> "AffineFunc":
        if not isinstance(triple, list) or len(triple) != 3:
            raise SchemaError(f"affine must be a [a, b, c] triple, got {triple!r}")
        return cls(*(rat_from_json(v) for v in triple))


ARC = "arc"
CYCLE = "cycle"


@dataclass(frozen=True)
class BoundaryComponent:
    kind: str  # ARC or CYCLE
    edges: tuple[str, ...]


@dataclass(frozen=True)
class Piece:
    id: str
    affine: AffineFunc
    boundary: tuple[BoundaryComponent, ...]
    witness: Point

    @cached_property
    def int_witness(self) -> tuple[int, int, int]:
        """The witness in homogeneous (X, Y, W), the form _parity takes;
        built once, outside equality and hashing."""
        return homogeneous(self.witness)


@dataclass(frozen=True)
class EdgeRec:
    """An edge and, built once on first use, its integer form: the
    int_line of its hull and its two ends in homogeneous (X, Y, W)."""

    id: str
    geom: EdgeGeom
    pieces: tuple[str, str]
    vertex_ids: tuple[str, ...]  # 2 for segments, 1 for rays, 0 for lines

    @cached_property
    def line(self) -> tuple[int, int, int]:
        return int_line(self.geom)

    @cached_property
    def ends(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """A finite end has W > 0; an end at infinity has W = 0 and lies
        along (B, -A), the edge's direction, or against it."""
        g = self.geom
        if isinstance(g, Segment):
            return homogeneous(g.a), homogeneous(g.b)
        A, B, _ = self.line
        if isinstance(g, Ray):
            return homogeneous(g.v), (B, -A, 0)
        return (-B, A, 0), (B, -A, 0)


class CPAInstance:
    """A validated-or-not piecewise-affine instance with derived indexes."""

    def __init__(self, vertices: dict[str, Point], edges: dict[str, EdgeRec],
                 pieces: dict[str, Piece]):
        self.vertices = dict(sorted(vertices.items()))
        self.edges = dict(sorted(edges.items()))
        self.pieces = dict(sorted(pieces.items()))
        self.vertex_edges: dict[str, tuple[str, ...]] = {
            vid: () for vid in self.vertices}
        for eid, e in self.edges.items():
            for vid in e.vertex_ids:
                self.vertex_edges[vid] = self.vertex_edges.get(vid, ()) + (eid,)
        self.piece_edges: dict[str, tuple[str, ...]] = {}
        for pid, piece in self.pieces.items():
            seen = []
            for comp in piece.boundary:
                seen.extend(comp.edges)
            self.piece_edges[pid] = tuple(sorted(set(seen)))
        self.piece_recs: dict[str, tuple[EdgeRec, ...]] = {
            pid: tuple(self.edges[eid] for eid in eids)
            for pid, eids in self.piece_edges.items()}
        self.piece_vertices: dict[str, tuple[str, ...]] = {}
        for pid, recs in self.piece_recs.items():
            vs: set[str] = set()
            for e in recs:
                vs.update(e.vertex_ids)
            self.piece_vertices[pid] = tuple(sorted(vs))
        # caches filled lazily
        self._edge_sides: dict[str, tuple[str, str]] = {}
        self._stars: dict[str, tuple[tuple, list]] = {}  # for sides
        self._conic_coeffs: dict = {}  # piece id -> sides.ConicCoeff
        self._bbox: tuple[Rat, Rat, Rat, Rat] | None = None
        self._boxes: list | None = None  # _piece_boxes

    @property
    def p(self) -> int:
        return len(self.pieces)

    def bbox(self) -> tuple[Rat, Rat, Rat, Rat]:
        """Axis box spanning twice the instance's coordinate extent."""
        if self._bbox is not None:
            return self._bbox
        pts = list(self.vertices.values())
        pts.extend(p.witness for p in self.pieces.values())
        for e in self.edges.values():
            pts.append(edge_base(e.geom))
        xs = [q.x for q in pts]
        ys = [q.y for q in pts]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        w = xmax - xmin
        h = ymax - ymin
        pad_x = w / 2 if w else Fraction(1)
        pad_y = h / 2 if h else Fraction(1)
        self._bbox = (xmin - pad_x, ymin - pad_y, xmax + pad_x, ymax + pad_y)
        return self._bbox


# ---------------------------------------------------------------------------
# Parsing and serialization

def _parse_point(value, what: str) -> Point:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{what} must be an [x, y] pair, got {value!r}")
    return Point(rat_from_json(value[0]), rat_from_json(value[1]))


def _parse_direction(value, what: str) -> Direction:
    p = _parse_point(value, what)
    if p.x == 0 and p.y == 0:
        raise SchemaError(f"{what} must be nonzero")
    return Direction(p.x, p.y)


def parse_instance(doc) -> CPAInstance:
    """Build an instance from a decoded JSON document.

    Structural problems raise SchemaError; references to missing ids
    raise DanglingRefError.  Semantic problems (broken cover, torn
    continuity, bad witnesses) are left to validate().
    """
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    for key in ("vertices", "edges", "pieces"):
        if key not in doc or not isinstance(doc[key], dict):
            raise SchemaError(f"missing or malformed {key!r} table")

    vertices = {str(vid): _parse_point(v, f"vertex {vid}")
                for vid, v in doc["vertices"].items()}

    edges: dict[str, EdgeRec] = {}
    for eid, e in doc["edges"].items():
        eid = str(eid)
        if not isinstance(e, dict):
            raise SchemaError(f"edge {eid} must be an object")
        kind = e.get("kind")
        if kind == "segment":
            for f in ("a", "b"):
                if f not in e:
                    raise SchemaError(f"segment {eid} missing {f!r}")
            a, b = str(e["a"]), str(e["b"])
            for vid in (a, b):
                if vid not in vertices:
                    raise DanglingRefError(f"edge {eid} references vertex {vid}")
            if vertices[a] == vertices[b]:
                raise SchemaError(f"segment {eid} has coincident endpoints")
            geom: EdgeGeom = Segment(vertices[a], vertices[b])
            vids: tuple[str, ...] = (a, b)
        elif kind == "ray":
            if "v" not in e or "d" not in e:
                raise SchemaError(f"ray {eid} missing 'v' or 'd'")
            v = str(e["v"])
            if v not in vertices:
                raise DanglingRefError(f"edge {eid} references vertex {v}")
            geom = Ray(vertices[v], _parse_direction(e["d"], f"ray {eid} direction"))
            vids = (v,)
        elif kind == "line":
            if "p" not in e or "d" not in e:
                raise SchemaError(f"line {eid} missing 'p' or 'd'")
            geom = Line(_parse_point(e["p"], f"line {eid} base point"),
                        _parse_direction(e["d"], f"line {eid} direction"))
            vids = ()
        else:
            raise SchemaError(f"edge {eid} has unknown kind {kind!r}")
        ps = e.get("pieces")
        if not isinstance(ps, list) or len(ps) != 2:
            raise SchemaError(f"edge {eid} must list exactly two pieces")
        p0, p1 = str(ps[0]), str(ps[1])
        if p0 == p1:
            raise SchemaError(f"edge {eid} lists the same piece on both sides")
        edges[eid] = EdgeRec(eid, geom, (p0, p1), vids)

    pieces: dict[str, Piece] = {}
    for pid, p in doc["pieces"].items():
        pid = str(pid)
        if not isinstance(p, dict):
            raise SchemaError(f"piece {pid} must be an object")
        if "affine" not in p or "witness" not in p:
            raise SchemaError(f"piece {pid} missing 'affine' or 'witness'")
        affine = AffineFunc.from_json(p["affine"])
        witness = _parse_point(p["witness"], f"piece {pid} witness")
        boundary = p.get("boundary", [])
        if not isinstance(boundary, list):
            raise SchemaError(f"piece {pid} boundary must be a list")
        comps = []
        for comp in boundary:
            if (not isinstance(comp, dict) or "kind" not in comp
                    or not isinstance(comp.get("edges"), list)):
                raise SchemaError(f"piece {pid} has a malformed boundary component")
            kind = comp["kind"]
            if kind not in (ARC, CYCLE):
                raise SchemaError(f"piece {pid}: unknown component kind {kind!r}")
            ceids = [str(x) for x in comp["edges"]]
            if not ceids:
                raise SchemaError(f"piece {pid} has an empty boundary component")
            for ceid in ceids:
                if ceid not in edges:
                    raise DanglingRefError(f"piece {pid} references edge {ceid}")
            comps.append(BoundaryComponent(kind, tuple(ceids)))
        pieces[pid] = Piece(pid, affine, tuple(comps), witness)

    for eid, e in edges.items():
        for pid in e.pieces:
            if pid not in pieces:
                raise DanglingRefError(f"edge {eid} references piece {pid}")
    if not pieces:
        raise SchemaError("instance has no pieces")
    return CPAInstance(vertices, edges, pieces)


def serialize_instance(inst: CPAInstance) -> dict:
    """Canonical JSON form; parse_instance round-trips it exactly."""
    doc: dict = {"vertices": {}, "edges": {}, "pieces": {}}
    for vid, v in sorted(inst.vertices.items()):
        doc["vertices"][vid] = [rat_to_json(v.x), rat_to_json(v.y)]
    for eid, e in sorted(inst.edges.items()):
        g = e.geom
        if isinstance(g, Segment):
            rec = {"kind": "segment", "a": e.vertex_ids[0], "b": e.vertex_ids[1]}
        elif isinstance(g, Ray):
            rec = {"kind": "ray", "v": e.vertex_ids[0],
                   "d": [rat_to_json(g.d.dx), rat_to_json(g.d.dy)]}
        else:
            rec = {"kind": "line",
                   "p": [rat_to_json(g.p.x), rat_to_json(g.p.y)],
                   "d": [rat_to_json(g.d.dx), rat_to_json(g.d.dy)]}
        rec["pieces"] = list(e.pieces)
        doc["edges"][eid] = rec
    for pid, piece in sorted(inst.pieces.items()):
        doc["pieces"][pid] = {
            "affine": piece.affine.to_json(),
            "witness": [rat_to_json(piece.witness.x), rat_to_json(piece.witness.y)],
            "boundary": [{"kind": c.kind, "edges": list(c.edges)}
                         for c in piece.boundary],
        }
    return doc


# ---------------------------------------------------------------------------
# Membership by crossing parity

GENERIC = ((1, 0), (0, 1))


def _tiebreak(A: int, B: int, nudge) -> int:
    """Sign of A*x + B*y + C at a point on that line once the point moves
    by eps*n1 + eps**2*n2: the first nonzero of (A, B).n1 and (A, B).n2."""
    (u1, v1), (u2, v2) = nudge
    return sign(A * u1 + B * v1) or sign(A * u2 + B * v2)


def _straddles(e: EdgeRec, A: int, B: int, C: int, tie: int) -> bool:
    """Whether the edge's two ends lie on opposite sides of the line
    A*x + B*y + C = 0, an end on it counting as on side tie.  An end at
    infinity (W = 0) takes the side the line's value heads to along it."""
    (X0, Y0, W0), (X1, Y1, W1) = e.ends
    s0 = A * X0 + B * Y0 + C * W0
    s1 = A * X1 + B * Y1 + C * W1
    return ((s0 > 0) - (s0 < 0) or tie) != ((s1 > 0) - (s1 < 0) or tie)


def _parity(edges, hx: tuple[int, int, int], hw: tuple[int, int, int],
            nudge=GENERIC) -> int:
    """Crossing parity (0 or 1) of the segment x-w against EdgeRecs, the
    points x and w given in homogeneous form (geometry.homogeneous).

    Both endpoints move by eps*n1 + eps**2*n2, nudge = (n1, n2) two
    independent integer vectors, for an infinitesimal eps > 0 (simulation
    of simplicity, Edelsbrunner and Muecke 1990).  The moved segment
    then touches no vertex and runs along no edge, so every position
    gives an answer and no path is retried.  A sign that vanishes at
    eps = 0 is read off the first nonzero term of the motion; the moved
    segment crosses an edge when its endpoints lie on opposite sides of
    the edge's line and the edge's ends, at infinity included, lie on
    opposite sides of the moved segment's line (_straddles).  Integer
    arithmetic only.
    """
    (X1, Y1, W1), (X2, Y2, W2) = hx, hw
    if X1 * W2 == X2 * W1 and Y1 * W2 == Y2 * W1:
        return 0
    through = None
    count = 0
    for e in edges:
        A, B, C = e.line
        sx = line_sign(A, B, C, X1, Y1, W1)
        sw = line_sign(A, B, C, X2, Y2, W2)
        if sx == sw:
            continue
        if not (sx and sw):
            t = _tiebreak(A, B, nudge)
            if (sx or t) == (sw or t):
                continue
        if through is None:
            # the cross product of x and w: zero on the line through
            # them and positive to its left; an edge end on it sees that
            # line move by the nudge, so its tiebreak is negated
            A2, B2 = Y1 * W2 - W1 * Y2, W1 * X2 - X1 * W2
            through = (A2, B2, X1 * Y2 - Y1 * X2, -_tiebreak(A2, B2, nudge))
        count += _straddles(e, *through)
    return count & 1


def _member_core(inst: CPAInstance, pid: str, hx: tuple[int, int, int],
                 nudge=GENERIC) -> bool:
    """Whether x, given in homogeneous form hx and moved by the nudge
    (see _parity), lies in the piece: even crossing parity to the
    piece's witness.  x must be off the piece's boundary, or the nudge
    must carry it off."""
    return _parity(inst.piece_recs[pid], hx, inst.pieces[pid].int_witness,
                   nudge) == 0


# ---------------------------------------------------------------------------
# Edge orientation: which piece lies on each side of each edge

def _edge_interior_point(g: EdgeGeom) -> Point:
    """A segment's midpoint, or the point one direction step from the
    base of a ray or line."""
    if isinstance(g, Segment):
        return Point((g.a.x + g.b.x) / 2, (g.a.y + g.b.y) / 2)
    return translate(edge_base(g), g.d)


def edge_sides(inst: CPAInstance, eid: str) -> tuple[str, str]:
    """(left, right): the declared pieces on the positive and on the
    negative side of the edge's line (A, B, C).

    The only membership probe beside an edge: both declared pieces are
    tested at the edge's interior point nudged to the left of the edge,
    by eps*(A, B) + eps**2*(-B, A).  Raises InvalidInputError when the
    edge is missing from either piece's boundary, or when both pieces
    give the same answer there.  Cached per edge.
    """
    sides = inst._edge_sides.get(eid)
    if sides is not None:
        return sides
    e = inst.edges[eid]
    q, r = e.pieces
    for pid in e.pieces:
        if eid not in inst.piece_edges[pid]:
            raise InvalidInputError(
                f"edge {eid} is missing from the boundary of piece {pid}")
    A, B, _ = e.line
    nudge = ((A, B), (-B, A))
    hm = homogeneous(_edge_interior_point(e.geom))
    in_q = _member_core(inst, q, hm, nudge)
    in_r = _member_core(inst, r, hm, nudge)
    if in_q == in_r:
        raise InvalidInputError(
            f"pieces {q} and {r} are not on opposite sides of edge {eid}")
    sides = (q, r) if in_q else (r, q)
    inst._edge_sides[eid] = sides
    return sides


def vertex_star(inst: CPAInstance,
                vid: str) -> list[tuple[Direction, str, str]]:
    """The edges at a vertex in CCW order of their direction away from
    it: (direction, ccw_piece, cw_piece) with the pieces just
    counterclockwise and just clockwise of each.

    An edge leaving the vertex along its own direction has its left
    piece counterclockwise; a segment arriving at its end b has it
    clockwise.
    """
    v = inst.vertices[vid]
    eids = inst.vertex_edges[vid]
    dirs = [away_direction(inst.edges[eid].geom, v) for eid in eids]
    star = []
    for i in ccw_sort_directions(v, dirs):
        left, right = edge_sides(inst, eids[i])
        g = inst.edges[eids[i]].geom
        if isinstance(g, Segment) and g.b == v:
            left, right = right, left
        star.append((dirs[i], left, right))
    return star


def _span(g: EdgeGeom, A: int, B: int) -> tuple[Rat | None, Rat | None]:
    """(lo, hi): the positions t(q) = B*q.x - A*q.y that the edge covers
    along (B, -A), which must be parallel to it; None marks an end at
    infinity."""
    if isinstance(g, Line):
        return (None, None)
    if isinstance(g, Segment):
        ta, tb = B * g.a.x - A * g.a.y, B * g.b.x - A * g.b.y
        return (min(ta, tb), max(ta, tb))
    tv = B * g.v.x - A * g.v.y
    return (tv, None) if B * g.d.dx - A * g.d.dy > 0 else (None, tv)


def edges_at(inst: CPAInstance, hx: tuple[int, int, int],
             edge_ids) -> list[str]:
    """The edges among edge_ids that contain the point x = (X/W, Y/W),
    given as hx = (X, Y, W), ends included.

    x is on an edge when it is on the edge's line (A, B, C) and its
    position B*x - A*y along the edge lies between those of the edge's
    two ends (EdgeRec.ends); an end at infinity lies at +infinity or
    -infinity along (B, -A).  Integers only.
    """
    X, Y, W = hx
    found = []
    for eid in edge_ids:
        e = inst.edges[eid]
        A, B, C = e.line
        if A * X + B * Y + C * W != 0:
            continue
        t = B * X - A * Y
        (X0, Y0, W0), (X1, Y1, W1) = e.ends
        s0 = (B * X0 - A * Y0) * W - t * W0
        s1 = (B * X1 - A * Y1) * W - t * W1
        if s0 * s1 <= 0:
            found.append(eid)
    return found


def _pieces_at(inst: CPAInstance, x: Point,
               hx: tuple[int, int, int]) -> dict[str, Rat]:
    """Pieces touching x (hx its homogeneous form) through an edge or
    vertex, with their values."""
    found: dict[str, Rat] = {}
    for eid in edges_at(inst, hx, inst.edges):
        for pid in inst.edges[eid].pieces:
            found[pid] = inst.pieces[pid].affine(x)
    return found


def far_point(inst: CPAInstance) -> tuple[int, int, int]:
    """(xmax + 1, ymax + 2) of inst.bbox() in homogeneous form: outside
    every region bounded by segments alone, whose vertices bbox() covers,
    so outside each piece box and each cycle (sides.point_in_cycle)."""
    bx = inst.bbox()
    return homogeneous(Point(bx[2] + 1, bx[3] + 2))


def _piece_boxes(inst: CPAInstance) -> list[tuple[str, tuple | None]]:
    """One (pid, box) pair per piece, in piece order, built on first use
    and cached on the instance.  box is the piece's integer bounding box
    (floor xmin, floor ymin, ceil xmax, ceil ymax) over the ends of its
    edges, or None when the piece may hold points outside it.

    A piece gets a box only when all three of these hold:
    - every edge of the piece is a Segment;
    - every end point of those segments is the end of an even number of
      them, so the boundary is closed (a cycle mod 2);
    - _member_core puts far_point, which lies outside every box, outside
      the piece.

    Such a piece holds no point outside its box.  The plane minus the
    closed box is connected and meets no edge of the piece.  Two points
    joined by a path that crosses no edge get the same crossing parity
    to the witness (_parity): the two parities differ by the crossings
    of a closed curve with a closed boundary, an even number.  So every
    point outside the box gets the far point's answer: not in the
    piece.  The even-degree condition keeps this true on unvalidated
    input, where a dangling segment would make the parity depend on the
    path taken; the far-point condition leaves out a piece that holds
    everything outside a closed boundary, such as an outer piece.
    """
    if inst._boxes is not None:
        return inst._boxes
    far = far_point(inst)
    boxes = []
    for pid, recs in inst.piece_recs.items():
        ends = [h for e in recs for h in e.ends]
        box = None
        if (all(isinstance(e.geom, Segment) for e in recs)
                and all(k % 2 == 0 for k in Counter(ends).values())
                and not _member_core(inst, pid, far)):
            box = (min(X // W for X, _, W in ends),
                   min(Y // W for _, Y, W in ends),
                   max(-(-X // W) for X, _, W in ends),
                   max(-(-Y // W) for _, Y, W in ends))
        boxes.append((pid, box))
    inst._boxes = boxes
    return boxes


def eval_cpa(inst: CPAInstance, x: Point) -> Rat:
    """Exact value of the instance's function at x.

    Points on edges are evaluated through every incident piece and the
    values are cross-checked; interior points go through the membership
    oracle, _member_core, which is asked only of the pieces whose box
    (_piece_boxes) holds x, ends included, and of the pieces without a
    box.  A piece holds no point outside its box, so skipping it there
    changes no answer.  x is converted to homogeneous form once, for
    every edge, box and piece.
    """
    hx = homogeneous(x)
    touching = _pieces_at(inst, x, hx)
    if touching:
        vals = set(touching.values())
        if len(vals) != 1:
            raise ContinuityError(
                f"incident pieces disagree at {x}: {sorted(touching.items())}")
        return vals.pop()
    X, Y, W = hx
    matches = []
    for pid, box in _piece_boxes(inst):
        if box is not None:
            xlo, ylo, xhi, yhi = box
            if not (xlo * W <= X <= xhi * W and ylo * W <= Y <= yhi * W):
                continue
        if _member_core(inst, pid, hx):
            matches.append(pid)
    if len(matches) != 1:
        raise NoPieceFoundError(
            f"point {x} lies in {len(matches)} pieces; the cover is broken")
    return inst.pieces[matches[0]].affine(x)


# ---------------------------------------------------------------------------
# Validation

@dataclass
class CheckResult:
    name: str
    passed: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"name": c.name, "passed": c.passed,
                            "failures": c.failures} for c in self.checks]}


def _edges_intersect_cleanly(e1: EdgeRec, e2: EdgeRec,
                             allowed) -> str | None:
    """None when two edges meet only at allowed points, the vertices
    they share; otherwise a description of the offending overlap."""
    (A1, B1, C1), (A2, B2, C2) = L1, L2 = e1.line, e2.line
    det = A1 * B2 - B1 * A2
    if det != 0:
        # the lines meet in one point, which is any shared vertex; each
        # edge reaches it when its ends lie on both sides of, or on, the
        # other edge's line
        if allowed or not (_straddles(e1, *L2, 0) and _straddles(e2, *L1, 0)):
            return None
        z = Point(Fraction(B1 * C2 - B2 * C1, det),
                  Fraction(A2 * C1 - A1 * C2, det))
        return f"edges cross at {z}"
    # int_line is gcd-reduced, so one line has exactly the forms L, -L
    if L2 != L1 and L2 != (-A1, -B1, -C1):
        return None
    lo1, hi1 = _span(e1.geom, A1, B1)
    lo2, hi2 = _span(e2.geom, A1, B1)
    lo = lo1 if lo2 is None else lo2 if lo1 is None else max(lo1, lo2)
    hi = hi1 if hi2 is None else hi2 if hi1 is None else min(hi1, hi2)
    if lo is None or hi is None or lo < hi:
        return "edges overlap along a common line"
    if lo > hi:
        return None
    # the point of line 1 at position lo
    n = A1 * A1 + B1 * B1
    z = Point((B1 * lo - A1 * C1) / n, (-A1 * lo - B1 * C1) / n)
    if z not in allowed:
        return f"collinear edges touch at non-vertex {z}"
    return None


def _pairs_that_can_meet(recs: list[EdgeRec]) -> list[tuple[int, int]]:
    """The index pairs (i, j), i < j, in increasing order, of the edges
    that can share a point: every pair with a ray or a line in it, and
    the segment pairs whose bounding boxes overlap, ends included.

    Two segments whose boxes are disjoint cannot meet, so dropping
    those pairs is exact.  The boxes are taken on the floors of the
    coordinates, a monotone map, so boxes that overlap still overlap
    (and more may); for integer coordinates they are the exact boxes.
    The boxes are sorted by their left sides; a box meets, among those
    after it, only the ones that start before its right side does, and
    of those the ones whose y-ranges overlap its own.
    """
    n = len(recs)
    boxes = []
    keys = set()  # i * n + j for a pair i < j
    for i, e in enumerate(recs):
        if not isinstance(e.geom, Segment):
            keys.update(min(i, j) * n + max(i, j) for j in range(n) if j != i)
            continue
        (X0, Y0, W0), (X1, Y1, W1) = e.ends
        x0, x1, y0, y1 = X0 // W0, X1 // W1, Y0 // W0, Y1 // W1
        boxes.append((min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1), i))
    boxes.sort()
    lefts = [b[0] for b in boxes]
    for a, (_, x1, y0, y1, i) in enumerate(boxes):
        keys.update(i * n + j if i < j else j * n + i
                    for _, _, v0, v1, j in boxes[a + 1:bisect_right(lefts, x1)]
                    if v0 <= y1 and y0 <= v1)
    return [divmod(k, n) for k in sorted(keys)]


def _chain_check(inst: CPAInstance, pid: str, comp: BoundaryComponent) -> list[str]:
    """Well-formedness of one boundary component's edge chain."""
    errs: list[str] = []
    recs = [inst.edges[eid] for eid in comp.edges]
    kinds = [type(r.geom).__name__ for r in recs]
    where = f"piece {pid} component {list(comp.edges)}"
    if comp.kind == CYCLE:
        if len(recs) < 3:
            return [f"{where}: cycle needs at least 3 edges"]
        if any(k != "Segment" for k in kinds):
            return [f"{where}: cycles may only contain segments"]
    else:
        if len(recs) == 1 and kinds[0] == "Line":
            return []
        if len(recs) < 2 or kinds[0] != "Ray" or kinds[-1] != "Ray":
            return [f"{where}: arc must be a single line or start and end in rays"]
        if any(k != "Segment" for k in kinds[1:-1]):
            return [f"{where}: arc interior may only contain segments"]
    junctions = []
    pairs = list(zip(recs, recs[1:]))
    if comp.kind == CYCLE:
        pairs.append((recs[-1], recs[0]))
    for r1, r2 in pairs:
        shared = set(r1.vertex_ids) & set(r2.vertex_ids)
        if len(shared) != 1:
            errs.append(f"{where}: {r1.id} and {r2.id} do not chain")
            return errs
        junctions.append(shared.pop())
    if len(set(junctions)) != len(junctions):
        errs.append(f"{where}: chain revisits a vertex")
    for i, rec in enumerate(recs):
        if comp.kind == CYCLE:
            expect = {junctions[i - 1], junctions[i]}
        else:
            if i == 0:
                expect = {junctions[0]}
            elif i == len(recs) - 1:
                expect = {junctions[-1]}
            else:
                expect = {junctions[i - 1], junctions[i]}
        if set(rec.vertex_ids) != expect:
            errs.append(f"{where}: edge {rec.id} endpoints break the chain")
    return errs


def validate(inst: CPAInstance) -> ValidationReport:
    """Run all instance admissibility checks and collect the outcomes.

    Every check is exact; none samples, and the geometric ones run on
    integer forms: continuity on the pieces' AffineFunc.int_form at each
    edge's homogeneous hull points, edge pairs and witnesses against the
    edges' int_lines by integer signs alone; a point is constructed only
    to report a failure.  Only the edge pairs _pairs_that_can_meet returns
    are tested, in index order, so the failures keep the order of the
    all-pairs loop.  Witness separation probes the first piece's witness
    against each other piece, and the cover check orients every edge
    with edge_sides: (p - 1) + 2|E| membership probes.
    """
    checks: list[CheckResult] = []

    # (a) continuity: adjacent affines agree on each edge's hull, at its
    # two hull points (hull_points) in homogeneous form: the edge's base
    # and its far end, which for a ray or line is the direction at
    # infinity (W = 0), where the affines' slopes are compared
    fails: list[str] = []
    forms = {pid: piece.affine.int_form() for pid, piece in inst.pieces.items()}
    for eid, e in inst.edges.items():
        (a1, b1, c1, d1), (a2, b2, c2, d2) = (forms[pid] for pid in e.pieces)
        h0, h1 = e.ends
        if isinstance(e.geom, Line):
            h0 = homogeneous(e.geom.p)
        for k, (X, Y, W) in enumerate((h0, h1)):
            if (a1 * X + b1 * Y + c1 * W) * d2 != (a2 * X + b2 * Y + c2 * W) * d1:
                fails.append(f"edge {eid}: affines differ at "
                             f"{hull_points(e.geom)[k]}")
                break
    checks.append(CheckResult("continuity", not fails, fails))

    # (b) each edge bounds exactly its two declared pieces
    fails = []
    listed: dict[str, set[str]] = {eid: set() for eid in inst.edges}
    for pid, piece in inst.pieces.items():
        for comp in piece.boundary:
            for eid in comp.edges:
                listed[eid].add(pid)
    for eid, e in inst.edges.items():
        if listed[eid] != set(e.pieces):
            fails.append(f"edge {eid}: declared pieces {sorted(e.pieces)} but "
                         f"appears in boundaries of {sorted(listed[eid])}")
    checks.append(CheckResult("edge_pieces", not fails, fails))

    # (c) vertex consistency
    fails = []
    for vid in inst.vertices:
        if not inst.vertex_edges.get(vid):
            fails.append(f"vertex {vid} is not used by any edge")
    by_coord: dict[Point, str] = {}
    for vid, v in inst.vertices.items():
        if v in by_coord:
            fails.append(f"vertices {by_coord[v]} and {vid} coincide at {v}")
        by_coord[v] = vid
    checks.append(CheckResult("vertex_consistency", not fails, fails))

    # (d) boundary component well-formedness and clean edge intersections
    fails = []
    for pid, piece in inst.pieces.items():
        seen: set[str] = set()
        for comp in piece.boundary:
            fails.extend(_chain_check(inst, pid, comp))
            for eid in comp.edges:
                if eid in seen:
                    fails.append(f"piece {pid}: edge {eid} repeated in boundary")
                seen.add(eid)
    recs = list(inst.edges.items())
    for i, j in _pairs_that_can_meet([r for _, r in recs]):
        (e1, r1), (e2, r2) = recs[i], recs[j]
        shared = [inst.vertices[v] for v in r1.vertex_ids
                  if v in r2.vertex_ids]
        msg = _edges_intersect_cleanly(r1, r2, shared)
        if msg is not None:
            fails.append(f"{e1} vs {e2}: {msg}")
    lines = {e.line for e in inst.edges.values()}
    for pid, piece in inst.pieces.items():
        X, Y, W = piece.int_witness
        if 0 not in [A * X + B * Y + C * W for A, B, C in lines]:
            continue
        for eid, e in inst.edges.items():
            if line_sign(*e.line, X, Y, W) == 0:
                fails.append(f"piece {pid}: witness {piece.witness} "
                             f"lies on hull of {eid}")
                break
    checks.append(CheckResult("boundary_components", not fails, fails))

    # (e) and (f) prove, given (b) and (d), that every point off the
    # edges lies in exactly one piece.  Membership in a piece is the
    # crossing parity against its boundary, so by (b) crossing an edge
    # flips membership in exactly the edge's two declared pieces.  (e):
    # the first piece's witness, off every hull by (d), lies in that
    # piece and in no other.  (f): each edge has its two pieces on
    # opposite sides, so on either side exactly one of them holds the
    # point, and crossing the edge keeps the count of pieces holding it
    # at one.  Faces of the plane minus the edges are connected through
    # edge crossings, so by induction from the witness's face every
    # face, and every point off the edges, lies in exactly one piece.
    fails = []
    first, *others = inst.pieces
    hw = inst.pieces[first].int_witness
    for pid in others:
        if _member_core(inst, pid, hw):
            fails.append(f"witness of {first} is not separated from {pid}")
    checks.append(CheckResult("witness_separation", not fails, fails))

    fails = []
    for eid in inst.edges:
        try:
            edge_sides(inst, eid)
        except InvalidInputError as exc:
            fails.append(str(exc))
    checks.append(CheckResult("cover", not fails, fails))

    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Sparsification

def _merged_geom(g1: EdgeGeom, g2: EdgeGeom, at: Point) -> EdgeGeom:
    """Join two collinear edges sharing the vertex at; the vertex goes away."""
    if isinstance(g1, Ray) and isinstance(g2, Ray):
        if not (cross(g1.d, g2.d) == 0 and dot(g1.d, g2.d) < 0):
            raise InvalidInputError("degree-2 rays are not opposite")
        return Line(at, g1.d)
    if isinstance(g2, Segment) and not isinstance(g1, Segment):
        g1, g2 = g2, g1
    a = g1.b if g1.a == at else g1.a
    if isinstance(g2, Segment):
        b = g2.b if g2.a == at else g2.a
        if not same_direction(sub(at, a), sub(b, at)):
            raise InvalidInputError("degree-2 segments are not collinear")
        return Segment(a, b)
    if not same_direction(sub(at, a), g2.d):
        raise InvalidInputError("degree-2 segment and ray are not collinear")
    return Ray(a, g2.d)


def _trace_components(edges: dict[str, tuple[EdgeGeom, tuple[str, ...]]],
                      forward: dict[str, bool],
                      ) -> list[BoundaryComponent]:
    """Recover the boundary components of a piece from its edge set.

    forward[eid] says whether the piece lies on the left of the edge's
    direction (the positive side of its int_line), as edge_sides
    reports it; lines need no entry.  Each line is an arc of its own.
    The other edges are walked with the piece on the left: at each
    vertex the walk takes the first outgoing edge clockwise of the way
    back, in the order ccw_sort_directions gives, which raises
    DuplicateDirectionError when two of those directions coincide.  The
    resulting closed or bi-infinite walks are split into simple
    components at repeated vertices.
    """
    geoms = {eid: g for eid, (g, _) in edges.items()}
    vids = {eid: vs for eid, (_, vs) in edges.items()}
    components = [BoundaryComponent(ARC, (eid,)) for eid in sorted(geoms)
                  if isinstance(geoms[eid], Line)]
    walked = [eid for eid in sorted(geoms) if not isinstance(geoms[eid], Line)]

    # half-edge walk
    def tail_head(eid: str) -> tuple[str | None, str | None]:
        g = geoms[eid]
        if isinstance(g, Segment):
            a, b = vids[eid]
            return (a, b) if forward[eid] else (b, a)
        v = vids[eid][0]
        return (v, None) if forward[eid] else (None, v)

    def travel_dir(eid: str) -> Direction:
        d = edge_direction(geoms[eid])
        return d if forward[eid] else -d

    outgoing: dict[str, list[str]] = {}
    for eid in walked:
        t, _ = tail_head(eid)
        if t is not None:
            outgoing.setdefault(t, []).append(eid)

    def next_edge(eid: str) -> str | None:
        _, head = tail_head(eid)
        if head is None:
            return None
        cands = outgoing.get(head, [])
        if not cands:
            raise InvalidInputError(f"boundary walk dead-ends at vertex {head}")
        # the first outgoing edge clockwise of the way back
        order = ccw_sort_directions(
            head, [-travel_dir(eid)] + [travel_dir(c) for c in cands])
        return cands[order[order.index(0) - 1] - 1]

    used: set[str] = set()

    def walk(start: str, closed: bool):
        stack: list[tuple[str, str | None]] = []
        seen: dict[str, int] = {}
        if closed:
            t, _ = tail_head(start)
            seen[t] = -1
        eid: str | None = start
        while eid is not None:
            if eid in used:
                raise InvalidInputError("boundary walk reuses an edge")
            used.add(eid)
            _, head = tail_head(eid)
            stack.append((eid, head))
            if head is None:
                break
            if head in seen:
                i = seen[head]
                cyc = stack[i + 1:]
                del stack[i + 1:]
                for _, u in cyc[:-1]:
                    if u is not None:
                        seen.pop(u, None)
                components.append(BoundaryComponent(
                    CYCLE, tuple(e for e, _ in cyc)))
            else:
                seen[head] = len(stack) - 1
            eid = next_edge(eid)
            if eid == start:
                # not at the first return to the start vertex: the
                # boundary may pass through it more than once
                break
        if stack:
            components.append(BoundaryComponent(ARC, tuple(e for e, _ in stack)))

    # arcs start at inbound rays, cycles at any unused segment half-edge
    for eid in walked:
        if isinstance(geoms[eid], Ray) and eid not in used:
            t, _ = tail_head(eid)
            if t is None:
                walk(eid, closed=False)
    for eid in walked:
        if eid not in used:
            walk(eid, closed=True)
    return components


def sparsify(inst: CPAInstance, *, skip_validation: bool = False) -> CPAInstance:
    """Collapse redundant structure without changing the function.

    Pass 1 is one union-find over the edges: pieces joined by an edge
    whose two affines coincide form a group, kept under its smallest
    piece id and that piece's witness; edges inside a group and vertices
    left with no edges go.  Pass 2 is one sweep over the sorted vertex
    ids that joins the two collinear edges at each degree-2 vertex into
    a new edge m0, m1, ...; a contraction changes no other vertex's
    degree or away-directions, so one sweep finds them all.  A degree-2
    vertex with a genuine corner (square corners, say) stays.  Pieces
    either pass changed are retraced; the others keep their declared
    boundary.  The result has at most the original number of pieces and
    at most 3p edges.
    """
    if not skip_validation:
        report = validate(inst)
        if not report.ok:
            bad = [c.name for c in report.checks if not c.passed]
            raise InvalidInputError(f"instance fails validation: {bad}")

    # pass 1: merge pieces joined by an edge whose two affines coincide
    group = {pid: pid for pid in inst.pieces}

    def find(pid: str) -> str:
        while group[pid] != pid:
            group[pid] = group[group[pid]]
            pid = group[pid]
        return pid

    for e in inst.edges.values():
        a, b = e.pieces
        if inst.pieces[a].affine == inst.pieces[b].affine:
            keep, drop = sorted((find(a), find(b)))
            group[drop] = keep
    changed = {find(pid) for pid in inst.pieces if find(pid) != pid}
    egeom: dict[str, EdgeGeom] = {}
    evids: dict[str, tuple[str, ...]] = {}
    epieces: dict[str, tuple[str, str]] = {}
    incident: dict[str, list[str]] = {}
    for eid, e in inst.edges.items():
        a, b = find(e.pieces[0]), find(e.pieces[1])
        if a != b:
            egeom[eid], evids[eid], epieces[eid] = e.geom, e.vertex_ids, (a, b)
            for v in e.vertex_ids:
                incident.setdefault(v, []).append(eid)
    vertices = {vid: inst.vertices[vid] for vid in incident}

    # pass 2: remove degree-2 vertices whose incident edges are collinear.
    # origin maps a merged edge to the input edge its first part e1 came
    # from, and whether its int_line runs against that edge's.  Renaming
    # and merging keep the positions in each pieces pair, so left_piece
    # can read the left piece off the input edge's edge_sides.
    origin: dict[str, tuple[str, int]] = {}
    counter = 0
    for vid in sorted(incident):
        if len(incident[vid]) != 2:
            continue
        e1, e2 = sorted(incident[vid])
        f1, f2 = (away_direction(egeom[e], vertices[vid]) for e in (e1, e2))
        if not (cross(f1, f2) == 0 and dot(f1, f2) < 0):
            continue
        if set(epieces[e1]) != set(epieces[e2]):
            raise InvalidInputError(
                f"degree-2 vertex {vid} separates different piece pairs")
        merged = _merged_geom(egeom[e1], egeom[e2], vertices[vid])
        while f"m{counter}" in egeom:
            counter += 1
        mid = f"m{counter}"
        counter += 1
        egeom[mid] = merged
        evids[mid] = tuple(v for v in (*evids[e1], *evids[e2]) if v != vid)
        epieces[mid] = epieces[e1]
        src, flip = origin.get(e1, (e1, 0))
        origin[mid] = (src, flip ^ (int_line(merged) != int_line(egeom[e1])))
        for v in evids[mid]:
            incident[v] = [mid if e in (e1, e2) else e for e in incident[v]]
        changed.update(epieces[mid])
        del egeom[e1], evids[e1], epieces[e1]
        del egeom[e2], evids[e2], epieces[e2]
        del vertices[vid]

    def left_piece(eid: str) -> str:
        src, flip = origin.get(eid, (eid, 0))
        left = edge_sides(inst, src)[0]
        return epieces[eid][inst.edges[src].pieces.index(left) ^ flip]

    pieces: dict[str, Piece] = {}
    for pid, p in inst.pieces.items():
        if find(pid) != pid:
            continue
        if pid in changed:
            eset = {e: (egeom[e], evids[e]) for e in sorted(egeom)
                    if pid in epieces[e]}
            forward = {e: left_piece(e) == pid for e in eset
                       if not isinstance(egeom[e], Line)}
            p = replace(p, boundary=tuple(_trace_components(eset, forward)))
        pieces[pid] = p

    edges = {eid: EdgeRec(eid, egeom[eid], epieces[eid], evids[eid])
             for eid in egeom}
    return CPAInstance(vertices, edges, pieces)
