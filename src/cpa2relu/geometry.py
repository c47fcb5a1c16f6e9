"""Exact plane geometry over rationals.

Everything in this module is computed with fractions.Fraction; no floats,
no epsilons.  Two equal directions at a vertex raise
DuplicateDirectionError.  Point-edge questions are decided on an edge's
integer line (int_line) in model: model.edges_at for whether a point is
on an edge, model._parity for crossing parity, where degenerate
positions are resolved by symbolic perturbation.  orientation stays as
the Fraction reference the tests check those integer predicates against.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DuplicateDirectionError, SchemaError

Rat = Fraction


def rat_from_json(value) -> Rat:
    """Parse a rational literal: a JSON integer or a "num/den" string.

    Floats are rejected so that no inexact value can sneak into an
    instance file.
    """
    if isinstance(value, bool):
        raise SchemaError(f"expected rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            r = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {value!r}") from exc
        return r
    raise SchemaError(f"expected rational, got {type(value).__name__} {value!r}")


def rat_to_json(r: Rat):
    """Serialize a rational as an int when possible, else "num/den"."""
    if r.denominator == 1:
        return int(r)
    return f"{r.numerator}/{r.denominator}"


def sign(r) -> int:
    if r > 0:
        return 1
    if r < 0:
        return -1
    return 0


@dataclass(frozen=True, slots=True)
class Point:
    x: Rat
    y: Rat


@dataclass(frozen=True, slots=True)
class Direction:
    """A nonzero displacement.  Never normalized; compared by cross/dot."""

    dx: Rat
    dy: Rat

    def __neg__(self) -> "Direction":
        return Direction(-self.dx, -self.dy)


def pt(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


def dr(dx, dy) -> Direction:
    return Direction(Fraction(dx), Fraction(dy))


def sub(p: Point, q: Point) -> Direction:
    """Direction from q to p."""
    return Direction(p.x - q.x, p.y - q.y)


def translate(p: Point, d: Direction, t: Rat = Fraction(1)) -> Point:
    return Point(p.x + t * d.dx, p.y + t * d.dy)


def cross(u: Direction, v: Direction) -> Rat:
    return u.dx * v.dy - u.dy * v.dx


def dot(u: Direction, v: Direction) -> Rat:
    return u.dx * v.dx + u.dy * v.dy


def perp(d: Direction) -> Direction:
    """d rotated a quarter turn counterclockwise."""
    return Direction(-d.dy, d.dx)


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p).

    +1 means the triple makes a left turn, -1 a right turn, 0 collinear.
    """
    return sign((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def same_direction(u: Direction, v: Direction) -> bool:
    """True when v is a positive multiple of u."""
    return cross(u, v) == 0 and dot(u, v) > 0


# ---------------------------------------------------------------------------
# Edges

@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point


@dataclass(frozen=True)
class Ray:
    v: Point
    d: Direction


@dataclass(frozen=True)
class Line:
    p: Point
    d: Direction


EdgeGeom = Segment | Ray | Line


def edge_direction(e: EdgeGeom) -> Direction:
    if isinstance(e, Segment):
        return sub(e.b, e.a)
    return e.d


def edge_base(e: EdgeGeom) -> Point:
    if isinstance(e, Segment):
        return e.a
    if isinstance(e, Ray):
        return e.v
    return e.p


def away_direction(e: EdgeGeom, v: Point) -> Direction:
    """Direction of the edge leaving its vertex v (a segment end or a
    ray's apex)."""
    if isinstance(e, Segment):
        return sub(e.b if e.a == v else e.a, v)
    return e.d


def hull_points(e: EdgeGeom) -> tuple[Point, Point]:
    """Two distinct points spanning the affine hull of the edge."""
    p = edge_base(e)
    return p, translate(p, edge_direction(e))


# ---------------------------------------------------------------------------
# CCW ordering of directions

def _half(d: Direction) -> int:
    """0 for angles in [0, pi), 1 for [pi, 2pi), measured from +x axis."""
    if d.dy > 0 or (d.dy == 0 and d.dx > 0):
        return 0
    return 1


def _ccw_cmp(u: Direction, v: Direction) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def ccw_sort_directions(center: Point | str,
                        dirs: list[Direction]) -> list[int]:
    """Permutation sorting directions counterclockwise from the +x axis.

    center, a point or a vertex id, is carried for error context only;
    direction order does not depend on it.  Two equal directions raise
    DuplicateDirectionError since no strict cyclic order exists then.
    """
    order = sorted(range(len(dirs)), key=functools.cmp_to_key(
        lambda i, j: _ccw_cmp(dirs[i], dirs[j])))
    for a, b in zip(order, order[1:]):
        if _ccw_cmp(dirs[a], dirs[b]) == 0:
            raise DuplicateDirectionError(
                f"duplicate direction at {center}: {dirs[a]} and {dirs[b]}")
    return order


def in_ccw_sector(start: Direction, end: Direction, u: Direction) -> bool:
    """True when u lies strictly inside the sector swept CCW from start
    to end.  The sector may be reflex; start == end is rejected upstream."""
    c = cross(start, end)
    if c > 0:
        return cross(start, u) > 0 and cross(u, end) > 0
    if c < 0:
        # reflex sector: complement of the closed CCW sector from end to start
        return not (cross(end, u) >= 0 and cross(u, start) >= 0)
    # start and end are opposite: the sector is the open half plane to
    # the left of start
    return cross(start, u) > 0


def sector_midpoint_direction(start: Direction, end: Direction) -> Direction:
    """A direction strictly inside the CCW sector from start to end."""
    s = Direction(start.dx + end.dx, start.dy + end.dy)
    if cross(start, s) == 0:
        # antipodal rays: the sum vanishes or degenerates onto the
        # boundary, and the sector is the half plane left of start
        return perp(start)
    if in_ccw_sector(start, end, s):
        return s
    return -s


# ---------------------------------------------------------------------------
# Integer forms for the evaluation kernels

def int_point(p: Point) -> tuple[int, int, int, int]:
    """(xn, xd, yn, yd) with positive denominators."""
    return (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)


def int_line(e: EdgeGeom) -> tuple[int, int, int]:
    """Integer coefficients (A, B, C) of the hull line of e.

    A*x + B*y + C is positive strictly to the left of the edge direction,
    zero on the hull.  The scale factor is positive so orientation is
    preserved.
    """
    p = edge_base(e)
    d = edge_direction(e)
    a = -d.dy
    b = d.dx
    c = d.dy * p.x - d.dx * p.y
    den = a.denominator * b.denominator * c.denominator
    ai = a.numerator * (den // a.denominator)
    bi = b.numerator * (den // b.denominator)
    ci = c.numerator * (den // c.denominator)
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
    if g > 1:
        ai, bi, ci = ai // g, bi // g, ci // g
    return (ai, bi, ci)
