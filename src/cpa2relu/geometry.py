"""Exact plane geometry over rationals.

Coordinates are fractions.Fraction; no floats, no epsilons.  The exact
predicates run on one integer form: a point as homogeneous (X, Y, W),
p = (X/W, Y/W) with W > 0, and an edge's hull as its gcd-reduced line
(A, B, C) (int_line); the sign of A*X + B*Y + C*W is the side of the
line the point lies on (kernels.line_sign).  model.EdgeRec builds both
forms once per edge, and they decide model.edges_at, model._parity
(degenerate positions resolved by symbolic perturbation) and
validate's edge-pair check.  The one angular predicate, ccw_angle_cmp,
orders integer direction pairs by their CCW angle from a reference
direction: from +x it sorts the edges at a vertex
(ccw_sort_directions), from a fan's first ray it finds the sector
holding a direction (sector_index).  orientation stays as the Fraction
reference the tests check those integer predicates against.
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

X_AXIS = (1, 0)


def ccw_angle_cmp(ref: tuple[int, int], u: tuple[int, int],
                  v: tuple[int, int]) -> int:
    """-1, 0 or 1 as the counterclockwise angle from ref to u, taken in
    [0, 2pi), is smaller than, equal to or larger than that to v.

    ref, u and v are nonzero integer pairs (int_direction).  Each of u
    and v is first placed in the half turn [0, pi) or [pi, 2pi) after
    ref; within one half turn the cross product orders them.
    """
    (rx, ry), (ux, uy), (vx, vy) = ref, u, v
    cu = rx * uy - ry * ux
    cv = rx * vy - ry * vx
    hu = cu < 0 or (cu == 0 and rx * ux + ry * uy < 0)
    hv = cv < 0 or (cv == 0 and rx * vx + ry * vy < 0)
    if hu != hv:
        return 1 if hu else -1
    c = ux * vy - uy * vx
    return (c < 0) - (c > 0)


def ccw_sort_directions(center: Point | str,
                        dirs: list[Direction]) -> list[int]:
    """Permutation sorting directions counterclockwise from the +x axis
    (ccw_angle_cmp from X_AXIS).

    center, a point or a vertex id, is carried for error context only;
    direction order does not depend on it.  Two equal directions raise
    DuplicateDirectionError since no strict cyclic order exists then.
    """
    ints = [int_direction(d) for d in dirs]

    def cmp(i: int, j: int) -> int:
        return ccw_angle_cmp(X_AXIS, ints[i], ints[j])

    order = sorted(range(len(dirs)), key=functools.cmp_to_key(cmp))
    for a, b in zip(order, order[1:]):
        if cmp(a, b) == 0:
            raise DuplicateDirectionError(
                f"duplicate direction at {center}: {dirs[a]} and {dirs[b]}")
    return order


def sector_index(rays: tuple[tuple[int, int], ...],
                 u: tuple[int, int]) -> tuple[int, bool]:
    """(i, on_ray): the sector from rays[i] to rays[i + 1] (cyclically)
    that holds the direction u, and whether u lies along rays[i].

    rays are integer pairs in strict CCW order starting anywhere, so
    their angles from rays[0] increase; the list may wrap past +x.  A
    bisection on those angles finds the last ray not past u.
    """
    r0 = rays[0]
    lo, hi = 0, len(rays)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ccw_angle_cmp(r0, rays[mid], u) <= 0:
            lo = mid
        else:
            hi = mid
    return lo, ccw_angle_cmp(r0, rays[lo], u) == 0


# ---------------------------------------------------------------------------
# Integer forms: points in homogeneous coordinates, edge hulls as lines

def homogeneous(p: Point) -> tuple[int, int, int]:
    """(X, Y, W) with p = (X/W, Y/W) and W > 0."""
    xn, xd, yn, yd = (p.x.numerator, p.x.denominator,
                      p.y.numerator, p.y.denominator)
    return (xn * yd, yn * xd, xd * yd)


def from_homogeneous(h: tuple[int, int, int]) -> Point:
    """The point (X/W, Y/W) of h = (X, Y, W), W > 0."""
    X, Y, W = h
    return Point(Fraction(X, W), Fraction(Y, W))


def int_direction(d: Direction) -> tuple[int, int]:
    """d scaled by a positive integer to an integer pair."""
    return (d.dx.numerator * d.dy.denominator,
            d.dy.numerator * d.dx.denominator)


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
