"""Reduction of a decomposition to a sum of nested two-level max terms.

Every vertex fan is linearized by the point reflection x -> v - x, peeled
down to three-sector fans by repeatedly merging an adjacent sector pair
with combined angle below pi, and each three-sector fan is written as
sigma1 * max(f1, sigma2 * max(f2, f3)).  Four-sector fans whose rays form
two crossing lines admit no such pair and are split into two two-piece
functions instead.  Edge pairs become plain max/min of their two affines.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import kernels
from .errors import (
    ContinuityError,
    MalformedFanError,
    NoMergeablePairError,
    NotCrossCaseError,
)
from .decompose import Decomposition, EdgePair, Fan, validate_fan
from .geometry import (
    Point,
    Rat,
    _ccw_cmp,
    cross,
    dot,
    sector_midpoint_direction,
    translate,
)
from .model import AffineFunc

_ORIGIN = Point(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class MaxTerm:
    """sigma1 * max(f1, sigma2 * max(f2, f3))."""

    sigma1: int
    f1: AffineFunc
    sigma2: int
    f2: AffineFunc
    f3: AffineFunc

    def __call__(self, x: Point) -> Rat:
        inner = max(self.f2(x), self.f3(x))
        return self.sigma1 * max(self.f1(x), self.sigma2 * inner)

    def shift(self, h: AffineFunc) -> "MaxTerm":
        """A term whose value is self(x) + h(x)."""
        s = Fraction(self.sigma1)
        si = Fraction(self.sigma1 * self.sigma2)
        return MaxTerm(self.sigma1, self.f1 + h.scale(s),
                       self.sigma2, self.f2 + h.scale(si),
                       self.f3 + h.scale(si))

    def reflect_through(self, v: Point) -> "MaxTerm":
        """A term whose value is self(v - x)."""
        return MaxTerm(self.sigma1, self.f1.reflect_through(v),
                       self.sigma2, self.f2.reflect_through(v),
                       self.f3.reflect_through(v))

    def translate_by(self, v: Point) -> "MaxTerm":
        """A term whose value is self(x - v)."""

        def t(f: AffineFunc) -> AffineFunc:
            return AffineFunc(f.a, f.b, f.c - f.a * v.x - f.b * v.y)

        return MaxTerm(self.sigma1, t(self.f1), self.sigma2, t(self.f2),
                       t(self.f3))

    def to_json(self) -> dict:
        return {"sigma1": self.sigma1, "f1": self.f1.to_json(),
                "sigma2": self.sigma2, "f2": self.f2.to_json(),
                "f3": self.f3.to_json()}

    @classmethod
    def from_json(cls, doc) -> "MaxTerm":
        s1, s2 = doc["sigma1"], doc["sigma2"]
        if s1 not in (-1, 1) or s2 not in (-1, 1):
            raise ValueError(f"bad signs {s1}, {s2}")
        return cls(s1, AffineFunc.from_json(doc["f1"]), s2,
                   AffineFunc.from_json(doc["f2"]),
                   AffineFunc.from_json(doc["f3"]))


@dataclass(frozen=True)
class TermList:
    terms: tuple[MaxTerm, ...]
    source_p: int

    @cached_property
    def kernel_terms(self) -> list[tuple]:
        """Flat integer encoding of the terms for kernels.eval_terms."""
        return [(t.sigma1, t.sigma2,
                 *t.f1.int_form(), *t.f2.int_form(), *t.f3.int_form())
                for t in self.terms]

    def __call__(self, x: Point) -> Rat:
        n, d = kernels.eval_terms(self.kernel_terms, x.x.numerator,
                                  x.x.denominator, x.y.numerator,
                                  x.y.denominator)
        return Fraction(n, d)

    def to_json(self) -> dict:
        return {"source_p": self.source_p,
                "terms": [t.to_json() for t in self.terms]}

    @classmethod
    def from_json(cls, doc) -> "TermList":
        return cls(tuple(MaxTerm.from_json(t) for t in doc["terms"]),
                   int(doc["source_p"]))


@dataclass(frozen=True)
class CplRecord:
    """Inverse-transform bookkeeping from fan linearization."""

    v: Point
    f_of_v: Rat


def _canonical_rotation(fan: Fan) -> Fan:
    """Rotate the ray list to start at the CCW-smallest direction
    (angle from the positive x axis)."""
    k = len(fan.rays)
    j = 0
    for i in range(1, k):
        if _ccw_cmp(fan.rays[i], fan.rays[j]) < 0:
            j = i
    if j == 0:
        return fan
    rays = fan.rays[j:] + fan.rays[:j]
    affs = fan.sector_affines[j:] + fan.sector_affines[:j]
    return Fan(fan.center, rays, affs)


def fan_to_cpl(fan: Fan) -> tuple[Fan, CplRecord]:
    """Linearize a fan: the returned fan is centered at the origin with
    linear sector functions and value f(v - x) - f(v).

    The point reflection preserves the cyclic CCW order of the rays, so
    re-sorting amounts to a rotation of the lists.
    """
    v = fan.center
    vals = {f(v) for f in fan.sector_affines}
    if len(vals) != 1:
        raise ContinuityError(f"fan sector affines disagree at center {v}")
    f_of_v = vals.pop()
    rays = tuple(-d for d in fan.rays)
    affs = tuple(AffineFunc(g.a, g.b, g.c - f_of_v).reflect_through(v)
                 for g in fan.sector_affines)
    for g in affs:
        if g.c != 0:
            raise ContinuityError("linearized sector function has an offset")
    lin = _canonical_rotation(Fan(_ORIGIN, rays, affs))
    return lin, CplRecord(v, f_of_v)


def _ray_point(fan: Fan, i: int) -> Point:
    return translate(fan.center, fan.rays[i])


def merge_step(fan: Fan) -> tuple[Fan, Fan]:
    """Extract a three-sector fan from the first adjacent sector pair
    with combined angle below pi.

    Returns (extracted, remainder) with fan == extracted + remainder
    pointwise; the remainder has one sector less.  Fans where no such
    pair exists (the four-quadrant cross case) raise
    NoMergeablePairError.
    """
    k = len(fan.rays)
    if k < 4:
        raise MalformedFanError(f"merge_step needs at least 4 sectors, got {k}")
    if fan.center != _ORIGIN or any(g.c != 0 for g in fan.sector_affines):
        raise MalformedFanError("merge_step expects a linearized fan")
    j = None
    for i in range(k):
        if cross(fan.rays[i], fan.rays[(i + 2) % k]) > 0:
            j = i
            break
    if j is None:
        raise NoMergeablePairError(
            "no adjacent sector pair encloses less than pi")
    r0, r1, r2 = (fan.rays[(j + t) % k] for t in range(3))
    f1 = fan.sector_affines[j]
    f2 = fan.sector_affines[(j + 1) % k]
    p1 = _ray_point(fan, j)
    p2 = _ray_point(fan, (j + 2) % k)
    det = cross(r0, r2)
    c1 = f1(p1)
    c2 = f2(p2)
    a = (c1 * r2.dy - c2 * r0.dy) / det
    b = (r0.dx * c2 - r2.dx * c1) / det
    f_p = AffineFunc(a, b, Fraction(0))
    extracted = Fan(fan.center, (r0, r1, r2), (f1, f2, f_p))
    validate_fan(extracted)
    rays = []
    affs = []
    for i in range(k):
        if i == (j + 1) % k:
            continue
        rays.append(fan.rays[i])
        if i == j:
            affs.append(AffineFunc(Fraction(0), Fraction(0), Fraction(0)))
        else:
            affs.append(fan.sector_affines[i] - f_p)
    remainder = _canonical_rotation(Fan(fan.center, tuple(rays), tuple(affs)))
    validate_fan(remainder)
    return extracted, remainder


def split_cross_case(fan: Fan) -> tuple[Fan, Fan]:
    """Split a four-sector fan whose rays form two full lines into two
    two-sector fans summing to it pointwise."""
    if len(fan.rays) != 4:
        raise NotCrossCaseError(f"expected 4 sectors, got {len(fan.rays)}")
    r = fan.rays
    for i in (0, 1):
        if not (cross(r[i], r[i + 2]) == 0 and dot(r[i], r[i + 2]) < 0):
            raise NotCrossCaseError(
                "ray directions do not form two crossing lines")
    f1, f2, f3, f4 = fan.sector_affines
    # first part: f1 across the line spanned by r1, f2 on the other side
    part1 = Fan(fan.center, (r[1], r[3]), (f2, f1))
    validate_fan(part1)
    # second part: zero on one side of the line spanned by r0
    g = f3 - f2
    if g != f4 - f1:
        raise MalformedFanError("cross-case residuals disagree")
    zero = AffineFunc(Fraction(0), Fraction(0), Fraction(0))
    part2 = Fan(fan.center, (r[0], r[2]), (zero, g))
    validate_fan(part2)
    return part1, part2


def two_sector_to_max(fan: Fan) -> MaxTerm:
    """A two-sector fan is the max or min of its two affines."""
    if len(fan.rays) != 2:
        raise MalformedFanError(f"expected 2 sectors, got {len(fan.rays)}")
    g0, g1 = fan.sector_affines
    mid = sector_midpoint_direction(fan.rays[0], fan.rays[1])
    probe = translate(fan.center, mid)
    if g0(probe) >= g1(probe):
        return MaxTerm(1, g0, 1, g1, g1)
    return MaxTerm(-1, -g0, 1, -g1, -g1)


def _three_piece_linear(fan: Fan) -> MaxTerm:
    rays = fan.rays
    reflex = [i for i in range(3) if cross(rays[i], rays[(i + 1) % 3]) <= 0]
    if len(reflex) > 1:
        raise MalformedFanError(f"{len(reflex)} sector angles of at least pi")
    m = reflex[0] if reflex else 0
    f0 = fan.sector_affines[m]
    f1 = fan.sector_affines[(m + 1) % 3]
    f2 = fan.sector_affines[(m + 2) % 3]
    p0 = _ray_point(fan, (m + 2) % 3)
    fan_at_p0 = f1(p0)  # == f2(p0) by continuity on the shared ray
    if not reflex:
        if fan_at_p0 >= f0(p0):
            return MaxTerm(1, f0, 1, f1, f2)
        return MaxTerm(-1, -f0, 1, -f1, -f2)
    if fan_at_p0 >= f0(p0):
        return MaxTerm(1, f0, -1, -f1, -f2)
    return MaxTerm(-1, -f0, -1, f1, f2)


def three_piece_to_max(tp: Fan) -> MaxTerm:
    """Write a three-sector fan as sigma1 * max(f1, sigma2 * max(f2, f3)).

    The sign case split follows the angular structure: with all sector
    angles below pi the inner pair joins by max, with one reflex sector
    by min; the outer sign is decided by one exact comparison on the ray
    between the two non-distinguished sectors.
    """
    if len(tp.rays) != 3:
        raise MalformedFanError(f"expected 3 sectors, got {len(tp.rays)}")
    validate_fan(tp)
    v = tp.center
    c_vals = {f(v) for f in tp.sector_affines}
    if len(c_vals) != 1:
        raise MalformedFanError("sector affines disagree at the center")
    c = c_vals.pop()
    if v == _ORIGIN and c == 0:
        return _three_piece_linear(tp)
    # translate to the origin, drop the common center value, and undo after
    lin_affs = tuple(
        AffineFunc(g.a, g.b, g.c + g.a * v.x + g.b * v.y - c)
        for g in tp.sector_affines)
    lin = Fan(_ORIGIN, tp.rays, lin_affs)
    term = _three_piece_linear(lin)
    return term.translate_by(v).shift(AffineFunc(Fraction(0), Fraction(0), c))


def edge_to_max(ep: EdgePair) -> MaxTerm:
    """One max/min term for a half-plane pair; the edge sign from the
    decomposition is folded into the outer sign."""
    g = ep.boundary
    norm2 = g.a * g.a + g.b * g.b
    probe = Point((1 - g.c) * g.a / norm2, (1 - g.c) * g.b / norm2)
    assert g(probe) == 1
    fp, fm = ep.plus_side_affine, ep.minus_side_affine
    if fp(probe) >= fm(probe):
        term = MaxTerm(1, fp, 1, fm, fm)
    else:
        term = MaxTerm(-1, -fp, 1, -fm, -fm)
    if ep.sign < 0:
        term = MaxTerm(-term.sigma1, term.f1, term.sigma2, term.f2, term.f3)
    return term


def reduce(dec: Decomposition, source_p: int = 0) -> TermList:
    """Reduce a decomposition to its term list.

    Produces exactly sum_v (deg(v) - 2) + |E_l| + |E_b| terms, except
    that a function with no vertices and no line/segment edges gets one
    term carrying the tail.  source_p is the piece count of the source
    instance and only feeds the recorded bound.
    """
    terms: list[MaxTerm] = []
    for fan in dec.fans:
        lin, rec = fan_to_cpl(fan)
        fan_terms: list[MaxTerm] = []
        work = lin
        while len(work.rays) > 3:
            try:
                extracted, work = merge_step(work)
            except NoMergeablePairError:
                part1, part2 = split_cross_case(work)
                fan_terms.append(two_sector_to_max(part1))
                fan_terms.append(two_sector_to_max(part2))
                work = None
                break
            fan_terms.append(three_piece_to_max(extracted))
        if work is not None:
            if len(work.rays) == 3:
                fan_terms.append(three_piece_to_max(work))
            else:
                fan_terms.append(two_sector_to_max(work))
        fan_terms = [t.reflect_through(rec.v) for t in fan_terms]
        if rec.f_of_v != 0:
            fan_terms[0] = fan_terms[0].shift(
                AffineFunc(Fraction(0), Fraction(0), rec.f_of_v))
        terms.extend(fan_terms)
    for pair in dec.edge_pairs:
        terms.append(edge_to_max(pair))
    if not terms:
        terms.append(MaxTerm(1, dec.tail, 1, dec.tail, dec.tail))
    elif not dec.tail.is_zero():
        terms[0] = terms[0].shift(dec.tail)
    return TermList(tuple(terms), source_p)
