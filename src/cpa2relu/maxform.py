"""Reduction of a decomposition to a sum of nested two-level max terms.

Every vertex fan is linearized by the point reflection x -> v - x and
reduced in one sweep (fan_to_terms): an adjacent sector pair with
combined angle below pi is merged off as a three-sector fan until three
sectors are left, and each three-sector fan is written as
sigma1 * max(f1, sigma2 * max(f2, f3)).  Four-sector fans whose rays form
two crossing lines admit no such pair and are split into two two-piece
functions instead.  Edge pairs become plain max/min of their two affines.

A TermList evaluates on integers: on first evaluation it builds its
kernel_form, every affine of every term as an integer triple over one
common denominator L, and eval_terms compares and sums the numerators
at the sample's (X, Y, W); the only Fraction is the quotient N/(L*W).
Each MaxTerm converts its affines once (int_form), so a list that shares
terms with an evaluated one, such as a seeded mutation, only rescales
them.  reduce() builds neither form.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import lcm

from .errors import ContinuityError, MalformedFanError
from .decompose import Decomposition, EdgePair, Fan, validate_fan
from .geometry import (X_AXIS, Direction, Point, Rat, ccw_angle_cmp, cross,
                       homogeneous)
from .model import AffineFunc

_ZERO = Fraction(0)
_ZERO_AFFINE = AffineFunc(_ZERO, _ZERO, _ZERO)


@dataclass(frozen=True)
class MaxTerm:
    """sigma1 * max(f1, sigma2 * max(f2, f3))."""

    sigma1: int
    f1: AffineFunc
    sigma2: int
    f2: AffineFunc
    f3: AffineFunc

    @cached_property
    def int_form(self) -> tuple[int, ...]:
        """(sigma1, sigma2, A1, B1, C1, D1, A2, .., D3): the signs and the
        int_form (A, B, C, D) of f1, f2 and f3, built once per term.  Not a
        field, so equality, hashing and the JSON dump never see it."""
        return (self.sigma1, self.sigma2, *self.f1.int_form(),
                *self.f2.int_form(), *self.f3.int_form())

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
    def kernel_form(self) -> tuple[int, tuple]:
        """(L, terms) for eval_terms, built on first evaluation.  Each
        term is a flat int tuple
            (s1, s2, a1, b1, c1, a2, b2, c2, a3, b3, c3)
        encoding s1 * max(f1, s2 * max(f2, f3)) with
        fi = (ai*x + bi*y + ci)/L, and L > 0 is the lcm of the terms'
        int_form denominators.  Each term converts once
        (MaxTerm.int_form), so a list that shares terms with one already
        evaluated only rescales them.  Not a field, so equality, hashing
        and the JSON dump never see it."""
        forms = [t.int_form for t in self.terms]
        L = lcm(*{D for f in forms for D in f[5::4]})
        terms = []
        for s1, s2, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3 in forms:
            k1, k2, k3 = L // d1, L // d2, L // d3
            terms.append((s1, s2, a1 * k1, b1 * k1, c1 * k1,
                          a2 * k2, b2 * k2, c2 * k2, a3 * k3, b3 * k3, c3 * k3))
        return L, tuple(terms)

    def __call__(self, x: Point) -> Rat:
        n, d = eval_terms(*self.kernel_form, *homogeneous(x))
        return Fraction(n, d)

    def to_json(self) -> dict:
        return {"source_p": self.source_p,
                "terms": [t.to_json() for t in self.terms]}

    @classmethod
    def from_json(cls, doc) -> "TermList":
        return cls(tuple(MaxTerm.from_json(t) for t in doc["terms"]),
                   int(doc["source_p"]))


def eval_terms(L, terms, X, Y, W):
    """Exact value of a sum of nested-max terms at the point (X/W, Y/W),
    W > 0, from a TermList.kernel_form (see there), as a pair (N, L*W)
    whose quotient is the value.  ni = ai*X + bi*Y + ci*W is L*W*fi and
    L*W > 0, so the maxes compare the ni directly and the terms sum on
    ints.
    """
    acc = 0
    for s1, s2, a1, b1, c1, a2, b2, c2, a3, b3, c3 in terms:
        m = a2 * X + b2 * Y + c2 * W
        n3 = a3 * X + b3 * Y + c3 * W
        if n3 > m:
            m = n3
        if s2 < 0:
            m = -m
        n1 = a1 * X + b1 * Y + c1 * W
        if n1 > m:
            m = n1
        acc += m if s1 > 0 else -m
    return acc, L * W


def _two_sector_term(r0: Direction, g0: AffineFunc,
                     g1: AffineFunc) -> MaxTerm:
    """A two-sector linear fan, g0 on the sector CCW of r0 up to the
    opposite ray and g1 on the other, is the max or min of its affines:
    the probe a quarter turn CCW of r0 lies in g0's sector."""
    probe = Point(-r0.dy, r0.dx)
    if g0(probe) >= g1(probe):
        return MaxTerm(1, g0, 1, g1, g1)
    return MaxTerm(-1, -g0, 1, -g1, -g1)


def _three_piece_linear(rays: Sequence[Direction],
                        affs: Sequence[AffineFunc]) -> MaxTerm:
    """Write a three-sector linear fan at the origin as
    sigma1 * max(f1, sigma2 * max(f2, f3)), after checking that adjacent
    sectors agree on their shared ray.

    With all sector angles below pi the inner pair joins by max, with
    one reflex sector by min; the outer sign is decided by one exact
    comparison on the ray between the two non-distinguished sectors.
    """
    pts = [Point(d.dx, d.dy) for d in rays]
    for i in range(3):
        if affs[i - 1](pts[i]) != affs[i](pts[i]):
            raise ContinuityError(
                f"fan sectors {i - 1} and {i} disagree on ray {rays[i]}")
    reflex = [i for i in range(3) if cross(rays[i], rays[(i + 1) % 3]) <= 0]
    if len(reflex) > 1:
        raise MalformedFanError(f"{len(reflex)} sector angles of at least pi")
    m = reflex[0] if reflex else 0
    f0 = affs[m]
    f1 = affs[(m + 1) % 3]
    f2 = affs[(m + 2) % 3]
    p0 = pts[(m + 2) % 3]
    fan_at_p0 = f1(p0)  # == f2(p0) by continuity on the shared ray
    if not reflex:
        if fan_at_p0 >= f0(p0):
            return MaxTerm(1, f0, 1, f1, f2)
        return MaxTerm(-1, -f0, 1, -f1, -f2)
    if fan_at_p0 >= f0(p0):
        return MaxTerm(1, f0, -1, -f1, -f2)
    return MaxTerm(-1, -f0, -1, f1, f2)


def fan_to_terms(fan: Fan) -> list[MaxTerm]:
    """The terms, max(1, k - 2) of them for k sectors, whose sum is the
    fan.

    The fan is validated, then linearized once by the point reflection
    x -> v - x: rays and affine slopes are negated, f(v) is dropped, and
    the lists are rotated to start at the ray CCW-closest to +x.  The
    sweep then peels the first sector pair (from index 0, cyclically)
    whose outer rays r0, r2 enclose less than pi: the linear f_p that
    agrees with the pair on r0 and r2 closes a three-sector term, and the
    remainder is the fan minus that term, so the pair's sector becomes 0,
    f_p is subtracted from every other sector and r1 is deleted.  The
    remainder stays CCW-sorted from +x.  When no pair qualifies at four
    or more sectors, the angle sum forces two crossing lines; that fan is
    the sum of two two-sector fans, one across each line.  Every term is
    reflected back through v and the first carries f(v).
    """
    validate_fan(fan)
    v = fan.center
    ints = [(-x, -y) for x, y in fan.int_rays]
    s = min(range(len(ints)), key=cmp_to_key(
        lambda a, b: ccw_angle_cmp(X_AXIS, ints[a], ints[b])))
    rays = [-d for d in fan.rays[s:] + fan.rays[:s]]
    affs = [AffineFunc(-g.a, -g.b, _ZERO)
            for g in fan.sector_affines[s:] + fan.sector_affines[:s]]
    terms: list[MaxTerm] = []
    while len(rays) > 3:
        k = len(rays)
        j = next((i for i in range(k)
                  if cross(rays[i], rays[(i + 2) % k]) > 0), None)
        if j is None:
            # two crossing lines: f1 across the line of r1, then the
            # residual f3 - f2, which vanishes on the line of r0
            terms.append(_two_sector_term(rays[1], affs[1], affs[0]))
            terms.append(_two_sector_term(
                rays[0], _ZERO_AFFINE, affs[2] - affs[1]))
            break
        m, n = (j + 1) % k, (j + 2) % k
        r0, r2 = rays[j], rays[n]
        c1 = affs[j](Point(r0.dx, r0.dy))
        c2 = affs[m](Point(r2.dx, r2.dy))
        det = cross(r0, r2)
        f_p = AffineFunc((c1 * r2.dy - c2 * r0.dy) / det,
                         (r0.dx * c2 - r2.dx * c1) / det, _ZERO)
        terms.append(_three_piece_linear((r0, rays[m], r2),
                                         (affs[j], affs[m], f_p)))
        affs = [_ZERO_AFFINE if i == j else g - f_p
                for i, g in enumerate(affs)]
        del rays[m], affs[m]
    else:
        if len(rays) == 3:
            terms.append(_three_piece_linear(rays, affs))
        else:
            terms.append(_two_sector_term(rays[0], affs[0], affs[1]))
    terms = [t.reflect_through(v) for t in terms]
    f_of_v = fan.sector_affines[0](v)
    if f_of_v != 0:
        terms[0] = terms[0].shift(AffineFunc(_ZERO, _ZERO, f_of_v))
    return terms


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
        terms.extend(fan_to_terms(fan))
    for pair in dec.edge_pairs:
        terms.append(edge_to_max(pair))
    if not terms:
        terms.append(MaxTerm(1, dec.tail, 1, dec.tail, dec.tail))
    elif not dec.tail.is_zero():
        terms[0] = terms[0].shift(dec.tail)
    return TermList(tuple(terms), source_p)
