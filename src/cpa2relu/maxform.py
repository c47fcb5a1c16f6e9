"""Reduction of a decomposition to a sum of nested two-level max terms.

Every vertex fan is linearized by the point reflection x -> v - x and
reduced in one sweep (fan_to_terms): an adjacent sector pair with
combined angle below pi is merged off as a three-sector fan until three
sectors are left, and each three-sector fan is written as
sigma1 * max(f1, sigma2 * max(f2, f3)).  Four-sector fans whose rays form
two crossing lines admit no such pair and are split into two two-piece
functions instead.  The sweep runs on integer rays and integer slopes
over one common denominator; each term's AffineFuncs are built once, at
the reflection back.  Edge pairs become plain max/min of their two
affines, compared on integer forms.

A TermList evaluates on integers: on first evaluation it builds its
kernel_form, each distinct affine of its terms once as an integer triple
over one common denominator L, and eval_terms computes each one's
numerator once at the sample's (X, Y, W), then compares and sums them
term by term; the only Fraction is the quotient N/(L*W).  Vertex fans
and edges share piece affines, so a list holds about half as many
distinct affines as term slots.  Each MaxTerm converts its affines once
(int_form), so a list that shares terms with an evaluated one, such as a
seeded mutation, only rescales them; its network rows (block_rows) are
built once too.  reduce() builds none of these forms.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm

from .errors import MalformedFanError
from .decompose import Decomposition, EdgePair, Fan, validate_fan
from .geometry import X_AXIS, Point, Rat, ccw_angle_cmp, homogeneous
from .model import AffineFunc


@dataclass(frozen=True)
class MaxTerm:
    """sigma1 * max(f1, sigma2 * max(f2, f3))."""

    sigma1: int
    f1: AffineFunc
    sigma2: int
    f2: AffineFunc
    f3: AffineFunc

    @cached_property
    def int_form(self) -> tuple:
        """(sigma1, sigma2, g1, g2, g3): the signs and the int_form
        (A, B, C, D) of f1, f2 and f3, built once per term.  Not a field,
        so equality, hashing and the JSON dump never see it."""
        return (self.sigma1, self.sigma2, self.f1.int_form(),
                self.f2.int_form(), self.f3.int_form())

    @cached_property
    def block_rows(self) -> tuple:
        """The (a, b, c) of f1, -f1, f2 - f3, f3 and -f3: the term's five
        network rows, built once per term.  Not a field either."""
        f1, f2, f3 = self.f1, self.f2, self.f3
        return ((f1.a, f1.b, f1.c), (-f1.a, -f1.b, -f1.c),
                (f2.a - f3.a, f2.b - f3.b, f2.c - f3.c),
                (f3.a, f3.b, f3.c), (-f3.a, -f3.b, -f3.c))

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

    def to_json(self) -> dict:
        return {"sigma1": self.sigma1, "f1": self.f1.to_json(),
                "sigma2": self.sigma2, "f2": self.f2.to_json(),
                "f3": self.f3.to_json()}


@dataclass(frozen=True)
class TermList:
    terms: tuple[MaxTerm, ...]
    source_p: int

    @cached_property
    def kernel_form(self) -> tuple[int, tuple, tuple]:
        """(L, affs, terms) for eval_terms, built on first evaluation.
        affs holds each distinct affine of the terms once, as an int
        triple (a, b, c) with f = (a*x + b*y + c)/L, and L > 0 is the lcm
        of the terms' int_form denominators.  Each term is a flat int
        tuple
            (s1, s2, i1, i2, i3)
        encoding s1 * max(f1, s2 * max(f2, f3)) with fk = affs[ik].  An
        affine is keyed by its int_form, which is unique to its value, so
        each term converts once (MaxTerm.int_form) and a list that shares
        terms with one already evaluated only rescales them.  Not a
        field, so equality, hashing and the JSON dump never see it."""
        # int_form -> its place in affs; put numbers each on first sight
        index: dict = {}
        put = index.setdefault
        forms = (t.int_form for t in self.terms)
        terms = tuple((s1, s2, put(g1, len(index)), put(g2, len(index)),
                       put(g3, len(index))) for s1, s2, g1, g2, g3 in forms)
        L = lcm(*{g[3] for g in index})
        affs = []
        for a, b, c, d in index:
            m = L // d
            affs.append((a * m, b * m, c * m))
        return L, tuple(affs), terms

    def __call__(self, x: Point) -> Rat:
        n, d = eval_terms(*self.kernel_form, *homogeneous(x))
        return Fraction(n, d)

    def to_json(self) -> dict:
        return {"source_p": self.source_p,
                "terms": [t.to_json() for t in self.terms]}


def eval_terms(L, affs, terms, X, Y, W):
    """Exact value of a sum of nested-max terms at the point (X/W, Y/W),
    W > 0, from a TermList.kernel_form (see there), as a pair (N, L*W)
    whose quotient is the value.  n = a*X + b*Y + c*W is L*W*f for each
    distinct affine f, computed once, and L*W > 0, so the maxes compare
    the n directly and the terms sum on ints.
    """
    n = [a * X + b * Y + c * W for a, b, c in affs]
    acc = 0
    for s1, s2, i1, i2, i3 in terms:
        m = n[i2]
        n3 = n[i3]
        if n3 > m:
            m = n3
        if s2 < 0:
            m = -m
        n1 = n[i1]
        if n1 > m:
            m = n1
        acc += m if s1 > 0 else -m
    return acc, L * W


def _two_sector_term(r0: tuple[int, int], g0: tuple[int, int],
                     g1: tuple[int, int]) -> tuple:
    """A two-sector linear fan, g0 on the sector CCW of r0 up to the
    opposite ray and g1 on the other, is the max or min of its linear
    parts: the probe a quarter turn CCW of r0 lies in g0's sector.
    Rays and slopes are integer pairs, the slopes over one common
    denominator; the result is (sigma1, f1, sigma2, f2, f3) in that
    form."""
    (x0, y0), (a0, b0), (a1, b1) = r0, g0, g1
    if (a1 - a0) * y0 >= (b1 - b0) * x0:
        return 1, g0, 1, g1, g1
    return -1, (-a0, -b0), 1, (-a1, -b1), (-a1, -b1)


def _three_piece_linear(rays: Sequence[tuple[int, int]],
                        affs: Sequence[tuple[int, int]]) -> tuple:
    """Write a three-sector linear fan at the origin, continuous across
    its rays, as sigma1 * max(f1, sigma2 * max(f2, f3)), in the integer
    form of _two_sector_term.

    With all sector angles below pi the inner pair joins by max, with
    one reflex sector by min; the outer sign is decided by one exact
    comparison on the ray between the two non-distinguished sectors.
    """
    reflex = [i for i in range(3) if _cross(rays[i], rays[(i + 1) % 3]) <= 0]
    if len(reflex) > 1:
        raise MalformedFanError(f"{len(reflex)} sector angles of at least pi")
    m = reflex[0] if reflex else 0
    f0 = affs[m]
    f1 = affs[(m + 1) % 3]
    f2 = affs[(m + 2) % 3]
    x, y = rays[(m + 2) % 3]
    # the fan's value there is f1's, which is f2's by continuity
    above = f1[0] * x + f1[1] * y >= f0[0] * x + f0[1] * y
    n0, n1, n2 = (-f0[0], -f0[1]), (-f1[0], -f1[1]), (-f2[0], -f2[1])
    if not reflex:
        return (1, f0, 1, f1, f2) if above else (-1, n0, 1, n1, n2)
    return (1, f0, -1, n1, n2) if above else (-1, n0, -1, f1, f2)


def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _reflected(g: tuple[int, int], D: int, cX: int, cY: int, cW: int,
               e: int = 0, E: int = 1) -> AffineFunc:
    """x -> f(v - x) + e/(E*cW) for the linear f = (a*x + b*y)/D, g = (a, b),
    and the centre v = (cX/cW, cY/cW); every coefficient is one
    canonical Fraction."""
    a, b = g
    return AffineFunc(Fraction(-a, D), Fraction(-b, D),
                      Fraction((a * cX + b * cY) * E + e * D, D * E * cW))


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
    remainder stays CCW-sorted from +x, and continuous: f_p matches the
    pair on r0 and r2.  When no pair qualifies at four or more sectors,
    the angle sum forces two crossing lines; that fan is the sum of two
    two-sector fans, one across each line.  Every term is reflected back
    through v and the first carries f(v).

    The sweep runs on integers, from the fan's int_rays and int_form:
    the slopes are integer pairs over one common denominator L.  f_p
    by Cramer's rule has the denominator L*det, det = cross(r0, r2) > 0,
    so each step rescales the slopes by det and divides out the gcd of
    all of them and the new L.  Each term's AffineFuncs are built once,
    at the reflection, from canonical Fractions.
    """
    validate_fan(fan)
    (cX, cY, cW), L, sectors = fan.int_form
    ints = [(-x, -y) for x, y in fan.int_rays]
    s = min(range(len(ints)), key=cmp_to_key(
        lambda a, b: ccw_angle_cmp(X_AXIS, ints[a], ints[b])))
    rays = ints[s:] + ints[:s]
    affs = [(-a, -b) for a, b, _ in sectors[s:] + sectors[:s]]
    D = L
    lin = []  # (sigma1, f1, sigma2, f2, f3) over D, with that D
    while len(rays) > 3:
        k = len(rays)
        j = next((i for i in range(k)
                  if _cross(rays[i], rays[(i + 2) % k]) > 0), None)
        if j is None:
            # two crossing lines: f1 across the line of r1, then the
            # residual f3 - f2, which vanishes on the line of r0
            (a1, b1), (a2, b2) = affs[1], affs[2]
            lin.append((_two_sector_term(rays[1], affs[1], affs[0]), D))
            lin.append((_two_sector_term(rays[0], (0, 0),
                                         (a2 - a1, b2 - b1)), D))
            break
        m, n = (j + 1) % k, (j + 2) % k
        (x0, y0), (x2, y2) = rays[j], rays[n]
        (aj, bj), (am, bm) = affs[j], affs[m]
        c1 = aj * x0 + bj * y0
        c2 = am * x2 + bm * y2
        det = x0 * y2 - y0 * x2
        f_p = (c1 * y2 - c2 * y0, x0 * c2 - x2 * c1)
        D *= det
        lin.append((_three_piece_linear(
            (rays[j], rays[m], rays[n]),
            ((aj * det, bj * det), (am * det, bm * det), f_p)), D))
        pa, pb = f_p
        affs = [(0, 0) if i == j else (a * det - pa, b * det - pb)
                for i, (a, b) in enumerate(affs)]
        del rays[m], affs[m]
        g = gcd(D, *(c for ab in affs for c in ab))
        if g > 1:
            D //= g
            affs = [(a // g, b // g) for a, b in affs]
    else:
        if len(rays) == 3:
            lin.append((_three_piece_linear(rays, affs), D))
        else:
            lin.append((_two_sector_term(rays[0], affs[0], affs[1]), D))
    a0, b0, c0 = sectors[0]
    fv = a0 * cX + b0 * cY + c0 * cW  # f(v) = fv/(L*cW)
    terms = []
    for (s1, f1, s2, f2, f3), Dt in lin:
        e1, e2 = (s1 * fv, s1 * s2 * fv) if not terms else (0, 0)
        terms.append(MaxTerm(s1, _reflected(f1, Dt, cX, cY, cW, e1, L),
                             s2, _reflected(f2, Dt, cX, cY, cW, e2, L),
                             _reflected(f3, Dt, cX, cY, cW, e2, L)))
    return terms


def edge_to_max(ep: EdgePair) -> MaxTerm:
    """One max/min term for a half-plane pair; the edge sign from the
    decomposition is folded into the outer sign.

    The two affines are compared at the probe where the boundary g is 1
    on its normal through the origin, on the integer forms (A, B, C, D)
    of g, fp and fm: the probe is (X, Y, W) = (t*A, t*B, A*A + B*B),
    t = D - C."""
    A, B, C, D = ep.boundary.int_form()
    t = D - C
    X, Y, W = t * A, t * B, A * A + B * B
    assert W > 0 and A * X + B * Y + C * W == D * W
    fp, fm = ep.plus_side_affine, ep.minus_side_affine
    (pa, pb, pc, pd), (ma, mb, mc, md) = fp.int_form(), fm.int_form()
    if (pa * X + pb * Y + pc * W) * md >= (ma * X + mb * Y + mc * W) * pd:
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
