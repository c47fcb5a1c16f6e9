"""Reference values computed without the cpa2relu package.

The gate compares what the package produced against these.  Everything
here reads only plain JSON documents (the instance file and the exported
network file) and uses exact integer and Fraction arithmetic:

* TriangulationReference evaluates a triangulated instance document by
  locating the point with integer orientation tests on the document's
  vertices, falling back to the one unbounded piece.
* ExportedNetwork runs the forward pass of an exported network document.
* gate_points draws check points inside the instance's doubled bounding
  box and far outside it, where the package's own sampler never looks.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm


def rational(value) -> Fraction:
    """A rational literal from a JSON document: an int or "num/den"."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a rational literal: {value!r}")
    return Fraction(value)


def _int_vertex(value) -> tuple[int, int]:
    x, y = (rational(v) for v in value)
    if x.denominator != 1 or y.denominator != 1:
        raise ValueError(f"triangulation vertex {value!r} is not integral")
    return int(x), int(y)


def _on_left_scaled(a, b, px: int, py: int, den: int) -> int:
    """Sign of orient(a, b, (px/den, py/den)) times den, in integers."""
    d = ((b[0] - a[0]) * (py - a[1] * den)
         - (b[1] - a[1]) * (px - a[0] * den))
    return (d > 0) - (d < 0)


class TriangulationReference:
    """f(x) for a document whose bounded pieces are triangles.

    Each bounded piece has one cycle of three segments; exactly one piece
    (the outer one) has a witness outside its own cycle's triangle or a
    longer cycle.  A point is assigned to the first closed triangle that
    contains it; continuity makes the choice on shared edges irrelevant.
    """

    def __init__(self, doc: dict):
        verts = {vid: _int_vertex(v) for vid, v in doc["vertices"].items()}
        edges = doc["edges"]
        self.triangles = []
        outer = []
        for pid, piece in sorted(doc["pieces"].items()):
            affine = tuple(rational(c) for c in piece["affine"])
            tri = self._triangle(piece, edges, verts)
            if tri is None:
                outer.append(affine)
            else:
                self.triangles.append((tri, affine))
        if len(outer) != 1:
            raise ValueError(f"expected one unbounded piece, found {len(outer)}")
        self.outer = outer[0]

    @staticmethod
    def _triangle(piece, edges, verts):
        comps = piece["boundary"]
        if len(comps) != 1 or comps[0]["kind"] != "cycle" \
                or len(comps[0]["edges"]) != 3:
            return None
        ids = set()
        for eid in comps[0]["edges"]:
            e = edges[eid]
            if e["kind"] != "segment":
                return None
            ids.update((e["a"], e["b"]))
        if len(ids) != 3:
            return None
        a, b, c = (verts[v] for v in sorted(ids))
        if _on_left_scaled(a, b, c[0], c[1], 1) < 0:
            b, c = c, b
        wx, wy = (rational(v) for v in piece["witness"])
        den = lcm(wx.denominator, wy.denominator)
        px, py = wx.numerator * (den // wx.denominator), \
            wy.numerator * (den // wy.denominator)
        if all(_on_left_scaled(p, q, px, py, den) > 0
               for p, q in ((a, b), (b, c), (c, a))):
            return a, b, c
        return None  # a three-edge hull whose witness lies outside: outer

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        den = lcm(x.denominator, y.denominator)
        px = x.numerator * (den // x.denominator)
        py = y.numerator * (den // y.denominator)
        affine = self.outer
        for (a, b, c), aff in self.triangles:
            if _on_left_scaled(a, b, px, py, den) >= 0 \
                    and _on_left_scaled(b, c, px, py, den) >= 0 \
                    and _on_left_scaled(c, a, px, py, den) >= 0:
                affine = aff
                break
        return affine[0] * x + affine[1] * y + affine[2]


class ExportedNetwork:
    """Exact forward pass of an exported network document."""

    def __init__(self, doc: dict):
        self.layers = []
        for raw in doc["layers"]:
            trips = [(int(r), int(c), rational(w)) for r, c, w in raw["triplets"]]
            bias = [rational(b) for b in raw["bias"]]
            if len(bias) != int(raw["rows"]):
                raise ValueError("bias length differs from the row count")
            self.layers.append((trips, bias))
        if len(self.layers) != 3 or int(doc["layers"][-1]["rows"]) != 1:
            raise ValueError("expected three layers ending in one output")

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        vals = [x, y]
        last = len(self.layers) - 1
        for li, (trips, bias) in enumerate(self.layers):
            acc = list(bias)
            for r, c, w in trips:
                v = vals[c]
                if v:
                    acc[r] += w * v
            vals = acc if li == last else [v if v > 0 else 0 for v in acc]
        return Fraction(vals[0])

    def coefficients(self):
        for trips, bias in self.layers:
            for _, _, w in trips:
                yield w
            yield from bias


def max_coeff_bits(net: ExportedNetwork) -> int:
    """Largest bit length of any weight or bias numerator or denominator."""
    return max(max(abs(w.numerator).bit_length(), w.denominator.bit_length())
               for w in net.coefficients())


def nonzero_parameters(net: ExportedNetwork) -> int:
    return sum(len(trips) + sum(1 for b in bias if b)
               for trips, bias in net.layers)


def document_box(doc: dict) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The coordinate extent of an instance document, doubled about its
    centre (the box the package's sampler draws from)."""
    pts = [tuple(rational(c) for c in v) for v in doc["vertices"].values()]
    pts += [tuple(rational(c) for c in p["witness"])
            for p in doc["pieces"].values()]
    pts += [tuple(rational(c) for c in e["p"])
            for e in doc["edges"].values() if e["kind"] == "line"]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    pad_x = w / 2 if w else Fraction(1)
    pad_y = h / 2 if h else Fraction(1)
    return min(xs) - pad_x, min(ys) - pad_y, max(xs) + pad_x, max(ys) + pad_y


FAR = 10 ** 6


def _between(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    den = rng.randint(1, 997)
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def gate_points(doc: dict, rng: random.Random, n_in: int,
                n_far: int) -> list[tuple[Fraction, Fraction]]:
    """n_in points in the doubled box and n_far points with a coordinate
    of magnitude up to FAR.  A third of the far points keep the other
    coordinate inside the box, so errors along one axis show up too."""
    x0, y0, x1, y1 = document_box(doc)
    pts = [(_between(rng, x0, x1), _between(rng, y0, y1)) for _ in range(n_in)]
    for i in range(n_far):
        fx = Fraction(rng.choice((-1, 1)) * rng.randint(FAR // 1000, FAR),
                      rng.randint(1, 7))
        fy = Fraction(rng.randint(-FAR, FAR), rng.randint(1, 7))
        if i % 3 == 1:
            fy = _between(rng, y0, y1)
        elif i % 3 == 2:
            fx, fy = _between(rng, x0, x1), fx
        pts.append((fx, fy))
    return pts
