"""Assembly of nested-max term lists into depth-3 ReLU networks.

Each term sigma1 * max(f1, sigma2 * max(f2, f3)) becomes one block of five
first-layer neurons and three second-layer neurons:

    layer 1:  u = relu(f1, -f1, f2 - f3, f3, -f3)
    layer 2:  with s = sigma2 * (u3 + u4 - u5)  (which equals sigma2 * max(f2, f3))
              and f1 reconstructed as u1 - u2 (the skip trick),
              w = relu(f1 - s, s, -s)
    output :  sigma1 * (w1 + w2 - w3)  summed over all blocks.

Blocks are disjoint: term n owns rows 5n..5n+4 and 3n..3n+2, so the whole
network has O(1) nonzero parameters per term.  Weights stay rational end to
end in the layers, the exports and the imports.  For exact evaluation each
network caches an integer form of its layers (ReluNetwork.kernel_form),
built on its first exact evaluation: every unit gets an integer scale, the
lcm of the denominators its row needs, and every row stores its weights
and bias multiplied by it.  ReLU commutes with a positive scale
(max(e*z, 0) = e*max(z, 0) for e > 0), so forward_layers runs the whole
pass on ints and eval_network divides once at the end.  Three of every
eight hidden rows above are the negation of the row before them (-f1,
-f3, -s): a row whose stored ints are the exact negation of its
predecessor's is folded into it, so the pass computes z once and writes
relu(z) and relu(-z).  The fold reads the ints alone, so it holds for any
network, built, imported or mutated, and a pair that a mutation breaks is
simply not folded.  A float64 evaluation path (float_form) exists for
sanity checks only.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Tuple

from .errors import CpaError, EmptyTermListError, SchemaError
from .geometry import Point, Rat, homogeneous, rat_from_json, rat_to_json
from .maxform import TermList

EXACT = "exact"
FLOAT64 = "float64"

_ZERO = Fraction(0)
# the +-1 weights of layers 2 and 3, shared: a Fraction is immutable
_UNIT = {1: Fraction(1), -1: Fraction(-1)}


@dataclass(frozen=True)
class AffineLayer:
    """One affine map x -> W x + b with sparse W (only nonzeros stored)."""

    rows: int
    cols: int
    weights: Dict[Tuple[int, int], Rat]
    bias: Tuple[Rat, ...]

    def __post_init__(self):
        if len(self.bias) != self.rows:
            raise ValueError("bias length must equal row count")
        for (r, c), w in self.weights.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"weight index ({r}, {c}) out of range")
            if w == 0:
                raise ValueError("stored weights must be nonzero")

    @property
    def nnz(self) -> int:
        return len(self.weights) + sum(1 for b in self.bias if b != 0)


@dataclass(frozen=True)
class ReluNetwork:
    """Three affine layers 2 -> 5N -> 3N -> 1 with ReLU between them."""

    layers: Tuple[AffineLayer, AffineLayer, AffineLayer]

    def __post_init__(self):
        if len(self.layers) != 3:
            raise ValueError("expected exactly three layers")
        l1, l2, l3 = self.layers
        if l1.cols != 2 or l3.rows != 1:
            raise ValueError("network must map the plane to a scalar")
        if l2.cols != l1.rows or l3.cols != l2.rows:
            raise ValueError("layer dimensions do not chain")
        if l1.rows % 5 != 0 or l2.rows != 3 * (l1.rows // 5):
            raise ValueError("hidden widths must be (5N, 3N)")

    @property
    def widths(self) -> Tuple[int, int]:
        return self.layers[0].rows, self.layers[1].rows

    @property
    def n_terms(self) -> int:
        return self.layers[0].rows // 5

    @cached_property
    def kernel_form(self):
        """(first, second, out, scale) for forward_layers, built on first
        exact evaluation.

        Each unit c has an integer scale e_c > 0 (_int_parts), and the
        pass carries A_c = e_c * W * a_c in place of the unit's exact
        value a_c at (X/W, Y/W), so x and y (scale 1) enter as X and Y.
        first and second are the hidden layers as (n, rows): n units, all
        0 until a row writes a positive value.  A row is
        (q, paired, a, b, c) in first, with z = a*X + b*Y + c*W, and
        (q, paired, pairs, B) in second, with z = B*W + sum w*A_c over
        its (col, w) pairs.  It writes relu(z) to unit q and, when
        paired, relu(-z) to unit q + 1.  Rows with no weights and a zero
        bias are left out.  out is the output row (pairs, B), without
        ReLU, and scale is the output unit's e.  Not a field, so equality
        and the export never see it.
        """
        l1, l2, l3 = self.layers
        first, scales = _first_rows(l1)
        second, scales = _sparse_rows(l2, scales)
        flat, ((bn, bd),), (e,) = _int_parts(l3, scales)
        out = tuple((c, n * (e // d)) for _, c, n, d in flat)
        return (l1.rows, first), (l2.rows, second), (out, bn * (e // bd)), e

    @cached_property
    def float_form(self):
        """Each layer as (sorted float triplets, float bias), built on
        first float64 evaluation or export.  Not a field either."""
        return _float_form(self)


def build_network(terms: TermList) -> ReluNetwork:
    """Stack one five/three-neuron block per term into a single network."""
    if not terms.terms:
        raise EmptyTermListError("cannot build a network from zero terms")
    n = len(terms.terms)
    w1: Dict[Tuple[int, int], Rat] = {}
    b1 = []
    w2: Dict[Tuple[int, int], Rat] = {}
    w3: Dict[Tuple[int, int], Rat] = {}
    for i, t in enumerate(terms.terms):
        r0, q0 = 5 * i, 3 * i
        for j, g in enumerate((t.f1, -t.f1, t.f2 - t.f3, t.f3, -t.f3)):
            if g.a:
                w1[r0 + j, 0] = g.a
            if g.b:
                w1[r0 + j, 1] = g.b
            b1.append(g.c)
        s2 = t.sigma2
        rows = ((1, -1, -s2, -s2, s2), (0, 0, s2, s2, -s2), (0, 0, -s2, -s2, s2))
        for j, row in enumerate(rows):
            for k, v in enumerate(row):
                if v:
                    w2[q0 + j, r0 + k] = _UNIT[v]
        s1 = t.sigma1
        w3[0, q0] = w3[0, q0 + 1] = _UNIT[s1]
        w3[0, q0 + 2] = _UNIT[-s1]
    return ReluNetwork((
        AffineLayer(5 * n, 2, w1, tuple(b1)),
        AffineLayer(3 * n, 5 * n, w2, (_ZERO,) * (3 * n)),
        AffineLayer(1, 3 * n, w3, (_ZERO,)),
    ))


def _int_parts(layer: AffineLayer, scales) -> tuple[list, list, list]:
    """(flat, bias, es) for a layer whose input unit c has integer scale
    s_c (1 for x and y).

    Row q gets e_q = lcm(den b_q, den w_qc * s_c over its weights) and
    stores W_qc = w_qc * e_q / s_c and B_q = b_q * e_q, both ints; e_q
    becomes the scale of unit q.  flat holds (r, c, n, d) per weight,
    w_rc * s_c = n/d, and bias (n, d) per row, so W_rc = n * (e_r // d)
    and likewise B_r.  Built on numerators and denominators only.
    """
    bias = [b.as_integer_ratio() for b in layer.bias]
    es = [bd for _, bd in bias]
    flat = []
    for (r, c), w in layer.weights.items():
        n, d = w.as_integer_ratio()
        d *= scales[c]
        e = es[r]
        if e % d:
            es[r] = lcm(e, d)
        flat.append((r, c, n, d))
    return flat, bias, es


def _first_rows(layer: AffineLayer) -> tuple[tuple, list]:
    """Layer 1 as the dense rows of ReluNetwork.kernel_form, and its unit
    scales.  A row that is the exact negation of the row before it,
    itself not folded, is folded into that row, and a zero row is left
    out (its unit is 0 after ReLU)."""
    flat, bias, es = _int_parts(layer, (1, 1))
    rows = [[0, 0, bn * (e // bd)] for (bn, bd), e in zip(bias, es)]
    for r, c, n, d in flat:
        rows[r][c] = n * (es[r] // d)
    out = []
    hq = -2
    for q, (a, b, c) in enumerate(rows):
        if hq == q - 1 and c == -hc and a == -ha and b == -hb:
            out[-1] = (hq, True) + out[-1][2:]
            hq = -2
        elif a or b or c:
            out.append((q, False, a, b, c))
            hq, ha, hb, hc = q, a, b, c
    return tuple(out), es


def _sparse_rows(layer: AffineLayer, scales) -> tuple[tuple, list]:
    """A later layer as the sparse rows of ReluNetwork.kernel_form,
    folded as in _first_rows, and its unit scales."""
    flat, bias, es = _int_parts(layer, scales)
    rows = [[] for _ in es]
    for r, c, n, d in flat:
        rows[r].append((c, n * (es[r] // d)))
    out = []
    hq = -2
    for q, (p, (bn, bd), e) in enumerate(zip(rows, bias, es)):
        b = bn * (e // bd)
        if (hq == q - 1 and b == -hb and len(p) == len(hp)
                and p == [(c, -w) for c, w in hp]):
            out[-1] = (hq, True) + out[-1][2:]
            hq = -2
        elif p or b:
            out.append((q, False, tuple(p), b))
            hq, hp, hb = q, p, b
    return tuple(out), es


def forward_layers(first, second, out, scale, X, Y, W):
    """Exact output of an integer 2 -> n1 -> n2 -> 1 ReLU network at
    (X/W, Y/W), W > 0, from a ReluNetwork.kernel_form (see there), as a
    pair (A, scale*W) whose quotient is the output.  ReLU is
    max(A_c, 0), exact because e_c*W > 0, and a unit that is 0 after
    ReLU adds nothing to the next layer.
    """
    n, rows = first
    vals = [0] * n
    for q, paired, a, b, c in rows:
        z = a * X + b * Y + c * W
        if z > 0:
            vals[q] = z
        elif paired and z:
            vals[q + 1] = -z
    n, rows = second
    prev, vals = vals, [0] * n
    for q, paired, pairs, z in rows:
        z *= W
        for c, w in pairs:
            v = prev[c]
            if v:
                z += w * v
        if z > 0:
            vals[q] = z
        elif paired and z:
            vals[q + 1] = -z
    pairs, z = out
    z *= W
    for c, w in pairs:
        v = vals[c]
        if v:
            z += w * v
    return z, scale * W


def _float_form(net: ReluNetwork):
    out = []
    try:
        for layer in net.layers:
            trips = sorted((r, c, float(w))
                           for (r, c), w in layer.weights.items())
            out.append((trips, [float(b) for b in layer.bias]))
    except OverflowError as exc:
        raise CpaError(f"a weight is beyond float64 range: {exc}") from None
    return out


def _forward_float(flayers, x: Point) -> float:
    try:
        vals = [float(x.x), float(x.y)]
    except OverflowError as exc:
        raise CpaError(f"the point is beyond float64 range: {exc}") from None
    last = len(flayers) - 1
    for li, (trips, bias) in enumerate(flayers):
        acc = list(bias)
        for r, c, w in trips:
            acc[r] += w * vals[c]
        if li != last:
            vals = [v if v > 0.0 else 0.0 for v in acc]
        else:
            vals = acc
    return vals[0]


def eval_network(net: ReluNetwork, x: Point, mode: str = EXACT):
    """Forward pass at a point; exact rationals or a one-shot float64 cast."""
    if mode == EXACT:
        n, d = forward_layers(*net.kernel_form, *homogeneous(x))
        return Fraction(n, d)
    if mode == FLOAT64:
        return _forward_float(net.float_form, x)
    raise ValueError(f"unknown evaluation mode: {mode!r}")


def stats(net: ReluNetwork, p: int) -> dict:
    """Widths, nonzero parameter count, and the per-piece size bounds."""
    s1, s2 = net.widths
    nnz = sum(layer.nnz for layer in net.layers)
    return {
        "s1": s1,
        "s2": s2,
        "nnz": nnz,
        "bounds_ok": s1 <= 45 * p and s2 <= 27 * p and nnz <= 333 * p,
        "n_terms": net.n_terms,
        "terms_per_piece": str(Fraction(net.n_terms, p)),
    }


def export_network(net: ReluNetwork, include_float: bool = False) -> dict:
    doc = {
        "dims": [2, net.widths[0], net.widths[1], 1],
        "layers": [
            {
                "rows": layer.rows,
                "cols": layer.cols,
                "triplets": [
                    [r, c, rat_to_json(w)]
                    for (r, c), w in sorted(layer.weights.items())
                ],
                "bias": [rat_to_json(b) for b in layer.bias],
            }
            for layer in net.layers
        ],
    }
    if include_float:
        doc["float_mirror"] = {"layers": [
            {"triplets": [list(t) for t in trips], "bias": list(bias)}
            for trips, bias in net.float_form]}
    return doc


def _require_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise SchemaError(f"{what} must be an integer, got {v!r}")
    return int(v)


def import_network(doc) -> ReluNetwork:
    """Rebuild a network from its exported document, bit for bit."""
    if not isinstance(doc, dict):
        raise SchemaError("network document must be an object")
    dims = doc.get("dims")
    raw_layers = doc.get("layers")
    if not isinstance(dims, list) or len(dims) != 4:
        raise SchemaError("dims must be a list of four integers")
    dims = [_require_int(v, "dims entry") for v in dims]
    if not isinstance(raw_layers, list) or len(raw_layers) != 3:
        raise SchemaError("layers must be a list of three objects")
    layers = []
    for li, raw in enumerate(raw_layers):
        if not isinstance(raw, dict):
            raise SchemaError("each layer must be an object")
        rows = _require_int(raw.get("rows"), "rows")
        cols = _require_int(raw.get("cols"), "cols")
        if rows != dims[li + 1] or cols != dims[li]:
            raise SchemaError(
                f"layer {li} is {rows}x{cols}, dims demand {dims[li + 1]}x{dims[li]}"
            )
        weights: Dict[Tuple[int, int], Rat] = {}
        trips = raw.get("triplets")
        if not isinstance(trips, list):
            raise SchemaError("triplets must be a list")
        for entry in trips:
            if not isinstance(entry, list) or len(entry) != 3:
                raise SchemaError(f"malformed triplet {entry!r}")
            r = _require_int(entry[0], "triplet row")
            c = _require_int(entry[1], "triplet col")
            if not (0 <= r < rows and 0 <= c < cols):
                raise SchemaError(f"triplet index ({r}, {c}) out of range")
            if (r, c) in weights:
                raise SchemaError(f"duplicate triplet for ({r}, {c})")
            w = rat_from_json(entry[2])
            if w == 0:
                raise SchemaError(f"zero weight stored at ({r}, {c})")
            weights[r, c] = w
        bias_raw = raw.get("bias")
        if not isinstance(bias_raw, list) or len(bias_raw) != rows:
            raise SchemaError("bias must list one value per row")
        bias = tuple(rat_from_json(b) for b in bias_raw)
        layers.append(AffineLayer(rows, cols, weights, bias))
    try:
        return ReluNetwork(tuple(layers))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
