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
network caches an integer form of its layers (_kernel_form): every unit
gets an integer scale, the lcm of the denominators its row needs, and
every row stores its weights and bias multiplied by it.  ReLU commutes
with a positive scale, so kernels.forward_layers runs the whole pass on
ints and eval_network divides once at the end.  A float64 evaluation path
exists for sanity checks only.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Tuple

from .errors import EmptyTermListError, SchemaError
from .geometry import Point, Rat, homogeneous, rat_from_json, rat_to_json
from .kernels import forward_layers
from .maxform import TermList

EXACT = "exact"
FLOAT64 = "float64"

_ZERO = Fraction(0)


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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
    def input_dim(self) -> int:
        return 2

    @property
    def output_dim(self) -> int:
        return 1

    @property
    def widths(self) -> Tuple[int, int]:
        return self.layers[0].rows, self.layers[1].rows

    @property
    def n_terms(self) -> int:
        return self.layers[0].rows // 5


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
                    w2[q0 + j, r0 + k] = Fraction(v)
        s1 = Fraction(t.sigma1)
        w3[0, q0] = s1
        w3[0, q0 + 1] = s1
        w3[0, q0 + 2] = -s1
    return ReluNetwork((
        AffineLayer(5 * n, 2, w1, tuple(b1)),
        AffineLayer(3 * n, 5 * n, w2, (_ZERO,) * (3 * n)),
        AffineLayer(1, 3 * n, w3, (_ZERO,)),
    ))


def _kernel_form(net: ReluNetwork):
    """Integer rows of every layer and the output unit's scale.

    Unit c carries an integer scale s_c (1 for x and y).  Row q gets
    e_q = lcm(den b_q, den w_qc * s_c over its weights) and stores
    W_qc = w_qc * e_q / s_c and B_q = b_q * e_q, both ints; e_q becomes
    the scale of unit q.  Built on numerators and denominators only.
    """
    scales = (1, 1)
    layers = []
    for layer in net.layers:
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
        pairs = [[] for _ in es]
        for r, c, n, d in flat:
            pairs[r].append((c, n * (es[r] // d)))
        layers.append([(tuple(p), bn * (e // bd))
                       for p, (bn, bd), e in zip(pairs, bias, es)])
        scales = es
    return layers, scales[0]


def _float_form(net: ReluNetwork):
    out = []
    for layer in net.layers:
        trips = sorted((r, c, float(w)) for (r, c), w in layer.weights.items())
        out.append((layer.rows, trips, [float(b) for b in layer.bias]))
    return out


def _forward_float(flayers, x: Point) -> float:
    vals = [float(x.x), float(x.y)]
    last = len(flayers) - 1
    for li, (rows, trips, bias) in enumerate(flayers):
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
        kl = net._cache.get("kernel")
        if kl is None:
            kl = net._cache["kernel"] = _kernel_form(net)
        n, d = forward_layers(*kl, *homogeneous(x))
        return Fraction(n, d)
    if mode == FLOAT64:
        fl = net._cache.get("float")
        if fl is None:
            fl = net._cache["float"] = _float_form(net)
        return _forward_float(fl, x)
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
        doc["float_mirror"] = {
            "layers": [
                {
                    "triplets": [
                        [r, c, float(w)]
                        for (r, c), w in sorted(layer.weights.items())
                    ],
                    "bias": [float(b) for b in layer.bias],
                }
                for layer in net.layers
            ],
        }
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
