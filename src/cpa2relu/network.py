"""Assembly of nested-max term lists into depth-3 ReLU networks.

Each term sigma1 * max(f1, sigma2 * max(f2, f3)) becomes one block of five
first-layer neurons and three second-layer neurons:

    layer 1:  u = relu(f1, -f1, f2 - f3, f3, -f3)
    layer 2:  with s = sigma2 * (u3 + u4 - u5)  (which equals sigma2 * max(f2, f3))
              and f1 reconstructed as u1 - u2 (the skip trick),
              w = relu(f1 - s, s, -s)
    output :  sigma1 * (w1 + w2 - w3)  summed over all blocks.

Blocks are disjoint: term n owns rows 5n..5n+4 and 3n..3n+2, so the whole
network has O(1) nonzero parameters per term.  build_network copies layer 1
from each term's cached MaxTerm.block_rows and layers 2 and 3 from one
template per sign, so a mutant redoes no arithmetic for the terms it keeps.
Weights stay rational end to end in the layers, the exports and the
imports.  For exact evaluation each network caches an integer form of its
layers (ReluNetwork.kernel_form), built on its first exact evaluation:
every unit gets an integer scale, the lcm of the denominators its row
needs, and every row stores its weights and bias multiplied by it.  ReLU
commutes with a positive scale (max(e*z, 0) = e*max(z, 0) for e > 0), so
forward_layers runs the whole pass on ints and eval_network divides once at
the end.  The integer form computes each distinct hidden row once (value
numbering): three of every eight hidden rows above negate another row of
their block (-f1, -f3, -s), and vertex fans and edges share piece affines,
so the same layer-1 row recurs across blocks.  A hidden row is keyed by its
ints up to sign; the first row with a key computes z, and every unit with
that key reads its relu(z) or relu(-z).  The pass runs forward: a layer-1
row adds the one of the two that is nonzero into the layer-2 rows that read
it, so the weights on the zero one cost nothing.  The layers themselves,
and so the 2 / 5N / 3N / 1 template and the export, are unchanged.  The
keys are the ints alone, so sharing holds for any network, built, imported
or mutated, and a pair that a mutation breaks is simply not shared.  A
float64 evaluation path (float_form) exists for sanity checks only.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import neg
from typing import Dict, Tuple

from .errors import CpaError, EmptyTermListError, SchemaError
from .geometry import Point, Rat, homogeneous, rat_from_json, rat_to_json
from .maxform import TermList

EXACT = "exact"
FLOAT64 = "float64"

_ZERO = Fraction(0)
# a block's layer-2 (row, column, weight) by sigma2 and output (column,
# weight) by sigma1; a Fraction is immutable, so blocks share the weights
_SECOND = {s: tuple((j, k, Fraction(v)) for j, row in enumerate(
    ((1, -1, -s, -s, s), (0, 0, s, s, -s), (0, 0, -s, -s, s)))
    for k, v in enumerate(row) if v) for s in (1, -1)}
_OUT = {s: tuple(enumerate(map(Fraction, (s, s, -s)))) for s in (1, -1)}


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
        Units whose rows hold the same ints carry the same A, and a row
        whose ints are negated carries relu(-z) where the other carries
        relu(z), so each hidden layer keeps each distinct nonzero row, up
        to sign, once (_first_rows, _second_rows); a unit whose row is
        zero is always 0 and is read by nothing.  The pass runs forward:
        each kept layer-1 row computes z = a*X + b*Y + c*W and adds its
        relu(z) or relu(-z), whichever is nonzero, into the layer-2 rows
        that read it.
            first  = ((a, b, c, up, down), ...) the layer-1 rows read by
                     some layer-2 row; up and down are ((i, w), ...),
                     adding w*relu(z) or w*relu(-z) into layer-2 row i
            second = (B, ...), layer-2 row i starting at B*W
            out    = (B, ((wp, wn), ...)), the output B and the weights
                     of relu(z) and relu(-z) of each layer-2 row
        Weights from units that read one value are summed, so each i
        occurs at most once in an up or down list; the output is not
        ReLU'd, and scale is its unit's e.  Not a field, so equality and
        the export never see it.
        """
        l1, l2, l3 = self.layers
        rows1, units, scales = _first_rows(l1)
        rows2, units, scales = _second_rows(l2, scales, units)
        (out,), (bo,), (e,) = _slot_rows(l3, scales, units)
        # slot 2k of a layer is relu(z) of its row k, slot 2k + 1 relu(-z)
        reads: list[list] = [[] for _ in range(2 * len(rows1))]
        for i, (pairs, _) in enumerate(rows2):
            for s, w in pairs:
                reads[s].append((i, w))
        first = tuple((*row, tuple(up), tuple(down))
                      for row, up, down in zip(rows1, reads[::2], reads[1::2])
                      if up or down)
        wts = [0] * (2 * len(rows2))
        for s, w in out.items():
            wts[s] = w
        return (first, tuple(b for _, b in rows2),
                (bo, tuple(zip(wts[::2], wts[1::2]))), e)

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
        for r, (a, b, c) in enumerate(t.block_rows, r0):
            if a:
                w1[r, 0] = a
            if b:
                w1[r, 1] = b
            b1.append(c)
        for j, k, w in _SECOND[t.sigma2]:
            w2[q0 + j, r0 + k] = w
        for j, w in _OUT[t.sigma1]:
            w3[0, q0 + j] = w
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


def _first_rows(layer: AffineLayer) -> tuple[list, list, list]:
    """Layer 1's distinct nonzero rows as int triples (a, b, c), the slot
    each unit reads and the unit scales.

    A row is keyed by its ints up to sign: its first nonzero coefficient
    is made positive.  Row k, the k-th distinct key, has the slots 2k,
    relu(z), and 2k + 1, relu(-z); a unit reads the slot of its own
    orientation, and a unit whose row is zero reads None."""
    flat, bias, es = _int_parts(layer, (1, 1))
    ints = [[0, 0, bn * (e // bd)] for (bn, bd), e in zip(bias, es)]
    for r, c, n, d in flat:
        ints[r][c] = n * (es[r] // d)
    seen: dict = {}
    rows, units = [], []
    for a, b, c in ints:
        lead = a or b or c
        if not lead:
            units.append(None)
            continue
        key = (a, b, c) if lead > 0 else (-a, -b, -c)
        j = seen.get(key)
        if j is None:
            j = seen[key] = 2 * len(rows)
            rows.append(key)
        units.append(j if lead > 0 else j + 1)
    return rows, units, es


def _slot_rows(layer: AffineLayer, scales, units) -> tuple[list, list, list]:
    """A later layer on the slots of the layer before: per row a dict
    {slot: W} and B, and the layer's unit scales.  A weight on a unit
    that reads no slot is dropped, since that unit is always 0; weights
    on one slot are summed, and a zero sum is dropped."""
    flat, bias, es = _int_parts(layer, scales)
    rows: list[dict] = [{} for _ in es]
    for r, c, n, d in flat:
        s = units[c]
        if s is not None:
            row = rows[r]
            w = n * (es[r] // d)
            if s in row:
                w += row.pop(s)
                if not w:
                    continue
            row[s] = w
    return rows, [bn * (e // bd) for (bn, bd), e in zip(bias, es)], es


def _second_rows(layer: AffineLayer, scales, units) -> tuple[list, list, list]:
    """Layer 2's distinct nonzero rows as (pairs, B) on layer 1's slots
    (_slot_rows), the slot each unit reads and the unit scales, keyed up
    to sign as in _first_rows: the first weight, or B when there is
    none, is made positive."""
    slotted, bs, es = _slot_rows(layer, scales, units)
    seen: dict = {}
    rows, units = [], []
    for row, b in zip(slotted, bs):
        pairs = tuple(row.items())
        lead = pairs[0][1] if pairs else b
        if not lead:
            units.append(None)
            continue
        if lead < 0:
            pairs, b = tuple(zip(row, map(neg, row.values()))), -b
        key = (pairs, b)
        j = seen.get(key)
        if j is None:
            j = seen[key] = 2 * len(rows)
            rows.append(key)
        units.append(j if lead > 0 else j + 1)
    return rows, units, es


def forward_layers(first, second, out, scale, X, Y, W):
    """Exact output of an integer 2 -> n1 -> n2 -> 1 ReLU network at
    (X/W, Y/W), W > 0, from a ReluNetwork.kernel_form (see there), as a
    pair (A, scale*W) whose quotient is the output.  ReLU is
    max(A_c, 0), exact because e_c*W > 0.  Of relu(z) and relu(-z) at
    most one is nonzero, so each layer-1 row adds only the weights that
    read that one, and a zero z adds nothing.
    """
    acc = [b * W for b in second]
    for a, b, c, up, down in first:
        z = a * X + b * Y + c * W
        if z > 0:
            for i, w in up:
                acc[i] += w * z
        elif z:
            for i, w in down:
                acc[i] -= w * z
    b, weights = out
    n = b * W
    for z, (wp, wn) in zip(acc, weights):
        if z > 0:
            n += wp * z
        elif z:
            n -= wn * z
    return n, scale * W


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
