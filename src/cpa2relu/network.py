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
the end.  The integer form numbers each distinct hidden row once, up to
sign (value numbering): three of every eight hidden rows above negate
another row of their block (-f1, -f3, -s), and vertex fans and edges share
piece affines, so the same layer-1 row recurs across blocks.  A reader's
weights u on relu(z) and d on relu(-z) then fold by
u*relu(z) + d*relu(-z) = (u + d)*relu(z) - d*z, with -d*z going into the
reader's affine part, so every unit the pass computes is an integer affine
in (X, Y, W) plus relu reads of earlier rows, and a row goes through a
ReLU only where some reader's u + d is nonzero.  In a block that leaves
f2 - f3 and f1 - s: f1, f3 and s reach the output linearly.  The layers
themselves, and so the 2 / 5N / 3N / 1 template and the export, are
unchanged.  The keys and the fold read the ints alone, so they hold for
any network, built, imported or mutated, and a pair that a mutation
breaks keeps a ReLU read of weight u + d.  A float64 evaluation path
(float_form) exists for sanity checks only.
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
        Each hidden layer keeps each distinct nonzero row, up to sign,
        once (_first_rows, _second_rows): a unit reads relu(z) or
        relu(-z) of its row, and a unit whose row is zero is always 0.
        A reader's weights u on relu(z) and d on relu(-z) become
        (u + d)*relu(z) - d*z, with -d*z in the reader's affine part, so
        only a row that some reader gives u + d != 0 goes through a ReLU:
            first  = ((a, b, c, reads), ...) those layer-1 rows; reads
                     is ((i, w), ...), adding w*relu(z) into second[i]
            second = ((a, b, c), ...) the affine parts of those layer-2
                     rows, and last the output's
            out    = (w, ...) each such layer-2 row's output weight
        The output is not ReLU'd, and scale is its unit's e.  Not a
        field, so equality and the export never see it.
        """
        l1, l2, l3 = self.layers
        rows1, units, scales = _first_rows(l1)
        rows2, units, scales = _second_rows(l2, scales, units)
        flat, ((bn, bd),), (e,) = _int_parts(l3, scales)
        bo = bn * (e // bd)
        # the output reads layer-2 row P with u + d, and its d*relu(-P)
        # leaves -d*P, whose slot weights it reads on layer 1 directly
        out = [0] * len(rows2)
        lin: dict = {}
        for _, c, n, d in flat:
            s = units[c]
            if s is None:
                continue
            w = n * (e // d)
            j = s >> 1
            out[j] += w
            if s & 1:
                pairs, b = rows2[j]
                bo -= w * b
                for s1, v in pairs:
                    lin[s1] = lin.get(s1, 0) - w * v
        kept = [j for j, t in enumerate(out) if t]
        readers = [rows2[j] for j in kept]
        readers.append((((s, w) for s, w in lin.items() if w), bo))
        # reader i's weight d on relu(-z) adds d to its read of relu(z)
        # and -d*z to its affine part; while i is folded its reads are
        # last in each reads[k], so a second read of z merges there, and
        # a zero sum is dropped
        reads: list[list] = [[] for _ in rows1]
        second = []
        for i, (pairs, c0) in enumerate(readers):
            x = y = 0
            for s, w in pairs:
                k = s >> 1
                if s & 1:
                    a, b, c = rows1[k]
                    x -= w * a
                    y -= w * b
                    c0 -= w * c
                rk = reads[k]
                if rk and rk[-1][0] == i:
                    w += rk.pop()[1]
                    if not w:
                        continue
                rk.append((i, w))
            second.append((x, y, c0))
        first = tuple((*row, tuple(r)) for row, r in zip(rows1, reads) if r)
        return first, tuple(second), tuple(out[j] for j in kept), e

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
    """(flat, bias, es) for a later layer whose input unit c has integer
    scale s_c.

    Row q gets e_q = lcm(den b_q, den w_qc / s_c over its weights) and
    stores W_qc = w_qc * e_q / s_c and B_q = b_q * e_q, both ints; e_q
    becomes the scale of unit q.  flat holds (r, c, n, d) per weight,
    w_rc / s_c = n/d, and bias (n, d) per row, so W_rc = n * (e_r // d)
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

    Row q's scale is the lcm of the denominators of its x, y and bias
    coefficients, as _int_parts gives with s = 1 for x and y.  A row is
    keyed by its ints up to sign: its first nonzero coefficient is made
    positive.  Row k, the k-th distinct key, has the slots 2k, relu(z),
    and 2k + 1, relu(-z); a unit reads the slot of its own orientation,
    and a unit whose row is zero reads None."""
    cols = ([(0, 1)] * layer.rows, [(0, 1)] * layer.rows)
    for (r, c), w in layer.weights.items():
        cols[c][r] = w.as_integer_ratio()
    seen: dict = {}
    rows, units, es = [], [], []
    for (an, ad), (bn, bd), bias in zip(*cols, layer.bias):
        cn, cd = bias.as_integer_ratio()
        e = lcm(ad, bd, cd)
        es.append(e)
        a, b, c = an * (e // ad), bn * (e // bd), cn * (e // cd)
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


def _second_rows(layer: AffineLayer, scales, units) -> tuple[list, list, list]:
    """Layer 2's distinct nonzero rows as (pairs, B), pairs holding
    (slot, W) per layer-1 slot the row reads, the slot each unit reads
    and the unit scales.  A weight on a unit that reads no slot is
    dropped, since that unit is always 0; weights on one slot are
    summed, and a zero sum is dropped.  Rows are keyed up to sign as in
    _first_rows: the first weight, or B when there is none, is made
    positive."""
    flat, bias, es = _int_parts(layer, scales)
    slotted: list[dict] = [{} for _ in es]
    for r, c, n, d in flat:
        s = units[c]
        if s is not None:
            row = slotted[r]
            w = n * (es[r] // d)
            if s in row:
                w += row.pop(s)
                if not w:
                    continue
            row[s] = w
    seen: dict = {}
    rows, units = [], []
    for row, (bn, bd), e in zip(slotted, bias, es):
        b = bn * (e // bd)
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
    pair (A, scale*W) whose quotient is the output.  Each kept layer-2
    row and the output start at their affine parts; each kept layer-1
    row adds its relu(z) into the rows that read it, and each kept
    layer-2 row its relu into the output.  ReLU is max(A_c, 0), exact
    because e_c*W > 0, and a z <= 0 adds nothing.
    """
    acc = [a * X + b * Y + c * W for a, b, c in second]
    for a, b, c, reads in first:
        z = a * X + b * Y + c * W
        if z > 0:
            for i, w in reads:
                acc[i] += w * z
    n = acc.pop()
    for z, w in zip(acc, out):
        if z > 0:
            n += w * z
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
