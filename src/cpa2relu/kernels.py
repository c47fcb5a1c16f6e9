"""Exact evaluation kernels on plain ints.

Points travel as homogeneous (X, Y, W): the point (X/W, Y/W) with W > 0
(geometry.homogeneous), so A*X + B*Y + C*W is W times the value of
A*x + B*y + C there.  Working on plain ints skips the Fraction object and
the gcd that each Fraction operation pays.  eval_blocks and eval_terms
need one denominator only: every affine of a decomposition, and of a
term list, is stored as an integer triple over its common denominator
L, so each value it takes at a sample is an int over L*W with L*W > 0.
eval_blocks sums the triples its blocks select and applies the sum once;
eval_terms compares the numerators of each term's maxes directly and
sums them.  forward_layers needs no denominators at all: each network
unit carries a fixed integer scale, folded into its row's integer
weights once per network, so a forward pass is integer multiply-adds and
one division at the end.  ReLU commutes with a positive scale
(max(e*z, 0) = e*max(z, 0) for e > 0), so it is applied to the scaled
ints directly, and a row stored as the negation of the row before it is
folded into that row: z is computed once, relu(z) and relu(-z) written.
All arithmetic is exact.  decompose.eval_decomposition,
TermList.__call__, network.eval_network and the crossing-parity
membership in model run on these kernels.
"""
from .geometry import sector_index


def line_sign(A, B, C, X, Y, W):
    """Sign of A*x + B*y + C at the point (X/W, Y/W), W > 0."""
    v = A * X + B * Y + C * W
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def eval_blocks(fans, pairs, tail, X, Y, W):
    """W*L times the value of a decomposition at the point (X/W, Y/W),
    L the common denominator of its integer triples (a, b, c), each
    standing for (a*x + b*y + c)/L.

    fans holds (cX, cY, cW, rays, sectors) per fan: its centre in
    homogeneous form, its rays as integer pairs in strict CCW order and
    one triple per sector.  The offset (X*cW - cX*W, Y*cW - cY*W) is a
    positive multiple of x - centre, so sector_index finds its sector: a
    point on ray i takes sector i, and the centre takes sector 0.  pairs
    holds (A, B, C, plus, minus) per edge pair: the boundary line and the
    triple on each side, the pair's sign already folded in; a point with
    A*X + B*Y + C*W >= 0 takes plus, the line included.  tail is one
    triple.  The selected triples are summed, then applied once.
    """
    a, b, c = tail
    for cX, cY, cW, rays, sectors in fans:
        u = (X * cW - cX * W, Y * cW - cY * W)
        sa, sb, sc = sectors[sector_index(rays, u)[0] if u != (0, 0) else 0]
        a += sa
        b += sb
        c += sc
    for A, B, C, plus, minus in pairs:
        sa, sb, sc = plus if A * X + B * Y + C * W >= 0 else minus
        a += sa
        b += sb
        c += sc
    return a * X + b * Y + c * W


def eval_terms(L, terms, X, Y, W):
    """Exact value of a sum of nested-max terms at the point (X/W, Y/W),
    W > 0, as a pair (N, L*W) whose quotient is the value.

    Each term is a flat int tuple
        (s1, s2, a1, b1, c1, a2, b2, c2, a3, b3, c3)
    encoding s1 * max(f1, s2 * max(f2, f3)) with fi = (ai*x + bi*y + ci)/L,
    one common denominator L > 0 for all terms.  ni = ai*X + bi*Y + ci*W
    is L*W*fi and L*W > 0, so the maxes compare the ni directly and the
    terms sum on ints.
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


def forward_layers(first, second, out, scale, X, Y, W):
    """Exact output of an integer 2 -> n1 -> n2 -> 1 ReLU network at
    (X/W, Y/W), W > 0, as a pair (A, scale*W) whose quotient is the
    output; scale is the output unit's e.

    Each unit c has an integer scale e_c > 0 (see network._kernel_form),
    and the pass carries A_c = e_c * W * a_c in place of the unit's exact
    value a_c, so x and y (scale 1) enter as X and Y.  ReLU is
    max(A_c, 0), exact because e_c*W > 0.  first and second are the
    hidden layers as (n, rows): n units, all 0 until a row writes a
    positive value.  A row is (q, paired, a, b, c) in first, with
    z = a*X + b*Y + c*W, and (q, paired, pairs, B) in second, with
    z = B*W + sum w*A_c over its (col, w) pairs.  It writes relu(z) to
    unit q and, when paired, relu(-z) to unit q + 1.  A unit that is 0
    after ReLU adds nothing to the next layer.  out is the output row
    (pairs, B), without ReLU.
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
