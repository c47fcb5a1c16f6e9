"""Exact evaluation kernels on plain ints.

Points travel as homogeneous (X, Y, W): the point (X/W, Y/W) with W > 0
(geometry.homogeneous), so A*X + B*Y + C*W is W times the value of
A*x + B*y + C there.  Working on plain ints skips the Fraction object and
the gcd that each Fraction operation pays.  eval_terms carries
(numerator, denominator) pairs and reduces once per accumulated value.
forward_layers needs no denominators at all: each network unit carries a
fixed integer scale, folded into its row's integer weights once per
network, so a forward pass is integer multiply-adds and one division at
the end.  ReLU commutes with a positive scale (max(e*z, 0) = e*max(z, 0)
for e > 0), so it is applied to the scaled ints directly.  All
arithmetic is exact.  TermList.__call__, network.eval_network and the
crossing-parity membership in model run on these kernels.
"""
from math import gcd


def line_sign(A, B, C, X, Y, W):
    """Sign of A*x + B*y + C at the point (X/W, Y/W), W > 0."""
    v = A * X + B * Y + C * W
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def eval_terms(terms, X, Y, W):
    """Exact value of a sum of nested-max terms at the point (X/W, Y/W).

    Each term is a flat int tuple
        (s1, s2, A1, B1, C1, D1, A2, B2, C2, D2, A3, B3, C3, D3)
    encoding s1 * max(f1, s2 * max(f2, f3)) with fi = (Ai*x + Bi*y + Ci)/Di
    and Di > 0.  Returns a reduced rational pair.
    """
    acc_n, acc_d = 0, 1
    for (s1, s2, A1, B1, C1, D1, A2, B2, C2, D2, A3, B3, C3, D3) in terms:
        N1 = A1 * X + B1 * Y + C1 * W
        N2 = A2 * X + B2 * Y + C2 * W
        N3 = A3 * X + B3 * Y + C3 * W
        # max(f2, f3), exact comparison via cross multiplication
        if N2 * D3 >= N3 * D2:
            Nm, Dm = N2, D2
        else:
            Nm, Dm = N3, D3
        # s2 * max(f2, f3) versus f1
        if N1 * Dm >= s2 * Nm * D1:
            Nt, Dt = N1, D1
        else:
            Nt, Dt = s2 * Nm, Dm
        tn, td = s1 * Nt, Dt * W
        acc_n = acc_n * td + tn * acc_d
        acc_d = acc_d * td
        g = gcd(abs(acc_n), acc_d)
        if g > 1:
            acc_n //= g
            acc_d //= g
    return acc_n, acc_d


def forward_layers(layers, scale, X, Y, W):
    """Exact forward pass of integer layers with ReLU between them.

    layers is a list of layers, each a list of rows (pairs, B) where
    pairs is a tuple of (col, W) int pairs; the last layer has one row.
    Each unit c has an integer scale e_c > 0 (see network._kernel_form),
    and the pass carries A_c = e_c * W * a_c in place of the unit's exact
    value a_c.  So x and y (scale 1) enter as X and Y, and a row
    computes A_q = B*W + sum w*A_c over its (col, w) pairs.  ReLU is
    max(A_q, 0), exact because e_q*W > 0.  scale is the output unit's
    e; returns (A, scale*W), whose quotient is the output.
    """
    vals = (X, Y)
    last = len(layers) - 1
    for li, rows in enumerate(layers):
        out = []
        for pairs, z in rows:
            z *= W
            for c, w in pairs:
                z += w * vals[c]
            out.append(z if z > 0 or li == last else 0)
        vals = out
    return vals[0], scale * W
