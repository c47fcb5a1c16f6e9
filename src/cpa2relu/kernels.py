"""Exact evaluation kernels on integer pairs.

Rationals travel as (numerator, denominator) int pairs with positive
denominators, points as (xn, xd, yn, yd).  Working on plain ints skips
the Fraction object and the gcd that each Fraction operation pays; the
kernels reduce once per accumulated value instead.  All arithmetic is
exact.  TermList.__call__, network.eval_network and the crossing-parity
membership in model run on these kernels.
"""
from math import gcd


def line_sign(A, B, C, xn, xd, yn, yd):
    """Sign of A*x + B*y + C at the rational point (xn/xd, yn/yd)."""
    v = A * xn * yd + B * yn * xd + C * xd * yd
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def eval_terms(terms, xn, xd, yn, yd):
    """Exact value of a sum of nested-max terms at a rational point.

    Each term is a flat int tuple
        (s1, s2, A1, B1, C1, D1, A2, B2, C2, D2, A3, B3, C3, D3)
    encoding s1 * max(f1, s2 * max(f2, f3)) with fi = (Ai*x + Bi*y + Ci)/Di
    and Di > 0.  Returns a reduced rational pair.
    """
    P = xd * yd
    acc_n, acc_d = 0, 1
    for (s1, s2, A1, B1, C1, D1, A2, B2, C2, D2, A3, B3, C3, D3) in terms:
        N1 = A1 * xn * yd + B1 * yn * xd + C1 * P
        N2 = A2 * xn * yd + B2 * yn * xd + C2 * P
        N3 = A3 * xn * yd + B3 * yn * xd + C3 * P
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
        tn, td = s1 * Nt, Dt * P
        acc_n = acc_n * td + tn * acc_d
        acc_d = acc_d * td
        g = gcd(abs(acc_n), acc_d)
        if g > 1:
            acc_n //= g
            acc_d //= g
    return acc_n, acc_d


def forward_layers(layers, xn, xd, yn, yd):
    """Exact forward pass of affine layers with ReLU between them.

    layers is a list of (rows, triplets, bias): triplets are
    (row, col, wn, wd) with wd > 0, bias a list of (bn, bd) pairs with
    bd > 0.  ReLU is applied after every layer except the last; the last
    layer must have a single row.  Returns a reduced rational pair.
    """
    vals = [(xn, xd), (yn, yd)]
    last = len(layers) - 1
    for li, (rows, triplets, bias) in enumerate(layers):
        acc = [(bn, bd) for (bn, bd) in bias]
        for (r, c, wn, wd) in triplets:
            vn, vd = vals[c]
            pn = wn * vn
            pd = wd * vd
            an, ad = acc[r]
            acc[r] = (an * pd + pn * ad, ad * pd)
        out = []
        for (n, d) in acc:
            g = gcd(abs(n), d)
            if g > 1:
                n //= g
                d //= g
            if li != last and n <= 0:
                out.append((0, 1))
            else:
                out.append((n, d))
        vals = out
    if len(vals) != 1:
        raise ValueError("final layer must produce a single value")
    return vals[0]
