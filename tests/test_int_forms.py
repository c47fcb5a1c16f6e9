"""The integer evaluators agree exactly with Fraction references:
geometry.line_sign, maxform.eval_terms and network.forward_layers.
Points are drawn in homogeneous form (X, Y, W), W > 0, with W not
necessarily the one geometry.homogeneous would build."""
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, strategies as st

from cpa2relu import network
from cpa2relu.geometry import line_sign
from cpa2relu.maxform import MaxTerm, TermList, eval_terms
from cpa2relu.model import AffineFunc

ints = st.integers(-10**6, 10**6)
pos = st.integers(1, 10**6)
points = st.tuples(ints, ints, pos)


@given(ints, ints, ints, points)
def test_line_sign_matches_fractions(a, b, c, p):
    X, Y, W = p
    want = a * Fraction(X, W) + b * Fraction(Y, W) + c
    got = line_sign(a, b, c, X, Y, W)
    assert got == (want > 0) - (want < 0)


# affines with coefficients of unrelated denominators, so the common
# denominator L rescales almost every term
mixed = st.builds(Fraction, ints, st.sampled_from([1, 2, 3, 7, 12, 35, 97]))
affines = st.builds(AffineFunc, mixed, mixed, mixed)
signs = st.sampled_from([-1, 1])


@given(affines)
def test_int_form_is_the_reduced_form(g):
    """The one (A, B, C, D) with D > 0 and gcd 1; every common-denominator
    form starts from it."""
    A, B, C, D = g.int_form()
    assert D > 0 and gcd(A, B, C, D) == 1
    assert (Fraction(A, D), Fraction(B, D), Fraction(C, D)) == (g.a, g.b, g.c)


@st.composite
def term_lists(draw):
    """One to six terms whose affines mostly come from a small shared
    pool, as vertex fans and edges share piece affines; some are the
    negation or the double of a pooled affine, some are fresh."""
    pool = draw(st.lists(affines, min_size=1, max_size=4))
    shared = st.sampled_from(pool)
    pick = st.one_of(shared, shared, shared.map(lambda g: -g),
                     shared.map(lambda g: g.scale(Fraction(2))), affines)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        f1, f2 = draw(pick), draw(pick)
        # f3 = f2 is the shape of every edge term
        f3 = draw(st.one_of(pick, st.just(f2)))
        terms.append(MaxTerm(draw(signs), f1, draw(signs), f2, f3))
    return terms


@given(term_lists(), points)
def test_eval_terms_matches_fractions(terms, p):
    """eval_terms on a TermList's common-denominator form against the
    plain Fraction value of every term at the point; the form holds each
    distinct affine once."""
    X, Y, W = p
    x, y = Fraction(X, W), Fraction(Y, W)

    def f(g):
        return g.a * x + g.b * y + g.c

    want = sum(t.sigma1 * max(f(t.f1), t.sigma2 * max(f(t.f2), f(t.f3)))
               for t in terms)
    L, affs, rows = TermList(tuple(terms), 0).kernel_form
    assert len(affs) == len({(g.a, g.b, g.c) for t in terms
                             for g in (t.f1, t.f2, t.f3)})
    n, d = eval_terms(L, affs, rows, X, Y, W)
    assert d == L * W > 0
    assert Fraction(n, d) == want


small_dens = st.integers(1, 60)
weights = st.builds(Fraction, ints.filter(bool), small_dens)
biases = st.builds(Fraction, ints, small_dens)


def _layer(data, rows, cols):
    """A random sparse layer with mixed denominators, at least one weight."""
    keys = data.draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                        st.integers(0, cols - 1)),
                              min_size=1, max_size=2 * rows, unique=True))
    w = {k: data.draw(weights) for k in keys}
    b = data.draw(st.lists(biases, min_size=rows, max_size=rows))
    return w, b


def _preacts(w, b, vals):
    acc = list(b)
    for (r, c), v in w.items():
        acc[r] += v * vals[c]
    return acc


def _forward(layers, x, y):
    """The plain Fraction forward pass, ReLU between layers."""
    vals = [x, y]
    for i, layer in enumerate(layers):
        acc = _preacts(layer.weights, layer.bias, vals)
        vals = acc if i == len(layers) - 1 else [max(v, 0) for v in acc]
    return vals[0]


def _kernel_value(net, X, Y, W):
    n, d = network.forward_layers(*net.kernel_form, X, Y, W)
    assert d > 0
    return Fraction(n, d)


@given(points, st.data())
def test_forward_layers_matches_fractions(p, data):
    """Random three-layer stacks, built into integer rows, against a
    Fraction forward pass.  Weights and biases in every layer are
    rationals with mixed denominators, so hidden units carry scales other
    than 1; row 0 of each hidden layer is shifted to a pre-activation of
    exactly 0."""
    X, Y, W = p
    vals = [Fraction(X, W), Fraction(Y, W)]
    layers = []
    for rows, cols in ((5, 2), (3, 5), (1, 3)):
        w, b = _layer(data, rows, cols)
        if rows > 1:
            b[0] -= _preacts(w, b, vals)[0]
        acc = _preacts(w, b, vals)
        vals = [max(v, Fraction(0)) for v in acc]
        layers.append(network.AffineLayer(rows, cols, w, tuple(b)))
    net = network.ReluNetwork(tuple(layers))
    assert _kernel_value(net, X, Y, W) == acc[0]


# how a hidden row is drawn from the rows before it: "neg" is the exact
# negation of the row just before, which shares its computation; the
# three near-misses must not; "bump" is a negation with one weight moved
# by 1 (the seeded weight mutation inside a shared pair); "copy",
# "neg_far" and "double" repeat, negate (skipping the row just before) or
# double an earlier row; "collide" gives a layer-2 row weights on two
# layer-1 units with equal rows, which sum, or cancel, on one slot
ROW_KINDS = ("free", "neg", "neg", "zero", "bias_kept", "weight_off",
             "other_col", "bump", "copy", "neg_far", "double", "collide")
SCALE = {"copy": 1, "neg_far": -1, "double": 2}


def _free_row(data, cols):
    keys = data.draw(st.sets(st.integers(0, cols - 1), min_size=1,
                             max_size=min(cols, 4)))
    return {c: data.draw(weights) for c in keys}, data.draw(biases)


def _row(data, kind, made, cols, twins):
    """One row {col: weight}, bias, from the rows made before it and,
    in layer 2, the layer-1 units with equal rows (twins)."""
    earlier = made[:-1] if kind == "neg_far" else made
    if kind in SCALE and earlier:
        pw, pb = data.draw(st.sampled_from(earlier))
        k = SCALE[kind]
        return {c: k * v for c, v in pw.items()}, k * pb
    if kind == "collide":
        w, b = _free_row(data, cols)
        c = data.draw(st.sampled_from(sorted(w)))
        if twins.get(c):
            to = data.draw(st.sampled_from(twins[c]))
            w[to] = data.draw(st.one_of(st.just(-w[c]), st.just(w[c]),
                                        weights))
        return w, b
    pw, pb = made[-1] if made else ({}, Fraction(0))
    if kind == "zero":
        return {}, Fraction(0)
    if kind not in ("neg", "bias_kept", "weight_off", "other_col",
                    "bump") or not pw:
        return _free_row(data, cols)
    w, b = {c: -v for c, v in pw.items()}, -pb
    c = data.draw(st.sampled_from(sorted(w)))
    if kind == "bias_kept":
        b = pb if pb else Fraction(1)
    elif kind == "weight_off":
        w[c] = w[c] + data.draw(st.sampled_from([1, -1, Fraction(1, 3)]))
    elif kind == "other_col":
        free = [k for k in range(cols) if k not in w]
        if free:
            # same place in the row, so only the column tells them apart
            to = data.draw(st.sampled_from(free))
            w = {to if k == c else k: v for k, v in w.items()}
        else:
            b += 1
    elif kind == "bump":
        w[c] = w[c] + 1
    return {k: v for k, v in w.items() if v}, b


def _paired_layer(data, rows, cols, twins=None):
    out = []
    for _ in range(rows):
        out.append(_row(data, data.draw(st.sampled_from(ROW_KINDS)), out,
                        cols, twins or {}))
    w = {(r, c): v for r, (row, _) in enumerate(out) for c, v in row.items()}
    return w, tuple(b for _, b in out)


def _twins(w, b):
    """unit -> the other units whose rows equal its row."""
    rows = [({}, bq) for bq in b]
    for (r, c), v in w.items():
        rows[r][0][c] = v
    groups = {}
    for q, (row, bq) in enumerate(rows):
        groups.setdefault((tuple(sorted(row.items())), bq), []).append(q)
    return {q: [o for o in g if o != q] for g in groups.values() for q in g}


@given(points, st.integers(1, 2), st.data())
def test_forward_layers_folds_negated_rows_exactly(p, n, data):
    """Hidden layers drawn row by row from the ones before: exact
    negations of the row before (chains of them included) and of earlier
    rows, copies and doubles of earlier rows, negations that miss by the
    bias, by one weight or by a column, zero rows, negated pairs with one
    weight bumped by 1, and layer-2 weights on layer-1 units that share
    a slot.  The shared integer pass must equal the Fraction pass, zero
    pre-activations included: every other draw puts x on the zero set of
    two adjacent layer-1 rows."""
    X, Y, W = p
    x, y = Fraction(X, W), Fraction(Y, W)
    w1, b1 = _paired_layer(data, 5 * n, 2)
    if data.draw(st.booleans()):
        # rows r and r + 1 shifted to a pre-activation of 0 stay a
        # negated pair if they were one
        r = data.draw(st.integers(0, 5 * n - 2))
        acc = _preacts(w1, b1, [x, y])
        b1 = tuple(b - acc[q] if q in (r, r + 1) else b
                   for q, b in enumerate(b1))
    w2, b2 = _paired_layer(data, 3 * n, 5 * n, _twins(w1, b1))
    # every layer-2 unit reaches the output
    w3 = {(0, c): data.draw(weights) for c in range(3 * n)}
    layers = (network.AffineLayer(5 * n, 2, w1, b1),
              network.AffineLayer(3 * n, 5 * n, w2, b2),
              network.AffineLayer(1, 3 * n, w3, (data.draw(biases),)))
    net = network.ReluNetwork(layers)
    assert _kernel_value(net, X, Y, W) == _forward(layers, x, y)


def _int_row(a, b, c):
    """A rational row times the lcm of its denominators, up to sign."""
    e = lcm(a.denominator, b.denominator, c.denominator)
    row = (int(a * e), int(b * e), int(c * e))
    return min(row, tuple(-v for v in row))


def test_built_networks_fold_every_relu_pair(compiled):
    """A built network computes each distinct nonzero layer-1 row, up to
    sign, once, so -f1 and -f3 read the relu(-z) slot of f1 and f3, and
    -s in layer 2 reads that of s: per term 3 of the 8 hidden rows
    compute nothing of their own, and rows shared across terms compute
    once.  A zero f1 or f3 reads no slot at all."""
    for name, (*_, terms, net) in compiled.items():
        l1, l2, _ = net.layers
        first, second, _, _ = net.kernel_form
        rows = [[Fraction(0), Fraction(0), c] for c in l1.bias]
        for (r, c), v in l1.weights.items():
            rows[r][c] = v
        ints = {_int_row(*row) for row in rows} - {(0, 0, 0)}
        assert len(first) == len(ints), name
        _, units1, scales = network._first_rows(l1)
        _, units2, _ = network._second_rows(l2, scales, units1)
        assert len(second) <= 2 * len(terms.terms), name
        for i, t in enumerate(terms.terms):
            u = units1[5 * i:5 * i + 5]
            for j, g in ((0, t.f1), (3, t.f3)):
                if g.is_zero():
                    assert u[j] is None and u[j + 1] is None, name
                else:
                    assert u[j + 1] == u[j] ^ 1, name
            s, neg_s = units2[3 * i + 1:3 * i + 3]
            if s is None:
                # f2 and f3 zero: s is 0
                assert neg_s is None and t.f2.is_zero() and t.f3.is_zero()
            else:
                assert neg_s == s ^ 1, name
