"""The integer evaluators agree exactly with Fraction references:
geometry.line_sign, maxform.eval_terms and network.forward_layers.
Points are drawn in homogeneous form (X, Y, W), W > 0, with W not
necessarily the one geometry.homogeneous would build."""
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, strategies as st

from cpa2relu import network
from cpa2relu.geometry import line_sign, pt
from cpa2relu.maxform import MaxTerm, TermList, eval_terms
from cpa2relu.model import AffineFunc
from cpa2relu.verify import sample_general_position

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
# layer-1 units with equal rows, which sum, or cancel, on one slot;
# "pair" gives it weights w and -w + delta on two layer-1 units with
# negated rows, relu(z) and relu(-z): delta = 0 makes the pair the
# linear w*z, and the others leave a ReLU read of weight delta
ROW_KINDS = ("free", "neg", "neg", "zero", "bias_kept", "weight_off",
             "other_col", "bump", "copy", "neg_far", "double", "collide",
             "pair", "pair")
SCALE = {"copy": 1, "neg_far": -1, "double": 2}
DELTAS = st.sampled_from([0, 0, 1, Fraction(-1, 3)])


def _free_row(data, cols):
    keys = data.draw(st.sets(st.integers(0, cols - 1), min_size=1,
                             max_size=min(cols, 4)))
    return {c: data.draw(weights) for c in keys}, data.draw(biases)


def _row(data, kind, made, cols, twins, negs):
    """One row {col: weight}, bias, from the rows made before it and,
    in layer 2, the layer-1 units with equal rows (twins) and with
    negated rows (negs)."""
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
    if kind == "pair":
        w, b = _free_row(data, cols)
        c = data.draw(st.sampled_from(sorted(w)))
        if negs.get(c):
            to = data.draw(st.sampled_from(negs[c]))
            w[to] = -w[c] + data.draw(DELTAS)
        return {k: v for k, v in w.items() if v}, b
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


def _paired_layer(data, rows, cols, twins=None, negs=None):
    out = []
    for _ in range(rows):
        out.append(_row(data, data.draw(st.sampled_from(ROW_KINDS)), out,
                        cols, twins or {}, negs or {}))
    w = {(r, c): v for r, (row, _) in enumerate(out) for c, v in row.items()}
    return w, tuple(b for _, b in out)


def _partners(w, b, k):
    """unit -> the other units whose rows are k times its row."""
    rows = [({}, bq) for bq in b]
    for (r, c), v in w.items():
        rows[r][0][c] = v
    groups = {}
    for q, (row, bq) in enumerate(rows):
        groups.setdefault((tuple(sorted(row.items())), bq), []).append(q)
    return {q: [o for o in groups.get(
                (tuple(sorted((c, k * v) for c, v in row.items())), k * bq),
                ()) if o != q]
            for q, (row, bq) in enumerate(rows)}


@given(points, st.integers(1, 2), st.data())
def test_forward_layers_folds_negated_rows_exactly(p, n, data):
    """Hidden layers drawn row by row from the ones before: exact
    negations of the row before (chains of them included) and of earlier
    rows, copies and doubles of earlier rows, negations that miss by the
    bias, by one weight or by a column, zero rows, negated pairs with one
    weight bumped by 1, layer-2 weights on layer-1 units that share a
    slot, and layer-2 and output weights w and -w + delta on units with
    negated rows, which the kernel folds into an affine part and a ReLU
    read of weight delta.  The folded integer pass must equal the Fraction
    pass, zero pre-activations included: every other draw puts x on the
    zero set of two adjacent layer-1 rows."""
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
    w2, b2 = _paired_layer(data, 3 * n, 5 * n, _partners(w1, b1, 1),
                           _partners(w1, b1, -1))
    # every layer-2 unit reaches the output, and some pairs of units with
    # negated rows are read with weights w and -w + delta
    w3 = {(0, c): data.draw(weights) for c in range(3 * n)}
    for c, negs in _partners(w2, b2, -1).items():
        if negs and data.draw(st.booleans()):
            v = -w3[0, c] + data.draw(DELTAS)
            if v:
                w3[0, data.draw(st.sampled_from(negs))] = v
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
    """u*relu(z) + d*relu(-z) = (u + d)*relu(z) - d*z leaves, per term,
    at most two rows that go through a ReLU: f2 - f3 in layer 1 and
    f1 - s in layer 2.  f1, -f1, f3, -f3, s and -s enter their readers
    linearly, and a row that several terms share goes through a ReLU
    once."""
    for name, (*_, terms, net) in compiled.items():
        first, second, out, _ = net.kernel_form
        diffs = {_int_row(*t.block_rows[2]) for t in terms.terms}
        kept1 = [_int_row(a, b, c) for a, b, c, _ in first]
        assert len(set(kept1)) == len(kept1), name
        assert set(kept1) <= diffs - {(0, 0, 0)}, name
        # second ends with the output's affine part
        assert len(second) == len(out) + 1 <= len(terms.terms) + 1, name
        for i in range(len(out)):
            # f1 - s reads relu of one layer-1 row, its own f2 - f3
            assert sum(any(j == i for j, _ in reads)
                       for *_, reads in first) <= 1, name


# points far outside every corpus instance's box, where every block's
# rows take their far-field signs
FAR = (pt(10**6, "-999999/7"), pt("-3000001/11", 2 * 10**6))


def _bumped_output(layers, pres, cols, x, y, li, r, c):
    """The Fraction pass's output once weight (r, c) of layer li is
    raised by 1, from the unmutated pass's pre-activations pres: row r
    of layer li moves by its input c, and each move is carried forward
    through the weights that read the unit it moves (cols, per layer:
    column -> [(row, weight)])."""
    delta = {r: (x, y)[c] if li == 0 else max(pres[li - 1][c], 0)}
    for lo in range(li, 2):
        moved = {q: max(pres[lo][q] + d, 0) - max(pres[lo][q], 0)
                 for q, d in delta.items()}
        delta = {}
        for q, d in moved.items():
            for row, w in cols[lo + 1].get(q, ()):
                delta[row] = delta.get(row, 0) + w * d
    return pres[2][0] + delta.get(0, 0)


def test_every_weight_mutant_evaluates_exactly(compiled):
    """Every perturb_weight mutant of every corpus network -- each stored
    weight of each layer raised by 1, and dropped if that makes it 0, as
    seeded_mutations does -- evaluates to the Fraction pass's value at
    samples and at far points.  A bump breaks whichever pair the weight
    sat in, so the folded kernel must keep a ReLU read where u + d
    became nonzero.  On the smallest networks the propagated reference
    is checked against the plain pass itself."""
    for name, (*_, slim, _, _, net) in compiled.items():
        layers = net.layers
        pts = sample_general_position(slim, 0, 3) + list(FAR)
        base = []
        for x in pts:
            vals, pres = [x.x, x.y], []
            for layer in layers:
                pres.append(_preacts(layer.weights, layer.bias, vals))
                vals = [max(v, 0) for v in pres[-1]]
            base.append(pres)
        cols = []
        for layer in layers:
            by_col = {}
            for (r, c), w in layer.weights.items():
                by_col.setdefault(c, []).append((r, w))
            cols.append(by_col)
        small = sum(len(layer.weights) for layer in layers) <= 40
        for li, layer in enumerate(layers):
            for r, c in layer.weights:
                w2 = dict(layer.weights)
                w2[r, c] += 1
                if not w2[r, c]:
                    del w2[r, c]
                mutant = list(layers)
                mutant[li] = network.AffineLayer(layer.rows, layer.cols, w2,
                                                 layer.bias)
                mnet = network.ReluNetwork(tuple(mutant))
                for x, pres in zip(pts, base):
                    want = _bumped_output(layers, pres, cols, x.x, x.y,
                                          li, r, c)
                    if small:
                        assert want == _forward(mutant, x.x, x.y)
                    assert network.eval_network(mnet, x) == want, (
                        name, li, r, c, x)
