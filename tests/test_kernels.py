"""The integer kernels agree exactly with Fraction references.  Points
are drawn in homogeneous form (X, Y, W), W > 0, with W not necessarily
the one geometry.homogeneous would build."""
from fractions import Fraction

from hypothesis import given, strategies as st

from cpa2relu import kernels, network

ints = st.integers(-10**6, 10**6)
pos = st.integers(1, 10**6)
points = st.tuples(ints, ints, pos)
term_ints = st.tuples(
    st.sampled_from([-1, 1]), st.sampled_from([-1, 1]),
    ints, ints, ints, pos, ints, ints, ints, pos, ints, ints, ints, pos)


@given(ints, ints, ints, points)
def test_line_sign_matches_fractions(a, b, c, p):
    X, Y, W = p
    want = a * Fraction(X, W) + b * Fraction(Y, W) + c
    got = kernels.line_sign(a, b, c, X, Y, W)
    assert got == (want > 0) - (want < 0)


def _terms_reference(terms, X, Y, W):
    x, y = Fraction(X, W), Fraction(Y, W)
    total = Fraction(0)
    for (s1, s2, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3) in terms:
        f1 = Fraction(a1 * X + b1 * Y + c1 * W, d1 * W)
        f2 = Fraction(a2, d2) * x + Fraction(b2, d2) * y + Fraction(c2, d2)
        f3 = Fraction(a3, d3) * x + Fraction(b3, d3) * y + Fraction(c3, d3)
        total += s1 * max(f1, s2 * max(f2, f3))
    return total


@given(st.lists(term_ints, min_size=1, max_size=5), points)
def test_eval_terms_matches_fractions(terms, p):
    n, d = kernels.eval_terms(terms, *p)
    assert Fraction(n, d) == _terms_reference(terms, *p)


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
    rows, scale = network._kernel_form(network.ReluNetwork(tuple(layers)))
    n, d = kernels.forward_layers(rows, scale, X, Y, W)
    assert d > 0
    assert Fraction(n, d) == acc[0]
