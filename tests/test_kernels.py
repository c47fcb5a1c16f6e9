"""The integer kernels agree exactly with Fraction references."""
from fractions import Fraction

from hypothesis import given, strategies as st

from cpa2relu import kernels

ints = st.integers(-10**6, 10**6)
pos = st.integers(1, 10**6)
rat_pairs = st.tuples(ints, pos)
term_ints = st.tuples(
    st.sampled_from([-1, 1]), st.sampled_from([-1, 1]),
    ints, ints, ints, pos, ints, ints, ints, pos, ints, ints, ints, pos)


@given(ints, ints, ints, rat_pairs, rat_pairs)
def test_line_sign_matches_fractions(a, b, c, xp, yp):
    xn, xd = xp
    yn, yd = yp
    want = a * Fraction(xn, xd) + b * Fraction(yn, yd) + c
    got = kernels.line_sign(a, b, c, xn, xd, yn, yd)
    assert got == (want > 0) - (want < 0)


def _terms_reference(terms, x, y):
    total = Fraction(0)
    for (s1, s2, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3) in terms:
        f1 = Fraction(a1 * x.numerator * y.denominator
                      + b1 * y.numerator * x.denominator
                      + c1 * x.denominator * y.denominator,
                      d1 * x.denominator * y.denominator)
        f2 = Fraction(a2, d2) * x + Fraction(b2, d2) * y + Fraction(c2, d2)
        f3 = Fraction(a3, d3) * x + Fraction(b3, d3) * y + Fraction(c3, d3)
        total += s1 * max(f1, s2 * max(f2, f3))
    return total


@given(st.lists(term_ints, min_size=1, max_size=5), rat_pairs, rat_pairs)
def test_eval_terms_matches_fractions(terms, xp, yp):
    x = Fraction(*xp)
    y = Fraction(*yp)
    n, d = kernels.eval_terms(terms, x.numerator, x.denominator,
                              y.numerator, y.denominator)
    assert Fraction(n, d) == _terms_reference(terms, x, y)


@given(rat_pairs, rat_pairs, st.data())
def test_forward_layers_matches_fractions(xp, yp, data):
    """Random two-layer stacks against a Fraction forward pass."""
    w = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                                     ints, pos),
                           min_size=1, max_size=8))
    bias1 = data.draw(st.lists(rat_pairs, min_size=3, max_size=3))
    w2 = data.draw(st.lists(st.tuples(st.just(0), st.integers(0, 2),
                                      ints, pos),
                            min_size=1, max_size=4))
    bias2 = data.draw(st.lists(rat_pairs, min_size=1, max_size=1))
    layers = [(3, sorted(set(w)), bias1), (1, sorted(set(w2)), bias2)]
    got = kernels.forward_layers(layers, xp[0], xp[1], yp[0], yp[1])

    # Fraction reference
    vals = [Fraction(*xp), Fraction(*yp)]
    acc = [Fraction(bn, bd) for bn, bd in bias1]
    for r, c, wn, wd in layers[0][1]:
        acc[r] += Fraction(wn, wd) * vals[c]
    hidden = [max(v, Fraction(0)) for v in acc]
    out = Fraction(*bias2[0])
    for r, c, wn, wd in layers[1][1]:
        out += Fraction(wn, wd) * hidden[c]
    assert Fraction(*got) == out
