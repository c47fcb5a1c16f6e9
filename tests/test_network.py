"""Network assembly, exact/float evaluation, serialization."""
import copy
import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cpa2relu import corpus, maxform, model, network
from cpa2relu.decompose import decompose
from cpa2relu.errors import EmptyTermListError, SchemaError
from cpa2relu.geometry import pt, rat_to_json
from cpa2relu.maxform import MaxTerm, TermList
from cpa2relu.model import AffineFunc
from cpa2relu.network import (
    EXACT, FLOAT64, build_network, eval_network, export_network,
    import_network, stats,
)
from cpa2relu.verify import sample_general_position, seeded_mutations


def aff(a, b, c) -> AffineFunc:
    return AffineFunc(Fraction(a), Fraction(b), Fraction(c))


ZERO = aff(0, 0, 0)
X = aff(1, 0, 0)
Y = aff(0, 1, 0)

rats = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))
points = st.builds(pt, rats, rats)
affines = st.builds(aff, rats, rats, rats)
signs = st.sampled_from([-1, 1])
term_st = st.builds(MaxTerm, signs, affines, signs, affines, affines)


def single(t: MaxTerm) -> TermList:
    return TermList((t,), 1)


def test_hand_trace_relu_of_x():
    net = build_network(single(MaxTerm(1, X, 1, ZERO, ZERO)))
    assert net.widths == (5, 3)
    l1, l2, l3 = net.layers
    assert l1.weights == {(0, 0): 1, (1, 0): -1}
    assert all(b == 0 for b in l1.bias + l2.bias + l3.bias)
    assert l2.weights == {(0, 0): 1, (0, 1): -1, (0, 2): -1, (0, 3): -1,
                         (0, 4): 1, (1, 2): 1, (1, 3): 1, (1, 4): -1,
                         (2, 2): -1, (2, 3): -1, (2, 4): 1}
    assert l3.weights == {(0, 0): 1, (0, 1): 1, (0, 2): -1}
    assert eval_network(net, pt(3, 5)) == 3
    assert eval_network(net, pt(-2, 7)) == 0
    assert eval_network(net, pt(0, 0)) == 0


def test_build_rejects_empty_term_list():
    with pytest.raises(EmptyTermListError):
        build_network(TermList((), 1))


@given(term_st, points)
def test_network_equals_term(t, q):
    net = build_network(single(t))
    assert eval_network(net, q) == t(q)


@given(term_st, st.builds(Fraction, st.integers(1, 40), st.integers(1, 8)),
       points)
def test_positive_scaling_equivariance(t, lam, q):
    scaled = MaxTerm(t.sigma1, t.f1.scale(lam), t.sigma2,
                     t.f2.scale(lam), t.f3.scale(lam))
    net = build_network(single(t))
    net_s = build_network(single(scaled))
    assert eval_network(net_s, q) == lam * eval_network(net, q)


def test_blocks_do_not_interact(compiled):
    _, _, _, _, net = compiled["hat"]
    l1, l2, l3 = net.layers
    assert set(c for (_, c) in l1.weights) <= {0, 1}
    for (r, c) in l2.weights:
        assert r // 3 == c // 5
    assert all(r == 0 for (r, _) in l3.weights)


def test_widths_and_dims(compiled):
    for name, (_, _, _, tl, net) in compiled.items():
        n = len(tl.terms)
        assert net.widths == (5 * n, 3 * n), name
        assert net.layers[0].cols == 2 and net.layers[2].rows == 1


def test_stats_ring_bump(compiled):
    _, slim, _, tl, net = compiled["ring_bump"]
    s = stats(net, slim.p)
    assert (s["s1"], s["s2"], s["n_terms"]) == (135, 81, 27)
    assert s["terms_per_piece"] == "27/8"
    assert s["bounds_ok"] and s["nnz"] <= 37 * 27


def test_float_mode_close_to_exact(compiled):
    for name, (_, slim, _, _, net) in compiled.items():
        for x in sample_general_position(slim, 41, 25):
            exact = eval_network(net, x)
            approx = eval_network(net, x, mode=FLOAT64)
            tol = 1e-9 * (1 + abs(exact))
            assert abs(approx - float(exact)) <= tol, name


def test_network_forms_are_lazy_and_invisible(compiled):
    """build_network builds neither evaluation form; once an exact and a
    float64 evaluation build them, equality with a fresh build and the
    export bytes are unchanged, and layers stays the only field."""
    _, slim, _, terms, _ = compiled["ring_bump"]
    net = build_network(terms)
    assert "kernel_form" not in vars(net) and "float_form" not in vars(net)
    before = json.dumps(export_network(net), sort_keys=True)
    x = sample_general_position(slim, 1, 1)[0]
    eval_network(net, x, EXACT)
    eval_network(net, x, FLOAT64)
    assert "kernel_form" in vars(net) and "float_form" in vars(net)
    assert net == build_network(terms)
    assert json.dumps(export_network(net), sort_keys=True) == before
    assert [f.name for f in dataclasses.fields(network.ReluNetwork)] == \
        ["layers"]


def _fresh_terms(doc) -> TermList:
    """The document's term list, compiled anew: no term has block_rows."""
    slim = model.sparsify(model.parse_instance(doc))
    return maxform.reduce(decompose(slim), slim.p)


def _export(terms: TermList) -> str:
    return json.dumps(export_network(build_network(terms)), sort_keys=True)


@pytest.mark.parametrize("seed, n_points",
                         [(s, n) for s in (3, 5, 9) for n in (10, 20, 40)]
                         + [(None, None)])
def test_cached_block_rows_build_the_same_bytes(seed, n_points, corpus_docs):
    """A network built twice from one list, or from terms whose block
    rows were first cached at other offsets of another list, exports the
    bytes of the first, cold build.  (None, None) is the corpus."""
    docs = ([corpus.random_instance(seed, n_points)] if seed is not None
            else [corpus_docs[name] for name in sorted(corpus_docs)])
    for doc in docs:
        terms = _fresh_terms(doc)
        cold = _export(terms)
        assert _export(terms) == cold
        other = _fresh_terms(doc)
        _export(TermList(other.terms[::-1], other.source_p))
        assert _export(other) == cold


def test_mutants_reuse_the_block_rows_of_the_terms_they_keep(compiled):
    """A term mutant's list holds the parent's row objects for every term
    it kept; the term a sign flip made gets the rows a fresh MaxTerm
    builds."""
    terms = compiled["random_tri_7"][3]
    rows = [t.block_rows for t in terms.terms]
    muts = seeded_mutations(terms, seed=1005, count=20)
    assert {"flip_sigma1", "flip_sigma2", "drop_term"} <= \
        {m.kind for m in muts}
    for m in muts:
        got = [t.block_rows for t in m.terms.terms]
        if m.kind == "perturb_weight":
            assert all(g is r for g, r in zip(got, rows))
            continue
        i = int(m.detail.split()[1])
        if m.kind == "drop_term":
            kept = rows[:i] + rows[i + 1:]
        else:
            t = m.terms.terms[i]
            assert got[i] == MaxTerm(t.sigma1, t.f1, t.sigma2, t.f2,
                                     t.f3).block_rows
            kept = rows[:i] + [got[i]] + rows[i + 1:]
        assert len(got) == len(kept)
        assert all(g is r for g, r in zip(got, kept))


def test_unknown_mode_rejected(compiled):
    _, _, _, _, net = compiled["half_plane"]
    with pytest.raises(ValueError):
        eval_network(net, pt(0, 0), mode="interval")


# ---------------------------------------------------------------------------
# serialization

def test_export_import_round_trip(compiled):
    for name, (_, _, _, _, net) in compiled.items():
        doc = export_network(net)
        back = import_network(doc)
        assert back == net, name
        assert export_network(back) == doc, name


def test_export_float_mirror(compiled):
    _, _, _, _, net = compiled["strip"]
    doc = export_network(net, include_float=True)
    mirror = doc["float_mirror"]
    assert len(mirror["layers"]) == 3
    assert doc["dims"] == [2, 10, 6, 1]


def _strip_doc(compiled):
    _, _, _, _, net = compiled["strip"]
    return export_network(net)


@pytest.mark.parametrize("mutation", [
    lambda d: d.update(dims=[2, 10, 6]),
    lambda d: d.update(dims=[3, 10, 6, 1]),
    lambda d: d["layers"].pop(),
    lambda d: d["layers"][0]["triplets"].append(d["layers"][0]["triplets"][0]),
    lambda d: d["layers"][0]["triplets"].append([0, 0, 0]),
    lambda d: d["layers"][0]["triplets"].append([99, 0, 1]),
    lambda d: d["layers"][0]["triplets"].append([0, 7, 1]),
    lambda d: d["layers"][1]["bias"].append(0),
    lambda d: d["layers"][0]["triplets"].__setitem__(
        0, [0, 0, 1.5]),
    lambda d: d["layers"][0]["triplets"].__setitem__(
        0, [True, 0, 1]),
])
def test_import_rejects_malformed_docs(compiled, mutation):
    doc = copy.deepcopy(_strip_doc(compiled))
    mutation(doc)
    with pytest.raises(SchemaError):
        import_network(doc)


doc_rats = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 97))
far_rats = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 50))


@st.composite
def network_docs(draw):
    """Exported-form documents for a 2 -> 5N -> 3N -> 1 network with
    arbitrary rational weights and biases in every layer."""
    n = draw(st.integers(1, 2))
    dims = [2, 5 * n, 3 * n, 1]
    layers = []
    for cols, rows in zip(dims, dims[1:]):
        keys = draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            min_size=1, max_size=2 * rows, unique=True))
        trips = [[r, c, rat_to_json(draw(doc_rats.filter(bool)))]
                 for r, c in sorted(keys)]
        bias = [rat_to_json(draw(doc_rats)) for _ in range(rows)]
        layers.append({"rows": rows, "cols": cols, "triplets": trips,
                       "bias": bias})
    return {"dims": dims, "layers": layers}


def _doc_forward(doc, x, y):
    """Fraction forward pass read straight off the document."""
    vals = [x, y]
    for li, layer in enumerate(doc["layers"]):
        acc = [Fraction(b) for b in layer["bias"]]
        for r, c, w in layer["triplets"]:
            acc[r] += Fraction(w) * vals[c]
        vals = acc if li == 2 else [max(v, Fraction(0)) for v in acc]
    return vals[0]


@given(network_docs(), far_rats, far_rats)
def test_imported_network_matches_fraction_forward(doc, x, y):
    net = import_network(doc)
    assert eval_network(net, pt(x, y)) == _doc_forward(doc, x, y)


def test_import_rejects_non_object():
    with pytest.raises(SchemaError):
        import_network([1, 2, 3])
    with pytest.raises(SchemaError):
        import_network({"dims": [2, 5, 3, 1]})
