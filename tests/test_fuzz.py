"""Structural fuzz of both input formats.

Each example takes a corpus instance document, or the exported network
of hat, and applies one to three structural mutations: a node replaced
by a small JSON value or by a copy of another node, a key or list entry
deleted, or the serialized text cut short.  Every run must end in one
of two ways: certified, or a CpaError subclass.  The CLI must turn
every such error into exit code 1 and an "error: ..." line, never a
traceback.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cpa2relu import cli, corpus, maxform, model, network
from cpa2relu.decompose import decompose
from cpa2relu.errors import CpaError
from cpa2relu.geometry import pt
from cpa2relu.verify import verify_equivalence

DOCS = corpus.all_documents()
HAT_NET = network.export_network(network.build_network(maxform.reduce(
    decompose(model.sparsify(model.parse_instance(corpus.hat()))), 5)))

SMALL_VALUES = [None, True, False, 0, 1, -1, 7, 0.5, "1/2", "0/0", "x",
                "", [], {}, [0, 0], [1, 2, 3], {"kind": "arc"}]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _paths(node[k], prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _get(node, path):
    for k in path:
        node = node[k]
    return node


@st.composite
def mutated_text(draw, doc):
    """The document, structurally mutated and serialized."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        op = draw(st.sampled_from(["value", "copy", "delete"]))
        if op == "copy":
            new = _get(doc, paths[draw(st.integers(0, len(paths) - 1))])
        else:
            new = draw(st.sampled_from(SMALL_VALUES))
        new = json.loads(json.dumps(new))
        if not path:
            doc = new
            continue
        parent, key = _get(doc, path[:-1]), path[-1]
        if op == "delete":
            del parent[key]
        else:
            parent[key] = new
    text = json.dumps(doc)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[:draw(st.integers(0, max(0, len(text) - 1)))]
    return text


instance_texts = st.sampled_from(sorted(DOCS)).flatmap(
    lambda name: mutated_text(DOCS[name]))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


def _assert_cli_error(code, err):
    assert code == 1
    assert any(line.startswith("error: ") for line in err.splitlines()), err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance_texts)
def test_mutated_instances_certify_or_raise_typed_errors(fuzz_dir, text):
    try:
        inst = model.parse_instance(json.loads(text))
        if not model.validate(inst).ok:
            raise CpaError("validation failed")
        slim = model.sparsify(inst, skip_validation=True)
        dec = decompose(slim)
        terms = maxform.reduce(dec, slim.p)
        net = network.build_network(terms)
        certified = verify_equivalence(slim, dec, terms, net, n=8).certified
        assert certified
    except (CpaError, ValueError):  # ValueError: text that is not JSON
        certified = False
    path = fuzz_dir / "instance.json"
    path.write_text(text)
    code, err = _run_cli(["verify", str(path), "--samples", "8"])
    if certified:
        assert code == 0
    else:
        _assert_cli_error(code, err)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_text(HAT_NET))
def test_mutated_networks_evaluate_or_raise_typed_errors(fuzz_dir, text):
    x = pt("1/3", -2)
    try:
        net = network.import_network(json.loads(text))
        network.eval_network(net, x, network.EXACT)
        network.eval_network(net, x, network.FLOAT64)
        ok = True
    except (CpaError, json.JSONDecodeError):
        ok = False
    path = fuzz_dir / "net.json"
    path.write_text(text)
    for mode in ("exact", "f64"):
        code, err = _run_cli(["eval", str(path), "--point", "1/3", "-2",
                              "--mode", mode])
        if ok:
            assert code == 0
        else:
            _assert_cli_error(code, err)
