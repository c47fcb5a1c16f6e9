"""The verifier: exact equivalence reports, lemma suite, mutations."""
import copy
import dataclasses
import json
from fractions import Fraction

import pytest

from cpa2relu import model, sides
from cpa2relu.geometry import pt, rat_to_json
from cpa2relu.maxform import MaxTerm, TermList
from cpa2relu.model import AffineFunc
from cpa2relu.network import AffineLayer, ReluNetwork, build_network
from cpa2relu.verify import (
    MUTATION_KINDS, _euler_diagnostic, sample_general_position,
    seeded_mutations, verify_equivalence, verify_lemma_suite,
)


def aff(a, b, c) -> AffineFunc:
    return AffineFunc(Fraction(a), Fraction(b), Fraction(c))


X = aff(1, 0, 0)


def test_sampler_rejects_nonpositive_counts(corpus_insts):
    with pytest.raises(ValueError):
        sample_general_position(corpus_insts["hat"], 0, 0)


def test_sampler_is_deterministic(corpus_insts):
    inst = corpus_insts["strip"]
    assert (sample_general_position(inst, 12, 30)
            == sample_general_position(inst, 12, 30))
    assert (sample_general_position(inst, 12, 30)
            != sample_general_position(inst, 13, 30))


def test_report_bytes_deterministic(compiled):
    _, slim, dec, tl, net = compiled["strip"]
    r1 = verify_equivalence(slim, dec, tl, net, n=50, seed=3)
    r2 = verify_equivalence(slim, dec, tl, net, n=50, seed=3)
    assert r1.canonical_bytes() == r2.canonical_bytes()
    r3 = verify_equivalence(slim, dec, tl, net, n=50, seed=4)
    assert r1.canonical_bytes() != r3.canonical_bytes()
    # canonical bytes are valid JSON with the certified flag inside
    doc = json.loads(r1.canonical_bytes())
    assert doc["certified"] is True and doc["samples"] == 50


def test_zero_samples_is_not_certified(compiled):
    _, slim, dec, tl, net = compiled["half_plane"]
    report = verify_equivalence(slim, dec, tl, net, n=0, seed=0)
    assert report.samples == 0 and not report.certified


def test_summary_mentions_certification(compiled):
    _, slim, dec, tl, net = compiled["hat"]
    report = verify_equivalence(slim, dec, tl, net, n=25, seed=1)
    assert report.certified
    assert "certified: yes" in report.summary()
    assert "widths: (70, 42)" in report.summary()


def test_network_stage_isolation(compiled):
    _, slim, dec, tl, net = compiled["strip"]
    l3 = net.layers[2]
    flipped = {k: -w for k, w in l3.weights.items()}
    bad = ReluNetwork((net.layers[0], net.layers[1],
                       AffineLayer(l3.rows, l3.cols, flipped, l3.bias)))
    report = verify_equivalence(slim, dec, tl, bad, n=80, seed=0)
    assert not report.certified
    assert report.failures
    for f in report.failures:
        assert f["first_divergence"] == "network"
        assert set(f["stage_values"]) == {"cpa", "decompose", "terms",
                                          "network"}


def test_terms_stage_isolation(compiled):
    _, slim, dec, tl, net = compiled["strip"]
    extra = MaxTerm(1, X, 1, X, X)  # adds x everywhere
    bad_terms = TermList(tl.terms + (extra,), tl.source_p)
    bad_net = build_network(bad_terms)
    report = verify_equivalence(slim, dec, bad_terms, bad_net, n=80, seed=0)
    assert not report.certified
    assert all(f["first_divergence"] == "terms" for f in report.failures)


EULER_APPLICABLE = {
    "cross": False, "disconnected_cone": False, "half_plane": False,
    "hat": True, "max_zero_xy": False, "ring_bump": True,
    "single_piece": False, "square_hole": True, "strip": False,
}


def test_euler_applicability_matrix(corpus_insts):
    for name, inst in corpus_insts.items():
        diag = _euler_diagnostic(inst)
        expected = EULER_APPLICABLE.get(name, True)
        assert diag["applicable"] is expected, name
        assert diag["ok"], name
        if diag["applicable"]:
            assert diag["chi"] == 2, name


def test_euler_numbers_ring_bump(corpus_insts):
    diag = _euler_diagnostic(corpus_insts["ring_bump"])
    assert (diag["vertices"], diag["edges"], diag["pieces"]) == (9, 15, 8)


def test_lemma_suite_passes_on_square_hole(corpus_insts):
    report = verify_lemma_suite(corpus_insts["square_hole"], n=30, seed=5)
    assert report.certified
    assert report.euler["applicable"] and report.euler["ok"]
    for pid in ("S", "O"):
        assert report.identity_stats[pid] == {"pass": 30, "fail": 0}


def test_lemma_suite_flags_euler_violation(corpus_docs):
    # a floating piece skews |P| without touching the edge graph
    doc = copy.deepcopy(corpus_docs["square_hole"])
    doc["pieces"]["G"] = {"affine": [1, -2, 3], "witness": [50, 50],
                          "boundary": []}
    inst = model.parse_instance(doc)
    report = verify_lemma_suite(inst, n=5, seed=0)
    assert not report.certified
    assert report.euler["chi"] == 3 and not report.euler["ok"]
    assert any(f.get("stage") == "euler" for f in report.failures)
    lines = report.summary().splitlines()
    assert "certified: NO" in lines[0]
    assert "euler characteristic: 3 (VIOLATED)" in lines


def test_lemma_suite_reports_identity_failures(corpus_insts, monkeypatch):
    """With c(P) one too large the indicator identity fails for every
    piece at every sample: the report is not certified, each failure
    holds its sample index, piece, point and both sides, and the summary
    counts the failing evaluations and lists the first five."""
    real = sides.conic_coeff

    def wrong(inst, piece_id):
        cc = real(inst, piece_id)
        return dataclasses.replace(cc, c=cc.c + 1)

    monkeypatch.setattr(sides, "conic_coeff", wrong)
    inst = corpus_insts["square_hole"]
    n, seed = 4, 2
    report = verify_lemma_suite(inst, n=n, seed=seed)
    assert not report.certified and report.euler["ok"]
    pts = [[rat_to_json(x.x), rat_to_json(x.y)]
           for x in sample_general_position(inst, seed, n)]
    pids = sorted(inst.pieces)
    assert [(f["index"], f["piece"], f["point"]) for f in report.failures] \
        == [(i, pid, pts[i]) for i in range(n) for pid in pids]
    for f in report.failures:
        assert set(f) == {"index", "piece", "point", "lhs", "rhs"}
        assert f["lhs"] == f["rhs"] + 1 and f["rhs"] in (0, 1)
    assert report.identity_stats == {pid: {"pass": 0, "fail": n}
                                     for pid in pids}
    lines = report.summary().splitlines()
    bad = n * len(pids)
    assert f"indicator identity: {len(pids)} pieces, {bad} failing " \
           f"evaluations" in lines
    assert sum(s.startswith("  failure: ") for s in lines) == 5
    assert lines[-1] == f"  ... and {bad - 5} more"


# ---------------------------------------------------------------------------
# mutations

def test_mutations_deterministic(compiled):
    _, _, _, tl, _ = compiled["hat"]
    a = seeded_mutations(tl, seed=99, count=6)
    b = seeded_mutations(tl, seed=99, count=6)
    assert a == b
    c = seeded_mutations(tl, seed=100, count=6)
    assert [(m.kind, m.detail) for m in a] != [(m.kind, m.detail) for m in c]


def test_mutation_kinds_and_stages(compiled):
    _, _, _, tl, _ = compiled["hat"]
    muts = seeded_mutations(tl, seed=7, count=20)
    assert len(muts) == 20
    for m in muts:
        assert m.kind in MUTATION_KINDS
        if m.kind == "perturb_weight":
            assert m.expect_stage == "network"
            assert m.terms == tl  # terms untouched
        else:
            assert m.expect_stage == "terms"
            assert m.terms != tl


def test_single_term_lists_never_drop(compiled):
    _, _, _, tl, _ = compiled["half_plane"]
    muts = seeded_mutations(tl, seed=3, count=10)
    assert all(m.kind != "drop_term" for m in muts)


def test_mutations_are_caught_and_attributed(compiled):
    for name in ("half_plane", "strip"):
        _, slim, dec, tl, _ = compiled[name]
        for m in seeded_mutations(tl, seed=11, count=8):
            report = verify_equivalence(slim, dec, m.terms, m.net,
                                        n=200, seed=0)
            assert not report.certified, (name, m.kind, m.detail)
            assert report.failures[0]["first_divergence"] == m.expect_stage
