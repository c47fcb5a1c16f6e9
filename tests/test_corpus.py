"""The named instance collection and the random triangulation generator."""
import json
from pathlib import Path

from cpa2relu import corpus, model
from cpa2relu.geometry import Line, Ray, Segment, pt

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def test_at_least_eight_named_builders():
    assert len(corpus.BUILDERS) >= 8
    assert set(corpus.BUILDERS) == {
        "single_piece", "half_plane", "strip", "max_zero_xy", "cross",
        "hat", "square_hole", "disconnected_cone", "ring_bump"}


def test_every_builder_validates():
    for name, build in corpus.BUILDERS.items():
        inst = model.parse_instance(build())
        assert model.validate(inst).ok, name


def test_all_documents_includes_random(corpus_docs):
    assert len(corpus_docs) == 10
    assert "random_tri_7" in corpus_docs


def test_shipped_corpus_matches_generator(corpus_docs):
    files = sorted(p.name for p in CORPUS_DIR.glob("*.json"))
    assert files == sorted(f"{n}.json" for n in corpus_docs)
    for name, doc in corpus_docs.items():
        canon = model.serialize_instance(model.parse_instance(doc))
        text = json.dumps(canon, indent=1, sort_keys=True) + "\n"
        assert (CORPUS_DIR / f"{name}.json").read_text() == text, name


def test_write_corpus_reproduces_the_shipped_files(tmp_path):
    paths = [Path(p) for p in corpus.write_corpus(tmp_path, 7)]
    assert [p.name for p in paths] == sorted(
        p.name for p in CORPUS_DIR.glob("*.json"))
    for p in paths:
        assert p.read_bytes() == (CORPUS_DIR / p.name).read_bytes(), p.name


def test_random_instance_is_deterministic():
    a = corpus.random_instance(seed=7)
    b = corpus.random_instance(seed=7)
    assert a == b
    c = corpus.random_instance(seed=8)
    assert c != a


def test_random_instances_validate_across_seeds():
    for seed in (1, 2, 3):
        inst = model.parse_instance(corpus.random_instance(seed=seed))
        assert model.validate(inst).ok, seed


def test_edge_kind_coverage(corpus_insts):
    kinds = set()
    for inst in corpus_insts.values():
        for rec in inst.edges.values():
            kinds.add(type(rec.geom))
    assert kinds == {Segment, Ray, Line}


def test_piece_topology_coverage(corpus_insts):
    """The corpus must exercise holes, multi-arc pieces and pieces whose
    cone at a vertex is disconnected."""
    hole = corpus_insts["square_hole"].pieces["O"]
    assert any(c.kind == "cycle" for c in hole.boundary)
    multi_arc = corpus_insts["strip"].pieces["M"]
    assert sum(1 for c in multi_arc.boundary if c.kind == "arc") == 2
    dc = corpus_insts["disconnected_cone"].pieces["B"]
    assert {c.kind for c in dc.boundary} == {"arc", "cycle"}


def test_ring_bump_spot_values(corpus_insts):
    inst = corpus_insts["ring_bump"]
    assert inst.p == 8
    assert model.eval_cpa(inst, pt(0, 0)) == 0       # flat inner plateau
    assert model.eval_cpa(inst, pt(0, 4)) == 2       # climbing the ridge
    assert model.eval_cpa(inst, pt(0, 8)) == 2       # descending again
    assert model.eval_cpa(inst, pt(40, 40)) == 0     # flat far field
    assert model.eval_cpa(inst, pt(0, 6)) == 4       # the crest


def test_structure_counts(corpus_insts):
    sizes = {name: (len(i.vertices), len(i.edges), i.p)
             for name, i in corpus_insts.items()}
    assert sizes["single_piece"] == (0, 0, 1)
    assert sizes["half_plane"] == (0, 1, 2)
    assert sizes["strip"] == (0, 2, 3)
    assert sizes["max_zero_xy"] == (1, 3, 3)
    assert sizes["cross"] == (1, 4, 4)
    assert sizes["hat"] == (5, 8, 5)
    assert sizes["square_hole"] == (4, 4, 2)
    assert sizes["disconnected_cone"] == (4, 9, 6)
    assert sizes["ring_bump"] == (9, 15, 8)


def test_write_corpus_round_trip(tmp_path):
    corpus.write_corpus(tmp_path, random_seed=7)
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert len(files) == 10
    for f in files:
        doc = json.loads((tmp_path / f).read_text())
        assert model.validate(model.parse_instance(doc)).ok, f
