"""Byte-identity of every pipeline output on the shipped corpus.

The SHA-256 digests below pin, per instance: the exported network, the
decomposition dump, the serialized sparsified instance, the verifier's
report at 200 samples and the lemma suite's report at 100 samples on
the parsed and on the sparsified instance.  The exported network of
seeded random_instance(3, n) draws is pinned too: their fans reach
degree 25, against 6 in the corpus.  For random_instance(s, n) with s in
{5, 9}, the term list and the validation report of a broken copy of the
draw (one vertex moved, one witness put on a vertex) are pinned, so the
reduction's and validate's failure messages and their order are fixed.
The (kind, detail) lists of seeded_mutations on ring_bump and
random_tri_7 are pinned, screened at the verifier's samples and at the
mutator's own probe points.  A change that alters any of these bytes
must say so and update the digest.  The benchmark in pipebench/ pins
names as well: every package function it looks up must still exist.
"""
import ast
import hashlib
import importlib
import json
import types
from fractions import Fraction
from pathlib import Path

import pytest

from cpa2relu import corpus, maxform, model, network, verify
from cpa2relu.decompose import decompose, decomposition_to_json

OUTPUTS = ("export", "decomposition", "sparsified", "verify", "lemma_parsed",
           "lemma_sparsified")

DIGESTS = {
    "cross": (
        "02acc4d113745e789e20750f8f87f63c8754cdf26e5c5a6d0f6aa3b2b89539dd",
        "2715d21d5b71020737312c93c408b640469ddfd68354f4105e0a9a45a3cb5ec8",
        "0e026fccb0afb9004a393a331dc54ec5ced02484452a0aff6999e08bc8882793",
        "61f5d68f9b38e1db1b08a99e0b353341a388094fd3f917c7b8c8e9f32f204867",
        "25edd8d71deb2b18d4ed89e75471cfd55c874f976e5769faf66a8f2adf0a345a",
        "25edd8d71deb2b18d4ed89e75471cfd55c874f976e5769faf66a8f2adf0a345a",
    ),
    "disconnected_cone": (
        "490b098bd0edd0654c1b5be94531ad98201ce3c5a1d9f0f0aedd9d18d0db2f12",
        "f6eadc9e90f6baad967a111bd90f9bf343a67473b2682fcaddaef4577122c20c",
        "231f8a079d9614ca34ee94e33e2e3265b5917c758c196589e753d6633bee48ba",
        "75ab6456ee1aa6c25450231886902439a134a22e09184690832775ce024dd6c7",
        "010cf398888d0e71ac93b8b0c1efd5279444ce3229571f67ba6d018a74f574ec",
        "010cf398888d0e71ac93b8b0c1efd5279444ce3229571f67ba6d018a74f574ec",
    ),
    "half_plane": (
        "4c465cd6cfe03f7052b876750c831605dedf4cce22c7bf6d7419aae91608192b",
        "f332cced628036360c3bdd1944c12fe76ebf89ac385589d3f551f387b2a3cb28",
        "367f8a2508bc4b8b5d4c13a45a6f6a7e2afdcd645b83a720e79b0ffd6eb0e475",
        "e8bf32812eef54c37845f2c01f3d85fb762a394fa94ec4e5cfbd5ccf1824c1ac",
        "ae55445b24023c1e0807551ddff1cf19ae8244bacf17b0623963ffb36acf90c4",
        "ae55445b24023c1e0807551ddff1cf19ae8244bacf17b0623963ffb36acf90c4",
    ),
    "hat": (
        "150a4b75de1a878a296e1d66a7cfcc500a88281c004dc14c528148d6f1f2a65c",
        "5d8a67c60cce60dd49e3e699481792d9f0dbd38bb175c10417dd5dc0ae6cd3f7",
        "bcf5de340cbeec8e1af8818b0e629664363eec22e62b7639d190dc504551de68",
        "7ee6ff0d50407a22515b06f744ae3f26ca215fc2e55014c35cd946fd91710a69",
        "130f01eca2e916c15e0cbaa9f26597bde469336354e05bcf4cb07041be899343",
        "130f01eca2e916c15e0cbaa9f26597bde469336354e05bcf4cb07041be899343",
    ),
    "max_zero_xy": (
        "1860e67f40689cdbb79e5d4e6abe832a3ec8ef0347c05b93accdd856fb99f570",
        "0c4e3b3f194f56ebe973c13d860e03ee45a503dc26204127e9116fda16b9e871",
        "89cb90db88f85a16950cca1c6b4cffbe53c4aadb94d2bc1830b1a14c4eccc2ed",
        "119b9314e5ecc4608e60d1a4bcf549443baf21c6696e6af408002b89992ea198",
        "15d4068dc3311f80a0fb3ffc0f1d98d45ec20bdb8a22cd509d61f52235513068",
        "15d4068dc3311f80a0fb3ffc0f1d98d45ec20bdb8a22cd509d61f52235513068",
    ),
    "random_tri_7": (
        "0aebf1a6828f024e6f1e4043ec7cbcf1060f2130e3d1423468f2a9002db3939b",
        "26e70e8384fa3ef0d495b08392948c44e32d4fe98a592d6eab20878cf0f253f7",
        "4109a0af100fa4e3911b75bbf8d8a273ce5b7a5064893a8ccf0767013a86db95",
        "b38c4feb6618132b373fe8793160177d9cbddda43a6fb3704ff0b57d3f31476d",
        "a4e5fa021663d6045616f5aabb5ef38d10f6eafb5c55fd74d2e6f44126adea65",
        "a4e5fa021663d6045616f5aabb5ef38d10f6eafb5c55fd74d2e6f44126adea65",
    ),
    "ring_bump": (
        "fea05db869729fb397e0b6068413631d8acd62e9537207d355aab45dfaddb479",
        "700cedad91861eb057578f71c4bd1a334c42914a4ae679d2542431049e7eac8c",
        "658756bd3cb0c2ce30b403cdb2d03691a517964e41cbe0fcea5aedd1052327e9",
        "b3dcfd029dc9aece62f0f01e292922e23398bac8e2419a2abe4574831859555a",
        "501a37f34ea3581cb6c0def33b1507dc62e86c35636dba13890000a20aa44d1a",
        "501a37f34ea3581cb6c0def33b1507dc62e86c35636dba13890000a20aa44d1a",
    ),
    "single_piece": (
        "83873be83ab0792bc5d6d47d922ab2f94683ce6aaa3e67c64bbf35f3dc01b740",
        "38b576e0e2122c3166a56c23beda8297683c7418224f4a56ecd82b4f5b52a3e8",
        "b676cd829bffd34c4de50373ad8161f5ad063b9036ba1986c6e4c622eb40c13b",
        "17420648a008ad01358ce0f066de8d7d204fa914340da8524508d0807c7274f9",
        "c9f92a2ffd916164bdcc0b13c228b5741ea06ab766a63fc808f7c54c60d5e9b5",
        "c9f92a2ffd916164bdcc0b13c228b5741ea06ab766a63fc808f7c54c60d5e9b5",
    ),
    "square_hole": (
        "4cbb8c4b153796057757e17b6556396dd4780497d2413beff3bddb91bc4148fd",
        "058a4eb8b2f1c8f290077c624e16d6d36ba37d3b9c6b18bdba571c66c56fcdc5",
        "1a5e1f92cc56d4def6511e7a0bae181b31dc66a6aae104b40e4dbc0d301c6985",
        "17420648a008ad01358ce0f066de8d7d204fa914340da8524508d0807c7274f9",
        "1f2559877624700919010980732bf863f10344666424fc53fe68f580a2a33326",
        "05533441c6d1e90cb440e2ef7d72c1b348808fe7bff88874c755e73cdf8be6c0",
    ),
    "strip": (
        "e1f60c18b5113a4250472b3aee304b345070c7a1784c4356fb26d4b834957e04",
        "d80d3627bc169ed7843466a514827e3263758b9ca00a03b1ecb53d25bcd99d11",
        "6d8eb85e348e79acc071fe4f558a1912715c0cd8f020aa208370b6e42f90ec53",
        "32c40ea93653f62562daa808b174010e61ba6261ad9e408bfcf2dc9b8af7c047",
        "adcb017591ece42b79b53483963909173240f018a6bc2ebbd4f8e9a26a011366",
        "adcb017591ece42b79b53483963909173240f018a6bc2ebbd4f8e9a26a011366",
    ),
}


RANDOM_EXPORT_DIGESTS = {
    10: "66177c04463f1743aa063927d8697b933c7e4d01f577b7fab13d358abf2bef9a",
    20: "c050ac5d59dd4c5fe88b24ae06503177ea39e8b6c62976a7bf0a47716fb35485",
    40: "dc5a8e674b73a9e23f0c515f4fbf7292b38767141b23b4380cec63ec4b261798",
    80: "49dcabc64b6bd4ddbb066aa719cb3fb1d02b54946f125fcc89ce77e90f5de4b3",
}


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_are_byte_identical(name, corpus_docs):
    doc = corpus_docs[name]
    slim = model.sparsify(model.parse_instance(doc))
    dec = decompose(slim)
    terms = maxform.reduce(dec, slim.p)
    net = network.build_network(terms)
    got = (
        _sha(network.export_network(net)),
        _sha(decomposition_to_json(dec)),
        _sha(model.serialize_instance(slim)),
        _sha(verify.verify_equivalence(slim, dec, terms, net, n=200,
                                       seed=0).canonical_bytes()),
        _sha(verify.verify_lemma_suite(model.parse_instance(doc),
                                       n=100).canonical_bytes()),
        _sha(verify.verify_lemma_suite(model.sparsify(model.parse_instance(doc)),
                                       n=100).canonical_bytes()),
    )
    assert dict(zip(OUTPUTS, got)) == dict(zip(OUTPUTS, DIGESTS[name]))


def test_digests_cover_the_corpus():
    assert sorted(DIGESTS) == sorted(corpus.all_documents())


@pytest.mark.parametrize("n_points", sorted(RANDOM_EXPORT_DIGESTS))
def test_random_draw_exports_are_byte_identical(n_points):
    doc = corpus.random_instance(3, n_points)
    slim = model.sparsify(model.parse_instance(doc))
    terms = maxform.reduce(decompose(slim), slim.p)
    got = _sha(network.export_network(network.build_network(terms)))
    assert got == RANDOM_EXPORT_DIGESTS[n_points]


# (seed, n_points) -> (TermList.to_json(), broken copy's ValidationReport)
DRAW_DIGESTS = {
    (5, 10): ("f1a2c0c092d26181c585e0a69ad3c593a8d274dc57087181d244b3aeeea8c73c",
             "553246bdcf6b4bca39a51d939ad07f0a73f62977ce77eeb84262b011d2767967"),
    (5, 20): ("2c5d20426a0942a53aa19f172c2952791cd17d9b843b0ca2c8e3d27bb55017fe",
             "158f9211b086c04d7e21f64b88b587b0a3783575286c37b44f2726bd652a2500"),
    (5, 40): ("ff44c05508d6e709f6d9fab88267337a22df9b8325e42111ebc6a6772ea080cd",
             "adb16191e5be7f3e8f39f40a4fb3e19523c1c7643923028549c7659584da4706"),
    (5, 80): ("114ee4e3bb1a31bcab5898788f178c819d118606bef0a3b65b248dd169b2cf27",
             "74d7ecc27f92dd89d18daa1c4d977b3ac879253ea1264bfca050c111b2c30b6f"),
    (9, 10): ("b463e9953ec8d70807f1c6b5801155f5f144d553ee4864e66e42f5b285a3a8c9",
             "0f443fca04d60e40bb681d29e7acf4f6907da8c50b168b6ecc168f18112de3ca"),
    (9, 20): ("3f7c347ba80ab0dc9db9f233acca6b480495ca8e88e888e79ec3b85b097b4469",
             "7807fa803a1cab1d06f2d18af7be9a0c9a2542d1d2725ae315c5a705f63acd50"),
    (9, 40): ("4cd14d6b16550874e932df6c94a2e64fb0352ad7a2b9011573369b5a84ad19d9",
             "611610dc49cc816e57c7a6bb8e6a122c920c54d6a7a956f94a67269ed036a9db"),
    (9, 80): ("9c541f2422c62774b3ae5f645070dc497bbef89f5dceee4551ace776ea6d47ac",
             "7e5f17f9d1155e3552c80baea2fb3694b21d15106b34c459c4a6f35de1cdd023"),
}


def _broken(doc: dict) -> dict:
    """The draw with its middle vertex (in id order) moved by (37/3, -23)
    and its first piece's witness put on its first vertex: edges cross,
    continuity tears, and a witness lies on hulls."""
    doc = json.loads(json.dumps(doc))
    vids = sorted(doc["vertices"])
    vid = vids[len(vids) // 2]
    x, y = (Fraction(c) for c in doc["vertices"][vid])
    doc["vertices"][vid] = [str(x + Fraction(37, 3)), str(y - 23)]
    doc["pieces"][sorted(doc["pieces"])[0]]["witness"] = doc["vertices"][vids[0]]
    return doc


@pytest.mark.parametrize("seed, n_points", sorted(DRAW_DIGESTS))
def test_random_draw_terms_and_reports_are_byte_identical(seed, n_points):
    doc = corpus.random_instance(seed, n_points)
    assert model.validate(model.parse_instance(doc)).ok
    slim = model.sparsify(model.parse_instance(doc))
    terms = maxform.reduce(decompose(slim), slim.p)
    report = model.validate(model.parse_instance(_broken(doc)))
    assert not report.ok
    got = (_sha(terms.to_json()), _sha(report.to_json()))
    assert got == DRAW_DIGESTS[seed, n_points]


# (instance, visible_at) -> [(kind, detail)] of seeded_mutations(terms,
# seed, 20, visible_at): screened against that many of the verifier's
# seed-0 samples, or against the mutator's own probe points (None)
MUTATION_DIGESTS = {
    ("random_tri_7", 3):
        "d1dfec37146765e5a685c2f2a9eaf979ad2c6195dc8c093f48a0c758e418e318",
    ("random_tri_7", 50):
        "0b7443337bd61bc111f9f55ebd3ef4e38b74162142314a58711bb07131ebf9d5",
    ("random_tri_7", None):
        "0b7443337bd61bc111f9f55ebd3ef4e38b74162142314a58711bb07131ebf9d5",
    ("ring_bump", 3):
        "6fd10c338da94030e9ed2e5f42051d38852cea803afc4d13764ab6dcd9f89cc5",
    ("ring_bump", 50):
        "56656d0a7c72f60ce2cabe65b106bf4c41c6161ca5e01ff6c2aaad5c90d7dd94",
    ("ring_bump", None):
        "56656d0a7c72f60ce2cabe65b106bf4c41c6161ca5e01ff6c2aaad5c90d7dd94",
}
MUTATION_SEEDS = {"random_tri_7": 1005, "ring_bump": 1006}


@pytest.mark.parametrize("name, k", sorted(MUTATION_DIGESTS, key=str))
def test_seeded_mutation_lists_are_byte_identical(name, k, corpus_docs):
    """The mutator's rng stream, so which candidates it draws and keeps,
    does not depend on whether it screens at its own probe points."""
    slim = model.sparsify(model.parse_instance(corpus_docs[name]))
    terms = maxform.reduce(decompose(slim), slim.p)
    pts = None if k is None else verify.sample_general_position(slim, 0, k)
    muts = verify.seeded_mutations(terms, seed=MUTATION_SEEDS[name],
                                   count=20, visible_at=pts)
    assert _sha([[m.kind, m.detail] for m in muts]) == \
        MUTATION_DIGESTS[name, k]


def test_every_name_the_benchmark_uses_exists(monkeypatch):
    """pipebench imports the package's functions by name and wraps them
    in spans; a deleted one fails here, not only in its self-test."""
    bench = Path(__file__).resolve().parents[1] / "pipebench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    assert all(callable(fn) for _, _, fn in spans.originals())
    # every module.name the workloads read, function bodies included
    for node in ast.walk(ast.parse((bench / "workloads.py").read_text())):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            continue
        mod = getattr(workloads, node.value.id, None)
        if (isinstance(mod, types.ModuleType)
                and mod.__name__.startswith("cpa2relu")):
            assert hasattr(mod, node.attr), (mod.__name__, node.attr)
