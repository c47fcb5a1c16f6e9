"""Randomized exact certification of the compilation pipeline.

Every check here compares rational values for equality -- no tolerances.
Samples are random rational points off every edge hull, drawn from the
instance's doubled bounding box (CPAInstance.bbox).  Two distinct
continuous piecewise-affine functions differ on a region of positive
area, but that region may lie wholly outside the box: a network with an
extra term max(0, x - 1000) agrees with a small instance everywhere the
sampler looks.  "certified" therefore means agreement at the samples in
the box, and nothing more.  The stage evaluators are exact.  Each takes a
Point, converts it once to homogeneous form (X, Y, W)
(geometry.homogeneous) and runs on integers from there: the instance
through crossing-parity membership on the edges' integer lines and ends,
each piece's witness converted once per instance; the decomposition
through kernels.eval_blocks on its integer triples over one common
denominator, each fan's sector found by geometry.sector_index and each
edge pair's side by a line sign; the term list through
kernels.eval_terms; the network through kernels.forward_layers on its
cached integer rows, each unit scaled by an integer that ReLU commutes
with.  Each builds one Fraction, at the end.  The piece-indicator
identity (sides.indicator_identity_check) converts its point once for
every cone, half-plane and membership test.

Reports are plain data and fully reproducible: the same instance and seed
always produce byte-identical JSON.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from .decompose import Decomposition, eval_decomposition
from .errors import InvalidInputError
from .geometry import Point, Segment, rat_to_json
from .maxform import TermList
from .model import CPAInstance, _sample_off_hulls, eval_cpa
from .network import (AffineLayer, EXACT, ReluNetwork, build_network,
                      eval_network, stats)
from .sides import indicator_identity_check

STAGES = ("decompose", "terms", "network")


def sample_general_position(inst: CPAInstance, rng_seed: int = 0,
                            n: int = 1000) -> list[Point]:
    """n random points, each exactly off every edge's affine hull."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _sample_off_hulls(inst, random.Random(rng_seed), n)


@dataclass(frozen=True)
class VerifyReport:
    samples: int
    seed: int
    failures: tuple
    identity_stats: dict
    bound_checks: dict
    euler: Optional[dict] = None

    @property
    def certified(self) -> bool:
        return self.samples > 0 and not self.failures

    def to_json(self) -> dict:
        doc = {"samples": self.samples, "seed": self.seed,
               "certified": self.certified, "failures": list(self.failures),
               "identity_stats": self.identity_stats,
               "bound_checks": self.bound_checks}
        if self.euler is not None:
            doc["euler"] = self.euler
        return doc

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True).encode()

    def summary(self) -> str:
        lines = [f"samples: {self.samples}  seed: {self.seed}  "
                 f"certified: {'yes' if self.certified else 'NO'}"]
        if self.bound_checks:
            bc = self.bound_checks
            lines.append(f"widths: ({bc['s1']}, {bc['s2']})  nnz: {bc['nnz']}  "
                         f"bounds_ok: {bc['bounds_ok']}")
        if self.identity_stats:
            bad = sum(s["fail"] for s in self.identity_stats.values())
            lines.append(f"indicator identity: {len(self.identity_stats)} "
                         f"pieces, {bad} failing evaluations")
        if self.euler is not None and self.euler["applicable"]:
            mark = "ok" if self.euler["ok"] else "VIOLATED"
            lines.append(f"euler characteristic: {self.euler['chi']} ({mark})")
        for f in self.failures[:5]:
            lines.append(f"  failure: {f}")
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        return "\n".join(lines)


def verify_equivalence(inst: CPAInstance, dec: Decomposition,
                       terms: TermList, net: ReluNetwork,
                       n: int = 1000, seed: int = 0) -> VerifyReport:
    """Compare all four pipeline stages pointwise at n random points.

    A failure records every stage value plus the earliest stage that
    diverges from the instance evaluation, so a bad run pinpoints the
    broken transformation rather than just "wrong output".
    """
    pts = sample_general_position(inst, seed, n) if n > 0 else []
    failures = []
    for i, x in enumerate(pts):
        ref = eval_cpa(inst, x)
        vals = {"cpa": ref,
                "decompose": eval_decomposition(dec, x),
                "terms": terms(x),
                "network": eval_network(net, x, EXACT)}
        first = next((s for s in STAGES if vals[s] != ref), None)
        if first is not None:
            failures.append({
                "index": i,
                "point": [rat_to_json(x.x), rat_to_json(x.y)],
                "stage_values": {k: rat_to_json(v) for k, v in vals.items()},
                "first_divergence": first,
            })
    return VerifyReport(samples=len(pts), seed=seed, failures=tuple(failures),
                        identity_stats={}, bound_checks=stats(net, inst.p))


def _euler_diagnostic(inst: CPAInstance) -> dict:
    """chi = |V| - |E| + p, asserted to equal 2 when the edge graph is
    bounded (segments only) and connected."""
    bounded = bool(inst.edges) and all(
        isinstance(e.geom, Segment) for e in inst.edges.values())
    connected = bounded
    if bounded:
        parent = {vid: vid for vid in inst.vertices}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in inst.edges.values():
            ra, rb = find(e.vertex_ids[0]), find(e.vertex_ids[1])
            if ra != rb:
                parent[ra] = rb
        connected = len({find(v) for v in inst.vertices}) == 1
    applicable = bounded and connected
    chi = len(inst.vertices) - len(inst.edges) + inst.p
    return {"applicable": applicable, "vertices": len(inst.vertices),
            "edges": len(inst.edges), "pieces": inst.p, "chi": chi,
            "ok": (not applicable) or chi == 2}


def verify_lemma_suite(inst: CPAInstance, n: int = 1000,
                       seed: int = 0) -> VerifyReport:
    """Check the piece-indicator identity per piece at n points, plus the
    Euler characteristic when the instance is bounded and connected."""
    pts = sample_general_position(inst, seed, n) if n > 0 else []
    piece_ids = sorted(inst.pieces)
    identity_stats = {pid: {"pass": 0, "fail": 0} for pid in piece_ids}
    failures = []
    for i, x in enumerate(pts):
        for pid in piece_ids:
            res = indicator_identity_check(inst, pid, x)
            if res["ok"]:
                identity_stats[pid]["pass"] += 1
            else:
                identity_stats[pid]["fail"] += 1
                failures.append({
                    "index": i, "piece": pid,
                    "point": [rat_to_json(x.x), rat_to_json(x.y)],
                    "lhs": res["lhs"], "rhs": res["rhs"],
                })
    euler = _euler_diagnostic(inst)
    if not euler["ok"]:
        failures.append({"stage": "euler", **euler})
    return VerifyReport(samples=len(pts), seed=seed, failures=tuple(failures),
                        identity_stats=identity_stats, bound_checks={},
                        euler=euler)


# ---------------------------------------------------------------------------
# Mutation testing: the verifier must notice sabotage

MUTATION_KINDS = ("flip_sigma1", "flip_sigma2", "perturb_weight", "drop_term")
MUTATION_PROBES = 16
MUTATION_MAX_TRIES = 500


@dataclass(frozen=True)
class Mutation:
    kind: str
    detail: str
    terms: TermList
    net: ReluNetwork
    expect_stage: str  # earliest stage verify_equivalence should flag


def _probe_points(rng: random.Random, k: int) -> list[Point]:
    return [Point(Fraction(rng.randint(-400, 400), rng.randint(1, 24)),
                  Fraction(rng.randint(-400, 400), rng.randint(1, 24)))
            for _ in range(k)]


def _differs(f: Callable[[Point], Fraction], g: Callable[[Point], Fraction],
             pts: list[Point]) -> bool:
    return any(f(x) != g(x) for x in pts)


def seeded_mutations(terms: TermList, seed: int, count: int = 20,
                     visible_at: Optional[list[Point]] = None) -> list[Mutation]:
    """count seeded corruptions of the term list or network weights.

    Sign flips and weight bumps can happen to leave the represented
    function unchanged (a dead branch of a max, say); candidates are
    probed at MUTATION_PROBES random points and silent ones are
    resampled, up to MUTATION_MAX_TRIES draws in all, so every returned
    Mutation provably changes the function somewhere.

    A corruption can also be real yet invisible to a verifier that only
    samples near the instance (flipping the inner sign of an affine
    carrier term changes g to |g|, which agrees with g wherever g >= 0).
    Pass the verifier's own sample stream as visible_at and candidates
    are screened against those points instead, so every returned
    Mutation is guaranteed to be caught there.
    """
    rng = random.Random(seed)
    net0 = build_network(terms)
    out: list[Mutation] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > MUTATION_MAX_TRIES:
            raise InvalidInputError(f"only {len(out)} functional mutations "
                                    f"found in {MUTATION_MAX_TRIES} tries")
        kind = MUTATION_KINDS[rng.randrange(len(MUTATION_KINDS))]
        pts = _probe_points(rng, MUTATION_PROBES)
        if visible_at is not None:
            pts = visible_at
        if kind == "perturb_weight":
            li = rng.randrange(3)
            layer = net0.layers[li]
            keys = sorted(layer.weights)
            r, c = keys[rng.randrange(len(keys))]
            w2 = dict(layer.weights)
            bumped = w2[r, c] + 1
            if bumped == 0:
                del w2[r, c]
            else:
                w2[r, c] = bumped
            nl = list(net0.layers)
            nl[li] = AffineLayer(layer.rows, layer.cols, w2, layer.bias)
            net2 = ReluNetwork(tuple(nl))
            if _differs(lambda x: eval_network(net0, x),
                        lambda x: eval_network(net2, x), pts):
                out.append(Mutation(kind, f"layer {li} weight ({r}, {c})",
                                    terms, net2, "network"))
            continue
        if kind == "drop_term" and len(terms.terms) < 2:
            continue
        i = rng.randrange(len(terms.terms))
        t = terms.terms[i]
        if kind == "drop_term":
            mutated: tuple = ()
        elif kind == "flip_sigma1":
            mutated = (replace(t, sigma1=-t.sigma1),)
        else:
            mutated = (replace(t, sigma2=-t.sigma2),)
        cand = TermList(terms=terms.terms[:i] + mutated + terms.terms[i + 1:],
                        source_p=terms.source_p)
        if _differs(terms, cand, pts):
            out.append(Mutation(kind, f"term {i}", cand, build_network(cand),
                                "terms"))
    return out
