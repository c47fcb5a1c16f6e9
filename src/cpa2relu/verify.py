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
(geometry.homogeneous) and runs on integers from there, building one
Fraction at the end: model.eval_cpa, decompose.eval_decomposition,
TermList.__call__ and network.eval_network, each on the integer form its
own module describes.  The piece-indicator identity
(sides.indicator_identity_check) converts its point once for every cone,
half-plane and membership test.

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
from .errors import InvalidInputError, SamplingStalledError
from .geometry import Point, Rat, Segment, homogeneous, line_sign, rat_to_json
from .maxform import TermList
from .model import CPAInstance, eval_cpa
from .network import (AffineLayer, EXACT, ReluNetwork, build_network,
                      eval_network, stats)
from .sides import indicator_identity_check

STAGES = ("decompose", "terms", "network")
MAX_SAMPLE_REJECTS = 10_000
SAMPLE_DENOMINATORS = (1, 1 << 16)


def _random_box_point(box: tuple[Rat, Rat, Rat, Rat],
                      rng: random.Random) -> Point:
    """A random rational point of the closed box.  Each coordinate draws
    its denominator uniformly from SAMPLE_DENOMINATORS, then its
    numerator among the multiples of 1/den inside the box.  When no
    multiple of 1/den lies in [lo, hi], den is multiplied by the
    denominators of lo and hi, which makes both of them multiples."""
    xmin, ymin, xmax, ymax = box
    coords = []
    for lo, hi in ((xmin, xmax), (ymin, ymax)):
        den = rng.randint(*SAMPLE_DENOMINATORS)
        nlo = -((-lo.numerator * den) // lo.denominator)
        nhi = (hi.numerator * den) // hi.denominator
        if nlo > nhi:
            den *= lo.denominator * hi.denominator
            nlo = lo.numerator * den // lo.denominator
            nhi = hi.numerator * den // hi.denominator
        coords.append(Fraction(rng.randint(nlo, nhi), den))
    return Point(*coords)


def sample_general_position(inst: CPAInstance, rng_seed: int = 0,
                            n: int = 1000) -> list[Point]:
    """n random rational points in the doubled bounding box, each exactly
    off every edge's affine hull: a point on a hull is rejected and
    redrawn.  Raises SamplingStalledError after MAX_SAMPLE_REJECTS
    rejections in a row."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(rng_seed)
    box = inst.bbox()
    lines = [e.line for e in inst.edges.values()]
    out: list[Point] = []
    rejects = 0
    while len(out) < n:
        q = _random_box_point(box, rng)
        hq = homogeneous(q)
        if any(line_sign(A, B, C, *hq) == 0 for (A, B, C) in lines):
            rejects += 1
            if rejects >= MAX_SAMPLE_REJECTS:
                raise SamplingStalledError(
                    f"{rejects} consecutive rejections while sampling")
            continue
        rejects = 0
        out.append(q)
    return out


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
    return _equivalence(inst, dec, terms, net, n, seed)[0]


def _equivalence(inst: CPAInstance, dec: Decomposition, terms: TermList,
                 net: ReluNetwork, n: int,
                 seed: int) -> tuple[VerifyReport, list, list]:
    """verify_equivalence's report, its sample points and the instance's
    value at each of them."""
    pts = sample_general_position(inst, seed, n) if n > 0 else []
    refs = []
    failures = []
    for i, x in enumerate(pts):
        ref = eval_cpa(inst, x)
        refs.append(ref)
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
    report = VerifyReport(samples=len(pts), seed=seed,
                          failures=tuple(failures), identity_stats={},
                          bound_checks=stats(net, inst.p))
    return report, pts, refs


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


def _probe_draws(rng: random.Random, k: int) -> list[tuple[int, ...]]:
    """k probe points as (x numerator, x denominator, y numerator,
    y denominator), drawn in that order."""
    return [(rng.randint(-400, 400), rng.randint(1, 24),
             rng.randint(-400, 400), rng.randint(1, 24)) for _ in range(k)]


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
        # drawn even when unused, so the rng stream does not depend on
        # visible_at
        draws = _probe_draws(rng, MUTATION_PROBES)
        if visible_at is None:
            pts = [Point(Fraction(a, b), Fraction(c, d))
                   for a, b, c, d in draws]
        else:
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
