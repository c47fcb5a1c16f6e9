"""The benchmark's three workloads: set-up, timed window and gate.

Load model: one process, one thread, closed loop.  Each timed call starts
only after the previous one returned, and is timed with perf_counter
around the call and nothing else.  Result checks run after the clock
stops.

A run makes its instances from the seed, sets up SETUP_REPS times (the
median is setup_s), runs the workload's operations round-robin over its
instances until the window's seconds are spent (always at least one full
round), then runs the gate.  Every timing metric is measured in the
window: on the triangulation workloads the operations outside the
workload's focus run on one probe instance, an unmoved draw, one probe
block after each main call, so that their samples too are spread over the
whole window.
Timing metrics are per-instance medians summed over the instances an
operation ran on.  See NOTES.md for why each workload exists.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from cpa2relu import cli, corpus, maxform, model, network, verify
from cpa2relu.errors import CpaError
from cpa2relu.geometry import Point, rat_to_json

import reference
from spans import SPANS, Tracer

# the package re-exports the decompose function under the module's name
decompose = importlib.import_module("cpa2relu.decompose")

# Captured before any wrapper exists: the gate's reference computations and
# the benchmark's own forward passes always run the package as shipped.
_EVAL_CPA = model.eval_cpa
_PARSE = model.parse_instance
_SPARSIFY = model.sparsify
_EVAL_NETWORK = network.eval_network
_SAMPLE = verify.sample_general_position

SETUP_REPS = 3

# n_points of the corpus.random_instance triangulations
COMPILE_SIZES = (10, 20, 40)
VERIFY_SIZES = (20, 40)

# the ten shipped instances; a file added to corpus/ later does not change
# what this workload measures
CORPUS = ("cross", "disconnected_cone", "half_plane", "hat", "max_zero_xy",
          "random_tri_7", "ring_bump", "single_piece", "square_hole", "strip")

VERIFY_SAMPLES = {"verify-tri": 24, "corpus-accept": 50, "compile-tri": 12}
LEMMA_SAMPLES = {"corpus-accept": 15, "tri": 1}
MUTANTS = {"corpus-accept": 20, "tri": 10}
ROUNDTRIP_EVALS = 20            # corpus-accept: forward passes per round trip

# the draw whose unmoved copy the probe blocks of a triangulation workload
# run on (see _setup)
PROBE = {"compile-tri": "tri10", "verify-tri": "tri20"}
# the operations each workload's window is about; the traced run records
# spans only inside these, and trace.overhead_frac compares only these
MAIN_OPS = {"compile-tri": ("compile",),
            "verify-tri": ("verify", "net_eval"),
            "corpus-accept": ("compile", "verify", "lemma", "mutants",
                              "roundtrip", "net_eval")}
GATE_IN, GATE_FAR = 24, 36      # gate points per instance


def _median(xs):
    return statistics.median(xs)


def _p90(xs):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, -(-9 * len(xs) // 10) - 1)]


def cli_text(doc: dict) -> str:
    """A document serialised exactly as the CLI writes its output files."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@dataclass
class Case:
    """One instance of a workload with everything its operations need."""

    name: str
    doc: dict
    path: str                       # instance file the CLI reads
    out_path: str                   # network file the CLI writes
    inst: object = None             # parsed, unsparsified
    slim: object = None
    dec: object = None
    terms: object = None
    net: object = None
    export_text: str = ""
    streams: dict = field(default_factory=dict)     # round -> sample points
    net_values: dict = field(default_factory=dict)  # (round, index) -> value
    report_digest: str = ""
    mutation_seed: int = 1000
    mutation_points: Optional[list] = None


class Run:
    """Timings, counts and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.times: dict = defaultdict(list)        # (op, case) -> seconds
        self.tracer = None                          # set during a traced window
        self.probe = None                           # see _setup
        self.rejected_draws: list = []
        self.failures: list = []                    # (case, op, detail)

    def check(self, ok: bool, case: str, op: str, detail: str = "",
              point=None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append((case, op, detail))
            where = "" if point is None else \
                f" at ({point[0]}, {point[1]})"
            print(f"FAIL workload={self.workload} instance={case} op={op}"
                  f"{where}: {detail}", file=sys.stderr)
        return ok

    def call(self, op: str, case: str, fn: Callable, *args, into=None,
             **kwargs):
        """Time one call.  An exception counts as a failed operation and
        returns None; otherwise the caller checks the result."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the package is a result
            self.check(False, case, op, f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        (self.times if into is None else into)[op, case].append(dt)
        return out

    def untraced(self):
        """A block whose package calls the traced window does not record."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()


# ---------------------------------------------------------------------------
# Instances

def moved(doc: dict, rng: random.Random) -> dict:
    """The same subdivision rotated by a multiple of 90 degrees and moved
    by an integer translation, with one affine function added to every
    piece.  Vertices stay integral and cycles keep their orientation."""
    k = rng.randrange(4)
    t = (rng.randint(-9, 9), rng.randint(-9, 9))
    g = [rng.randint(-3, 3) for _ in range(3)]

    def rot(x, y):
        for _ in range(k):
            x, y = -y, x
        return x, y

    def point(v):
        x, y = rot(*(reference.rational(c) for c in v))
        return [rat_to_json(x + t[0]), rat_to_json(y + t[1])]

    out = json.loads(json.dumps(doc))
    for vid, v in out["vertices"].items():
        out["vertices"][vid] = point(v)
    for e in out["edges"].values():
        if "p" in e:
            e["p"] = point(e["p"])
        if "d" in e:
            e["d"] = [rat_to_json(c) for c in
                      rot(*(reference.rational(c) for c in e["d"]))]
    for piece in out["pieces"].values():
        a, b, c = (reference.rational(v) for v in piece["affine"])
        a, b = rot(a, b)        # f(R^-1 (x - t)) = (R a).(x - t) + c
        c = c - a * t[0] - b * t[1]
        piece["affine"] = [rat_to_json(a + g[0]), rat_to_json(b + g[1]),
                           rat_to_json(c + g[2])]
        piece["witness"] = point(piece["witness"])
    return out


def _sparsifies(run: Run, n_points: int, label, doc: dict) -> bool:
    try:
        _SPARSIFY(_PARSE(doc), skip_validation=True)
    except CpaError as exc:
        run.rejected_draws.append((n_points, label, repr(exc)))
        return False
    return True


def draw_triangulations(run: Run, sizes) -> list[tuple[str, dict, dict]]:
    """One corpus.random_instance triangulation per n_points, moved by a
    congruence drawn from the run's seed (see moved()); returns the name,
    the moved document and the unmoved draw.

    The subdivisions are the package's own default draws, so every seed
    measures the same amount of work: independent draws at one n_points
    differ by 25-30% in compile time and coefficient bits, more than a
    usable regression bound.  The seed still changes every number the
    package reads, and every sample and check point.

    A draw or a move whose sparsify raises is skipped and recorded:
    sparsify's boundary retrace fails deterministically on some valid
    triangulations (RetriesExhaustedError, about one draw in twenty at
    n_points 20-40).  Skipped draws are reported on stderr and as
    setup.draws_rejected instead of failing every run that meets one.
    """
    out = []
    rng = random.Random(f"moves/{run.seed}")
    for n_points in sizes:
        for rseed in range(corpus.DEFAULT_RANDOM_SEED,
                           corpus.DEFAULT_RANDOM_SEED + 20):
            base = corpus.random_instance(rseed, n_points=n_points)
            if _sparsifies(run, n_points, rseed, base):
                break
        else:
            raise RuntimeError(f"no usable triangulation at n_points {n_points}")
        for attempt in range(20):
            doc = moved(base, rng)
            if _sparsifies(run, n_points, f"{rseed} moved", doc):
                out.append((f"tri{n_points}", doc, base))
                break
        else:
            raise RuntimeError(f"no usable move at n_points {n_points}")
    return out


def corpus_documents(root: Path) -> list[tuple[str, dict]]:
    return [(name, json.loads((root / "corpus" / f"{name}.json").read_text()))
            for name in CORPUS]


def _new_case(run: Run, name: str, doc: dict, path: Optional[Path]) -> Case:
    if path is None:
        path = run.workdir / f"{name}.json"
        path.write_text(cli_text(doc))
    return Case(name, doc, str(path), str(run.workdir / f"{name}.net.json"))


def _compile_api(case: Case, validated: bool) -> None:
    """The library compile path.  Only the corpus validates here: a moved
    copy of a triangulation random_instance validated is valid."""
    case.inst = model.parse_instance(case.doc)
    case.slim = model.sparsify(case.inst, skip_validation=validated)
    case.dec = decompose.decompose(case.slim)
    case.terms = maxform.reduce(case.dec, case.slim.p)
    case.net = network.build_network(case.terms)
    case.export_text = cli_text(network.export_network(case.net))


def _setup(run: Run, root: Path, only: Optional[set]) -> list[Case]:
    wl = run.workload
    if wl == "corpus-accept":
        cases = [_new_case(run, name, doc, root / "corpus" / f"{name}.json")
                 for name, doc in corpus_documents(root)
                 if only is None or name in only]
        for case in cases:
            _compile_api(case, validated=False)
    else:
        sizes = COMPILE_SIZES if wl == "compile-tri" else VERIFY_SIZES
        drawn = draw_triangulations(run, sizes)
        cases = [_new_case(run, name, doc, None) for name, doc, _ in drawn
                 if only is None or name in only]
        # The probe blocks run on the unmoved draw, the same instance in
        # every run: their operations' cost depends on the instance's
        # geometry and coefficients, the mutants' screening most of all,
        # whose median over seed-moved copies had an interquartile range
        # of about 40% of it.
        base = next(b for name, _, b in drawn if name == PROBE[wl])
        run.probe = _new_case(run, f"{PROBE[wl]}-unmoved", base, None)
        untimed = defaultdict(list)
        for case in (cases if wl == "verify-tri" else []) + [run.probe]:
            run.call("compile", case.name, _compile_api, case, True,
                     into=untimed)
    for i, case in enumerate(cases):
        case.mutation_seed = 1000 + i
    return cases


def setup(run: Run, root: Path, reps: int, only=None) -> tuple[list, list]:
    """Set up reps times from scratch; returns the last cases and the
    wall time of each set-up."""
    walls = []
    for _ in range(reps):
        run.rejected_draws.clear()
        t0 = time.perf_counter()
        cases = _setup(run, root, only)
        walls.append(time.perf_counter() - t0)
    return cases, walls


# ---------------------------------------------------------------------------
# Timed operations.  Round r uses the verifier seed run.seed + 7919 r, so the
# per-instance medians are taken over many sample streams, not one.

def round_seed(run: Run, r: int) -> int:
    return run.seed + 7919 * r


def stream(run: Run, case: Case, r: int) -> list:
    """The sample points verify_equivalence draws in round r (computed
    outside any timed call)."""
    if r not in case.streams:
        case.streams[r] = _SAMPLE(case.slim, round_seed(run, r),
                                  VERIFY_SAMPLES[run.workload])
    return case.streams[r]


def op_cli_compile(run: Run, case: Case, r: int = 0) -> None:
    rc = run.call("compile", case.name, cli.run,
                  ["compile", case.path, "-o", case.out_path])
    if rc is not None:
        run.check(rc == 0, case.name, "compile", f"exit code {rc}")


def _library_compile(doc: dict) -> str:
    """parse -> sparsify (no validate) -> decompose -> reduce -> build ->
    export text: the compile path without the CLI and validate."""
    slim = model.sparsify(model.parse_instance(doc), skip_validation=True)
    terms = maxform.reduce(decompose.decompose(slim), slim.p)
    return cli_text(network.export_network(network.build_network(terms)))


def op_library_compile(run: Run, case: Case, r: int = 0) -> None:
    text = run.call("compile", case.name, _library_compile, case.doc)
    if text is not None:
        run.check(text == case.export_text, case.name, "compile",
                  "library compile differs from the set-up's")


def op_verify(run: Run, case: Case, r: int, into=None) -> None:
    n = VERIFY_SAMPLES[run.workload]
    rep = run.call("verify", case.name, verify.verify_equivalence,
                   case.slim, case.dec, case.terms, case.net,
                   n=n, seed=round_seed(run, r), into=into)
    if rep is not None:
        if r == 0:
            case.report_digest = hashlib.sha256(
                rep.canonical_bytes()).hexdigest()
        run.check(rep.certified and rep.samples == n, case.name, "verify",
                  f"{rep.samples} samples, {len(rep.failures)} failures, "
                  f"first {rep.failures[:1]}")


def op_lemma(run: Run, case: Case, r: int, n: int, into=None) -> None:
    """On a freshly parsed instance: the side caches the suite fills hang
    on the instance, and a CLI run pays for filling them every time."""
    rep = run.call("lemma", case.name, verify.verify_lemma_suite,
                   _PARSE(case.doc), n=n, seed=round_seed(run, r), into=into)
    if rep is not None:
        run.check(rep.certified, case.name, "lemma",
                  f"{len(rep.failures)} failures, first {rep.failures[:1]}")


def _mutants_and_scan(terms, net, points, seed: int, count: int):
    """seeded_mutations screened against the verifier's samples, then the
    first sample at which each mutant's network differs (None: missed)."""
    muts = verify.seeded_mutations(terms, seed=seed, count=count,
                                   visible_at=points)
    ref = [_EVAL_NETWORK(net, x) for x in points]
    return [next((i for i, x in enumerate(points)
                  if _EVAL_NETWORK(m.net, x) != ref[i]), None) for m in muts]


def op_mutants(run: Run, case: Case, count: int, into=None) -> None:
    """As in the acceptance suite, the mutation seed is fixed per instance
    and the mutants are screened against the verifier's seed-0 sample
    stream: how many candidates the screening tries, and how far each is
    evaluated before it differs, depend a lot on both, and that search is
    not what this metric is meant to sample."""
    if case.mutation_points is None:
        case.mutation_points = _SAMPLE(case.slim, 0,
                                       VERIFY_SAMPLES[run.workload])
    hits = run.call("mutants", case.name, _mutants_and_scan, case.terms,
                    case.net, case.mutation_points, case.mutation_seed,
                    count, into=into)
    if hits is not None:
        run.check(len(hits) == count and None not in hits, case.name,
                  "mutants", f"caught at samples {hits}")


def op_net_eval(run: Run, case: Case, r: int, net, points,
                into=None) -> None:
    """Single forward passes, each timed; the gate checks the values."""
    for i, x in enumerate(points):
        v = run.call("net_eval", case.name, _EVAL_NETWORK, net, x, into=into)
        if v is not None:
            case.net_values[r, i] = v


def op_roundtrip(run: Run, case: Case, r: int) -> None:
    """export -> JSON text -> import, then forward passes on the copy."""
    def roundtrip(net):
        return network.import_network(
            json.loads(json.dumps(network.export_network(net))))

    net2 = run.call("roundtrip", case.name, roundtrip, case.net)
    if net2 is not None:
        op_net_eval(run, case, r, net2,
                    stream(run, case, r)[:ROUNDTRIP_EVALS])


def op_verify_tri(run: Run, case: Case, r: int) -> None:
    op_verify(run, case, r)
    op_net_eval(run, case, r, case.net, stream(run, case, r))


def op_corpus_accept(run: Run, case: Case, r: int) -> None:
    op_cli_compile(run, case)
    op_verify(run, case, r)
    op_lemma(run, case, r, LEMMA_SAMPLES["corpus-accept"])
    op_mutants(run, case, MUTANTS["corpus-accept"])
    op_roundtrip(run, case, r)


def probe_compile_tri(run: Run, case: Case, r: int) -> None:
    op_verify_tri(run, case, r)
    op_lemma(run, case, r, LEMMA_SAMPLES["tri"])
    op_mutants(run, case, MUTANTS["tri"])


def probe_verify_tri(run: Run, case: Case, r: int) -> None:
    op_library_compile(run, case, r)
    op_lemma(run, case, r, LEMMA_SAMPLES["tri"])
    op_mutants(run, case, MUTANTS["tri"])


WINDOW_OPS = {"compile-tri": op_cli_compile, "verify-tri": op_verify_tri,
              "corpus-accept": op_corpus_accept}
PROBE_OPS = {"compile-tri": probe_compile_tri, "verify-tri": probe_verify_tri}


def window(run: Run, cases: list, seconds: float, first: int = 0) -> float:
    """Rounds first, first + 1, ... over every case until seconds have
    passed, at least one full round; a later round stops at the first case
    that starts after the deadline.  After each main call the probe block
    runs untraced, with its own sample stream.  Returns the rounds run,
    counting a partial round by its share of the cases."""
    op = WINDOW_OPS[run.workload]
    probe_op = PROBE_OPS.get(run.workload)
    t_end = time.perf_counter() + seconds
    done = 0
    r = first
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while True:
            for j, case in enumerate(cases):
                if r > first and time.perf_counter() >= t_end:
                    return done / len(cases)
                op(run, case, r)
                if probe_op is not None:
                    with run.untraced():
                        probe_op(run, run.probe, r * len(cases) + j)
                done += 1
            r += 1


# ---------------------------------------------------------------------------
# Gate

def _reference_for(case: Case, workload: str):
    if workload == "corpus-accept":
        # The corpus has lines, rays and holes, which the triangle locator
        # does not handle; its reference is the package's own eval_cpa on
        # the unsparsified instance, unwrapped.
        inst = _PARSE(case.doc)
        return lambda x, y: _EVAL_CPA(inst, Point(x, y))
    return reference.TriangulationReference(case.doc)


def _exported(run: Run, case: Case) -> Optional[str]:
    """The compiled network's file: the CLI's output where the workload
    ran the CLI (checked against the library compile), else the set-up's."""
    if run.workload == "verify-tri" or case is run.probe:
        return case.export_text
    if not run.check(os.path.exists(case.out_path), case.name, "compile",
                     "no network file written"):
        return None
    if case.net is None:
        _compile_api(case, validated=True)
    text = Path(case.out_path).read_text()
    run.check(text == case.export_text, case.name, "cli_export",
              "CLI network file differs from the library compile")
    return text


def gate_case(run: Run, case: Case) -> dict:
    """Check one case against references that do not come from the package
    and return its sizes."""
    wl = run.workload
    exported = _exported(run, case)
    if exported is None or case.net is None:
        return {}
    doc = json.loads(exported)
    enet = reference.ExportedNetwork(doc)
    f = _reference_for(case, wl)

    net2 = network.import_network(doc)
    run.check(network.export_network(net2) == doc, case.name, "roundtrip",
              "import(export(net)) exports differently")
    rng = random.Random(f"gate/{run.seed}/{case.name}")
    for x, y in reference.gate_points(case.doc, rng, GATE_IN, GATE_FAR):
        want = f(x, y)
        got = enet(x, y)
        run.check(got == want, case.name, "reference",
                  f"network {got} != reference {want}", (x, y))
        v = _EVAL_NETWORK(net2, Point(x, y))
        run.check(v == got, case.name, "roundtrip",
                  f"eval_network {v} != exported network {got}", (x, y))
    st = network.stats(net2, case.slim.p)
    run.check(st["bounds_ok"], case.name, "bounds", json.dumps(st))
    run.check(st["nnz"] == reference.nonzero_parameters(enet), case.name,
              "nnz", "stats() and the exported document disagree on nnz")
    if wl != "corpus-accept" and case is not run.probe:
        # the checks of the operations the window ran on the probe only,
        # once and untimed
        untimed = defaultdict(list)
        if wl == "compile-tri":
            op_verify(run, case, 0, into=untimed)
            op_net_eval(run, case, 0, net2, stream(run, case, 0),
                        into=untimed)
        op_lemma(run, case, 0, LEMMA_SAMPLES["tri"], into=untimed)
        op_mutants(run, case, MUTANTS["tri"], into=untimed)
    for (r, i), value in sorted(case.net_values.items()):
        x = stream(run, case, r)[i]
        run.check(value == f(x.x, x.y), case.name, "net_eval",
                  f"eval_network {value} != reference", (x.x, x.y))

    sizes = {
        "p_in": case.inst.p, "p_out": case.slim.p,
        "edges_out": len(case.slim.edges), "fans": len(case.dec.fans),
        "edge_pairs": len(case.dec.edge_pairs),
        "terms": len(case.terms.terms),
        "width1": st["s1"], "width2": st["s2"], "nnz": st["nnz"],
        "export_bytes": len(exported.encode()),
        "max_coeff_bits": reference.max_coeff_bits(enet),
    }
    print(json.dumps({"instance": case.name, "workload": wl,
                      "seed": run.seed, "sizes": sizes,
                      "export_sha256": hashlib.sha256(
                          exported.encode()).hexdigest(),
                      "report_sha256": case.report_digest},
                     sort_keys=True))
    return sizes


def gate(run: Run, cases: list) -> list[dict]:
    """Check every case and the probe; returns the sizes of the cases (the
    probe is not one of the workload's instances)."""
    out = []
    for case in cases + ([run.probe] if run.probe is not None else []):
        try:
            sizes = gate_case(run, case)
        except Exception as exc:  # a crash in the gate is a failed check
            run.check(False, case.name, "gate", f"{type(exc).__name__}: {exc}")
            sizes = {}
        out.append(sizes)
    return out[:len(cases)]


# ---------------------------------------------------------------------------
# Metrics

def _summed(run: Run, op: str, stat=_median, scale=1.0):
    """stat of each instance's timings of op, summed over the instances op
    ran on; None if it ran on none."""
    vals = [ts for (o, _), ts in run.times.items() if o == op]
    if not vals:
        return None
    return scale * sum(stat(v) for v in vals)


def print_timings(run: Run) -> None:
    """One row per operation and instance."""
    for (op, case), ts in sorted(run.times.items()):
        print(json.dumps({"instance": case, "op": op, "calls": len(ts),
                          "median_s": _median(ts), "p90_s": _p90(ts)}))


def end_to_end(run: Run, sizes: list, setup_walls: list) -> dict:
    p = sum(s.get("p_out", 0) for s in sizes) or 1
    metrics = {
        "setup_s": (_median(setup_walls), "s"),
        "compile_s": (_summed(run, "compile"), "s"),
        "verify_s": (_summed(run, "verify"), "s"),
        "net_eval_us": (_summed(run, "net_eval", scale=1e6), "us"),
        "net_eval_p90_us": (_summed(run, "net_eval", _p90, 1e6), "us"),
        "lemma_s": (_summed(run, "lemma"), "s"),
        "mutant_s": (_summed(run, "mutants"), "s"),
        "export_bytes_per_piece": (
            sum(s.get("export_bytes", 0) for s in sizes) / p, "B"),
        "nnz_per_piece": (sum(s.get("nnz", 0) for s in sizes) / p, "1"),
        "max_coeff_bits": (max(s.get("max_coeff_bits", 0) for s in sizes),
                           "bits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_rate": (1 - run.failed / max(run.attempted, 1), "1"),
    }
    for name, (value, _) in metrics.items():
        if value is None:
            run.check(False, "-", "metrics", f"{name} was not measured")
    return {name: {"value": value if value is not None else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()}


SIZE_METRICS = {
    "model.pieces_in": "p_in", "model.pieces_out": "p_out",
    "model.edges_out": "edges_out", "decompose.fans": "fans",
    "decompose.edge_pairs": "edge_pairs", "maxform.terms": "terms",
    "network.width1": "width1", "network.width2": "width2",
    "network.nnz": "nnz", "network.export_bytes": "export_bytes",
}


def per_layer(tracer: Tracer, rounds: float, sizes: list, overhead: float,
              run: Run) -> dict:
    """Span totals per round of the traced window, sizes summed over the
    instance set, and the tracing overhead."""
    m = {}
    for name in SPANS:
        m[f"{name}.busy_s"] = (tracer.busy[name] / rounds, "s")
        m[f"{name}.self_s"] = (tracer.self_time[name] / rounds, "s")
        m[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
    for metric, key in SIZE_METRICS.items():
        m[metric] = (sum(s.get(key, 0) for s in sizes), "count")
    m["verify.samples"] = (VERIFY_SAMPLES[run.workload]
                           * tracer.calls["verify.verify_equivalence"]
                           / rounds, "count")
    m["trace.overhead_frac"] = (overhead, "1")
    m["setup.draws_rejected"] = (len(run.rejected_draws), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# One run

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, workdir: Path, setup_reps: int = SETUP_REPS,
                 only=None) -> tuple[Run, dict, Optional[Tracer]]:
    """Set up, run the window (untraced, or half untraced and half traced),
    gate, and return the run, its metrics and the tracer if any."""
    run = Run(workload, seed, workdir)
    cases, walls = setup(run, root, setup_reps, only)
    for n_points, rseed, err in run.rejected_draws:
        print(f"setup: skipped random_instance({rseed}, n_points={n_points}):"
              f" sparsify raised {err}", file=sys.stderr)
    gc.collect()  # the set-ups' garbage, before the window rather than in it
    if not trace:
        window(run, cases, seconds)
        sizes = gate(run, cases)
        print_timings(run)
        return run, end_to_end(run, sizes, walls), None

    untraced_rounds = window(run, cases, seconds / 2)
    untraced = {k: list(v) for k, v in run.times.items()}
    run.times.clear()
    tracer = run.tracer = Tracer()
    with tracer:
        rounds = window(run, cases, seconds / 2,
                        first=int(untraced_rounds) + 1)
    run.tracer = None
    traced = run.times
    keys = sorted(k for k in set(untraced) & set(traced)
                  if k[0] in MAIN_OPS[workload])
    base = sum(_median(untraced[k]) for k in keys)
    overhead = sum(_median(traced[k]) for k in keys) / base - 1 if base else 0.0
    sizes = gate(run, cases)
    return run, per_layer(tracer, rounds, sizes, overhead, run), tracer
