"""Self-test of the benchmark.  From the root of a checkout:

    python3 pipebench/selftest.py

It checks that the benchmark notices what it claims to notice:

1. A traced short run of each workload passes the gate (no failed
   operation or check), every span records calls on the workloads that
   should exercise it, the probe blocks of the triangulation workloads
   record none, on verify-tri the stage spans nest inside
   verify.verify_equivalence and their busy times add up to its busy time
   less its self time, and every wrapper is removed afterwards.
2. A compile corrupted from outside (build_network adds 1 to the output
   bias) makes the gate fail.
3. A far-field corruption (ring_bump's term list plus max(0, x - 1000))
   is certified by the sampling verifier, yet makes the gate fail.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import os
import sys
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True  # nothing written into the source tree
import run as entry  # noqa: E402

# spans each workload's timed window must exercise
EXERCISED = {
    "compile-tri": ("cli.run", "model.parse_instance", "model.validate",
                    "model.sparsify", "decompose.decompose", "maxform.reduce",
                    "network.build_network", "network.export_network"),
    "verify-tri": ("verify.verify_equivalence", "verify.sample",
                   "model.eval_cpa", "decompose.eval_decomposition",
                   "maxform.terms_eval", "network.eval_network"),
}
# spans only a probe block calls on these workloads: they must stay idle
PROBE_ONLY = {
    "compile-tri": ("verify.verify_equivalence", "verify.verify_lemma_suite",
                    "verify.seeded_mutations"),
    "verify-tri": ("verify.verify_lemma_suite", "verify.seeded_mutations"),
}
VERIFY_STAGES = ("verify.sample", "model.eval_cpa",
                 "decompose.eval_decomposition", "maxform.terms_eval",
                 "network.eval_network")

_results: list = []


def expect(ok: bool, what: str) -> None:
    _results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)


@contextlib.contextmanager
def patched(sites, make):
    """Replace each (owner, attribute) by make(original); undo on exit."""
    saved = [(o, a, o.__dict__[a]) for o, a in sites]
    for o, a, f in saved:
        setattr(o, a, make(f))
    try:
        yield
    finally:
        for o, a, f in reversed(saved):
            setattr(o, a, f)


def main() -> int:
    root = Path.cwd()
    entry.import_package(root)
    import spans
    import workloads
    from cpa2relu import cli, maxform, network
    from cpa2relu.maxform import MaxTerm, TermList
    from cpa2relu.model import AffineFunc
    from cpa2relu.network import AffineLayer, ReluNetwork

    def short(workload, trace=False, only=None):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return workloads.run_workload(workload, seed=3, seconds=0.01,
                                          trace=trace, root=root,
                                          workdir=workdir, setup_reps=1,
                                          only=only)

    with entry.scratch_dir(root, "selftest-") as workdir:
        # 1. clean traced runs
        before = spans.originals()
        for wl in ("compile-tri", "verify-tri", "corpus-accept"):
            run, metrics, tracer = short(wl, trace=True)
            expect(run.attempted > 0 and run.failed == 0,
                   f"{wl}: clean run passes the gate "
                   f"({run.attempted} operations and checks)")
            expected = EXERCISED.get(wl, spans.SPANS)
            idle = [s for s in expected if tracer.calls[s] == 0]
            expect(not idle, f"{wl}: spans record calls "
                             f"(idle: {idle or 'none'})")
            if wl in PROBE_ONLY:
                seen = [s for s in PROBE_ONLY[wl] if tracer.calls[s]]
                expect(not seen, f"{wl}: probe blocks are not traced "
                                 f"(recorded: {seen or 'none'})")
            expect(set(metrics) >= {f"{s}.busy_s" for s in spans.SPANS}
                   | {"trace.overhead_frac"},
                   f"{wl}: every per-layer metric reported")
            if wl == "verify-tri":
                outside = {s: dict(tracer.parents[s]) for s in VERIFY_STAGES
                           if set(tracer.parents[s])
                           != {"verify.verify_equivalence"}}
                expect(not outside, f"verify-tri: stage spans nest inside "
                                    f"verify_equivalence (outside: "
                                    f"{outside or 'none'})")
                ve = "verify.verify_equivalence"
                children = sum(tracer.busy[s] for s in VERIFY_STAGES)
                inner = tracer.busy[ve] - tracer.self_time[ve]
                expect(abs(children - inner) <= 1e-6 * tracer.busy[ve],
                       f"verify-tri: stage busy {children:.6f} s = "
                       f"verify_equivalence busy - self {inner:.6f} s")
        after = spans.originals()
        expect(all(a[2] is b[2] for a, b in zip(before, after)),
               "every wrapper removed after the traced runs")

        # 2. output bias + 1, applied from outside to the compile
        def bias_plus_one(build):
            def build_network(terms):
                l1, l2, l3 = build(terms).layers
                return ReluNetwork((l1, l2, AffineLayer(
                    l3.rows, l3.cols, l3.weights,
                    tuple(b + 1 for b in l3.bias))))
            return build_network

        with patched([(cli, "build_network"), (network, "build_network")],
                     bias_plus_one):
            run, metrics, _ = short("compile-tri", only={"tri10"})
        expect(run.failed > 0 and metrics["ok_rate"]["value"] < 1,
               f"bias corruption fails the gate "
               f"({run.failed}/{run.attempted} failed)")

        # 3. a term that is zero everywhere in the sampled box
        far_term = MaxTerm(1, AffineFunc(Fraction(1), Fraction(0),
                                         Fraction(-1000)),
                           1, AffineFunc(Fraction(0), Fraction(0), Fraction(0)),
                           AffineFunc(Fraction(0), Fraction(0), Fraction(0)))

        def plus_far_term(reduce):
            def reduce_terms(dec, p):
                tl = reduce(dec, p)
                return TermList(tl.terms + (far_term,), tl.source_p)
            return reduce_terms

        with patched([(cli, "reduce_terms"), (maxform, "reduce")],
                     plus_far_term):
            run, metrics, _ = short("corpus-accept", only={"ring_bump"})
        ops = {op for _, op, _ in run.failures}
        expect("verify" not in ops,
               "far-field corruption is certified by verify_equivalence")
        expect("reference" in ops and metrics["ok_rate"]["value"] < 1,
               f"far-field corruption fails the gate "
               f"({run.failed}/{run.attempted} failed, in {sorted(ops)})")
    print(f"{sum(_results)}/{len(_results)} self-test checks hold")
    return 0 if all(_results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
