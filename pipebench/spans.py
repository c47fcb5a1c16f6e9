"""Spans around the package's public functions, installed from outside.

A function is wrapped at every place a caller looks it up: the cli and
verify modules import stage functions into their own namespaces, so
wrapping only the defining module would record nothing for those calls.
The benchmark's own forward passes (the net_eval timings), the sample
streams it draws for them and the gate's reference computations hold
unwrapped functions and are never recorded.

Calls made while the tracer is paused are not recorded.  Spans are
aggregated in memory: per name, the calls, the busy time (wall
time inside the span) and the self time (busy time not covered by a
child span), plus the names of the spans each one ran inside.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from cpa2relu import cli, maxform, model, network, verify

# span name -> every (owner, attribute) where a caller looks the function up
SITES = {
    "cli.run": [(cli, "run")],
    "model.parse_instance": [(cli, "parse_instance")],
    "model.validate": [(cli, "validate"), (model, "validate")],
    "model.sparsify": [(cli, "sparsify")],
    "model.eval_cpa": [(verify, "eval_cpa")],
    "decompose.decompose": [(cli, "decompose")],
    "decompose.eval_decomposition": [(verify, "eval_decomposition")],
    "maxform.reduce": [(cli, "reduce_terms")],
    "maxform.terms_eval": [(maxform.TermList, "__call__")],
    "network.build_network": [(cli, "build_network"),
                              (verify, "build_network")],
    "network.export_network": [(cli, "export_network"),
                               (network, "export_network")],
    "network.eval_network": [(verify, "eval_network"), (cli, "eval_network")],
    "verify.sample": [(verify, "sample_general_position")],
    "verify.verify_equivalence": [(verify, "verify_equivalence"),
                                  (cli, "verify_equivalence")],
    "verify.verify_lemma_suite": [(verify, "verify_lemma_suite"),
                                  (cli, "verify_lemma_suite")],
    "verify.seeded_mutations": [(verify, "seeded_mutations")],
    "sides.indicator_identity_check": [(verify, "indicator_identity_check")],
}
SPANS = tuple(SITES)


class Tracer:
    """Records spans while installed; restores every original on remove."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.parents: defaultdict = defaultdict(Counter)
        self._stack: list = []  # [name, child seconds] per open span
        self._saved: list = []
        self._recording = True

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self._recording or any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)  # paused, or same span re-entered
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - frame[1]
                self.parents[name][parent] += 1
                if stack:
                    stack[-1][1] += dt
        return span

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in SITES.items():
            for owner, attr in sites:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are not recorded."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def originals() -> list:
    """Every wrapped site with the function found there right now."""
    return [(owner, attr, owner.__dict__[attr])
            for sites in SITES.values() for owner, attr in sites]
