"""Command-line driver: validate, lower, evaluate, certify and draw.

Exit codes: 0 success, 1 validation or verification failure, 2 usage
error (bad flags, or a file that cannot be read or written).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import corpus as corpus_mod
from .decompose import decompose, decomposition_to_json
from .errors import CpaError, SchemaError
from .geometry import indented_json, pt, rat_to_json
from .maxform import reduce as reduce_terms
from .model import (eval_cpa, parse_instance, serialize_instance, sparsify,
                    validate)
from .network import (EXACT, FLOAT64, build_network, eval_network,
                      export_network, import_network, stats)
from .render import render_svg, stroke_width
from .verify import (sample_general_position, verify_equivalence,
                     verify_lemma_suite)

_MODES = {"exact": EXACT, "f64": FLOAT64}

# argparse takes only "-2" or "-0.5" for a negative number and reads "-1/2"
# as an unknown flag; the subcommands with rational arguments widen this.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad rational {text!r}: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: run() parses every call with
    it, and argparse keeps no state from one parse to the next."""
    p = argparse.ArgumentParser(
        prog="cpa2relu",
        description="Compile continuous piecewise-affine functions on the "
                    "plane into exact depth-3 ReLU networks.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("validate", help="run instance admissibility checks")
    c.add_argument("input")

    c = sub.add_parser("sparsify", help="remove redundant edges and vertices")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)

    c = sub.add_parser("decompose",
                       help="split into vertex fans, edge functions and tail")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)

    c = sub.add_parser("compile",
                       help="full pipeline: instance file to network file")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--float-mirror", action="store_true",
                   help="embed a float64 copy of the weights")

    c = sub.add_parser("eval", help="evaluate a compiled network at a point")
    c._negative_number_matcher = _NEGATIVE_NUMBER
    c.add_argument("network")
    c.add_argument("--point", nargs=2, type=_rational, required=True,
                   metavar=("X", "Y"),
                   help="rational coordinates, e.g. 3 -1/2")
    c.add_argument("--mode", choices=sorted(_MODES), default="exact")

    c = sub.add_parser("verify",
                       help="certify instance/network equivalence at random "
                            "points")
    c.add_argument("input")
    c.add_argument("--net", help="compiled network file (default: "
                                 "compile in-process)")
    c.add_argument("--samples", type=_positive, default=1000)
    c.add_argument("--seed", type=_nonneg, default=0)
    c.add_argument("--lemmas", action="store_true",
                   help="also check the per-piece indicator identity")

    c = sub.add_parser("stats", help="widths and parameter counts")
    c.add_argument("network")
    c.add_argument("--pieces", type=_positive, required=True,
                   help="piece count of the source instance")

    c = sub.add_parser("render", help="draw the subdivision as SVG")
    c._negative_number_matcher = _NEGATIVE_NUMBER
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--width", type=_positive, default=640)
    c.add_argument("--height", type=_positive, default=640)
    c.add_argument("--stroke", type=stroke_width, default="1.5")
    c.add_argument("--viewport", nargs=4, type=_rational,
                   metavar=("XMIN", "YMIN", "XMAX", "YMAX"))

    c = sub.add_parser("corpus", help="write the built-in instance corpus")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--seed", type=_nonneg,
                   default=corpus_mod.DEFAULT_RANDOM_SEED)
    return p


def _read_json(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data)
    except ValueError as exc:  # bad JSON or bytes, too many digits
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path: str, doc) -> None:
    """The document as indented, key-sorted JSON and a newline, in one
    write."""
    with open(path, "w") as fh:
        fh.write(indented_json(doc) + "\n")


def _load_instance(path: str):
    """The instance in the file; like any other input file, one that is
    not JSON fails naming the path (_read_json)."""
    return parse_instance(_read_json(path))


def _validated(path: str):
    inst = _load_instance(path)
    report = validate(inst)
    if not report.ok:
        for check in report.checks:
            for msg in check.failures:
                print(f"validate: {check.name}: {msg}", file=sys.stderr)
        raise CpaError(f"instance {path} failed validation")
    return inst


def _cmd_validate(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.input)
    report = validate(inst)
    print(indented_json(report.to_json()))
    return 0 if report.ok else 1


def _cmd_sparsify(ns: argparse.Namespace) -> int:
    inst = _validated(ns.input)
    slim = sparsify(inst, skip_validation=True)
    _write_json(ns.output, serialize_instance(slim))
    print(f"{len(inst.pieces)} pieces / {len(inst.edges)} edges -> "
          f"{len(slim.pieces)} pieces / {len(slim.edges)} edges; "
          f"wrote {ns.output}")
    return 0


def _cmd_decompose(ns: argparse.Namespace) -> int:
    inst = _validated(ns.input)
    slim = sparsify(inst, skip_validation=True)
    dec = decompose(slim)
    _write_json(ns.output, decomposition_to_json(dec))
    print(f"{len(dec.fans)} fans, {len(dec.edge_pairs)} edge functions; "
          f"wrote {ns.output}")
    return 0


def _compile(path: str):
    """The instance, its sparsified form, decomposition and term list."""
    inst = _validated(path)
    slim = sparsify(inst, skip_validation=True)
    dec = decompose(slim)
    return inst, slim, dec, reduce_terms(dec, slim.p)


def _cmd_compile(ns: argparse.Namespace) -> int:
    *_, terms = _compile(ns.input)
    net = build_network(terms)
    _write_json(ns.output,
                export_network(net, include_float=ns.float_mirror))
    s1, s2 = net.widths
    print(f"{len(terms.terms)} terms -> network 2/{s1}/{s2}/1; "
          f"wrote {ns.output}")
    return 0


def _cmd_eval(ns: argparse.Namespace) -> int:
    net = import_network(_read_json(ns.network))
    mode = _MODES[ns.mode]
    value = eval_network(net, pt(*ns.point), mode)
    print(rat_to_json(value) if mode == EXACT else repr(value))
    return 0


def _sparsify_mismatches(inst, slim, n: int, seed: int) -> list[str]:
    """A line for each point of verify_equivalence's sample stream at
    which the sparsified instance's value differs from the input's:
    verify_equivalence checks every later stage against the sparsified
    instance alone."""
    out = []
    for x in sample_general_position(slim, seed, n):
        want, got = eval_cpa(inst, x), eval_cpa(slim, x)
        if want != got:
            out.append(f"sparsify: at [{rat_to_json(x.x)}, "
                       f"{rat_to_json(x.y)}] the input is "
                       f"{rat_to_json(want)}, the sparsified instance "
                       f"{rat_to_json(got)}")
    return out


def _cmd_verify(ns: argparse.Namespace) -> int:
    inst, slim, dec, terms = _compile(ns.input)
    if ns.net:
        net = import_network(_read_json(ns.net))
    else:
        net = build_network(terms)
    report = verify_equivalence(slim, dec, terms, net,
                                n=ns.samples, seed=ns.seed)
    print(report.summary())
    print(f"{len(report.failures)} failures")
    wrong = _sparsify_mismatches(inst, slim, ns.samples, ns.seed)
    for line in wrong[:5]:
        print(line)
    if len(wrong) > 5:
        print(f"sparsify: ... and {len(wrong) - 5} more points")
    ok = report.certified and not wrong
    if ns.lemmas:
        lemma_report = verify_lemma_suite(inst, n=ns.samples, seed=ns.seed)
        print(lemma_report.summary())
        ok = ok and lemma_report.certified
    return 0 if ok else 1


def _cmd_stats(ns: argparse.Namespace) -> int:
    net = import_network(_read_json(ns.network))
    st = stats(net, ns.pieces)
    print(indented_json(st))
    return 0 if st["bounds_ok"] else 1


def _cmd_render(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.input)
    svg = render_svg(inst, width=ns.width, height=ns.height,
                     viewport=ns.viewport, stroke=ns.stroke)
    with open(ns.output, "w") as fh:
        fh.write(svg)
        fh.write("\n")
    print(f"wrote {ns.output}")
    return 0


def _cmd_corpus(ns: argparse.Namespace) -> int:
    paths = corpus_mod.write_corpus(ns.output, random_seed=ns.seed)
    for path in paths:
        print(path)
    return 0


_DISPATCH = {
    "validate": _cmd_validate,
    "sparsify": _cmd_sparsify,
    "decompose": _cmd_decompose,
    "compile": _cmd_compile,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "render": _cmd_render,
    "corpus": _cmd_corpus,
}


def run(argv) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for attr in ("input", "network", "net"):
        path = getattr(ns, attr, None)
        if path is not None and not os.path.exists(path):
            print(f"usage error: no such file: {path}", file=sys.stderr)
            return 2
    try:
        return _DISPATCH[ns.subcommand](ns)
    except CpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
