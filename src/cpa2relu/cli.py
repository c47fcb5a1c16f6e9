"""Command-line driver: validate, lower, evaluate, certify and draw.

Exit codes: 0 success, 1 validation or verification failure, 2 usage
error (bad flags, missing files).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import corpus as corpus_mod
from .decompose import decompose, decomposition_to_json
from .errors import CpaError
from .geometry import rat_to_json, pt
from .maxform import reduce as reduce_terms
from .model import parse_instance, serialize_instance, sparsify, validate
from .network import (EXACT, FLOAT64, build_network, eval_network,
                      export_network, import_network, stats)
from .render import render_svg
from .verify import verify_equivalence, verify_lemma_suite

_MODES = {"exact": EXACT, "f64": FLOAT64}


@dataclass(frozen=True)
class CliConfig:
    subcommand: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    net_path: Optional[str] = None
    point: Optional[Tuple[Fraction, Fraction]] = None
    pieces: Optional[int] = None
    seed: int = 0
    samples: int = 1000
    mode: str = EXACT
    float_mirror: bool = False
    lemmas: bool = False
    viewport: Optional[tuple] = None
    width: int = 640
    height: int = 640
    stroke: float = 1.5


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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cpa2relu",
        description="Compile continuous piecewise-affine functions on the "
                    "plane into exact depth-3 ReLU networks.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("validate", help="run instance admissibility checks")
    c.add_argument("input")
    c.add_argument("--seed", type=_nonneg, default=0)

    c = sub.add_parser("sparsify", help="remove redundant edges and vertices")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--seed", type=_nonneg, default=0)

    c = sub.add_parser("decompose",
                       help="split into vertex fans, edge functions and tail")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--seed", type=_nonneg, default=0)

    c = sub.add_parser("compile",
                       help="full pipeline: instance file to network file")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--seed", type=_nonneg, default=0)
    c.add_argument("--float-mirror", action="store_true",
                   help="embed a float64 copy of the weights")

    c = sub.add_parser("eval", help="evaluate a compiled network at a point")
    c.add_argument("network")
    c.add_argument("--point", nargs=2, required=True, metavar=("X", "Y"),
                   help="rational coordinates, e.g. 3 -1/2")
    c.add_argument("--mode", choices=sorted(_MODES), default="exact")

    c = sub.add_parser("verify",
                       help="certify instance/network equivalence at random "
                            "points")
    c.add_argument("input")
    c.add_argument("--net", help="compiled network file (default: "
                                 "compile in-process)")
    c.add_argument("--samples", type=_nonneg, default=1000)
    c.add_argument("--seed", type=_nonneg, default=0)
    c.add_argument("--lemmas", action="store_true",
                   help="also check the per-piece indicator identity")

    c = sub.add_parser("stats", help="widths and parameter counts")
    c.add_argument("network")
    c.add_argument("--pieces", type=_positive, required=True,
                   help="piece count of the source instance")

    c = sub.add_parser("render", help="draw the subdivision as SVG")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--width", type=_positive, default=640)
    c.add_argument("--height", type=_positive, default=640)
    c.add_argument("--stroke", type=float, default=1.5)
    c.add_argument("--viewport", nargs=4,
                   metavar=("XMIN", "YMIN", "XMAX", "YMAX"))

    c = sub.add_parser("corpus", help="write the built-in instance corpus")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--seed", type=_nonneg,
                   default=corpus_mod.DEFAULT_RANDOM_SEED)
    return p


def _config(ns: argparse.Namespace) -> CliConfig:
    point = None
    if getattr(ns, "point", None) is not None:
        point = (Fraction(ns.point[0]), Fraction(ns.point[1]))
    viewport = None
    if getattr(ns, "viewport", None) is not None:
        viewport = tuple(Fraction(v) for v in ns.viewport)
    return CliConfig(
        subcommand=ns.subcommand,
        input_path=getattr(ns, "input", None) or getattr(ns, "network", None),
        output_path=getattr(ns, "output", None),
        net_path=getattr(ns, "net", None),
        point=point,
        pieces=getattr(ns, "pieces", None),
        seed=getattr(ns, "seed", 0),
        samples=getattr(ns, "samples", 1000),
        mode=_MODES[getattr(ns, "mode", "exact")],
        float_mirror=bool(getattr(ns, "float_mirror", False)),
        lemmas=bool(getattr(ns, "lemmas", False)),
        viewport=viewport,
        width=getattr(ns, "width", 640),
        height=getattr(ns, "height", 640),
        stroke=getattr(ns, "stroke", 1.5),
    )


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_instance(path: str):
    with open(path) as fh:
        return parse_instance(fh.read())


def _validated(path: str, seed: int):
    inst = _load_instance(path)
    report = validate(inst, seed=seed)
    if not report.ok:
        for check in report.checks:
            for msg in check.failures:
                print(f"validate: {check.name}: {msg}", file=sys.stderr)
        raise CpaError(f"instance {path} failed validation")
    return inst


def _cmd_validate(cfg: CliConfig) -> int:
    inst = _load_instance(cfg.input_path)
    report = validate(inst, seed=cfg.seed)
    print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    return 0 if report.ok else 1


def _cmd_sparsify(cfg: CliConfig) -> int:
    inst = _validated(cfg.input_path, cfg.seed)
    slim = sparsify(inst, skip_validation=True)
    _write_json(cfg.output_path, serialize_instance(slim))
    print(f"{len(inst.pieces)} pieces / {len(inst.edges)} edges -> "
          f"{len(slim.pieces)} pieces / {len(slim.edges)} edges; "
          f"wrote {cfg.output_path}")
    return 0


def _cmd_decompose(cfg: CliConfig) -> int:
    inst = _validated(cfg.input_path, cfg.seed)
    slim = sparsify(inst, skip_validation=True)
    dec = decompose(slim)
    _write_json(cfg.output_path, decomposition_to_json(dec))
    print(f"{len(dec.fans)} fans, {len(dec.edge_pairs)} edge functions; "
          f"wrote {cfg.output_path}")
    return 0


def _compile(cfg: CliConfig):
    inst = _validated(cfg.input_path, cfg.seed)
    slim = sparsify(inst, skip_validation=True)
    dec = decompose(slim)
    terms = reduce_terms(dec, slim.p)
    return inst, slim, dec, terms, build_network(terms)


def _cmd_compile(cfg: CliConfig) -> int:
    _, slim, _, terms, net = _compile(cfg)
    _write_json(cfg.output_path,
                export_network(net, include_float=cfg.float_mirror))
    s1, s2 = net.widths
    print(f"{len(terms.terms)} terms -> network 2/{s1}/{s2}/1; "
          f"wrote {cfg.output_path}")
    return 0


def _cmd_eval(cfg: CliConfig) -> int:
    net = import_network(_read_json(cfg.input_path))
    x = pt(*cfg.point)
    value = eval_network(net, x, cfg.mode)
    print(rat_to_json(value) if cfg.mode == EXACT else repr(value))
    return 0


def _cmd_verify(cfg: CliConfig) -> int:
    inst, slim, dec, terms, net = _compile(cfg)
    if cfg.net_path:
        net = import_network(_read_json(cfg.net_path))
    report = verify_equivalence(slim, dec, terms, net,
                                n=cfg.samples, seed=cfg.seed)
    print(report.summary())
    print(f"{len(report.failures)} failures")
    ok = report.certified
    if cfg.lemmas:
        lemma_report = verify_lemma_suite(inst, n=cfg.samples, seed=cfg.seed)
        print(lemma_report.summary())
        ok = ok and lemma_report.certified
    return 0 if ok else 1


def _cmd_stats(cfg: CliConfig) -> int:
    net = import_network(_read_json(cfg.input_path))
    st = stats(net, cfg.pieces)
    print(json.dumps(st, indent=1, sort_keys=True))
    return 0 if st["bounds_ok"] else 1


def _cmd_render(cfg: CliConfig) -> int:
    inst = _load_instance(cfg.input_path)
    svg = render_svg(inst, width=cfg.width, height=cfg.height,
                     viewport=cfg.viewport, stroke=cfg.stroke)
    with open(cfg.output_path, "w") as fh:
        fh.write(svg)
        fh.write("\n")
    print(f"wrote {cfg.output_path}")
    return 0


def _cmd_corpus(cfg: CliConfig) -> int:
    paths = corpus_mod.write_corpus(cfg.output_path, random_seed=cfg.seed)
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
    try:
        cfg = _config(ns)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if cfg.input_path is not None and not os.path.exists(cfg.input_path):
        print(f"usage error: no such file: {cfg.input_path}", file=sys.stderr)
        return 2
    if cfg.net_path is not None and not os.path.exists(cfg.net_path):
        print(f"usage error: no such file: {cfg.net_path}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.subcommand](cfg)
    except CpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
