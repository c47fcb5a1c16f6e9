"""Pipeline benchmark for cpa2relu.

    python3 pipebench/run.py --workload compile-tri|verify-tri|corpus-accept \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from
./src as it stands (no install step).  Scratch files go to a private
directory under ./.pipebench_tmp that is removed on exit.  Per-instance
sizes and digests are printed as JSON lines, failures on stderr, and the
last line of standard output is the result object.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

# the benchmark writes nothing into the source tree it measures
sys.dont_write_bytecode = True

WORKLOADS = ("compile-tri", "verify-tri", "corpus-accept")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package(root: Path) -> None:
    """Put the checkout's src/ first on the path, or exit with code 2."""
    src = root / "src"
    if not (src / "cpa2relu" / "__init__.py").is_file() \
            or not (root / "corpus").is_dir():
        print(f"pipebench: no cpa2relu source tree under {root}; run from "
              f"the root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


@contextlib.contextmanager
def scratch_dir(root: Path, prefix: str):
    """A private directory under ./.pipebench_tmp, removed afterwards."""
    scratch = root / ".pipebench_tmp"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        print("pipebench: --seconds must be positive", file=sys.stderr)
        return 2
    root = Path.cwd()
    import_package(root)
    import workloads

    with scratch_dir(root, "run-") as workdir:
        run, metrics, _ = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            root, workdir)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
