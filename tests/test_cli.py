"""End-to-end command-line runs, in process."""
import io
import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from cpa2relu import cli, maxform, model, network
from cpa2relu.decompose import decompose, decomposition_to_json
from cpa2relu.geometry import pt

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "instances"
    assert cli.run(["corpus", "-o", str(d)]) == 0
    return d


def test_corpus_writes_ten_files(corpus_dir):
    assert len(list(corpus_dir.glob("*.json"))) == 10


def test_validate_ok(corpus_dir, capsys):
    rc = cli.run(["validate", str(corpus_dir / "hat.json")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["ok"] is True


def test_validate_broken_instance(tmp_path, corpus_dir, capsys):
    doc = json.loads((corpus_dir / "hat.json").read_text())
    doc["pieces"]["NE"]["affine"] = [-1, -1, 2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = cli.run(["validate", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.out)["ok"] is False


@pytest.mark.parametrize("sub", ["compile", "verify"])
def test_invalid_instance_stops_compile_and_verify(tmp_path, corpus_dir,
                                                   capsys, sub):
    """An instance that parses but fails validate exits 1, in process and
    fresh: one validate: line per failure, then error:, no traceback."""
    doc = json.loads((corpus_dir / "hat.json").read_text())
    doc["pieces"]["NE"]["affine"] = [-1, -1, 2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    net = tmp_path / "bad.net.json"
    argv = {"compile": ["compile", str(bad), "-o", str(net)],
            "verify": ["verify", str(bad), "--samples", "10"]}[sub]
    report = model.validate(model.parse_instance(doc))
    want = [f"validate: {c.name}: {m}" for c in report.checks
            for m in c.failures]
    assert want and not report.ok
    rc = cli.run(argv)
    out, err = capsys.readouterr()
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "cpa2relu", *argv],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert rc == 1 and out == "" and "Traceback" not in err
    assert err.splitlines() == want + [
        f"error: instance {bad} failed validation"]
    assert not net.exists()


def test_compile_eval_round_trip(tmp_path, corpus_dir, capsys):
    net = tmp_path / "ring.net.json"
    assert cli.run(["compile", str(corpus_dir / "ring_bump.json"),
                    "-o", str(net)]) == 0
    assert "27 terms -> network 2/135/81/1" in capsys.readouterr().out

    assert cli.run(["eval", str(net), "--point", "0", "8"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert cli.run(["eval", str(net), "--point", "3", "6/5"]) == 0
    assert capsys.readouterr().out.strip() == "11/5"

    assert cli.run(["eval", str(net), "--point", "0", "8",
                    "--mode", "f64"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0)

    # negative rationals are coordinates, not flags
    assert cli.run(["eval", str(net), "--point", "1/3", "-2/7"]) == 0
    exact = Fraction(capsys.readouterr().out.strip())
    assert cli.run(["eval", str(net), "--point", "1/3", "-2/7",
                    "--mode", "f64"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(
        float(exact))


def test_verify_certifies(corpus_dir, capsys):
    rc = cli.run(["verify", str(corpus_dir / "disconnected_cone.json"),
                  "--samples", "40", "--lemmas"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failures" in out
    assert "certified: yes" in out


def test_verify_against_net_file(tmp_path, corpus_dir, capsys):
    net = tmp_path / "hat.net.json"
    assert cli.run(["compile", str(corpus_dir / "hat.json"),
                    "-o", str(net)]) == 0
    capsys.readouterr()
    rc = cli.run(["verify", str(corpus_dir / "hat.json"),
                  "--net", str(net), "--samples", "30"])
    assert rc == 0
    assert "0 failures" in capsys.readouterr().out


def test_verify_flags_tampered_net(tmp_path, corpus_dir, capsys):
    net = tmp_path / "hat.net.json"
    cli.run(["compile", str(corpus_dir / "hat.json"), "-o", str(net)])
    doc = json.loads(net.read_text())
    doc["layers"][2]["triplets"][0][2] = "7/2"
    net.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.run(["verify", str(corpus_dir / "hat.json"),
                  "--net", str(net), "--samples", "60"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "0 failures" not in out


@pytest.mark.parametrize("h", [(0, 0, 1), (1, -2, 3)],
                         ids=["constant", "non-constant"])
def test_verify_fails_a_wrong_sparsify(corpus_dir, monkeypatch, capsys, h):
    """A sparsify that adds h to every affine leaves a continuous
    instance that every later stage matches; verify still exits 1,
    naming sparsify, the point and both values."""
    real = cli.sparsify
    shift = model.AffineFunc(*map(Fraction, h))

    def wrong(inst, **kw):
        doc = model.serialize_instance(real(inst, **kw))
        for piece in doc["pieces"].values():
            f = model.AffineFunc.from_json(piece["affine"])
            piece["affine"] = (f + shift).to_json()
        return model.parse_instance(doc)

    monkeypatch.setattr(cli, "sparsify", wrong)
    rc = cli.run(["verify", str(corpus_dir / "ring_bump.json"),
                  "--samples", "20"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "0 failures" in out
    lines = [s for s in out.splitlines() if s.startswith("sparsify: at [")]
    assert lines
    for line in lines:
        x, y, want, got = re.fullmatch(
            r"sparsify: at \[(\S+), (\S+)\] the input is (\S+), "
            r"the sparsified instance (\S+)", line).groups()
        assert Fraction(got) - Fraction(want) == shift(pt(x, y))


def test_verify_passes_the_corpus(corpus_dir, capsys):
    for path in sorted(corpus_dir.glob("*.json")):
        rc = cli.run(["verify", str(path), "--samples", "30"])
        out = capsys.readouterr().out
        assert rc == 0, (path.name, out)
        assert "sparsify:" not in out, path.name


@pytest.mark.parametrize("sub", ["eval", "stats", "verify"])
def test_truncated_net_file_is_data_error(tmp_path, corpus_dir, capsys, sub):
    net = tmp_path / "hat.net.json"
    cli.run(["compile", str(corpus_dir / "hat.json"), "-o", str(net)])
    net.write_text(net.read_text()[:100])
    capsys.readouterr()
    argv = {"eval": ["eval", str(net), "--point", "0", "0"],
            "stats": ["stats", str(net), "--pieces", "4"],
            "verify": ["verify", str(corpus_dir / "hat.json"),
                       "--net", str(net), "--samples", "5"]}[sub]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid JSON" in err


# every subcommand that reads a file, with {bad} standing for a file of
# bytes that are not UTF-8 (or any JSON encoding)
READERS = {
    "validate": ["validate", "{bad}"],
    "sparsify": ["sparsify", "{bad}", "-o", "{out}"],
    "decompose": ["decompose", "{bad}", "-o", "{out}"],
    "compile": ["compile", "{bad}", "-o", "{out}"],
    "verify": ["verify", "{bad}", "--samples", "5"],
    "verify --net": ["verify", "{hat}", "--net", "{bad}", "--samples", "5"],
    "eval": ["eval", "{bad}", "--point", "0", "0"],
    "stats": ["stats", "{bad}", "--pieces", "4"],
    "render": ["render", "{bad}", "-o", "{out}"],
}


@pytest.mark.parametrize("sub", sorted(READERS))
def test_non_utf8_file_is_data_error(tmp_path, corpus_dir, capsys, sub):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\x80")
    names = {"bad": bad, "hat": corpus_dir / "hat.json",
             "out": tmp_path / "out"}
    argv = [a.format(**names) for a in READERS[sub]]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid JSON" in err


def test_truncated_instance_file_error_names_it(tmp_path, capsys):
    bad = tmp_path / "cut.json"
    bad.write_text("{")
    assert cli.run(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not valid JSON")
    assert "Traceback" not in err


def test_over_long_integer_error_names_the_file(tmp_path, capsys):
    """json.loads refuses an integer literal over Python's digit limit
    (4300 by default) with a plain ValueError."""
    bad = tmp_path / "long.json"
    bad.write_text('{"vertices": {"v": [' + "1" * 5000 + ", 0]}}")
    assert cli.run(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not valid JSON")
    assert "digits" in err and "Traceback" not in err


def test_float64_range_is_a_data_error(tmp_path, corpus_dir, capsys):
    """A weight or a point beyond float64 range fails the float64 mirror
    with exit 1; the exact path still takes them."""
    plain = tmp_path / "half_plane.net.json"
    assert cli.run(["compile", str(corpus_dir / "half_plane.json"),
                    "-o", str(plain)]) == 0
    doc = json.loads((corpus_dir / "half_plane.json").read_text())
    doc["pieces"]["R"]["affine"] = [10**400, 0, 0]  # continuous across x = 0
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps(doc))
    net = tmp_path / "steep.net.json"
    capsys.readouterr()
    assert cli.run(["compile", str(steep), "-o", str(net),
                    "--float-mirror"]) == 1
    assert not net.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "beyond float64 range" in err
    assert cli.run(["compile", str(steep), "-o", str(net)]) == 0
    assert cli.run(["eval", str(net), "--point", "1", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == str(10**400)
    for path, x in ((net, "1"), (plain, "1e400")):
        assert cli.run(["eval", str(path), "--point", x, "0",
                        "--mode", "f64"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond float64 range" in err


@pytest.mark.parametrize("which", ["input", "net"])
def test_verify_error_names_the_bad_file(tmp_path, corpus_dir, capsys, which):
    """verify reads two files; a broken one is named, not the other."""
    hat = corpus_dir / "hat.json"
    net = tmp_path / "hat.net.json"
    assert cli.run(["compile", str(hat), "-o", str(net)]) == 0
    bad = tmp_path / "cut.json"
    bad.write_text("{")
    good = net if which == "input" else hat
    inp, netf = (bad, net) if which == "input" else (hat, bad)
    capsys.readouterr()
    assert cli.run(["verify", str(inp), "--net", str(netf),
                    "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not valid JSON")
    assert str(good) not in err


def test_written_files_are_indented_sorted_json(tmp_path, corpus_dir,
                                                compiled, capsys):
    """compile (with and without --float-mirror), sparsify and decompose
    write json.dumps(doc, indent=1, sort_keys=True) and a newline, the
    bytes json.dump streams; validate and stats print the same text."""
    def stdlib_text(doc):
        streamed = io.StringIO()
        json.dump(doc, streamed, indent=1, sort_keys=True)
        want = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        assert want == streamed.getvalue() + "\n"
        return want

    for name, (inst, slim, dec, _, net) in compiled.items():
        src = corpus_dir / f"{name}.json"
        docs = {("compile",): network.export_network(net),
                ("compile", "--float-mirror"): network.export_network(
                    net, include_float=True),
                ("sparsify",): model.serialize_instance(slim),
                ("decompose",): decomposition_to_json(dec)}
        for (sub, *flags), doc in docs.items():
            out = tmp_path / f"{name}.{sub}{''.join(flags)}.json"
            assert cli.run([sub, str(src), "-o", str(out), *flags]) == 0
            assert out.read_text() == stdlib_text(doc), (name, sub, flags)
        capsys.readouterr()
        assert cli.run(["validate", str(src)]) == 0
        want = stdlib_text(model.validate(inst).to_json())
        assert capsys.readouterr().out == want, name
        assert cli.run(["stats", str(tmp_path / f"{name}.compile.json"),
                        "--pieces", str(inst.p)]) == 0
        want = stdlib_text(network.stats(net, inst.p))
        assert capsys.readouterr().out == want, name


def test_verify_against_net_file_builds_no_network(tmp_path, corpus_dir,
                                                   monkeypatch, capsys):
    net = tmp_path / "hat.net.json"
    assert cli.run(["compile", str(corpus_dir / "hat.json"),
                    "-o", str(net)]) == 0

    def no_build(terms):
        raise AssertionError("verify --net built a network")

    monkeypatch.setattr(cli, "build_network", no_build)
    capsys.readouterr()
    assert cli.run(["verify", str(corpus_dir / "hat.json"),
                    "--net", str(net), "--samples", "10"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_stats(tmp_path, corpus_dir, capsys):
    net = tmp_path / "strip.net.json"
    cli.run(["compile", str(corpus_dir / "strip.json"), "-o", str(net)])
    capsys.readouterr()
    rc = cli.run(["stats", str(net), "--pieces", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["s1"] == 10 and out["s2"] == 6 and out["bounds_ok"] is True


def test_sparsify_collapses_square_hole(tmp_path, corpus_dir, capsys):
    out_path = tmp_path / "slim.json"
    rc = cli.run(["sparsify", str(corpus_dir / "square_hole.json"),
                  "-o", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["edges"] == {} and len(doc["pieces"]) == 1


def test_decompose_strip(tmp_path, corpus_dir):
    out_path = tmp_path / "dec.json"
    rc = cli.run(["decompose", str(corpus_dir / "strip.json"),
                  "-o", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["tail"] == [-1, 0, 0]
    assert len(doc["edge_pairs"]) == 2 and doc["fans"] == []


def test_render_svg_structure(tmp_path, corpus_dir):
    out_path = tmp_path / "dc.svg"
    rc = cli.run(["render", str(corpus_dir / "disconnected_cone.json"),
                  "-o", str(out_path)])
    assert rc == 0
    root = ET.fromstring(out_path.read_text())
    assert root.tag == f"{SVG_NS}svg"
    paths = root.findall(f".//{SVG_NS}path")
    labels = root.findall(f".//{SVG_NS}text")
    assert len(paths) == 9      # one per edge
    assert len(labels) == 6     # one per piece, at its witness
    dashed = [p for p in paths if p.get("stroke-dasharray")]
    assert len(dashed) == 3     # the three clipped rays

    # a viewport with negative rational corners parses as coordinates
    assert cli.run(["render", str(corpus_dir / "disconnected_cone.json"),
                    "-o", str(out_path), "--viewport", "-7/2", "-3", "4",
                    "5/2"]) == 0
    assert ET.fromstring(out_path.read_text()).tag == f"{SVG_NS}svg"


def test_missing_input_is_usage_error(tmp_path, capsys):
    rc = cli.run(["validate", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(tmp_path, corpus_dir, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert cli.run(["compile", str(corpus_dir / "hat.json"),
                    "-o", str(out)]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_directory_input_is_usage_error(corpus_dir, capsys):
    assert cli.run(["validate", str(corpus_dir)]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_corpus_onto_a_file_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.run(["corpus", "-o", str(taken)]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_bad_arguments_are_usage_errors(corpus_dir, capsys):
    assert cli.run(["frobnicate"]) == 2
    assert cli.run(["eval", str(corpus_dir / "hat.json")]) == 2  # no --point
    assert cli.run(["verify", str(corpus_dir / "hat.json"),
                    "--samples", "-5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("stroke", ["nan", "inf", "0", "-1"])
def test_stroke_must_be_positive_and_finite(tmp_path, corpus_dir, capsys,
                                            stroke):
    out = tmp_path / "hat.svg"
    assert cli.run(["render", str(corpus_dir / "hat.json"), "-o", str(out),
                    "--stroke", stroke]) == 2
    assert "--stroke" in capsys.readouterr().err
    assert not out.exists()


def test_verify_of_no_samples_is_a_usage_error(corpus_dir, capsys):
    """Zero samples certify nothing: a usage error, not a failed check."""
    rc = cli.run(["verify", str(corpus_dir / "hat.json"), "--samples", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--samples" in captured.err and "certified" not in captured.out


def test_bad_rationals_are_usage_errors(tmp_path, corpus_dir, capsys):
    hat = str(corpus_dir / "hat.json")
    net = str(tmp_path / "net.json")
    assert cli.run(["compile", hat, "-o", net]) == 0
    assert cli.run(["eval", net, "--point", "1/0", "0"]) == 2
    assert cli.run(["eval", net, "--point", "x", "0"]) == 2
    assert cli.run(["render", hat, "-o", str(tmp_path / "hat.svg"),
                    "--viewport", "0", "0", "1/0", "1"]) == 2
    assert cli.run(["render", hat, "-o", str(tmp_path / "hat.svg"),
                    "--viewport", "0", "0", "one", "1"]) == 2
    assert "1/0" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_unparseable_instance_is_data_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{\"vertices\": {}}")
    rc = cli.run(["validate", str(bad)])
    assert rc == 1
    capsys.readouterr()


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every `$ cpa2relu ...` line of the README's CLI block exits 0, in
    order, in a scratch directory (corpus/ paths read the checkout)."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = [shlex.split(line[len("$ cpa2relu "):])
                for line in block.splitlines()
                if line.startswith("$ cpa2relu ")]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(root / a) if a.startswith("corpus/") else a for a in argv]
        assert cli.run(argv) == 0, argv
        capsys.readouterr()


def test_readme_library_example_runs(capsys):
    """The README's ```python Library block runs as written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python", 1)[1]
    code = code.split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "bounds_ok" in capsys.readouterr().out


def test_seed_is_only_a_verify_and_corpus_flag(corpus_dir, capsys):
    hat = str(corpus_dir / "hat.json")
    for argv in (["validate", hat], ["compile", hat, "-o", "net.json"]):
        assert cli.run(argv + ["--seed", "3"]) == 2
    capsys.readouterr()


def test_verify_reports_an_explicit_seed(corpus_dir, capsys):
    rc = cli.run(["verify", str(corpus_dir / "hat.json"), "--samples", "20",
                  "--seed", "5"])
    assert rc == 0
    assert "seed: 5  certified: yes" in capsys.readouterr().out


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "c"
    assert cli.run(["corpus", "-o", str(out), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_one_process_runs_many_calls_like_fresh_ones(tmp_path, corpus_dir,
                                                     capsys, monkeypatch):
    """The parser is built once per process; no call leaves state that
    changes the exit code or output of a later one."""
    hat = str(corpus_dir / "hat.json")
    net = tmp_path / "hat.net.json"
    assert cli.run(["compile", hat, "-o", str(net)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\x80")
    calls = [
        (["verify", hat, "--samples", "0"], 2),
        (["eval", str(net)], 2),
        (["eval", str(net), "--point", "-1/2", "3"], 0),
        (["compile", hat, "-o", str(tmp_path / "again.net.json")], 0),
        (["validate", str(bad)], 1),
    ]
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    capsys.readouterr()
    for argv, code in calls:
        rc = cli.run(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "cpa2relu", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout,
                                  fresh.stderr), argv
        assert rc == code, argv


def test_the_package_imports_only_the_standard_library():
    """The package has no runtime dependency: importing every one of its
    modules in a fresh interpreter loads no top-level module outside the
    standard library, besides those the bare interpreter already holds
    (site .pth files can preload some, such as _distutils_hack)."""
    pkg = Path(cli.__file__).resolve().parent
    names = sorted(f"cpa2relu.{p.stem}" for p in pkg.glob("*.py"))
    code = ("import sys\n"
            "bare = {m.split('.')[0] for m in sys.modules}\n"
            "import importlib, json\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "top = {m.split('.')[0] for m in sys.modules}\n"
            "print(json.dumps(sorted(top - bare)))\n")
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert "cpa2relu" in loaded
    assert [m for m in loaded
            if m != "cpa2relu" and m not in sys.stdlib_module_names] == []
