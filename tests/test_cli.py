"""End-to-end command-line runs, in process."""
import json
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from cpa2relu import cli

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


def test_missing_input_is_usage_error(tmp_path, capsys):
    rc = cli.run(["validate", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_bad_arguments_are_usage_errors(corpus_dir, capsys):
    assert cli.run(["frobnicate"]) == 2
    assert cli.run(["eval", str(corpus_dir / "hat.json")]) == 2  # no --point
    assert cli.run(["verify", str(corpus_dir / "hat.json"),
                    "--samples", "-5"]) == 2
    capsys.readouterr()


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
