"""The package computes exactly: no float literal, no float() call and
no tolerance anywhere in src/cpa2relu outside the opt-in float64 mirror
(network's _float_form, _forward_float and the include_float part of
export_network) and the SVG renderer, which also parses render's
--stroke option."""
import ast
from pathlib import Path

import cpa2relu

SRC = Path(cpa2relu.__file__).parent
EXEMPT_FILES = {"render.py"}
EXEMPT_FUNCTIONS = {("network.py", "_float_form"),
                    ("network.py", "_forward_float")}
TOLERANCES = {"isclose", "allclose", "approx"}


def _exempt(module: str, node: ast.AST, func: str | None) -> bool:
    if isinstance(node, ast.FunctionDef):
        return (module, node.name) in EXEMPT_FUNCTIONS
    return (module == "network.py" and func == "export_network"
            and isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "include_float")


def inexact_sites(module: str, source: str) -> list[str]:
    """'line: what' for each float literal, float() call or tolerance
    name in the source, exempt places skipped."""
    found = []

    def visit(node, func):
        if _exempt(module, node, func):
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{node.lineno}: float() call")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in TOLERANCES:
                found.append(f"{node.lineno}: tolerance {name}")
        if isinstance(node, ast.FunctionDef):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_no_float_or_tolerance_outside_the_float_mirror():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name not in EXEMPT_FILES:
            sites = inexact_sites(path.name, path.read_text())
            if sites:
                found[path.name] = sites
    assert not found


def test_the_guard_sees_each_kind_of_inexact_code():
    src = ("import math\n"
           "def f(x):\n"
           "    return math.isclose(x, 0.5) or float(x) < 1e-9\n"
           "def _float_form(net):\n"
           "    return 2.0\n")
    in_model = inexact_sites("model.py", src)
    assert in_model == [
        "3: tolerance isclose", "3: float literal 0.5", "3: float() call",
        "3: float literal 1e-09", "5: float literal 2.0"]
    # the mirror's own helpers are exempt in network.py only
    assert inexact_sites("network.py", src) == in_model[:4]


def test_every_exemption_names_code_that_exists():
    for module, func in EXEMPT_FUNCTIONS:
        tree = ast.parse((SRC / module).read_text())
        assert any(isinstance(n, ast.FunctionDef) and n.name == func
                   for n in ast.walk(tree)), (module, func)
    net_src = (SRC / "network.py").read_text()
    assert "    if include_float:\n" in net_src
    assert (SRC / "render.py").exists()
