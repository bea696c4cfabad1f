"""Source hygiene: every name a module imports is used in that module; the
package runs on numpy alone (no module imports scipy in any form: its root
finder, interpolant and NNLS are ``pfikit._numerics``, and importing the CLI
loads no scipy module); only ``species.read_text``/``read_json`` read input files; and
every public name has a user outside the tests."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import pfikit

PACKAGE = pathlib.Path(pfikit.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # a Name in Store context (e.g. a dataclass field called ``field``) is
    # not a use
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}"
            for line, name in sorted((line, name) for name, line in imported.items())
            if name not in used]


def _imports_from(source: str, package: str) -> list[str]:
    """Lines that import ``package`` or anything inside it, by statement or by a
    ``__import__``/``import_module`` call on a literal name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            modules = [node.args[0].value]
        else:
            continue
        if any(m == package or m.startswith(package + ".") for m in modules):
            lines.append(f"line {node.lineno}")
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_scipy_integrate(path):
    # named for the scipy.integrate check it started as; it now rejects every scipy import
    assert _imports_from(path.read_text(), "scipy") == []


def _vectorize_calls(source: str) -> list[str]:
    """Lines that use ``vectorize`` (``np.vectorize``, ``numpy.vectorize`` or an imported name)."""
    return [f"line {line}" for line in sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "vectorize"
        or isinstance(node, ast.Name) and node.id == "vectorize"
        or isinstance(node, ast.alias) and node.name == "vectorize"})]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_np_vectorize(path):
    # the step kernel works on arrays; a per-point Python loop in disguise does not belong
    assert _vectorize_calls(path.read_text()) == []


def test_guard_sees_vectorize():
    source = ("import numpy as np\nf = np.vectorize(abs)\nfrom numpy import vectorize\n"
              "g = vectorize(abs)\nnp.vectorized = 1\n")
    assert _vectorize_calls(source) == ["line 2", "line 3", "line 4"]


READERS = ("read_text", "read_json")


def _input_reads(source: str) -> list[str]:
    """Lines outside ``read_text``/``read_json`` that read a file themselves: an ``open``
    call without a literal write mode, ``json.load``/``json.loads``, or ``.read_text()``.
    Writers open files with a mode that holds w, a or x."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in READERS
              for node in ast.walk(fn)}
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" or (
                isinstance(func, ast.Attribute) and func.attr == "open"):
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax")
                       for m in modes):
                lines.add(node.lineno)
        elif isinstance(func, ast.Attribute) and (
                func.attr in ("load", "loads") and getattr(func.value, "id", None) == "json"
                or func.attr == "read_text"):
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_read_text_reads_input_files(path):
    # one place turns a file that cannot be opened, decoded or parsed into exit 2
    assert _input_reads(path.read_text()) == []


def test_guard_sees_an_input_read():
    source = ("import json\nfrom pathlib import Path\n"
              "def read_text(path):\n    with open(path) as fh:\n        return fh.read()\n"
              "def load(path):\n    with open(path, newline='') as fh:\n        json.load(fh)\n"
              "    json.loads(Path(path).read_text())\n    Path(path).open('r')\n"
              "def write(path):\n    with open(path, 'w', newline='') as fh:\n        pass\n"
              "    open(path, mode='a')\n    read_text(path)\n")
    assert _input_reads(source) == ["line 7", "line 8", "line 9", "line 10"]


def test_cli_import_loads_no_scipy():
    code = ("import sys, pfikit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_guard_sees_an_unused_import():
    source = "import math\nimport os\nfrom x import field\nfield: int = 1\nos.getcwd()\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: field"]


def test_guard_sees_scipy_integrate():
    source = ("import scipy.integrate\nfrom scipy import integrate, optimize\n"
              "from scipy.integrate import quad\nimport scipy.optimize\n"
              "from scipy.integrated_thing import x\n")
    assert _imports_from(source, "scipy.integrate") == ["line 1", "line 2", "line 3"]


def test_guard_sees_any_scipy_import():
    source = ("import numpy as np\nfrom numpy.polynomial.legendre import leggauss\n"
              "import scipy\nfrom scipy.optimize import brentq\nimport scipyx\n"
              "from scipy import optimize\nimportlib.import_module('scipy.optimize')\n"
              "__import__('scipy')\nimportlib.import_module('scipyx')\n")
    assert _imports_from(source, "scipy") == ["line 3", "line 4", "line 6", "line 7",
                                              "line 8"]


ROOT = pathlib.Path(__file__).resolve().parent.parent
# the code that runs: the package's own modules, the scripts, the benchmark and the
# fixture generator; tests do not count as users of a public name
USERS = MODULES + sorted(p for d in ("scripts", "perfbench", "fixtures")
                         for p in (ROOT / d).rglob("*.py"))


def _unreferenced(names, sources: list[str]) -> list[str]:
    """Names that no line of ``sources`` mentions as a word, apart from the unindented
    line that defines them (``def``, ``class`` or an assignment)."""
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"(?:def|class) {re.escape(name)}\b|{re.escape(name)}\s*[:=]")
        if not any(word.search(line) and not definition.match(line)
                   for source in sources for line in source.splitlines()):
            unused.append(name)
    return unused


def test_every_export_has_a_user_outside_the_tests():
    # a public name that only tests reach is surface to delete, not to keep
    sources = [p.read_text() for p in USERS]
    assert _unreferenced(pfikit.__all__, sources) == []


def test_guard_sees_an_export_without_a_user():
    sources = ["def used(x):\n    return x\n\n\ndef unused():\n    return used(1)\n",
               "unused_too = 2\nx = unused_too_long\nfrom pkg import used\n"]
    assert _unreferenced(["used", "unused", "unused_too"], sources) == ["unused",
                                                                        "unused_too"]
