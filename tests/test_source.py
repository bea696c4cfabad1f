"""Source hygiene: every name a module imports is used in that module; the
package runs on numpy alone (no module imports scipy in any form: its root
finder, interpolant and NNLS are ``pfikit._numerics``, and importing the CLI
loads no scipy module); importing the package or the CLI loads no numpy, and a
command loads only the modules it runs; the package keeps its public names; only
``species.read_text``/``read_json`` read input files; only ``cli._emit`` writes the
CLI's output; every public name has a user outside the tests; every name the
benchmark's tracer patches exists; no library path calls the step the tracer
cannot read; and each upper-case constant is assigned in one module."""

from __future__ import annotations

import ast
import importlib
import importlib.util
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


def _outside(tree: ast.AST, functions) -> list[ast.AST]:
    """The nodes of ``tree`` that no function named in ``functions`` holds."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in functions
              for node in ast.walk(fn)}
    return [node for node in ast.walk(tree) if id(node) not in inside]


def _opens(node: ast.AST) -> str | None:
    """For an ``open`` call, "write" when its literal mode holds w, a or x, else "read";
    None for any other node."""
    if not (isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)) == "open"):
        return None
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return "write" if any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax")
                          for m in modes) else "read"


def _input_reads(source: str) -> list[str]:
    """Lines outside ``read_text``/``read_json`` that read a file themselves: an ``open``
    call without a literal write mode, ``json.load``/``json.loads``, or ``.read_text()``.
    Writers open files with a mode that holds w, a or x."""
    lines = set()
    for node in _outside(ast.parse(source), READERS):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if _opens(node) == "read":
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


def _output_writes(source: str) -> list[str]:
    """Lines outside ``_emit`` that write output themselves: an ``open`` call with a literal
    write mode, any use of ``stdout`` (``sys.stdout``, an imported name), or a ``print``
    without ``file=``, which writes to stdout.  Reports on ``sys.stderr`` are not output."""
    lines = set()
    for node in _outside(ast.parse(source), ("_emit",)):
        if (_opens(node) == "write"
                or isinstance(node, ast.Attribute) and node.attr == "stdout"
                or isinstance(node, ast.Name) and node.id == "stdout"
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
                and not any(k.arg == "file" for k in node.keywords)):
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_cli_writes_output_only_in_emit():
    # one writer sends every command's output, curve CSV included, to stdout or --out
    assert _output_writes((PACKAGE / "cli.py").read_text()) == []


def test_guard_sees_an_output_write():
    source = ("import sys\nfrom sys import stdout\n"
              "def _emit(text, out):\n    if out is None:\n        sys.stdout.write(text)\n"
              "    else:\n        with open(out, 'w', newline='') as fh:\n"
              "            fh.write(text)\n"
              "def cmd(args):\n    print('x', file=sys.stderr)\n    sys.stderr.write('y')\n"
              "    print('z')\n    sys.stdout.write('w')\n    open(args.out, mode='a')\n"
              "    open(args.peaks)\n    stdout.flush()\n")
    assert _output_writes(source) == ["line 12", "line 13", "line 14", "line 16"]


def test_cli_import_loads_no_scipy():
    code = ("import sys, pfikit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def _modules_loaded_by(code: str) -> list[str]:
    """The pfikit and numpy modules a fresh interpreter holds after running ``code``
    (numpy's own submodules folded into ``numpy``)."""
    code = ("import sys\n" + code + "\nprint(sorted({m if m.startswith('pfikit') else 'numpy' for m in sys.modules "
             "if m.split('.')[0] in ('pfikit', 'numpy')}))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True, cwd=ROOT).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_package_and_cli_import_load_no_numpy():
    # each module loads on first use, so start-up pays only for what a command runs; a
    # module-level import of curves, spectrum or numpy in cli.py would bring the cost back
    assert _modules_loaded_by("import pfikit, pfikit.cli") == [
        "pfikit", "pfikit.cli", "pfikit.errors", "pfikit.species", "pfikit.zmodel"]
    assert _modules_loaded_by("import pfikit\nassert pfikit.__all__\n"
                              "assert pfikit.errors is sys.modules['pfikit.errors']") == [
        "pfikit", "pfikit.errors"]
    deconv = _modules_loaded_by("from pfikit.cli import main\nassert main("
                                "['deconv', '--peaks', 'fixtures/si2_overlap_peaks.csv']) == 0")
    assert "pfikit.spectrum" in deconv
    assert not {"pfikit.curves", "pfikit.tunneling"} & set(deconv)
    f50 = _modules_loaded_by("from pfikit.cli import main\n"
                             "assert main(['f50', '--species', 'si']) == 0")
    assert "pfikit.curves" in f50
    assert not {"pfikit.spectrum", "pfikit.pipeline", "pfikit.calibrate"} & set(f50)


# the package's public names; a lazy loader must keep every one
EXPORTS = [
    "AmbiguityError", "Assignment", "BracketError", "CONSTANTS", "ConfigError",
    "ConsistencyFlag", "CrossingGeometry", "CrossoverResult", "CsrEstimate",
    "DeconvolutionResult", "DegenerateMatrixError", "DomainError", "Environment",
    "FLAG_KINDS", "FieldEstimate", "FieldGrid", "FitRangeError", "FitReport", "Isotope",
    "IsotopeTable", "KINGHAM_Z", "KinghamCurve", "NumericalError", "OverlapCase",
    "OverlapMatrix", "OverlapResolution", "Peak", "PfiKitError", "PhysConstants",
    "RangedPeakSet", "ResolutionReport", "ScanPoint", "SpeciesParams", "ZModel",
    "audit_consistency", "build_overlap_matrix", "builtin_species", "calibrate",
    "charge_fractions", "composition_by_element", "compute_csr", "constants",
    "critical_distance", "csr_from_fractions", "csr_to_field", "curves", "deconvolve",
    "errors", "evaluate_csr", "find_f50", "fit_ie", "fit_z_offset", "fractions_at",
    "generate_curve", "geometry", "isotopologue_distribution", "kellogg_field",
    "load_isotopes", "load_pipeline_config", "load_species_file", "load_zmodel",
    "parse_composition", "pfi_step_probability", "pipeline", "primary_counts", "raw_csr",
    "read_curve_csv", "read_peaks_csv", "resolve_overlap", "resolve_species",
    "run_pipeline", "sensitivity_scan", "species", "spectrum", "tunneling",
    "write_curve_csv", "write_peaks_csv", "zmodel",
]


def _defined_names(source: str) -> set[str]:
    """The names a module's top level defines: ``def``, ``class`` and assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_export_is_what_its_module_defines():
    assert pfikit.__all__ == EXPORTS
    defined = {p.stem: _defined_names(p.read_text()) for p in MODULES}
    for name in pfikit.__all__:
        if name in defined:
            assert getattr(pfikit, name) is importlib.import_module(f"pfikit.{name}")
            continue
        homes = [module for module, names in defined.items() if name in names]
        assert len(homes) == 1, (name, homes)
        assert getattr(pfikit, name) is getattr(importlib.import_module(f"pfikit.{homes[0]}"),
                                                name)


def test_star_import_and_dir_reach_every_export():
    namespace = {}
    exec("from pfikit import *", namespace)
    assert {name: namespace[name] for name in pfikit.__all__} == {
        name: getattr(pfikit, name) for name in pfikit.__all__}
    assert set(pfikit.__all__) | {"_numerics", "__version__"} <= set(dir(pfikit))
    assert not {"importlib", "_EXPORTS", "__getattr__"} & set(dir(pfikit))
    assert pfikit._numerics is sys.modules["pfikit._numerics"]
    with pytest.raises(AttributeError, match="no attribute 'fit_anything'"):
        pfikit.fit_anything
    assert not hasattr(pfikit, "cli_main")


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


def _unresolved(wrapped) -> list[str]:
    """``module.attr`` of the ``(module, attr, ...)`` entries that the imported pfikit
    modules lack."""
    return [f"{key}.{attr}" for key, attr, *_ in wrapped
            if not hasattr(importlib.import_module(f"pfikit.{key}"), attr)]


def test_every_traced_name_resolves():
    # perfbench's tracer replaces each WRAPPED name with getattr, so a renamed or deleted
    # one (such as calibrate.find_f50) would otherwise fail only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED and _unresolved(spans.WRAPPED) == []


def test_guard_sees_an_unresolved_traced_name():
    wrapped = (("curves", "find_f50", "curves.f50", None),
               ("calibrate", "f50_of", "curves.f50", None))
    assert _unresolved(wrapped) == ["calibrate.f50_of"]


def _references(source: str, name: str) -> list[str]:
    """Lines that call or reference ``name``, by itself or as an attribute; its ``def`` and
    its import are neither."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == name)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_library_path_calls_the_traced_step(path):
    # perfbench's tracer reads .note and .n_evaluations from what pfi_step_probability
    # returns, now a float: a library call of it would end a traced run in AttributeError
    assert _references(path.read_text(), "pfi_step_probability") == []


def test_guard_sees_a_call_of_the_traced_step():
    source = ("from .tunneling import pfi_step_probability\n"
              "def pfi_step_probability(x):\n    return x\n"
              "p = pfi_step_probability(1)\nq = tunneling.pfi_step_probability(2)\n"
              "f = pfi_step_probability\npfi_step_probability_x = 3\n")
    assert _references(source, "pfi_step_probability") == ["line 4", "line 5", "line 6"]


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _constant_homes(sources: dict[str, str]) -> dict[str, list[str]]:
    """The modules that assign each upper-case module-level name, for the names that more
    than one module assigns; an import is not an assignment."""
    homes = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if CONSTANT.fullmatch(name.id):
                    homes.setdefault(name.id, set()).add(module)
    return {name: sorted(modules) for name, modules in homes.items() if len(modules) > 1}


def test_each_constant_has_one_source():
    # a constant copied into a second module can drift from the first
    assert _constant_homes({p.stem: p.read_text() for p in SOURCES}) == {}


def test_guard_sees_a_constant_in_two_modules():
    sources = {"a": "Z_FLOOR_AU = 0.05\nX, Y = 1, 2\nlower = 1\n",
               "b": "Z_FLOOR_AU: float = 0.05\nY = 3\nlower = 2\ndef f():\n    X = 1\n",
               "c": "from .a import Z_FLOOR_AU\nX_Y = 1\n"}
    assert _constant_homes(sources) == {"Z_FLOOR_AU": ["a", "b"], "Y": ["a", "b"]}
