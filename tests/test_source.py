"""Source-level rules for the package."""
import ast
import importlib
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latticegfun"


def test_no_assert_statements():
    # invariants are explicit raises so that they still run under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_cli_import_loads_no_dataclasses():
    # every CLI process pays for what the package imports; dataclasses drags
    # in inspect, ast, dis and tokenize.  -S keeps site from preloading them.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import latticegfun.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_tracer_sites_resolve():
    # the benchmark's tracer rebinds these module-level names; a renamed or
    # dropped site would otherwise surface only in a traced benchmark run
    layers = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["LAYERS"]
    assert layers
    missing = []
    for layer, (where, _, _) in layers.items():
        for module, attr in where:
            target = getattr(importlib.import_module(f"latticegfun.{module}"), attr, None)
            if not callable(target):
                missing.append(f"{layer}: latticegfun.{module}.{attr}")
    assert not missing, missing


def test_stdlib_only():
    # the package has no runtime dependencies: every absolute import names
    # a standard-library module
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_no_floats_in_src():
    # floats never enter a result: no float or complex literal, no float()
    # or complex() call and no cmath anywhere in the package
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                what = f"literal {node.value!r}"
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex")):
                what = f"{node.func.id}() call"
            elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "cmath" for alias in node.names):
                what = "cmath import"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cmath":
                what = "cmath import"
            else:
                continue
            found.append(f"{path.name}:{node.lineno}: {what}")
    assert not found, found


def _sibling_imports(path):
    """(module, name) for each name a package module imports from another
    one, relative or through ``latticegfun``; ``from . import m`` gives (m, m)."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "latticegfun.")):
            module = (node.module or "").removeprefix("latticegfun.")
            pairs += [(module or alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(alias.name.split(".")[1],) * 2 for alias in node.names
                      if alias.name.startswith("latticegfun.")]
    return pairs


def test_routes_are_sibling_modules():
    # the Todd route shares only the common layers with the face-sum route,
    # and the face-sum layers know neither the Todd route nor G's assembly
    imports = {path.stem: {module for module, _ in _sibling_imports(path)}
               for path in SRC.glob("*.py")}
    assert imports["todd"] <= {"algebra", "cyclotomic", "linalg", "polytope"}, imports["todd"]
    for name in ("wsum", "facepoly"):
        assert not imports[name] & {"todd", "gfun"}, (name, imports[name])


def test_no_private_names_imported_across_modules():
    # a name shared by two modules is public in the one that defines it
    found = [f"{path.name}: {module}.{name}" for path in sorted(SRC.glob("*.py"))
             for module, name in _sibling_imports(path) if name.startswith("_")]
    assert not found, found


def test_exports_resolve():
    # a stale string in __all__ would otherwise fail only on a star import;
    # the symbolic deformed vertex and its dual basis, the cross-polytope
    # self-check, the Euler characteristic and the Fraction alias are the
    # tests' own, the reversed interval poset is the dual_g oracle's, and
    # is_simple is Polytope.simple; the weight type keeps its wsum name
    import latticegfun
    import latticegfun.wsum
    names = latticegfun.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert not [n for n in names if not hasattr(latticegfun, n)]
    removed = {"deformed_vertex", "dual_basis_at_vertex", "cross_polytope_gfun",
               "euler_characteristic", "ExactScalar", "is_simple"}
    assert not removed & set(names)
    assert not hasattr(latticegfun.GradedPoset, "reversed_interval")
    assert latticegfun.wsum.WeightPoly is latticegfun.WeightPoly
    namespace = {}
    exec("from latticegfun import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_readme_library_example_runs():
    # the fenced python block under "## Library", run as written; optimize=0
    # keeps its asserts under python -O
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec", optimize=0), {})
